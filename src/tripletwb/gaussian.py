"""Multimode Gaussian model of the triple twin beam.

Three Mandel-Rice pair components share the signal axis (a pair photon
always appears on both the signal and its idler axis), and four independent
Mandel-Rice noise components are convolved on top, one per axis. The 14
scalar parameters are the (M, B) of the seven components.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import gammaln

from . import fock
from .errors import DataError, ParameterError
from .fock import AXIS_ORDER, JointDistribution, check_tail

PARAM_KEYS = ("pair_1", "pair_2", "pair_3", "noise_s", "noise_i1", "noise_i2", "noise_i3")

DEFAULT_SIGNAL_CUTOFF = 32
DEFAULT_IDLER_CUTOFF = 20


@dataclass(frozen=True)
class MandelRiceComponent:
    """Multimode thermal component with M modes and B mean photons per mode."""

    M: float
    B: float

    def __post_init__(self):
        if not (self.M > 0):
            raise ParameterError(f"mode count M must be > 0, got {self.M}")
        if self.B < 0:
            raise ParameterError(f"mean photons per mode B must be >= 0, got {self.B}")

    @property
    def mean(self) -> float:
        return self.M * self.B

    @property
    def variance(self) -> float:
        return self.M * self.B * (1.0 + self.B)


@dataclass(frozen=True)
class TripleTwbParams:
    """The 14 field parameters: three pair components and four noise components."""

    pair_1: MandelRiceComponent
    pair_2: MandelRiceComponent
    pair_3: MandelRiceComponent
    noise_s: MandelRiceComponent
    noise_i1: MandelRiceComponent
    noise_i2: MandelRiceComponent
    noise_i3: MandelRiceComponent

    @property
    def pairs(self) -> tuple[MandelRiceComponent, ...]:
        return (self.pair_1, self.pair_2, self.pair_3)

    @property
    def noises(self) -> tuple[MandelRiceComponent, ...]:
        """Noise components in axis order (s, i1, i2, i3)."""
        return (self.noise_s, self.noise_i1, self.noise_i2, self.noise_i3)

    def axis_mean(self, label: str) -> float:
        if label == "s":
            return sum(p.mean for p in self.pairs) + self.noise_s.mean
        j = ("i1", "i2", "i3").index(label)
        return self.pairs[j].mean + self.noises[j + 1].mean

    def to_dict(self) -> dict:
        return {k: {"M": getattr(self, k).M, "B": getattr(self, k).B} for k in PARAM_KEYS}

    @classmethod
    def from_dict(cls, data: dict) -> "TripleTwbParams":
        missing = [k for k in PARAM_KEYS if k not in data]
        if missing:
            raise DataError(f"parameter file missing keys {missing}")
        comps = {k: MandelRiceComponent(float(data[k]["M"]), float(data[k]["B"]))
                 for k in PARAM_KEYS}
        return cls(**comps)

    @classmethod
    def from_json(cls, path: str | Path) -> "TripleTwbParams":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


#: Fitted field parameters shipped as the "paper-table-2" preset.
PAPER_TABLE_2 = TripleTwbParams(
    pair_1=MandelRiceComponent(M=552.0, B=0.00475),
    pair_2=MandelRiceComponent(M=29.9, B=0.0910),
    pair_3=MandelRiceComponent(M=51.5, B=0.0524),
    noise_s=MandelRiceComponent(M=0.00779, B=9.04),
    noise_i1=MandelRiceComponent(M=0.0274, B=3.28),
    noise_i2=MandelRiceComponent(M=6.33e-5, B=402.0),
    noise_i3=MandelRiceComponent(M=0.00225, B=10.9),
)

#: Published mean photon numbers of the seven components, in PARAM_KEYS order.
PAPER_TABLE_2_MEANS = (2.62, 2.71, 2.70, 0.070, 0.089, 0.00025, 0.024)


def mandel_rice_pmf(n, component: MandelRiceComponent) -> np.ndarray | float:
    """Mandel-Rice pmf Gamma(n+M)/(n! Gamma(M)) B^n / (1+B)^(n+M), in log space."""
    c = component
    narr = np.asarray(n, dtype=np.float64)
    if np.any(narr < 0):
        raise ParameterError("occupation number must be >= 0")
    if c.B == 0.0:
        out = np.where(narr == 0, 1.0, 0.0)
        return float(out) if np.isscalar(n) else out
    logp = (gammaln(narr + c.M) - gammaln(narr + 1.0) - gammaln(c.M)
            + narr * np.log(c.B) - (narr + c.M) * np.log1p(c.B))
    out = np.exp(logp)
    return float(out) if np.isscalar(n) else out


def mandel_rice_vector(n_max: int, component: MandelRiceComponent) -> np.ndarray:
    return mandel_rice_pmf(np.arange(n_max + 1), component)


@dataclass(frozen=True)
class GaussianFieldModel:
    """Parameter set plus the truncation box used to tabulate it."""

    params: TripleTwbParams
    signal_cutoff: int = DEFAULT_SIGNAL_CUTOFF
    idler_cutoffs: tuple[int, int, int] = (DEFAULT_IDLER_CUTOFF,) * 3
    tail_tol: float = fock.TAIL_TOL

    def distribution(self) -> JointDistribution:
        paired = paired_part(self.params, self.signal_cutoff, self.idler_cutoffs,
                             tail_tol=self.tail_tol)
        return compose_with_noise(paired, self.params, tail_tol=self.tail_tol)


def paired_part(params: TripleTwbParams,
                signal_cutoff: int = DEFAULT_SIGNAL_CUTOFF,
                idler_cutoffs: tuple[int, int, int] = (DEFAULT_IDLER_CUTOFF,) * 3,
                tail_tol: float = fock.TAIL_TOL) -> JointDistribution:
    """Paired 4D distribution, supported on n_s = n_i1 + n_i2 + n_i3.

    Each pair component contributes identical photon numbers on the signal
    and its idler axis, so the joint table is the outer product of the three
    idler Mandel-Rice pmfs placed on the pairing hyperplane.
    """
    c1, c2, c3 = idler_cutoffs
    p1 = mandel_rice_vector(c1, params.pair_1)
    p2 = mandel_rice_vector(c2, params.pair_2)
    p3 = mandel_rice_vector(c3, params.pair_3)
    outer = p1[:, None, None] * p2[None, :, None] * p3[None, None, :]
    vals = np.zeros((signal_cutoff + 1, c1 + 1, c2 + 1, c3 + 1))
    n1, n2, n3 = np.indices(outer.shape)
    total = n1 + n2 + n3
    inside = total <= signal_cutoff
    vals[total[inside], n1[inside], n2[inside], n3[inside]] = outer[inside]
    check_tail(1.0 - vals.sum(), tail_tol, "paired part")
    return JointDistribution(vals, AXIS_ORDER)


def compose_with_noise(paired: JointDistribution, params: TripleTwbParams,
                       tail_tol: float = fock.TAIL_TOL) -> JointDistribution:
    """Convolve independent Mandel-Rice noise onto each axis of the paired part."""
    convs = []
    for size, comp in zip(paired.values.shape, params.noises):
        pmf = mandel_rice_vector(size - 1, comp)
        # lower-triangular Toeplitz: conv[n, l] = pmf[n - l]; B = 0 gives the identity
        idx = np.arange(size)
        diff = idx[:, None] - idx[None, :]
        convs.append(np.where(diff >= 0, pmf[np.clip(diff, 0, size - 1)], 0.0))
    vals = fock.contract(paired.values, convs)
    mass = vals.sum()
    check_tail(1.0 - mass, tail_tol, "composed model")
    return JointDistribution(vals / mass, paired.axis_labels, normalized=True)


def model_moments(params: TripleTwbParams) -> dict:
    """Closed-form first and second photon-number moments.

    Axis variances add the M B (1+B) of every component on that axis;
    the only nonzero covariances are cov(n_s, n_ij) = M_pj B_pj (1+B_pj)
    through the shared pair components.
    """
    labels = AXIS_ORDER
    means = {l: params.axis_mean(l) for l in labels}
    var = {
        "s": sum(p.variance for p in params.pairs) + params.noise_s.variance,
        "i1": params.pair_1.variance + params.noise_i1.variance,
        "i2": params.pair_2.variance + params.noise_i2.variance,
        "i3": params.pair_3.variance + params.noise_i3.variance,
    }
    cov = {(a, b): 0.0 for a in labels for b in labels}
    for l in labels:
        cov[(l, l)] = var[l]
    for j, l in enumerate(("i1", "i2", "i3")):
        cov[("s", l)] = cov[(l, "s")] = params.pairs[j].variance
    return {"mean": means, "cov": cov}


def sample_photon_numbers(params: TripleTwbParams, trials: int, seed: int) -> np.ndarray:
    """Draw i.i.d. (n_s, n_i1, n_i2, n_i3) samples; deterministic per seed.

    Mandel-Rice variates are drawn as Gamma(M, B)-mixed Poissons, which is
    exact for non-integer M. Returns an int64 array of shape (trials, 4).
    """
    if trials <= 0:
        raise DataError("trials must be > 0")
    rng = np.random.default_rng(seed)

    def draw(comp: MandelRiceComponent) -> np.ndarray:
        if comp.B == 0.0:
            return np.zeros(trials, dtype=np.int64)
        lam = rng.gamma(comp.M, comp.B, size=trials)
        return rng.poisson(lam).astype(np.int64)

    pair_counts = [draw(p) for p in params.pairs]
    noise = [draw(c) for c in params.noises]
    out = np.empty((trials, 4), dtype=np.int64)
    out[:, 0] = pair_counts[0] + pair_counts[1] + pair_counts[2] + noise[0]
    for j in range(3):
        out[:, j + 1] = pair_counts[j] + noise[j + 1]
    return out
