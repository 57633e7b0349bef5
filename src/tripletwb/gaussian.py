"""Multimode Gaussian model of the triple twin beam.

Three Mandel-Rice pair components share the signal axis (a pair photon
always appears on both the signal and its idler axis), and four independent
Mandel-Rice noise components are convolved on top, one per axis. The 14
scalar parameters are the (M, B) of the seven components.

On a truncation box the model table is

    M(t, m_1, m_2, m_3) = sum_k N_s(t - K) prod_j p_j(k_j) N_j(m_j - k_j),

with p_j the pair pmfs, N the noise pmfs and K = k_1 + k_2 + k_3 the pair
photons on the signal axis. :meth:`GaussianFieldModel.distribution` sums it
as three nested signal-axis convolutions, one idler at a time.
``tests/oracles.py`` builds the same table the long way, as the tests'
reference: the paired table on the hyperplane t = K (``paired_part``), then
one Toeplitz convolution per axis (``compose_with_noise``).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

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
        if not (math.isfinite(self.M) and self.M > 0):
            raise ParameterError(f"mode count M must be finite and > 0, got {self.M}")
        if not (math.isfinite(self.B) and self.B >= 0):
            raise ParameterError(f"mean photons per mode B must be finite and >= 0, got {self.B}")

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
        """Parameters from ``{key: {"M": number, "B": number}}``; a bool, a
        string or another non-number is a ParameterError naming its entry."""
        missing = [k for k in PARAM_KEYS if k not in data]
        if missing:
            raise DataError(f"parameter file missing keys {missing}")

        def number(key: str, name: str) -> float:
            value = data[key][name]
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ParameterError(f"{key}: {name} must be a number, got {value!r}")
            return float(value)

        return cls(**{k: MandelRiceComponent(number(k, "M"), number(k, "B"))
                      for k in PARAM_KEYS})


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


def mandel_rice_table(rows: int, M, B: float) -> np.ndarray:
    """T[k, i] = MR(M[i], B)(k) = Gamma(k+M)/(k! Gamma(M)) B^k / (1+B)^(k+M), k < rows.

    Each column starts at (1+B)^-M and runs by the term ratios
    (k+M) B / ((k+1)(1+B)) (``fock.law_table``).
    """
    M = np.atleast_1d(np.asarray(M, dtype=np.float64))
    k = np.arange(rows - 1, dtype=np.float64)[:, None]
    log_start = -M * math.log1p(B)
    return fock.law_table(np.exp(log_start), log_start, (k + M) * B / ((k + 1.0) * (1.0 + B)))


def mandel_rice_vector(n_max: int, component: MandelRiceComponent) -> np.ndarray:
    return mandel_rice_table(n_max + 1, component.M, component.B)[:, 0]


def mandel_rice_pmf(n, component: MandelRiceComponent) -> np.ndarray | float:
    """Mandel-Rice pmf Gamma(n+M)/(n! Gamma(M)) B^n / (1+B)^(n+M) at integers n >= 0."""
    k = np.asarray(n).astype(np.int64)
    if np.any(k < 0) or np.any(k != np.asarray(n)):
        raise ParameterError("occupation number must be an integer >= 0")
    out = mandel_rice_vector(int(k.max(initial=0)), component)[k]
    return float(out) if np.isscalar(n) else out


@dataclass(frozen=True)
class GaussianFieldModel:
    """Parameter set plus the truncation box used to tabulate it."""

    params: TripleTwbParams
    signal_cutoff: int = DEFAULT_SIGNAL_CUTOFF
    idler_cutoffs: tuple[int, int, int] = (DEFAULT_IDLER_CUTOFF,) * 3
    tail_tol: float = fock.TAIL_TOL

    def distribution(self) -> JointDistribution:
        """The composed 4D table on the truncation box, normalized.

        With p_j the pair pmfs, N_s and N_j the noise pmfs and
        A_j(k, m) = p_j(k) N_j(m - k), the table is

            M(t, m_1, m_2, m_3) = sum_k N_s(t - K) prod_j A_j(k_j, m_j),

        K = k_1 + k_2 + k_3, over K <= t <= signal cutoff and
        k_j <= m_j <= idler cutoff: the terms that the oracle route in
        ``tests/oracles.py`` sums (``paired_part``, then
        ``compose_with_noise``). The sum is nested one idler at a time, each
        step a convolution along the signal axis:

            G_3(t, m_3) = sum_k A_3(k, m_3) N_s(t - k)
            G_2(t, m_2, m_3) = sum_k A_2(k, m_2) G_3(t - k, m_3)
            M(t, m_1, m_2, m_3) = sum_k A_1(k, m_1) G_2(t - k, m_2, m_3)

        Each step is one GEMM ``B_j @ G`` with B_j[(t, m), u] = A_j(t - u, m),
        of shape (s + 1)(c + 1) x (s + 1); the last one writes the C-ordered
        table in rows of (c_2 + 1)(c_3 + 1). No paired table is built. The
        paired part's tail check reads the pair mass with K <= s from two
        ``np.convolve`` calls. The composed mass is the column sums of B_1
        against the row sums of G_2, taken before the last GEMM; it gets
        the "composed model" tail check, and the last GEMM multiplies by
        B_1 / mass, so the table is written once, already normalized.
        """
        s_cut = self.signal_cutoff
        pairs = [mandel_rice_vector(c, comp)
                 for c, comp in zip(self.idler_cutoffs, self.params.pairs)]
        paired_mass = np.convolve(np.convolve(pairs[0], pairs[1]), pairs[2])[: s_cut + 1].sum()
        check_tail(1.0 - paired_mass, self.tail_tol, "paired part")
        steps = [_signal_shift_matrix(pair, mandel_rice_vector(c, noise), s_cut)
                 for c, pair, noise in zip(self.idler_cutoffs, pairs, self.params.noises[1:])]
        g = mandel_rice_vector(s_cut, self.params.noise_s)
        for b in reversed(steps[1:]):
            g = b @ g.reshape(s_cut + 1, -1)
        g = g.reshape(s_cut + 1, -1)
        mass = steps[0].sum(axis=0) @ g.sum(axis=1)
        check_tail(1.0 - mass, self.tail_tol, "composed model")
        vals = np.empty((s_cut + 1,) + tuple(c + 1 for c in self.idler_cutoffs))
        np.matmul(steps[0] / mass, g, out=vals.reshape(steps[0].shape[0], -1))
        return JointDistribution(vals, AXIS_ORDER, normalized=True)


def _signal_shift_matrix(pair: np.ndarray, noise: np.ndarray, signal_cutoff: int) -> np.ndarray:
    """B[(t, m), u] = A(t - u, m) with A(k, m) = pair[k] noise[m - k], zero off k <= m.

    One idler's step of the nested model sum: ``B @ G`` convolves G along
    the signal axis u with the pairs of k photons (k <= t - u) and spreads
    each over the idler values m >= k with the idler noise.
    """
    # a[k, m] = A(k, m); rows k > s are never read (pairs that cannot fit
    # under the signal cutoff), and the zero last row serves every t < u
    a = np.zeros((max(pair.size, signal_cutoff + 1) + 1, pair.size))
    a[:pair.size] = fock.shifted_columns(noise[:, None] * pair, pair.size).T
    t = np.arange(signal_cutoff + 1)
    b = a[np.where(t[:, None] >= t, t[:, None] - t, -1)]  # [t, u, m]
    return b.transpose(0, 2, 1).reshape(-1, signal_cutoff + 1)


#: bound on a component's Gamma draw, the mean photon number it gives a
#: frame. The frame table is int32: the signal column sums four Poisson
#: draws (three pairs and the signal noise), and a draw of mean below 2**28
#: reaches 2**29 only 2**14 standard deviations above its mean, so the sum
#: stays below 2**31. A bound of the table's dtype, not of the memory the
#: click sampler needs per photon.
_MAX_FRAME_MEAN = 2.0**28

#: the columns of (n_s, n_i1, n_i2, n_i3) each component adds to, in
#: PARAM_KEYS order: a pair to the signal and its idler, a noise component
#: to its own axis
_COLUMNS = ((0, 1), (0, 2), (0, 3), (0,), (1,), (2,), (3,))


def sample_photon_numbers(params: TripleTwbParams, trials: int, seed: int) -> np.ndarray:
    """Draw i.i.d. (n_s, n_i1, n_i2, n_i3) samples; deterministic per seed.

    Mandel-Rice variates are drawn as Gamma(M, B)-mixed Poissons, which is
    exact for non-integer M. Returns an int32 array of shape (trials, 4),
    the one frame-sized table, 16 bytes a frame: each component's Gamma
    draw covers all frames, then its Poisson draws run in chunks of
    ``fock.FRAME_CHUNK`` frames, each added straight into the component's
    int32 columns. Chunks consume the generator's stream as one draw
    would, so the samples do not depend on the chunk size, and they are
    the values an int64 table of the same draws holds. A component whose
    Gamma draw reaches 2**28 photons (``_MAX_FRAME_MEAN``) is a
    ParameterError naming it, raised before its Poisson draws.
    """
    if trials <= 0:
        raise DataError("trials must be > 0")
    rng = np.random.default_rng(seed)
    out = np.zeros((trials, 4), dtype=np.int32)
    step = fock.FRAME_CHUNK
    for name, columns in zip(PARAM_KEYS, _COLUMNS):
        comp = getattr(params, name)
        if comp.B == 0.0:
            continue
        lam = rng.gamma(comp.M, comp.B, size=trials)
        if not lam.max() < _MAX_FRAME_MEAN:
            raise ParameterError(f"{name}: M = {comp.M:g}, B = {comp.B:g} draw a frame "
                                 f"mean of {lam.max():.3g} photons, above 2**28")
        for lo in range(0, trials, step):
            n = rng.poisson(lam[lo: lo + step])
            for c in columns:
                out[lo: lo + step, c] += n
        # freed before the next component's Gamma draw is allocated
        del lam
    return out
