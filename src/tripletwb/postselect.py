"""Scalar statistics of post-selected three-beam idler fields.

Post-selection conditions the idler statistics either on the true signal
photon number n_s (ideal detector) or on the detected signal click number
c_s (real detector, via the signal detection matrix).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fock
from .detector import DetectionMatrix
from .emrec import EmResult, EmSettings, derive_photocount_conditional, em_reconstruct_conditional
from .errors import DataError
from .fock import Histogram, JointDistribution, condition, marginalize, normalize, slice_mass

#: Slices holding less than this fraction of the total mass are reported as
#: gaps; they carry only sampling noise.
MASS_FLOOR = 1e-6


def _axis_moments(d: JointDistribution, axis: str) -> tuple[float, float]:
    marg = marginalize(d, [axis]).values
    n = np.arange(marg.size)
    mean = float(np.dot(n, marg))
    var = float(np.dot((n - mean) ** 2, marg))
    return mean, var


def fano(d: JointDistribution, axis: str) -> float:
    """Variance-to-mean ratio of the axis marginal; < 1 is sub-Poissonian."""
    mean, var = _axis_moments(d, axis)
    if mean <= 0.0:
        raise DataError(f"undefined Fano: axis {axis} has zero mean")
    return var / mean

def corr_fluct(d: JointDistribution, axis_j: str, axis_k: str) -> float:
    """Pearson correlation of the photon-number fluctuations of two axes."""
    mj, vj = _axis_moments(d, axis_j)
    mk, vk = _axis_moments(d, axis_k)
    if vj <= 0.0 or vk <= 0.0:
        raise DataError("correlation undefined for a zero-variance axis")
    pair = marginalize(d, [axis_j, axis_k]).values
    nj = np.arange(pair.shape[0], dtype=np.float64)
    nk = np.arange(pair.shape[1], dtype=np.float64)
    cov = float(nj @ pair @ nk) - mj * mk
    return cov / np.sqrt(vj * vk)


@dataclass(frozen=True)
class SweepRow:
    selector: int
    mass: float
    mean: tuple[float, float, float]
    fano: tuple[float, float, float]
    corr: tuple[float, float, float]  # (i1i2, i1i3, i2i3)


@dataclass(frozen=True)
class PostselectSweep:
    """Per-selector-value statistics of the conditioned idler field."""

    selector_kind: str  # "n_s" or "c_s"
    rows: tuple[SweepRow, ...]
    gaps: tuple[int, ...] = ()
    #: per reconstructed slice: selector, EM iterations, final residual, converged
    em: tuple[dict, ...] = ()

    def column(self, name: str) -> np.ndarray:
        idx = {"mean_i1": ("mean", 0), "mean_i2": ("mean", 1), "mean_i3": ("mean", 2),
               "fano_i1": ("fano", 0), "fano_i2": ("fano", 1), "fano_i3": ("fano", 2),
               "corr_12": ("corr", 0), "corr_13": ("corr", 1), "corr_23": ("corr", 2)}
        if name == "selector":
            return np.array([r.selector for r in self.rows])
        if name == "slice_mass":
            return np.array([r.mass for r in self.rows])
        attr, k = idx[name]
        return np.array([getattr(r, attr)[k] for r in self.rows])

    def to_csv(self) -> str:
        header = ("selector,mean_i1,mean_i2,mean_i3,fano_i1,fano_i2,fano_i3,"
                  "corr_12,corr_13,corr_23,slice_mass")
        lines = [header]
        for r in self.rows:
            cells = [str(r.selector), *(f"{v:.10g}" for v in r.mean),
                     *(f"{v:.10g}" for v in r.fano), *(f"{v:.10g}" for v in r.corr),
                     f"{r.mass:.10g}"]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _stats_row(selector: int, mass: float, d3: JointDistribution) -> SweepRow:
    means = tuple(_axis_moments(d3, a)[0] for a in ("i1", "i2", "i3"))
    fanos = tuple(fano(d3, a) for a in ("i1", "i2", "i3"))
    corrs = (corr_fluct(d3, "i1", "i2"), corr_fluct(d3, "i1", "i3"),
             corr_fluct(d3, "i2", "i3"))
    return SweepRow(selector, mass, means, fanos, corrs)


def conditioned_field(p4: JointDistribution, selector_kind: str, value: int,
                      t_s: DetectionMatrix | None = None) -> tuple[float, JointDistribution]:
    """One post-selected idler field from a 4D photon distribution.

    ``n_s`` conditions directly; ``c_s`` mixes the signal axis through the
    detection matrix first. Returns (slice mass, 3D distribution).
    """
    if selector_kind == "n_s":
        mass = slice_mass(p4, "s", value)
        if mass <= 0.0:
            raise DataError(f"unconditionable outcome n_s={value}")
        return mass, condition(p4, "s", value)
    if selector_kind == "c_s":
        if t_s is None:
            raise DataError("c_s post-selection needs the signal detection matrix")
        fields = derive_photocount_conditional(p4, t_s)
        if value not in fields:
            raise DataError(f"unconditionable outcome c_s={value}")
        return fields[value]
    raise DataError(f"unknown selector kind {selector_kind!r}")


def sweep_distribution(p4: JointDistribution, selector_kind: str,
                       values: range | list[int],
                       t_s: DetectionMatrix | None = None,
                       mass_floor: float = MASS_FLOOR) -> PostselectSweep:
    """Statistics sweep over the selector from a model photon distribution."""
    rows, gaps = [], []
    cache = derive_photocount_conditional(p4, t_s) if selector_kind == "c_s" else None
    for v in values:
        try:
            if cache is not None:
                if v not in cache:
                    raise DataError("empty")
                mass, d3 = cache[v]
            else:
                mass, d3 = conditioned_field(p4, selector_kind, v)
        except DataError:
            gaps.append(v)
            continue
        if mass < mass_floor:
            gaps.append(v)
            continue
        try:
            rows.append(_stats_row(v, mass, d3))
        except DataError:
            # degenerate slice (zero mean or variance): a gap, not a failure
            gaps.append(v)
    return PostselectSweep(selector_kind, tuple(rows), tuple(gaps))


def sweep_histogram(h: Histogram, idler_matrices: list[DetectionMatrix],
                    values: range | list[int],
                    settings: EmSettings = EmSettings(max_iterations=2000),
                    photon_cutoffs: tuple[int, int, int] | None = None,
                    mass_floor: float = MASS_FLOOR) -> PostselectSweep:
    """Photon-level sweep over c_s from a measured histogram.

    Every slice is conditioned (the 3D photocount histogram for that c_s)
    and inverted with the partial EM reconstruction before the statistics
    are evaluated.
    """
    f = normalize(h)
    rows, gaps, em = [], [], []
    for c_s in values:
        mass = slice_mass(f, "s", c_s)
        if mass < mass_floor:
            gaps.append(c_s)
            continue
        f_cs = condition(f, "s", c_s)
        rec = em_reconstruct_conditional(f_cs, idler_matrices, settings, photon_cutoffs)
        rows.append(_stats_row(c_s, mass, rec.distribution))
        em.append({"selector": c_s, "iterations": rec.iterations,
                   "residual": rec.residual, "converged": rec.converged})
    return PostselectSweep("c_s", tuple(rows), tuple(gaps), tuple(em))


def photocount_sweep(h: Histogram, values: range | list[int],
                     mass_floor: float = MASS_FLOOR) -> PostselectSweep:
    """Click-level sweep (no reconstruction): statistics of histogram slices."""
    f = normalize(h)
    rows, gaps = [], []
    for c_s in values:
        mass = slice_mass(f, "s", c_s)
        if mass < mass_floor:
            gaps.append(c_s)
            continue
        rows.append(_stats_row(c_s, mass, condition(f, "s", c_s)))
    return PostselectSweep("c_s", tuple(rows), tuple(gaps))
