"""Scalar statistics of post-selected three-beam idler fields.

Post-selection conditions the idler statistics either on the true signal
photon number n_s (ideal detector) or on the detected signal click number
c_s (real detector, via the signal detection matrix).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import emrec, fock
from .detector import DetectionMatrix
from .emrec import EmSettings
from .errors import DataError
from .fock import Histogram, JointDistribution, condition, slice_mass, table_moments

#: Slices holding less than this fraction of the total mass are reported as
#: gaps; they carry only sampling noise.
MASS_FLOOR = 1e-6

#: the sweep statistics, as its CSV names them after the selector column
SWEEP_STATS = ("mean_i1", "mean_i2", "mean_i3", "fano_i1", "fano_i2", "fano_i3",
               "corr_12", "corr_13", "corr_23", "slice_mass")

#: EM budget of each c_s slice a histogram sweep inverts
SWEEP_EM = EmSettings(max_iterations=2000)


def _fano(mom: dict, axis: str) -> float:
    mean = mom["mean"][axis]
    if mean <= 0.0:
        raise DataError(f"undefined Fano: axis {axis} has zero mean")
    return mom["cov"][(axis, axis)] / mean


def _corr(mom: dict, axis_j: str, axis_k: str) -> float:
    cov = mom["cov"]
    vj, vk = cov[(axis_j, axis_j)], cov[(axis_k, axis_k)]
    if vj <= 0.0 or vk <= 0.0:
        raise DataError("correlation undefined for a zero-variance axis")
    return cov[(axis_j, axis_k)] / np.sqrt(vj * vk)


def _moments(d: JointDistribution, *axes: str) -> dict:
    for axis in axes:
        d.axis(axis)  # an unknown axis raises DataError
    return table_moments(d.values, d.axis_labels)


def fano(d: JointDistribution, axis: str) -> float:
    """Variance-to-mean ratio of the axis marginal; < 1 is sub-Poissonian."""
    return _fano(_moments(d, axis), axis)


def corr_fluct(d: JointDistribution, axis_j: str, axis_k: str) -> float:
    """Pearson correlation of the photon-number fluctuations of two axes."""
    return _corr(_moments(d, axis_j, axis_k), axis_j, axis_k)


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
    #: per reconstructed slice: selector, frames and its ``EmResult.record()``
    em: tuple[dict, ...] = ()

    def columns(self) -> dict[str, np.ndarray]:
        """The sweep's CSV columns, ``selector`` then ``SWEEP_STATS``, with a
        row per selector value that is not a gap."""
        stats = np.array([[*r.mean, *r.fano, *r.corr, r.mass] for r in self.rows])
        return {"selector": np.array([r.selector for r in self.rows], dtype=np.int64),
                **dict(zip(SWEEP_STATS, stats.reshape(-1, len(SWEEP_STATS)).T))}


def _stats_row(selector: int, mass: float, d3: JointDistribution) -> SweepRow:
    mom = table_moments(d3.values, d3.axis_labels)
    idlers = ("i1", "i2", "i3")
    means = tuple(mom["mean"][a] for a in idlers)
    fanos = tuple(_fano(mom, a) for a in idlers)
    corrs = (_corr(mom, "i1", "i2"), _corr(mom, "i1", "i3"), _corr(mom, "i2", "i3"))
    return SweepRow(selector, mass, means, fanos, corrs)


def _conditioned_fields(p4: JointDistribution, selector_kind: str,
                        t_s: DetectionMatrix | None):
    """A function from each selector value to its (slice mass, 3D field).

    Values with no mass map to None. ``n_s`` conditions on the signal
    slice. ``c_s`` first maps the signal axis of the normalized 4-axis
    table through ``t_s``, once for all values, and then conditions the
    mixed table the same way. An unknown selector, or ``c_s`` without a
    ``t_s`` that covers the signal cutoff, raises DataError before any
    value is tried.
    """
    if selector_kind == "c_s":
        if t_s is None:
            raise DataError("c_s post-selection needs the signal detection matrix")
        if not p4.normalized or p4.values.ndim != 4 or p4.axis_labels[0] != "s":
            raise DataError("expected a normalized 4-axis table with leading signal axis")
        n_0 = p4.values.shape[0]
        if t_s.n_max + 1 < n_0:
            raise DataError("signal detection matrix does not cover the signal cutoff")
        # through the module, so that a wrapped fock.apply_matrix is the one called
        mixed = fock.apply_matrix(p4.values, t_s.entries[:, :n_0], 0)
        p4 = JointDistribution(mixed, p4.axis_labels, normalized=True)
    elif selector_kind != "n_s":
        raise DataError(f"unknown selector kind {selector_kind!r}")

    def field(value: int):
        mass = slice_mass(p4, "s", value)
        return (mass, condition(p4, "s", value)) if mass > 0.0 else None
    return field


def conditioned_field(p4: JointDistribution, selector_kind: str, value: int,
                      t_s: DetectionMatrix | None = None) -> tuple[float, JointDistribution]:
    """One post-selected idler field from a 4D photon distribution.

    ``n_s`` conditions directly; ``c_s`` mixes the signal axis through the
    detection matrix first. Returns (slice mass, 3D distribution).
    """
    found = _conditioned_fields(p4, selector_kind, t_s)(value)
    if found is None:
        raise DataError(f"unconditionable outcome {selector_kind}={value}")
    return found


def sweep_distribution(p4: JointDistribution, selector_kind: str,
                       values: range | list[int],
                       t_s: DetectionMatrix | None = None) -> PostselectSweep:
    """Statistics sweep over the selector from a model photon distribution."""
    field = _conditioned_fields(p4, selector_kind, t_s)
    rows, gaps = [], []
    for v in values:
        found = field(v)
        if found is None or found[0] < MASS_FLOOR:
            gaps.append(v)
            continue
        try:
            rows.append(_stats_row(v, *found))
        except DataError:
            # degenerate slice (zero mean or variance): a gap, not a failure
            gaps.append(v)
    return PostselectSweep(selector_kind, tuple(rows), tuple(gaps))


def sweep_histogram(h: Histogram,
                    idler_matrices: dict[str, DetectionMatrix],
                    values: range | list[int]) -> PostselectSweep:
    """Photon-level sweep over c_s from a measured histogram.

    Every slice, the 3D photocount histogram ``h.slice("s", c_s)``, is
    inverted by EM over the three idler axes before the statistics are
    evaluated; its mass is its share of the frames, and one with no frames
    is a gap. Each slice's EM stops on the likelihood rule for that
    slice's frame count, or on the ``SWEEP_EM`` budget.
    """
    if "s" not in h.axis_labels:
        raise DataError(f"a histogram sweep needs a signal axis, have {h.axis_labels}")
    rows, gaps, em = [], [], []
    for c_s in values:
        try:
            h_cs = h.slice("s", c_s)
        except DataError:  # no frames at c_s
            gaps.append(c_s)
            continue
        mass = h_cs.trials / h.trials
        if mass < MASS_FLOOR:
            gaps.append(c_s)
            continue
        # through the module, so that a wrapped emrec.em_reconstruct is the one called
        rec = emrec.em_reconstruct(h_cs, idler_matrices, SWEEP_EM)
        rows.append(_stats_row(c_s, mass, rec.distribution))
        em.append({"selector": c_s, "frames": h_cs.trials, **rec.record()})
    return PostselectSweep("c_s", tuple(rows), tuple(gaps), tuple(em))
