"""Expectation-maximization inversion of photocount tables.

The update is the multidimensional Richardson-Lucy / Vardi iteration

    p_{k+1}(n) = p_k(n) * sum_c K(c|n) f(c) / sum_n' K(c|n') p_k(n')

with the separable kernel K(c|n) = prod_axes T(c_axis|n_axis). Because the
kernel factorizes, both the forward projection and the back projection are
one :func:`tripletwb.fock.contract` each, a per-axis matrix contraction; no
dense 8-dimensional kernel is ever formed. Starting point is the uniform
distribution unless a start table is given.

Every map works on the observed click box: on each axis only the click
values that occur in f are kept, along with the matching rows of T. This
is exact. The forward projection is read only on observed cells, and the
ratio f/den is zero on every other cell, so the dropped rows add nothing
to the back projection. A sampled 10^6-frame histogram fills 1 888 of
the 43 x 31^3 click cells, inside a 20 x 13 x 31 x 17 observed box. The
log-likelihood sum f log(den) and the residual max |p_{k+1} - p_k| are
recorded for every map. Iterate cells that fall below the smallest normal
double are set to zero: they weigh nothing, and subnormal operands slow
the next map's GEMMs several-fold.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detector import DetectionMatrix, _matrices_for
from .errors import DataError
# apply_matrix stays importable here: the benchmark's tracer (perfbench/workload.py)
# wraps it under this module's name
from .fock import JointDistribution, apply_matrix, contract  # noqa: F401

_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class EmSettings:
    max_iterations: int = 100_000
    stop_tolerance: float = 1e-9  # max absolute per-cell change

    def __post_init__(self):
        if self.max_iterations < 1:
            raise DataError("max_iterations must be >= 1")
        if not (self.stop_tolerance > 0):
            raise DataError("stop_tolerance must be > 0")


@dataclass(frozen=True)
class EmResult:
    distribution: JointDistribution
    iterations: int
    residual: float
    loglik_trace: np.ndarray
    residual_trace: np.ndarray
    converged: bool

    def trace_csv(self) -> str:
        lines = ["iteration,loglik,residual"]
        for i, (ll, r) in enumerate(zip(self.loglik_trace, self.residual_trace), start=1):
            lines.append(f"{i},{ll:.12g},{r:.6g}")
        return "\n".join(lines) + "\n"


def em_reconstruct(f: JointDistribution,
                   matrices: dict[str, DetectionMatrix] | list[DetectionMatrix],
                   settings: EmSettings = EmSettings(),
                   photon_cutoffs: tuple[int, ...] | None = None,
                   start: JointDistribution | None = None) -> EmResult:
    """Invert a photocount distribution into a photon-number distribution.

    ``photon_cutoffs`` defaults to the n ranges of the supplied matrices.
    """
    if not f.normalized:
        raise DataError("EM needs a normalized photocount distribution")
    mat_objs = _matrices_for(f.axis_labels, matrices)
    if photon_cutoffs is None:
        photon_cutoffs = tuple(m.n_max for m in mat_objs)
    for mat, cut, cdim in zip(mat_objs, photon_cutoffs, f.values.shape):
        if cut > mat.n_max:
            raise DataError(f"photon cutoff {cut} exceeds matrix n_max {mat.n_max}")
        if cdim > mat.entries.shape[0]:
            raise DataError("photocount table exceeds matrix click range")

    # the observed click box: click values that occur on each axis
    used = [np.unique(idx) for idx in np.nonzero(f.values)]
    fbox = f.values[np.ix_(*used)]
    # Fortran order in both directions: ``contract``'s batched steps take
    # their matrix in that layout, so no map copies one
    mats = [np.asfortranarray(mat.entries[rows][:, : cut + 1])
            for mat, rows, cut in zip(mat_objs, used, photon_cutoffs)]
    mats_T = [np.asfortranarray(m.T) for m in mats]
    support = np.flatnonzero(fbox)
    fs = fbox.ravel()[support]
    ratio = np.zeros(fbox.shape)

    if start is not None:
        box = tuple(c + 1 for c in photon_cutoffs)
        if start.axis_labels != f.axis_labels or start.values.shape != box:
            raise DataError(f"start table {start.axis_labels} {start.values.shape} "
                            f"does not match the photon box {f.axis_labels} {box}")
        total = start.total()
        if not total > 0.0:
            raise DataError(f"start table sums to {total!r}; it needs a total > 0")
        p = start.values / total
    else:
        p = np.full([c + 1 for c in photon_cutoffs], 1.0)
        p /= p.size
    logliks = []
    residuals = []
    converged = False
    it = 0
    for it in range(1, settings.max_iterations + 1):
        den = contract(p, mats).ravel()[support]
        if np.any(den <= 0.0):
            raise DataError(
                "unsupported outcome: observed cell with zero model probability "
                "(photon cutoffs too small)")
        ratio.ravel()[support] = fs / den
        logliks.append(float(fs @ np.log(den)))
        p_new = contract(ratio, mats_T)
        p_new *= p
        p_new /= p_new.sum()
        # cells below the smallest normal double weigh nothing, but a GEMM
        # that reads subnormal operands runs several times slower; long
        # conditional runs fill up to a fifth of the table with them
        p_new[p_new < _TINY] = 0.0
        diff = np.subtract(p_new, p, out=p)  # the old iterate is not read again
        residual = float(np.abs(diff, out=diff).max())
        residuals.append(residual)
        p = p_new
        if residual < settings.stop_tolerance:
            converged = True
            break
    dist = JointDistribution(p, f.axis_labels, normalized=True)
    return EmResult(dist, it, residuals[-1], np.asarray(logliks),
                    np.asarray(residuals), converged)
