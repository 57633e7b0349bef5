"""Expectation-maximization inversion of photocount tables.

The update is the multidimensional Richardson-Lucy / Vardi iteration

    p_{k+1}(n) = p_k(n) * sum_c K(c|n) f(c) / sum_n' K(c|n') p_k(n')

with the separable kernel K(c|n) = prod_axes T(c_axis|n_axis). Because the
kernel factorizes, both the forward projection and the back projection are
one :func:`tripletwb.fock.contract` each, a per-axis matrix contraction; no
dense 8-dimensional kernel is ever formed. Starting point is the uniform
distribution on the photon box of the matrices.

The data are a :class:`tripletwb.fock.Histogram` of N frames, f = counts / N,
or an exact table f, a normalized :class:`tripletwb.fock.JointDistribution`.

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

Three stops end a run, whichever fires first:

- ``residual``: the largest per-cell change of a map falls below
  ``EmSettings.stop_tolerance``. Exact tables meet it.
- ``likelihood``: on a histogram of N frames, the run ends after the
  first map k whose gain in whole-data log-likelihood, N * (l_k - l_{k-1})
  with l_k the k-th entry of the log-likelihood trace, falls below
  ``STOP_GAIN_NATS``. On sampled data the residual rule is not
  met in any practical number of maps, and it should not be: inverting a
  noisy histogram is ill-posed, and the number of maps is the regulariser
  (Vardi, Shepp & Kaufman, JASA 80, 8, 1985; Silverman, Jones, Wilson &
  Nychka, JRSS B 52, 271, 1990). A gain of a small fraction of a nat is
  what the sample cannot tell apart from noise.
- ``budget``: ``EmSettings.max_iterations`` maps ran. The run has not
  converged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import DetectionMatrix, _matrices_for
from .errors import DataError
# apply_matrix stays importable here: the benchmark's tracer (perfbench/workload.py)
# wraps it under this module's name
from .fock import Histogram, JointDistribution, apply_matrix, contract  # noqa: F401

_TINY = np.finfo(np.float64).tiny

#: the likelihood stop: whole-data log-likelihood gain, in nats per map,
#: below which a map on sampled data no longer informs the table
STOP_GAIN_NATS = 0.03


@dataclass(frozen=True)
class EmSettings:
    max_iterations: int = 100_000
    stop_tolerance: float = 1e-9  # max absolute per-cell change

    def __post_init__(self):
        if (isinstance(self.max_iterations, bool)
                or not isinstance(self.max_iterations, (int, np.integer))
                or self.max_iterations < 1):
            raise DataError(f"max_iterations must be an integer >= 1, got {self.max_iterations!r}")
        if not (math.isfinite(self.stop_tolerance) and self.stop_tolerance > 0):
            raise DataError(f"stop_tolerance must be finite and > 0, got {self.stop_tolerance}")


@dataclass(frozen=True)
class EmResult:
    distribution: JointDistribution
    iterations: int
    residual: float
    loglik_trace: np.ndarray
    residual_trace: np.ndarray
    stop: str  # "residual", "likelihood" or "budget"
    #: N * (l_k - l_{k-1}) of the last map in nats; None without N or after one map
    last_gain: float | None

    @property
    def converged(self) -> bool:
        return self.stop != "budget"

    def record(self) -> dict:
        """How the run ended, as manifests record it."""
        return {"iterations": self.iterations, "residual": self.residual, "stop": self.stop,
                "last_gain_nats": self.last_gain, "converged": self.converged}

    def trace_columns(self) -> dict[str, np.ndarray]:
        """Log-likelihood and residual of every map, numbered from 1: the
        columns of ``reconstruct --trace-out``."""
        return {"iteration": np.arange(1, self.iterations + 1), "loglik": self.loglik_trace,
                "residual": self.residual_trace}


def em_reconstruct(data: Histogram | JointDistribution,
                   matrices: dict[str, DetectionMatrix],
                   settings: EmSettings = EmSettings()) -> EmResult:
    """Invert photocount data into a photon-number distribution.

    The photon box is the n range of each axis's matrix; the iteration
    starts from the uniform table on it. A :class:`Histogram` brings its
    frame count N, which turns on the likelihood stop; an exact table, a
    normalized :class:`JointDistribution`, stops on the residual or the budget.
    A histogram's observed box is read from its counts and divided by N,
    with no dense ``normalize(h)`` table; each cell gets that table's
    division, so the run equals one on ``normalize(h)`` bit for bit, up
    to the likelihood stop that only N turns on.
    """
    if isinstance(data, Histogram):
        trials, table = data.trials, data.counts
    elif data.normalized:
        trials, table = None, data.values
    else:
        raise DataError("EM needs a histogram or a normalized photocount distribution")
    mat_objs = _matrices_for(data.axis_labels, matrices)
    for mat, cdim in zip(mat_objs, table.shape):
        if cdim > mat.entries.shape[0]:
            raise DataError("photocount table exceeds matrix click range")

    # the observed click box: click values that occur on each axis. A
    # histogram's box is divided by N there, the division ``normalize``
    # makes of each cell, so no dense frequency table is formed
    used = [np.unique(idx) for idx in np.nonzero(table)]
    fbox = table[np.ix_(*used)]
    if trials is not None:
        fbox = fbox / float(trials)
    # Fortran order in both directions: ``contract``'s batched steps take
    # their matrix in that layout, so no map copies one
    mats = [np.asfortranarray(mat.entries[rows]) for mat, rows in zip(mat_objs, used)]
    mats_T = [np.asfortranarray(m.T) for m in mats]
    support = np.flatnonzero(fbox)
    if support.size == fbox.size:  # an exact table: a view and a slice, same cells and order
        support = slice(None)
    fs = fbox.ravel()[support]
    ratio = np.zeros(fbox.shape)

    p = np.full([m.n_max + 1 for m in mat_objs], 1.0)
    p /= p.size
    logliks = []
    residuals = []
    stop = "budget"
    gain = None
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
        # conditional runs fill up to a fifth of the table with them. The
        # iterate is nonnegative, so the one read of min() finds whether any
        # cell needs the flush (a NaN skips both)
        if p_new.min() < _TINY:
            p_new[p_new < _TINY] = 0.0
        diff = np.subtract(p_new, p, out=p)  # the old iterate is not read again
        residual = float(np.abs(diff, out=diff).max())
        residuals.append(residual)
        p = p_new
        if trials is not None and it > 1:
            gain = trials * (logliks[-1] - logliks[-2])
        if residual < settings.stop_tolerance:
            stop = "residual"
            break
        if gain is not None and gain < STOP_GAIN_NATS:
            stop = "likelihood"
            break
    dist = JointDistribution(p, data.axis_labels, normalized=True)
    return EmResult(dist, it, residuals[-1], np.asarray(logliks),
                    np.asarray(residuals), stop, gain)
