"""Dense multivariate photon-number / photocount tables and their algebra.

A :class:`JointDistribution` is a strictly nonnegative table over 1 to 4
integer occupation axes labeled from ``("s", "i1", "i2", "i3")``. A
:class:`Histogram` holds raw per-cell frame counts and the number of
frames behind them. Signed tables (the s-ordered quasi-probabilities)
live in :mod:`tripletwb.nonclassical`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import CutoffError, DataError

AXIS_ORDER = ("s", "i1", "i2", "i3")

NORM_TOL = 1e-9
#: Mass discarded by a truncation box must stay below this unless the caller
#: explicitly loosens it (heavy-tailed noise components need a looser box).
TAIL_TOL = 1e-8
#: Frames per chunk of the samplers' per-frame draws. The draws of one kind
#: run over all frames in consecutive chunks, which consume the generator's
#: stream as one draw would: the samples do not depend on this size.
FRAME_CHUNK = 1 << 16
#: Most cells a binned histogram may hold: 2**28 int64 counts, 2 GiB.
MAX_CELLS = 1 << 28


def _check_labels(labels: Sequence[str], ndim: int) -> tuple[str, ...]:
    if ndim < 1 or ndim > 4:
        raise DataError(f"tables must have 1 to 4 axes, got {ndim}")
    labels = tuple(labels)
    if len(labels) != ndim:
        raise DataError(f"{len(labels)} axis labels for a {ndim}-d table")
    if len(set(labels)) != len(labels):
        raise DataError(f"duplicate axis labels {labels}")
    order = [AXIS_ORDER.index(l) for l in labels if l in AXIS_ORDER]
    if len(order) != len(labels) or order != sorted(order):
        raise DataError(f"axis labels {labels} must be ordered from {AXIS_ORDER}")
    return labels


@dataclass(frozen=True)
class JointDistribution:
    """Nonnegative table over integer occupation numbers.

    ``values[n_a, n_b, ...]`` is the probability (or unnormalized weight)
    of the occupation tuple; ``cutoffs`` are the per-axis maximum indices.
    Instances are immutable; the backing array is marked read-only.
    """

    values: np.ndarray
    axis_labels: tuple[str, ...]
    normalized: bool = False

    def __post_init__(self):
        arr = np.ascontiguousarray(self.values, dtype=np.float64)
        if arr.base is not None:
            # a view: writes through its base would change the table after
            # the checks below, so the distribution keeps its own copy
            arr = arr.copy()
        _check_labels(self.axis_labels, arr.ndim)
        # written so that NaN fails both comparisons
        if not np.all(arr >= 0):
            raise DataError("negative or NaN cell in a probability table")
        if self.normalized:
            total = arr.sum()
            if not abs(total - 1.0) <= NORM_TOL:
                raise DataError(f"normalized table sums to {total!r}")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "axis_labels", tuple(self.axis_labels))

    @property
    def cutoffs(self) -> tuple[int, ...]:
        return tuple(n - 1 for n in self.values.shape)

    def axis(self, label: str) -> int:
        try:
            return self.axis_labels.index(label)
        except ValueError:
            raise DataError(f"unknown axis {label!r}, have {self.axis_labels}") from None

    def total(self) -> float:
        return float(self.values.sum())


@dataclass(frozen=True)
class Histogram:
    """Raw integer click counts per (c_s, c_i1, c_i2, c_i3) cell, and ``trials``,
    the number of frames behind them: their sum, an integer >= 1."""

    counts: np.ndarray
    trials: int
    axis_labels: tuple[str, ...] = AXIS_ORDER

    def __post_init__(self):
        trials = self.trials
        if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)):
            raise DataError(f"trials must be an integer >= 1, got {trials!r}")
        if trials < 1:
            raise DataError(f"empty histogram: trials must be an integer >= 1, got {trials}")
        arr = np.ascontiguousarray(self.counts)
        if arr.base is not None:
            # a view: writes through its base would change the counts under
            # the cached ``support``, so the histogram keeps its own copy
            arr = arr.copy()
        if not np.issubdtype(arr.dtype, np.integer):
            raise DataError("histogram counts must be integers")
        if np.any(arr < 0):
            raise DataError("negative histogram count")
        _check_labels(self.axis_labels, arr.ndim)
        if int(arr.sum()) != self.trials:
            raise DataError(
                f"histogram counts sum to {int(arr.sum())}, trials = {self.trials}")
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)
        object.__setattr__(self, "trials", int(trials))  # a numpy integer is no JSON number

    @classmethod
    def binned(cls, clicks: np.ndarray, box: Sequence[int]) -> "Histogram":
        """Frames, one row of (c_s, c_i1, c_i2, c_i3) each, counted per cell of
        the click box 0..box; frames outside the box are dropped.

        The table is allocated first and zeroed lazily. Each chunk of
        ``FRAME_CHUNK`` frames forms one C-order flat cell index per frame,
        which cannot overflow for a frame inside the allocated box, and
        ``np.add.at`` adds its in-box frames to the table's flat view. Pages
        no frame lands on stay untouched, so a wide sparse box costs no more
        memory than its occupied cells, and the frames cost no more than
        one chunk's index. The table owns its memory, and the histogram
        takes it without a copy. A box of more than ``MAX_CELLS`` cells is
        a DataError, raised before any allocation.
        """
        shape = tuple(int(c) + 1 for c in box)
        if math.prod(shape) > MAX_CELLS:
            raise DataError(f"click box 0..{tuple(n - 1 for n in shape)} has {math.prod(shape)} "
                            f"cells, above the {MAX_CELLS} a histogram may hold")
        counts = np.zeros(shape, dtype=np.int64)
        flat, steps = counts.reshape(-1), np.asarray(counts.strides) // counts.itemsize
        kept = 0
        for lo in range(0, len(clicks), FRAME_CHUNK):
            chunk = clicks[lo: lo + FRAME_CHUNK]
            cells = (chunk @ steps)[np.all(chunk < shape, axis=1)]
            np.add.at(flat, cells, 1)
            kept += cells.size
        if not kept:
            raise DataError(f"all {len(clicks)} frames lie outside the click box "
                            f"0..{tuple(n - 1 for n in shape)}")
        return cls(counts, kept)

    def slice(self, label: str, value: int) -> "Histogram":
        """The frames at c_label = value, as a histogram over the other axes."""
        if label not in self.axis_labels:
            raise DataError(f"unknown axis {label!r}, have {self.axis_labels}")
        ax = self.axis_labels.index(label)
        if not 0 <= value < self.counts.shape[ax]:
            raise DataError(f"no frames at c_{label}={value}: outside the "
                            f"histogram's c_{label} range 0..{self.counts.shape[ax] - 1}")
        counts = np.take(self.counts, value, axis=ax)
        frames = counts.sum()
        if frames == 0:
            raise DataError(f"no frames at c_{label}={value}")
        return Histogram(counts, frames, tuple(l for l in self.axis_labels if l != label))

    @property
    def cutoffs(self) -> tuple[int, ...]:
        return tuple(n - 1 for n in self.counts.shape)

    @cached_property
    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat indices of the observed cells and their frequencies counts / trials.

        Computed once per histogram; both arrays are read-only.
        """
        cells = np.flatnonzero(self.counts)
        rel = self.counts.reshape(-1)[cells] / float(self.trials)
        cells.flags.writeable = False
        rel.flags.writeable = False
        return cells, rel


def check_tail(discarded: float, tol: float = TAIL_TOL, what: str = "table") -> None:
    """Raise :class:`CutoffError` when a truncation discards too much mass."""
    if discarded > tol:
        raise CutoffError(
            f"{what}: discarded tail mass {discarded:.3e} exceeds {tol:.1e}; "
            "enlarge the cutoffs or loosen tail_tol")


def normalize(h: Histogram) -> JointDistribution:
    """Empirical frequency table counts/trials."""
    return JointDistribution(h.counts / float(h.trials), h.axis_labels, normalized=True)


def marginalize(d: JointDistribution, keep_axes: Iterable[str]) -> JointDistribution:
    """Sum out every axis not in ``keep_axes`` (order is preserved)."""
    keep = set(keep_axes)
    unknown = keep - set(d.axis_labels)
    if unknown:
        raise DataError(f"unknown axes {sorted(unknown)}")
    drop = tuple(i for i, l in enumerate(d.axis_labels) if l not in keep)
    if len(drop) == d.values.ndim:
        raise DataError("cannot marginalize away every axis")
    vals = d.values.sum(axis=drop) if drop else d.values
    labels = tuple(l for l in d.axis_labels if l in keep)
    return JointDistribution(vals, labels, normalized=d.normalized)


def table_moments(rel: np.ndarray, labels) -> dict:
    """Means and covariances of any normalized multivariate table.

    One contraction of every axis against its power rows 1, c, c^2 gives
    the 3^d table of mixed moments, from which both are read off.
    """
    rel = np.asarray(rel)
    return _read_moments(contract(rel, [_power_rows(n) for n in rel.shape]), labels)


def _power_rows(size: int) -> np.ndarray:
    """The 3 x size matrix with rows 1, c and c^2 over c = 0 .. size - 1."""
    c = np.arange(size, dtype=np.float64)
    return np.stack([np.ones(size), c, c * c])


def _read_moments(mixed: np.ndarray, labels) -> dict:
    """Means and covariances from mixed[k] = sum_c f(c) prod_a c_a^k_a, k_a <= 2."""
    def moment(*axes):
        index = [0] * mixed.ndim
        for a in axes:
            index[a] += 1
        return float(mixed[tuple(index)])

    means = {la: moment(a) for a, la in enumerate(labels)}
    cov = {(la, lb): moment(a, b) - means[la] * means[lb]
           for a, la in enumerate(labels) for b, lb in enumerate(labels)}
    return {"mean": means, "cov": cov}


def law_table(start: np.ndarray, log_start: np.ndarray, ratios: np.ndarray) -> np.ndarray:
    """Columns of pmfs t[k, i] = start[i] prod_{l < k} ratios[l, i], k <= len(ratios).

    One ``np.cumprod`` of positive factors down the rows of [start; ratios].
    A column whose start is below the smallest normal float (a heavy dark
    rate's (1 - d)^N, say) is summed as exp(log_start + cumsum(log ratios))
    instead, good to about |log_start| units in the last place.
    """
    table = np.cumprod(np.vstack([start, ratios]), axis=0)
    lost = start < np.finfo(np.float64).tiny
    if lost.any():
        with np.errstate(divide="ignore"):
            logs = np.vstack([log_start[lost], np.log(ratios[:, lost])])
        table[:, lost] = np.exp(np.cumsum(logs, axis=0))
    return table


def binomial_table(rows: int, n, p: float, q: float) -> np.ndarray:
    """B[k, i] = Binomial(n[i], p)(k) for k < rows, one column per trial count n[i].

    The caller passes ``q`` = 1 - p (> 0), so neither is formed here by a
    subtraction. Each column starts at q^n, taken from the smaller of p
    and q, and runs by the term ratios (n - k) p / ((k + 1) q).
    """
    n = np.asarray(n, dtype=np.float64)
    k = np.arange(rows - 1, dtype=np.float64)[:, None]
    log_start = n * (math.log(q) if q <= p else math.log1p(-p))
    return law_table(q ** n if q <= p else np.exp(log_start), log_start,
                     np.maximum(n - k, 0.0) * p / ((k + 1.0) * q))


def shifted_columns(table: np.ndarray, rows: int) -> np.ndarray:
    """X[r, j] = table[r - j, j] for r >= j, else 0: column j moved down j rows."""
    lag = np.arange(rows)[:, None] - np.arange(table.shape[1])
    out = table[np.maximum(lag, 0), np.arange(table.shape[1])]
    out[lag < 0] = 0.0
    return out


def falling_factorial(n: np.ndarray, k: int) -> np.ndarray:
    """n (n-1) ... (n-k+1) elementwise, with the empty product equal to 1."""
    out = np.ones_like(np.asarray(n, dtype=np.float64))
    for j in range(k):
        out = out * (n - j)
    return np.maximum(out, 0.0) if k > 0 else out


def condition(d: JointDistribution, axis: str, value: int) -> JointDistribution:
    """Normalized slice of ``d`` at ``axis = value`` over the remaining axes."""
    ax = d.axis(axis)
    if not (0 <= value < d.values.shape[ax]):
        raise DataError(f"{axis}={value} outside cutoff {d.values.shape[ax] - 1}")
    if d.values.ndim == 1:
        raise DataError("cannot condition a 1-d table")
    sl = np.take(d.values, value, axis=ax)
    mass = sl.sum()
    if mass <= 0.0:
        raise DataError(f"unconditionable outcome {axis}={value} (zero mass)")
    labels = tuple(l for i, l in enumerate(d.axis_labels) if i != ax)
    return JointDistribution(sl / mass, labels, normalized=True)


def slice_mass(d: JointDistribution, axis: str, value: int) -> float:
    """Probability mass of the ``axis = value`` slice."""
    ax = d.axis(axis)
    if not (0 <= value < d.values.shape[ax]):
        return 0.0
    return float(np.take(d.values, value, axis=ax).sum())


def apply_matrix(values: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    """Contract ``mat[c, n]`` against occupation axis ``axis`` of ``values``.

    On axis 0 this is :func:`contract`'s first step, one GEMM written
    through ``out=`` into a fresh array, so :class:`JointDistribution`
    takes the result without a copy.
    """
    if axis == 0:
        return _leading_axis(np.asarray(values), mat)
    out = np.tensordot(mat, values, axes=(1, axis))
    return np.moveaxis(out, 0, axis)


def _leading_axis(x: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """``mat`` against axis 0 of ``x``: one GEMM into a fresh C-ordered array."""
    out = np.empty((mat.shape[0],) + x.shape[1:], dtype=np.result_type(x, mat))
    np.matmul(mat, x.reshape(x.shape[0], -1), out=out.reshape(mat.shape[0], -1))
    return out


def contract(values: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """Contract ``mats[a][c, n]`` against axis ``a`` of ``values``, for every axis.

    Step order: the leading axis first, then the trailing axes from the
    last one inwards, so the signal axis of a 4D table is still contracted
    first (the EM's forward map shrinks it before the idler axes grow).

    - Axis 0 is one GEMM ``mat_0 @ x`` with ``x`` viewed as (n_0, everything
      else). It writes (c_0, n_1, ...) in rows of n_1 ... n_{d-1}.
    - Axes d-1, ..., 1 are each one batched ``matmul`` over the c_0 slices,
      ``mat_a @ x_i.T`` with ``x_i`` viewed as (everything else, n_a). The
      new axis goes in front of the axes not yet contracted, so every step
      writes rows of all of them, and after axis 1 the axes are back in
      their original order.

    Orientation: every step writes long output rows (hundreds to thousands
    of cells), not the short new axis (10-43 cells) that the cyclic
    ``rest.T @ mat.T`` (leading axis contracted, new axis appended last)
    wrote. With an inner dimension of ~20, OpenBLAS writes long rows
    faster. The batched steps take their matrix in Fortran order, which
    OpenBLAS runs 1.2-1.5x faster there; a Fortran-ordered matrix (such as
    a transposed view) is used as it is. Medians with one BLAS thread
    (OpenBLAS 0.3.31, Haswell kernel, shared 2-vCPU host), cyclic -> this:

    - fit forward map 33x21^3 -> 43x31^3: 11.4 -> 7.6 ms;
    - the model's 4D Toeplitz sweep: 2.3 -> 1.4 ms;
    - click moments of the 43x31^3 table: 1.03 -> 0.82 ms;
    - 4D observed-box EM (20x13x31x17 clicks): forward 1.21 -> 0.87 ms,
      backward 1.91 -> 1.35 ms;
    - 3D EM (10^3 clicks, 21^3 photons): forward 0.015 -> 0.018 ms,
      backward 0.017 -> 0.019 ms, the batching overhead of small tables.

    A C-contiguous input is read in place. Each step writes through
    ``out=`` into a fresh array of its own shape, so the result is
    C-contiguous, owns its memory and :class:`JointDistribution` takes it
    without a copy.
    """
    x = np.asarray(values)
    if len(mats) != x.ndim:
        raise DataError(f"{len(mats)} matrices for a {x.ndim}-d table")
    out = _leading_axis(x, mats[0])
    for mat in reversed(mats[1:]):
        x = out
        c0, n = x.shape[0], x.shape[-1]
        out = np.empty((c0, mat.shape[0]) + x.shape[1:-1], dtype=np.result_type(x, mat))
        np.matmul(np.asfortranarray(mat), x.reshape(c0, -1, n).transpose(0, 2, 1),
                  out=out.reshape(c0, mat.shape[0], -1))
    return out
