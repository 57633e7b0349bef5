"""Dense multivariate photon-number / photocount tables and their algebra.

A :class:`JointDistribution` is a strictly nonnegative table over 1 to 4
integer occupation axes labeled from ``("s", "i1", "i2", "i3")``. A
:class:`Histogram` holds raw per-cell frame counts and the number of
frames behind them. Signed tables (the s-ordered quasi-probabilities)
live in :mod:`tripletwb.nonclassical`.
"""
from __future__ import annotations

import math
import os
import threading
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
#: Fewest cells the largest trailing step of a :func:`contract` call must
#: write before its c_0 slices are shared out among threads: 4 MiB of float64.
#: The full 43x31^3 click box's forward map and a 400-point W synthesis reach
#: it; the 4D EM's steps on an observed click box (up to ~3e5 cells) stay
#: below it and serial, where starting a thread would cost a large share.
SPLIT_CELLS = 1 << 19
# Most cells a step of one chunk of contract's trailing chain writes (or one
# c_0 slice, if more): 2 MiB of float64, whatever the result's size
_CHUNK_CELLS = 1 << 18
#: The variables that pin the BLAS library's thread count, as the
#: libraries read them (OpenBLAS, OpenMP, MKL)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the ones each BLAS vendor reads, by a word of the name numpy's build
# record gives its BLAS
_VENDOR_THREAD_VARS = {"openblas": ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"),
                       "mkl": ("MKL_NUM_THREADS", "OMP_NUM_THREADS")}


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
        a DataError, raised before any allocation; so is a frame with a
        negative click, which the flat index would count in a wrapped-around
        cell.
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
            negative = np.any(chunk < 0, axis=1)
            if negative.any():
                row = int(np.argmax(negative))
                raise DataError(f"frame {lo + row} has a negative click count "
                                f"({','.join(map(str, chunk[row].tolist()))})")
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
    rate's (1 - d)^N, say) starts instead at its largest row, whose log is
    the exact sum (``math.fsum``) of log_start and the log ratios before it,
    and runs by the same products outward both ways. It is then good to
    about |log_start| 2^-53 relative, the rounding of log_start: 1.2e-13
    for Binomial(1500, 0.9), where a cumulative sum of the logs read
    1.7e-12. The shipped detectors and fields never take this path.
    """
    table = np.cumprod(np.vstack([start, ratios]), axis=0)
    for i in np.flatnonzero(start < np.finfo(np.float64).tiny):
        r = ratios[:, i]
        with np.errstate(divide="ignore"):
            logs = np.log(r)
        mode = int(np.argmax(np.cumsum(np.concatenate([[0.0], logs]))))
        top = math.exp(math.fsum([log_start[i], *logs[:mode].tolist()]))
        table[mode, i] = top
        table[mode + 1:, i] = top * np.cumprod(r[mode:])
        table[:mode, i] = (top * np.cumprod(1.0 / r[:mode][::-1]))[::-1]
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
    """Contract ``mat[c, n]`` against occupation axis ``axis`` of ``values``:
    :func:`contract` with ``mat`` on that axis and None on the others."""
    return contract(values, [mat if a == axis else None for a in range(np.ndim(values))])


# Threads that share a split call, the calling thread included: None until
# the first split reads it from the environment (see _worker_count).
_workers: int | None = None


def _blas_pin_vars() -> tuple[str, ...]:
    """The variables of ``BLAS_THREAD_VARS`` that the BLAS numpy links reads:
    all of them when its build record names no vendor known here."""
    try:
        name = str(np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]).lower()
    except (AttributeError, KeyError, TypeError):
        return BLAS_THREAD_VARS
    return next((v for word, v in _VENDOR_THREAD_VARS.items() if word in name),
                BLAS_THREAD_VARS)


def _worker_count() -> int:
    """The CPUs this process may run on over the BLAS threads pinned in
    ``BLAS_THREAD_VARS``, at least 1.

    BLAS counts as pinned only when a variable that the linked BLAS reads
    is set (:func:`_blas_pin_vars`): ``MKL_NUM_THREADS`` alone leaves
    OpenBLAS a thread per CPU. The CPUs are then divided by the largest
    value of every set variable. With BLAS not pinned, or a set variable
    that is not a positive integer, the count is 1: every step runs
    serially, in the calling thread.
    """
    global _workers
    if _workers is None:
        values = [os.environ[v].strip() for v in BLAS_THREAD_VARS if v in os.environ]
        pinned = any(v in os.environ for v in _blas_pin_vars())
        if pinned and all(v.isdigit() and int(v) >= 1 for v in values):
            cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)
            _workers = max(1, cpus // max(int(v) for v in values))
        else:
            _workers = 1
    return _workers


def contract(values: np.ndarray, mats: Sequence[np.ndarray | None]) -> np.ndarray:
    """Contract ``mats[a][c, n]`` against axis ``a`` of ``values``, for every
    axis whose entry is a matrix; a None entry leaves its axis as it is.

    Step order: the leading axis first, then the trailing axes from the
    last one inwards, so the signal axis of a 4D table is still contracted
    first (the EM's forward map shrinks it before the idler axes grow).

    - Axis 0 is one GEMM ``mat_0 @ x`` with ``x`` viewed as (n_0, everything
      else), whatever its size. It writes (c_0, n_1, ...) in rows of
      n_1 ... n_{d-1}.
    - Axes d-1, ..., 1 are each one batched ``matmul`` over c_0 slices,
      ``mat_a @ x_i.T`` with ``x_i`` viewed as (everything else, n_a). The
      new axis goes in front of the axes not yet contracted, so every step
      writes rows of all of them, and after axis 1 the axes are back in
      their original order.
    - A None entry skips its step. A None trailing axis among contracted
      ones is moved in front as its step would move it, by a copy: no
      value is rounded on an axis left as it is.

    The trailing steps run as one chain over chunks of c_0 slices, each
    chunk as many as its largest step may write in ``_CHUNK_CELLS`` cells
    (:func:`_chain`). A chunk's last step writes straight into the result,
    allocated first, so no whole intermediate table is ever held.

    Orientation: every step writes long output rows (hundreds to thousands
    of cells) rather than the short new axis (10-43 cells): with an inner
    dimension of ~20, OpenBLAS writes long rows faster. The batched steps
    take their matrix in Fortran order, which OpenBLAS runs 1.2-1.5x faster
    there; a Fortran-ordered matrix (such as a transposed view) is used as
    it is.

    Threads, the package's only ones: when the largest trailing step writes
    at least ``SPLIT_CELLS`` cells, the c_0 slices are cut into contiguous
    shares, one per worker. The calling thread runs the first share's chain
    and threads started and joined inside the call run the others; a share
    that raises raises here, after every thread has joined. The workers are
    the CPUs over the BLAS threads the environment pins (one if BLAS is not
    pinned). Each slice is still the one BLAS call it was, on the same
    operands, so the bits do not depend on the worker count or the chunks.
    The leading GEMM is never cut: row blocks would read other bits than
    one call (up to 8.5e-16 relative, OpenBLAS 0.3.31).

    A C-contiguous input is read in place. The result is C-contiguous and
    owns its memory, so :class:`JointDistribution` takes it without a copy.
    With None on every axis, ``values`` comes back as it is.
    """
    x = np.asarray(values)
    if len(mats) != x.ndim:
        raise DataError(f"{len(mats)} matrices for a {x.ndim}-d table")
    lead, trailing = mats[0], mats[1:]
    if lead is not None:
        out = np.empty((lead.shape[0],) + x.shape[1:], dtype=np.result_type(x, lead))
        np.matmul(lead, x.reshape(x.shape[0], -1), out=out.reshape(lead.shape[0], -1))
        x = out
    if all(mat is None for mat in trailing):
        return x
    steps = [None if mat is None else np.asfortranarray(mat) for mat in reversed(trailing)]
    # the shape of a c_0 slice after each step, and the cells it writes
    shape, dtype, cells = x.shape[1:], x.dtype, []
    for mat in steps:
        shape = (shape[-1] if mat is None else mat.shape[0],) + shape[:-1]
        dtype = dtype if mat is None else np.result_type(dtype, mat)
        cells.append(math.prod(shape))
    c0 = x.shape[0]
    out = np.empty((c0,) + shape, dtype=dtype)
    chunk = max(1, _CHUNK_CELLS // max(1, *cells))
    workers = min(_worker_count(), c0) if c0 * max(cells) >= SPLIT_CELLS else 1
    bounds = [c0 * k // workers for k in range(workers + 1)]
    failed = []

    def share(lo: int, hi: int) -> None:
        try:
            _chain(x, steps, out, lo, hi, chunk)
        except BaseException as exc:  # raised again below, in the calling thread
            failed.append(exc)

    started = []
    try:
        for k in range(1, workers):
            thread = threading.Thread(target=share, args=bounds[k:k + 2])
            thread.start()
            started.append(thread)
        share(bounds[0], bounds[1])
    finally:
        for thread in started:
            thread.join()
    if failed:
        raise failed[0]
    return out


def _chain(x: np.ndarray, steps: list, out: np.ndarray, lo: int, hi: int,
           chunk: int) -> None:
    """The trailing ``steps`` of :func:`contract` on the c_0 slices lo:hi of
    ``x``, ``chunk`` slices at a time; each chunk's last step writes into
    ``out``. A step holds its input and its output, no older table."""
    for a in range(lo, hi, chunk):
        y = x[a:min(a + chunk, hi)]
        for k, mat in enumerate(steps):
            slices, n = y.shape[0], y.shape[-1]
            # bound before the new array, so no older table outlives this step
            columns = y.reshape(slices, -1, n).transpose(0, 2, 1)
            rows = n if mat is None else mat.shape[0]
            y = (out[a:a + slices] if k == len(steps) - 1 else
                 np.empty((slices, rows) + y.shape[1:-1],
                          dtype=y.dtype if mat is None else np.result_type(y, mat)))
            if mat is None:
                np.copyto(y.reshape(slices, rows, -1), columns)
            else:
                np.matmul(mat, columns, out=y.reshape(slices, rows, -1))
