"""Dense multivariate photon-number / photocount tables and their algebra.

A :class:`JointDistribution` is a strictly nonnegative table over 1 to 4
integer occupation axes labeled from ``("s", "i1", "i2", "i3")``. A
:class:`Histogram` holds raw per-cell frame counts. Signed tables (the
s-ordered quasi-probabilities) live in :mod:`tripletwb.nonclassical`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CutoffError, DataError

AXIS_ORDER = ("s", "i1", "i2", "i3")

NORM_TOL = 1e-9
#: Mass discarded by a truncation box must stay below this unless the caller
#: explicitly loosens it (heavy-tailed noise components need a looser box).
TAIL_TOL = 1e-8


def _check_labels(labels: Sequence[str], ndim: int) -> tuple[str, ...]:
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
        if arr.ndim < 1 or arr.ndim > 4:
            raise DataError(f"tables must have 1 to 4 axes, got {arr.ndim}")
        _check_labels(self.axis_labels, arr.ndim)
        if np.any(arr < 0):
            raise DataError("negative cell in a probability table")
        if self.normalized and abs(arr.sum() - 1.0) > NORM_TOL:
            raise DataError(f"normalized table sums to {arr.sum()!r}")
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
    """Raw integer click counts per (c_s, c_i1, c_i2, c_i3) cell."""

    counts: np.ndarray
    trials: int
    axis_labels: tuple[str, ...] = AXIS_ORDER

    def __post_init__(self):
        arr = np.ascontiguousarray(self.counts)
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

    @property
    def cutoffs(self) -> tuple[int, ...]:
        return tuple(n - 1 for n in self.counts.shape)


def check_tail(discarded: float, tol: float = TAIL_TOL, what: str = "table") -> None:
    """Raise :class:`CutoffError` when a truncation discards too much mass."""
    if discarded > tol:
        raise CutoffError(
            f"{what}: discarded tail mass {discarded:.3e} exceeds {tol:.1e}; "
            "enlarge the cutoffs or loosen tail_tol")


def normalize(h: Histogram) -> JointDistribution:
    """Empirical frequency table counts/trials."""
    if h.trials <= 0:
        raise DataError("empty histogram")
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


def factorial_moment(d: JointDistribution,
                     orders: Mapping[str, int] | Sequence[int]) -> float:
    """Multivariate factorial moment sum p(n) prod_j n_j (n_j-1)...(n_j-k_j+1).

    Normal-ordered intensity moments of the detected field equal these
    factorial moments, which is why they feed the nonclassicality criteria.
    """
    if not d.normalized:
        raise DataError("factorial_moment requires a normalized distribution")
    if isinstance(orders, Mapping):
        ks = [int(orders.get(l, 0)) for l in d.axis_labels]
    else:
        ks = [int(k) for k in orders]
        if len(ks) != d.values.ndim:
            raise DataError("orders length does not match table rank")
    if any(k < 0 for k in ks):
        raise DataError("factorial moment orders must be >= 0")
    acc = d.values
    for axis in reversed(range(d.values.ndim)):
        n = np.arange(acc.shape[axis], dtype=np.float64)
        w = falling_factorial(n, ks[axis])
        acc = np.tensordot(acc, w, axes=(axis, 0))
    return float(acc)


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
    """Contract ``mat[c, n]`` against occupation axis ``axis`` of ``values``."""
    out = np.tensordot(mat, values, axes=(1, axis))
    return np.moveaxis(out, 0, axis)


def contract(values: np.ndarray, mats: Sequence[np.ndarray]) -> np.ndarray:
    """Contract ``mats[a][c, n]`` against axis ``a`` of ``values``, for every axis.

    Each step is one GEMM on the leading axis, ``rest.T @ mat.T`` with
    ``rest`` the table viewed as (n, everything else); the new axis lands
    last. After one step per axis the axes are back in their original
    order and the result is C-contiguous, with no ``moveaxis`` copies.
    A C-contiguous input is read in place.
    """
    out = np.asarray(values)
    if len(mats) != out.ndim:
        raise DataError(f"{len(mats)} matrices for a {out.ndim}-d table")
    for mat in mats:
        rest = out.reshape(out.shape[0], -1)
        out = (rest.T @ mat.T).reshape(out.shape[1:] + (mat.shape[0],))
    return out


def pad_to(d: JointDistribution, cutoffs: Sequence[int]) -> JointDistribution:
    """Zero-pad the table so each axis reaches at least the given cutoff."""
    shape = d.values.shape
    target = tuple(max(s, c + 1) for s, c in zip(shape, cutoffs))
    if target == shape:
        return d
    vals = np.zeros(target)
    vals[tuple(slice(0, s) for s in shape)] = d.values
    return JointDistribution(vals, d.axis_labels, normalized=d.normalized)
