"""Multiplexed iCCD click-detector model.

A detection region is an array of N on/off pixels. Each arriving photon is
registered with probability eta and lands on a uniformly random pixel;
every pixel dark-fires independently with probability d = D/N, where D is
the mean dark count per frame over the region. A frame's click number c is
the number of pixels with at least one event, which yields the detection
matrix

    T(c|n) = C(N,c) (1-d)^N (1-eta)^n (-1)^c
             * sum_{l=0}^{c} C(c,l) (-1)^l (1-d)^(-l) [1 + l eta/(N(1-eta))]^n.

The alternating sum loses precision for large c, so the matrix is built
from the equivalent positive-term occupancy decomposition T = D R: a
Markov chain over the distinct pixels hit (R), then the Binomial dark
counts of the idle pixels (D). The tests evaluate the alternating form,
and T = D R in exact arithmetic, as cross-checks (``tests/oracles.py``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .errors import DataError, NumericalError, ParameterError
# apply_matrix stays importable here: the benchmark's tracer (perfbench/workload.py)
# wraps it under this module's name
from .fock import JointDistribution, apply_matrix, contract  # noqa: F401

COLUMN_TOL = 1e-9


@dataclass(frozen=True)
class DetectorConfig:
    """Pixel count, quantum efficiency and per-frame dark-count mean."""

    pixels: int
    efficiency: float
    dark_rate: float

    def __post_init__(self):
        if (isinstance(self.pixels, bool) or not isinstance(self.pixels, (int, np.integer))
                or self.pixels < 1):
            raise ParameterError(f"pixels must be an integer >= 1, got {self.pixels!r}")
        if isinstance(self.efficiency, bool) or not (0.0 <= self.efficiency <= 1.0):
            raise ParameterError(f"efficiency must lie in [0, 1], got {self.efficiency}")
        if isinstance(self.dark_rate, bool) or not 0.0 <= self.dark_rate < math.inf:
            raise ParameterError(f"dark rate must be finite and >= 0, got {self.dark_rate}")
        if self.dark_rate / self.pixels >= 1.0:
            raise ParameterError("per-pixel dark probability D/N must be < 1")

    @property
    def dark_prob(self) -> float:
        """Per-pixel dark-fire probability d = D/N."""
        return self.dark_rate / self.pixels


#: Shipped detector constants: the detectors `simulate` and `ingest` record
#: when no detector file is given.
PAPER_TABLE_1 = {
    "s": DetectorConfig(pixels=4536, efficiency=0.233, dark_rate=0.220),
    "i1": DetectorConfig(pixels=1512, efficiency=0.226, dark_rate=0.073),
    "i2": DetectorConfig(pixels=1512, efficiency=0.226, dark_rate=0.073),
    "i3": DetectorConfig(pixels=1512, efficiency=0.226, dark_rate=0.073),
}


def default_c_max(cfg: DetectorConfig, n_max: int) -> int:
    """Clicks beyond n_max come from dark counts; allow generous headroom."""
    return min(cfg.pixels, n_max + 10 * max(1, math.ceil(cfg.dark_rate)))


@dataclass(frozen=True)
class DetectionMatrix:
    """Column-stochastic map T[c, n] from photon number n to click number c."""

    entries: np.ndarray
    config: DetectorConfig

    def __post_init__(self):
        arr = np.ascontiguousarray(self.entries, dtype=np.float64)
        sums = arr.sum(axis=0)
        # written so that a NaN entry or column sum fails them
        if not np.all(arr >= 0) or not np.all(np.abs(sums - 1.0) <= COLUMN_TOL):
            raise NumericalError("detection matrix is not column-stochastic")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def c_max(self) -> int:
        return self.entries.shape[0] - 1

    @property
    def n_max(self) -> int:
        return self.entries.shape[1] - 1


def detection_matrix(cfg: DetectorConfig, n_max: int,
                     c_max: int | None = None) -> DetectionMatrix:
    """Build T(c|n) for n <= n_max, c <= c_max (defaults to `default_c_max`).

    T = D R, two column-stochastic stages of positive terms. R[j, n] is the
    law of the number j of distinct pixels hit by n arriving photons, a
    Markov chain in which each photon moves j to j + 1 with probability
    eta (N - j)/N (registered, on a fresh pixel). D[c, j] =
    Binomial(N - j, d)(c - j) adds the dark counts of the N - j idle pixels.
    Occupancies j > c_max have no row and lose their mass, which the
    column check reports.
    """
    if c_max is None:
        c_max = default_c_max(cfg, n_max)
    if c_max > cfg.pixels:
        raise ParameterError(f"c_max {c_max} exceeds pixel count {cfg.pixels}")
    N, eta, d = cfg.pixels, cfg.efficiency, cfg.dark_prob
    js = np.arange(n_max + 1)
    fresh = eta * np.maximum(N - js, 0) / N
    stay = (1.0 - eta) + eta * np.minimum(js, N) / N
    occupancy = np.eye(n_max + 1)  # column 0 is j = 0; the chain writes the others
    for n in range(n_max):
        occupancy[:, n + 1] = stay * occupancy[:, n]
        occupancy[1:, n + 1] += fresh[:-1] * occupancy[:-1, n]
    dark = fock.binomial_table(c_max + 1, np.maximum(N - js, 0), d, 1.0 - d)
    T = fock.shifted_columns(dark, c_max + 1) @ occupancy
    deficit = np.abs(T.sum(axis=0) - 1.0).max()
    if deficit > COLUMN_TOL:
        raise NumericalError(
            f"detection matrix columns off stochastic by {deficit:.2e}; "
            "increase c_max")
    T /= T.sum(axis=0, keepdims=True)
    return DetectionMatrix(T, cfg)


def forward_counts(p: JointDistribution,
                   matrices: dict[str, DetectionMatrix]) -> JointDistribution:
    """Photocount distribution f(c) = sum_n prod_axes T(c|n) p(n).

    A normalized ``p`` gives a normalized table, written once: the click-box
    mass z = sum_n p(n) prod_a sum_c T_a(c|n) comes from contracting ``p``
    with the column sums of each matrix (one read of the photon table), and
    the leading axis is contracted with T_0 / z. No pass over the finished
    click table sums or rescales it. An unnormalized ``p`` gets the plain
    contraction.
    """
    mats = _matrices_for(p.axis_labels, matrices)
    for label, mat, size in zip(p.axis_labels, mats, p.values.shape):
        if mat.n_max + 1 < size:
            raise DataError(
                f"detection matrix covers n <= {mat.n_max}, table needs "
                f"{size - 1} on axis {label}")
    ts = [m.entries[:, :size] for m, size in zip(mats, p.values.shape)]
    if p.normalized:
        z = contract(p.values, [t.sum(axis=0, keepdims=True) for t in ts]).item()
        ts[0] = ts[0] / z
    return JointDistribution(contract(p.values, ts), p.axis_labels, normalized=p.normalized)


def _matrices_for(labels, matrices: dict) -> list:
    missing = [l for l in labels if l not in matrices]
    if missing:
        raise DataError(f"no detector entry for axes {missing}")
    return [matrices[l] for l in labels]


#: Most pixel keys one chunk of frames holds; a frame that alone has more
#: forms a chunk of its own.
_KEY_CHUNK = 1 << 17


def sample_counts(photons: np.ndarray, cfgs: dict[str, DetectorConfig],
                  seed: int, out: np.ndarray | None = None) -> np.ndarray:
    """Sample the clicks of each frame pixel by pixel; deterministic per seed.

    ``photons`` has shape (frames, n_axes); the clicks of axis a go to
    column a of ``out``, a new array of ``photons``' shape and dtype when
    ``out`` is None. ``out`` may be ``photons`` itself: each photon column
    is read in full before its click column is written, so the clicks
    overwrite the photon table without a second frame-sized table. An
    ``out`` that is not an int64 array of ``photons``' shape is a
    DataError. ``cfgs`` is keyed by axis label, the columns taking the
    labels of ``AXIS_ORDER``.
    """
    photons = np.asarray(photons)
    cfg_list = _matrices_for(fock.AXIS_ORDER[: photons.shape[1]], cfgs)
    if out is None:
        out = np.empty_like(photons)
    elif not (isinstance(out, np.ndarray) and out.dtype == np.int64
              and out.shape == photons.shape):
        raise DataError(f"out must be an int64 array of shape {photons.shape}")
    rng = np.random.default_rng(seed)
    for axis, cfg in enumerate(cfg_list):
        _sample_clicks_pixelwise(photons[:, axis], cfg, rng, out[:, axis])
    return out


def _sample_clicks_pixelwise(n: np.ndarray, cfg: DetectorConfig,
                             rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Exact per-frame click sampling for varying photon numbers, into ``out``.

    Registered photons are dropped into pixels uniformly; clicks are the
    occupied pixels plus dark pixels, counted once. The occupied-pixel
    count is formed by deduplicating the pixel draws per frame and the
    dark/photon overlap is hypergeometric.

    Each kind of draw runs over all frames before the next one starts, in
    consecutive chunks that consume the generator's stream as one draw
    would: the Binomial thinning and the overlap in chunks of
    ``fock.FRAME_CHUNK`` frames, the pixel keys in chunks of whole frames
    holding at most ``_KEY_CHUNK`` keys (or one frame that alone has more),
    the dark counts in one draw. Keys are frame-major, so deduplicating
    them chunk by chunk is exact. ``n`` is read in full by the thinning
    before ``out`` is written, so ``out`` may share memory with it. Beside
    the two, the sampler holds one frame vector at a time and one chunk.
    """
    frames = n.shape[0]
    N = cfg.pixels
    step = fock.FRAME_CHUNK
    # registered photons per frame, then their running total over the frames
    total = np.empty(frames, dtype=np.int64)
    for lo in range(0, frames, step):
        photons = n[lo: lo + step].astype(np.int64, copy=False)
        total[lo: lo + step] = rng.binomial(photons, cfg.efficiency)
    np.cumsum(total, out=total)
    # one (frame, pixel) key per registered photon of the chunk's frames,
    # sorted and counted once per distinct pixel
    lo = start = 0
    while lo < frames:
        hi = max(lo + 1, int(np.searchsorted(total, start + _KEY_CHUNK, side="right")))
        keys = np.repeat(np.arange(hi - lo, dtype=np.int64),
                         np.diff(total[lo:hi], prepend=start))
        keys *= N
        keys += rng.integers(0, N, size=keys.size)
        keys.sort()
        fresh = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        keys = keys[fresh]
        keys //= N
        out[lo:hi] = np.bincount(keys, minlength=hi - lo)
        lo, start = hi, total[hi - 1]
    del total
    dark = rng.binomial(N, cfg.dark_prob, size=frames)
    for lo in range(0, frames, step):
        occupied, d = out[lo: lo + step], dark[lo: lo + step]
        occupied += d - rng.hypergeometric(d, N - d, occupied)
    return out
