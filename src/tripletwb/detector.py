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
from the equivalent positive-term occupancy decomposition (Binomial
thinning -> occupancy of distinct pixels -> Binomial dark counts), which is
stable to machine precision; the alternating form is kept as a cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from . import fock
from ._kernels import pixel_mc_clicks
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
        if self.pixels < 1:
            raise ParameterError(f"pixels must be >= 1, got {self.pixels}")
        if not (0.0 <= self.efficiency <= 1.0):
            raise ParameterError(f"efficiency must lie in [0, 1], got {self.efficiency}")
        if self.dark_rate < 0.0:
            raise ParameterError(f"dark rate must be >= 0, got {self.dark_rate}")
        if self.dark_rate / self.pixels >= 1.0:
            raise ParameterError("per-pixel dark probability D/N must be < 1")

    @property
    def dark_prob(self) -> float:
        """Per-pixel dark-fire probability d = D/N."""
        return self.dark_rate / self.pixels


#: Detector constants shipped as the "paper-table-1" preset.
PAPER_TABLE_1 = {
    "s": DetectorConfig(pixels=4536, efficiency=0.233, dark_rate=0.220),
    "i1": DetectorConfig(pixels=1512, efficiency=0.226, dark_rate=0.073),
    "i2": DetectorConfig(pixels=1512, efficiency=0.226, dark_rate=0.073),
    "i3": DetectorConfig(pixels=1512, efficiency=0.226, dark_rate=0.073),
}

PRESETS = {"paper-table-1": PAPER_TABLE_1}


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
        if np.any(arr < 0) or np.any(np.abs(sums - 1.0) > COLUMN_TOL):
            raise NumericalError("detection matrix is not column-stochastic")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def c_max(self) -> int:
        return self.entries.shape[0] - 1

    @property
    def n_max(self) -> int:
        return self.entries.shape[1] - 1


def _occupancy_log_table(k_max: int, pixels: int) -> np.ndarray:
    """log P(j distinct occupied pixels | k registered photons), shape (k+1, k+1).

    P(j|k) = C(N,j) S2(k,j) j! / N^k with S2 the Stirling numbers of the
    second kind (occupancy distribution of k balls in N boxes).
    """
    # log-space Stirling recurrence S2(k,j) = j S2(k-1,j) + S2(k-1,j-1)
    log_s2 = np.full((k_max + 1, k_max + 1), -np.inf)
    log_s2[0, 0] = 0.0
    for k in range(1, k_max + 1):
        j = np.arange(1, k + 1)
        log_s2[k, 1: k + 1] = np.logaddexp(
            np.log(j) + log_s2[k - 1, 1: k + 1], log_s2[k - 1, 0: k])
    logp = np.full((k_max + 1, k_max + 1), -np.inf)
    logp[0, 0] = 0.0
    logN = math.log(pixels)
    for k in range(1, k_max + 1):
        j = np.arange(1, min(k, pixels) + 1)
        logp[k, j] = (gammaln(pixels + 1) - gammaln(pixels - j + 1)
                      - k * logN + log_s2[k, j])
    return logp


def _binomial_log_pmf(n: int, p: float, k: np.ndarray) -> np.ndarray:
    if p == 0.0:
        return np.where(k == 0, 0.0, -np.inf)
    if p == 1.0:
        return np.where(k == n, 0.0, -np.inf)
    return (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p))


def detection_matrix(cfg: DetectorConfig, n_max: int,
                     c_max: int | None = None) -> DetectionMatrix:
    """Build T(c|n) for n <= n_max, c <= c_max (defaults to `default_c_max`)."""
    if c_max is None:
        c_max = default_c_max(cfg, n_max)
    if c_max > cfg.pixels:
        raise ParameterError(f"c_max {c_max} exceeds pixel count {cfg.pixels}")
    N, eta, d = cfg.pixels, cfg.efficiency, cfg.dark_prob
    ks = np.arange(n_max + 1)
    occ_log = _occupancy_log_table(n_max, N)
    T = np.zeros((c_max + 1, n_max + 1))
    dark_log = {}  # per distinct-count j: log Binomial(N - j, d) pmf over c - j
    for n in range(n_max + 1):
        pk = np.exp(_binomial_log_pmf(n, eta, ks[: n + 1]))  # registered photons
        col = np.zeros(c_max + 1)
        for k in range(n + 1):
            if pk[k] == 0.0:
                continue
            pj = np.exp(occ_log[k, : k + 1])
            for j in range(min(k, c_max) + 1):
                if pj[j] == 0.0:
                    continue
                if j not in dark_log:
                    m = np.arange(c_max + 1 - j)
                    dark_log[j] = np.exp(_binomial_log_pmf(N - j, d, m))
                col[j:] += pk[k] * pj[j] * dark_log[j]
        T[:, n] = col
    deficit = np.abs(T.sum(axis=0) - 1.0).max()
    if deficit > COLUMN_TOL:
        raise NumericalError(
            f"detection matrix columns off stochastic by {deficit:.2e}; "
            "increase c_max")
    T /= T.sum(axis=0, keepdims=True)
    return DetectionMatrix(T, cfg)


def detection_matrix_alternating(cfg: DetectorConfig, n_max: int,
                                 c_max: int | None = None,
                                 clamp: float = 1e-12,
                                 deficit_tol: float = 1e-9) -> DetectionMatrix:
    """Direct evaluation of the alternating closed form (cross-check route).

    Negative round-off entries below ``clamp`` in magnitude are zeroed and
    the columns renormalized; a larger deficit raises NumericalError.
    """
    if c_max is None:
        c_max = default_c_max(cfg, n_max)
    if c_max > cfg.pixels:
        raise ParameterError(f"c_max {c_max} exceeds pixel count {cfg.pixels}")
    N, eta, d = cfg.pixels, cfg.efficiency, cfg.dark_prob
    n = np.arange(n_max + 1, dtype=np.longdouble)
    T = np.zeros((c_max + 1, n_max + 1), dtype=np.longdouble)
    log1md = np.log1p(np.longdouble(-d)) if d > 0 else np.longdouble(0.0)
    for c in range(c_max + 1):
        logbinNc = gammaln(N + 1) - gammaln(c + 1) - gammaln(N - c + 1)
        acc = np.zeros(n_max + 1, dtype=np.longdouble)
        for l in range(c + 1):
            base = np.longdouble(1.0 - eta + l * eta / N)
            if base == 0.0:
                powv = np.where(n == 0, np.longdouble(1.0), np.longdouble(0.0))
            else:
                powv = np.exp(n * np.log(base))
            logc = gammaln(c + 1) - gammaln(l + 1) - gammaln(c - l + 1)
            term = np.exp(np.longdouble(logc) - l * log1md) * powv
            acc += term if (c - l) % 2 == 0 else -term
        T[c, :] = np.exp(np.longdouble(logbinNc) + N * log1md) * acc
    T = T.astype(np.float64)
    bad = T < 0
    if np.any(T[bad] < -clamp):
        raise NumericalError(
            f"alternating-sum entries as negative as {T.min():.2e}; "
            "use the occupancy route")
    T[bad] = 0.0
    deficit = np.abs(T.sum(axis=0) - 1.0).max()
    if deficit > deficit_tol:
        raise NumericalError(f"column deficit {deficit:.2e} after clamping")
    T /= T.sum(axis=0, keepdims=True)
    return DetectionMatrix(T, cfg)


def forward_counts(p: JointDistribution,
                   matrices: dict[str, DetectionMatrix] | list[DetectionMatrix]) -> JointDistribution:
    """Photocount distribution f(c) = sum_n prod_axes T(c|n) p(n)."""
    mats = _matrices_for(p.axis_labels, matrices)
    for label, mat, size in zip(p.axis_labels, mats, p.values.shape):
        if mat.n_max + 1 < size:
            raise DataError(
                f"detection matrix covers n <= {mat.n_max}, table needs "
                f"{size - 1} on axis {label}")
    vals = contract(p.values, [m.entries[:, :size] for m, size in zip(mats, p.values.shape)])
    total = vals.sum()
    return JointDistribution(vals / total if p.normalized else vals,
                             p.axis_labels, normalized=p.normalized)


def _matrices_for(labels, matrices):
    if isinstance(matrices, dict):
        missing = [l for l in labels if l not in matrices]
        if missing:
            raise DataError(f"no detection matrix for axes {missing}")
        return [matrices[l] for l in labels]
    if len(matrices) != len(labels):
        raise DataError("matrix list length does not match table rank")
    return list(matrices)


def sample_counts(photons: np.ndarray,
                  matrices: dict[str, DetectionMatrix] | list[DetectionMatrix],
                  seed: int,
                  axis_labels: tuple[str, ...] = fock.AXIS_ORDER) -> np.ndarray:
    """Sample clicks per frame from the T(.|n) columns; deterministic per seed.

    ``photons`` has shape (frames, n_axes); the output matches it.
    Detector configs may be passed instead of prebuilt matrices; the
    matrices are then built to cover the sampled photon numbers.
    """
    photons = np.asarray(photons)
    items = (list(matrices.values()) if isinstance(matrices, dict)
             else list(matrices))
    if items and isinstance(items[0], DetectorConfig):
        cfg_list = _matrices_for(axis_labels, matrices)
        rng = np.random.default_rng(seed)
        out = np.empty_like(photons)
        for axis, cfg in enumerate(cfg_list):
            out[:, axis] = _sample_clicks_pixelwise(photons[:, axis], cfg, rng)
        return out
    mats = _matrices_for(axis_labels, matrices)
    rng = np.random.default_rng(seed)
    out = np.empty_like(photons)
    for axis, mat in enumerate(mats):
        n_ax = photons[:, axis]
        if n_ax.max() > mat.n_max:
            raise DataError(f"photon number {n_ax.max()} exceeds matrix n_max {mat.n_max}")
        u = rng.random(photons.shape[0])
        cums = np.cumsum(mat.entries, axis=0)
        for nval in np.unique(n_ax):
            sel = n_ax == nval
            out[sel, axis] = np.searchsorted(cums[:, nval], u[sel], side="right")
    return np.minimum(out, np.array([m.c_max for m in mats])[None, :])


def _sample_clicks_pixelwise(n: np.ndarray, cfg: DetectorConfig,
                             rng: np.random.Generator) -> np.ndarray:
    """Exact per-frame click sampling for varying photon numbers.

    Registered photons are dropped into pixels uniformly; clicks are the
    occupied pixels plus dark pixels, counted once. The occupied-pixel
    count is formed by deduplicating the pixel draws per frame and the
    dark/photon overlap is hypergeometric.
    """
    frames = n.shape[0]
    N = cfg.pixels
    # one (frame, pixel) key per registered photon, sorted and counted once
    # per distinct pixel; in place and freed early, so that the peak holds
    # one key array and not a chain of photon-sized temporaries
    keys = np.repeat(np.arange(frames, dtype=np.int64),
                     rng.binomial(n.astype(np.int64), cfg.efficiency))
    keys *= N
    keys += rng.integers(0, N, size=keys.size)
    keys.sort()
    fresh = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    keys = keys[fresh]
    keys //= N
    occupied = np.bincount(keys, minlength=frames)
    del keys, fresh
    dark = rng.binomial(N, cfg.dark_prob, size=frames)
    overlap = rng.hypergeometric(dark, N - dark, occupied)
    occupied += dark
    occupied -= overlap
    return occupied


def simulate_pixel_clicks(cfg: DetectorConfig, n: int, frames: int, seed: int) -> np.ndarray:
    """Pixel-level Monte Carlo of the click count for fixed photon number n."""
    return pixel_mc_clicks(int(n), cfg.pixels, cfg.efficiency, cfg.dark_prob,
                           int(frames), int(seed))
