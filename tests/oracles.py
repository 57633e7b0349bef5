"""Reference routes that cross-check the production code in the tests.

Each one is a slow or independent evaluation of a quantity the package
computes another way; none of them is on the package's own code path.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.special import gammaln, logsumexp

from tripletwb import fock
from tripletwb._kernels import laguerre_kernel
from tripletwb.detector import _matrices_for
from tripletwb.errors import DataError
from tripletwb.fock import JointDistribution
from tripletwb.nonclassical import _theta


def resummed_smoothing_matrix_loop(n_max: int, m_max: int, s: float, M: float) -> np.ndarray:
    """The resummed smoothing matrix, one scalar ``logsumexp`` per entry.

    The same closed form as ``nonclassical._resummed_smoothing_matrix``,
    summed entry by entry over j <= min(n, m).
    """
    th = _theta(s)
    if th == 0.0:
        return np.eye(n_max + 1, m_max + 1)
    log_a = math.log(th) - math.log1p(th)
    log_c2 = -math.log(th) - math.log1p(th)
    A = np.zeros((n_max + 1, m_max + 1))
    js = np.arange(min(n_max, m_max) + 1, dtype=np.float64)
    for n in range(n_max + 1):
        pref = (n * math.log(th) - (n + M) * math.log1p(th)
                + gammaln(n + M))
        j = js[: min(n, m_max) + 1]
        for m in range(m_max + 1):
            jj = j[: min(n, m) + 1]
            logs = (pref + gammaln(m + 1.0)
                    + jj * log_c2 + (m - jj) * log_a
                    - gammaln(M + jj) - gammaln(n - jj + 1.0)
                    - gammaln(jj + 1.0) - gammaln(m - jj + 1.0))
            A[n, m] = np.exp(logsumexp(logs))
    return A


def kernel_route_probabilities(d: JointDistribution, s: float,
                               modes: Sequence[float], n_box: int,
                               points: int = 20000) -> np.ndarray:
    """p_s(n) via fine 1D quadratures of the Laguerre kernel per beam.

    Integrates K_{s,M}(W, m) against the Poisson kernels W^n e^-W / n!,
    then contracts with the photon table. Cross-validates the series /
    resummed routes of ``nonclassical.quasi_probabilities``.
    """
    modes = tuple(float(x) for x in modes)
    th = _theta(s)
    vals = d.values
    for axis, M in enumerate(modes):
        m_max = vals.shape[axis] - 1
        wmax = 3.0 * (m_max + M * th + 25.0)
        step = wmax / points
        w = (np.arange(points) + 0.5) * step
        k = laguerre_kernel(w, m_max, s, M)  # (points, m_max+1)
        ns = np.arange(n_box + 1, dtype=np.float64)
        logpois = ns[:, None] * np.log(w)[None, :] - w[None, :] - gammaln(ns + 1.0)[:, None]
        Q = (np.exp(logpois) @ k) * step  # (n_box+1, m_max+1)
        vals = fock.apply_matrix(vals, Q, axis)
    return vals


def em_reconstruct_full_box(f: JointDistribution, matrices, settings,
                            photon_cutoffs=None, start=None):
    """EM on the whole click box, one ``apply_matrix`` per axis and direction.

    The map ``emrec.em_reconstruct`` ran before it moved to the observed
    click box and ``fock.contract``. Returns (p, iterations, loglik trace,
    residual trace, converged).
    """
    mat_objs = _matrices_for(f.axis_labels, matrices)
    if photon_cutoffs is None:
        photon_cutoffs = tuple(m.n_max for m in mat_objs)
    mats = [np.ascontiguousarray(mat.entries[: cdim, : cut + 1])
            for mat, cut, cdim in zip(mat_objs, photon_cutoffs, f.values.shape)]

    def forward(values):
        for axis, mat in enumerate(mats):
            values = fock.apply_matrix(values, mat, axis)
        return values

    def backward(values):
        for axis, mat in enumerate(mats):
            values = fock.apply_matrix(values, mat.T, axis)
        return values

    fv = f.values
    if start is not None:
        p = start.values.astype(np.float64).copy()
        p /= p.sum()
    else:
        p = np.full([c + 1 for c in photon_cutoffs], 1.0)
        p /= p.size
    support = fv > 0
    logliks, residuals = [], []
    converged = False
    it = 0
    for it in range(1, settings.max_iterations + 1):
        den = forward(p)
        if np.any(den[support] <= 0.0):
            raise DataError("unsupported outcome")
        ratio = np.where(support, fv / np.where(den > 0, den, 1.0), 0.0)
        logliks.append(float(np.sum(fv[support] * np.log(den[support]))))
        p_new = p * backward(ratio)
        p_new /= p_new.sum()
        residual = float(np.max(np.abs(p_new - p)))
        residuals.append(residual)
        p = p_new
        if residual < settings.stop_tolerance:
            converged = True
            break
    return p, it, np.asarray(logliks), np.asarray(residuals), converged


def sample_clicks_pixelwise_copying(n: np.ndarray, cfg, rng: np.random.Generator) -> np.ndarray:
    """``detector._sample_clicks_pixelwise`` with a fresh array per step.

    The same draws in the same order; the production sampler works on one
    key array in place to bound its peak memory.
    """
    frames = n.shape[0]
    N = cfg.pixels
    detected = rng.binomial(n.astype(np.int64), cfg.efficiency)
    offsets = np.repeat(np.arange(frames, dtype=np.int64), detected)
    pix = rng.integers(0, N, size=offsets.size)
    keys = np.sort(offsets * N + pix)
    fresh = np.ones(keys.size, dtype=bool)
    fresh[1:] = np.diff(keys) != 0
    occupied = np.bincount((keys // N)[fresh], minlength=frames)
    dark = rng.binomial(N, cfg.dark_prob, size=frames)
    overlap = rng.hypergeometric(dark, N - dark, occupied)
    return occupied + dark - overlap
