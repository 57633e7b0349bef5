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
