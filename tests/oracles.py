"""Reference routes that cross-check the production code in the tests.

Each one is a slow or independent evaluation of a quantity the package
computes another way; none of them is on the package's own code path.
"""
from __future__ import annotations

import csv
import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction
from io import StringIO
from math import comb
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from tripletwb import emrec, fock
from tripletwb.detector import DetectionMatrix, DetectorConfig, _matrices_for, default_c_max
from tripletwb.errors import DataError, NumericalError, ParameterError
from tripletwb.fock import AXIS_ORDER, JointDistribution, check_tail
from tripletwb.gaussian import (DEFAULT_IDLER_CUTOFF, DEFAULT_SIGNAL_CUTOFF, PARAM_KEYS,
                                TripleTwbParams, mandel_rice_vector)
from tripletwb.nonclassical import _laguerre_kernel, _theta


def resummed_smoothing_matrix_loop(n_max: int, m_max: int, s: float, M: float) -> np.ndarray:
    """The resummed smoothing matrix, summed term by term at 50 digits.

    A[n, m] = sum_{j <= min(n, m)} Binomial(m, p)(j) MR(M + j, theta)(n - j)
    with p = 1/(1+theta) and MR(M', theta)(k) = (M')_k / k! (theta p)^k p^M',
    the closed form ``nonclassical._resummed_smoothing_matrix`` builds from
    its tables. Every term is positive, so ``decimal`` sums from the exact
    binary values of theta and M are good to far below a double's last
    place; each entry is rounded once to float.
    """
    th = _theta(s)
    if th == 0.0:
        return np.eye(n_max + 1, m_max + 1)
    A = np.zeros((n_max + 1, m_max + 1))
    with localcontext() as ctx:
        ctx.prec = 50
        th, M = Decimal(th), Decimal(M)
        p = 1 / (1 + th)
        q = th * p

        def mr(modes: Decimal, k: int) -> Decimal:
            rising = math.prod((modes + i for i in range(k)), start=Decimal(1))
            return rising / math.factorial(k) * q ** k * p ** modes
        for n in range(n_max + 1):
            for m in range(m_max + 1):
                A[n, m] = float(sum(comb(m, j) * p ** j * q ** (m - j) * mr(M + j, n - j)
                                    for j in range(min(n, m) + 1)))
    return A


def axis_contraction(values: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    """``mat[c, n]`` against axis ``axis`` of ``values`` by ``np.tensordot``,
    the new axis moved back to its place: the per-axis route
    ``fock.contract`` is checked against."""
    return np.moveaxis(np.tensordot(mat, values, axes=(1, axis)), 0, axis)


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
        k = _laguerre_kernel(w, m_max, s, M)  # (points, m_max+1)
        ns = np.arange(n_box + 1, dtype=np.float64)
        logpois = ns[:, None] * np.log(w)[None, :] - w[None, :] - gammaln(ns + 1.0)[:, None]
        Q = (np.exp(logpois) @ k) * step  # (n_box+1, m_max+1)
        vals = axis_contraction(vals, Q, axis)
    return vals


def em_reconstruct_full_box(f: JointDistribution, matrices, settings, trials=None):
    """EM on the whole click box, one ``axis_contraction`` per axis and direction.

    The map ``emrec.em_reconstruct`` ran before it moved to the observed
    click box and ``fock.contract``, with the same three stops. Returns
    (p, iterations, loglik trace, residual trace, stop).

    The axes go in the order ``fock.contract`` sums them: 0, then d-1, ..., 1.
    Unobserved click cells add exact zeros, so the two routes then round
    alike (bit for bit on the tests' tables); in another order the
    iterates drift apart by a few ulps, and the residual trace, a
    difference of nearby iterates, by ~1e-12 relative.
    """
    mat_objs = _matrices_for(f.axis_labels, matrices)
    mats = [np.ascontiguousarray(mat.entries[: cdim])
            for mat, cdim in zip(mat_objs, f.values.shape)]

    order = [0, *range(len(mats) - 1, 0, -1)]

    def forward(values):
        for axis in order:
            values = axis_contraction(values, mats[axis], axis)
        return values

    def backward(values):
        for axis in order:
            values = axis_contraction(values, mats[axis].T, axis)
        return values

    fv = f.values
    p = np.full([m.n_max + 1 for m in mat_objs], 1.0)
    p /= p.size
    support = fv > 0
    logliks, residuals = [], []
    stop = "budget"
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
            stop = "residual"
            break
        if trials is not None and it > 1 and (
                trials * (logliks[-1] - logliks[-2]) < emrec.STOP_GAIN_NATS):
            stop = "likelihood"
            break
    return p, it, np.asarray(logliks), np.asarray(residuals), stop


def forward_counts_then_normalized(p: JointDistribution, matrices) -> np.ndarray:
    """The click table contracted first and divided by its sum afterwards.

    The route ``detector.forward_counts`` took before it folded the
    normalization into the leading axis's matrix.
    """
    mats = _matrices_for(p.axis_labels, matrices)
    vals = fock.contract(p.values, [m.entries[:, :size] for m, size in zip(mats, p.values.shape)])
    return vals / vals.sum()


def paired_part(params: TripleTwbParams,
                signal_cutoff: int = DEFAULT_SIGNAL_CUTOFF,
                idler_cutoffs: tuple[int, int, int] = (DEFAULT_IDLER_CUTOFF,) * 3,
                tail_tol: float = fock.TAIL_TOL) -> JointDistribution:
    """Paired 4D distribution, supported on n_s = n_i1 + n_i2 + n_i3.

    Each pair component contributes identical photon numbers on the signal
    and its idler axis, so the joint table is the outer product of the three
    idler Mandel-Rice pmfs placed on the pairing hyperplane. The first half
    of the long route to ``GaussianFieldModel.distribution``'s table;
    ``compose_with_noise`` is the second.
    """
    c1, c2, c3 = idler_cutoffs
    p1 = mandel_rice_vector(c1, params.pair_1)
    p2 = mandel_rice_vector(c2, params.pair_2)
    p3 = mandel_rice_vector(c3, params.pair_3)
    outer = p1[:, None, None] * p2[None, :, None] * p3[None, None, :]
    vals = np.zeros((signal_cutoff + 1, c1 + 1, c2 + 1, c3 + 1))
    n1, n2, n3 = np.indices(outer.shape)
    total = n1 + n2 + n3
    inside = total <= signal_cutoff
    vals[total[inside], n1[inside], n2[inside], n3[inside]] = outer[inside]
    check_tail(1.0 - vals.sum(), tail_tol, "paired part")
    return JointDistribution(vals, AXIS_ORDER)


def compose_with_noise(paired: JointDistribution, params: TripleTwbParams,
                       tail_tol: float = fock.TAIL_TOL) -> JointDistribution:
    """Convolve independent Mandel-Rice noise onto each axis of the paired part.

    One Toeplitz sweep per axis, then a sum and a rescale of the whole
    table; the model sums the same terms as nested signal-axis convolutions.
    """
    convs = []
    for size, comp in zip(paired.values.shape, params.noises):
        pmf = mandel_rice_vector(size - 1, comp)
        # lower-triangular Toeplitz: conv[n, l] = pmf[n - l]; B = 0 gives the identity
        idx = np.arange(size)
        diff = idx[:, None] - idx[None, :]
        convs.append(np.where(diff >= 0, pmf[np.clip(diff, 0, size - 1)], 0.0))
    vals = fock.contract(paired.values, convs)
    mass = vals.sum()
    check_tail(1.0 - mass, tail_tol, "composed model")
    return JointDistribution(vals / mass, paired.axis_labels, normalized=True)


def sample_photon_numbers_per_component(params: TripleTwbParams, trials: int,
                                        seed: int) -> np.ndarray:
    """``gaussian.sample_photon_numbers`` with one frame array per component.

    The same draws in the same order, each over all frames at once: one
    Gamma and one Poisson draw per component in PARAM_KEYS order, summed
    onto the axes afterwards. The production sampler draws the Poissons in
    chunks of frames and adds them straight into its one table.
    """
    rng = np.random.default_rng(seed)

    def draw(name: str) -> np.ndarray:
        comp = getattr(params, name)
        if comp.B == 0.0:
            return np.zeros(trials, dtype=np.int64)
        return rng.poisson(rng.gamma(comp.M, comp.B, size=trials)).astype(np.int64)

    pair_counts = [draw(k) for k in PARAM_KEYS[:3]]
    noise = [draw(k) for k in PARAM_KEYS[3:]]
    out = np.empty((trials, 4), dtype=np.int64)
    out[:, 0] = pair_counts[0] + pair_counts[1] + pair_counts[2] + noise[0]
    for j in range(3):
        out[:, j + 1] = pair_counts[j] + noise[j + 1]
    return out


def sample_clicks_pixelwise_copying(n: np.ndarray, cfg, rng: np.random.Generator) -> np.ndarray:
    """``detector._sample_clicks_pixelwise`` with a fresh array per step.

    The same draws in the same order, each over all frames at once: one
    key array of every registered photon, sorted as a whole. The
    production sampler draws each kind in chunks of frames, with at most
    ``detector._KEY_CHUNK`` keys per chunk unless one frame alone has more.
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


def binned_tuple_index(clicks: np.ndarray, box: Sequence[int]) -> fock.Histogram:
    """``fock.Histogram.binned`` with one index array per axis.

    ``np.add.at`` on the 4D table with the tuple of the in-box frames'
    columns; the production route adds one flat cell index per frame.
    """
    keep = np.all(clicks <= np.asarray(box), axis=1)
    counts = np.zeros([int(c) + 1 for c in box], dtype=np.int64)
    np.add.at(counts, tuple(clicks[keep].T), 1)
    return fock.Histogram(counts, keep.sum())


def _binomial_terms(n: int, p: Decimal, q: Decimal, k_max: int) -> list[Decimal]:
    """Binomial(n, p)(k) for k <= k_max, each term C(n, k) p^k q^(n-k) on its own."""
    def power(x, e):
        return Decimal(1) if e == 0 else x ** e  # Decimal refuses 0 ** 0
    return [comb(n, k) * power(p, k) * power(q, n - k) if k <= n else Decimal(0)
            for k in range(k_max + 1)]


def detection_matrix_loop(cfg: DetectorConfig, n_max: int, c_max: int) -> np.ndarray:
    """T(c|n) by the occupancy decomposition in exact and 40-digit arithmetic.

    T(c|n) = sum_k Bin(n, eta)(k) sum_j O(j|k) Bin(N - j, d)(c - j), with
    O(j|k) = C(N, j) S2(k, j) j! / N^k the law of the number j of distinct
    pixels hit by k registered photons. The Stirling numbers S2 and O are
    exact Python integers and fractions; the Binomial terms and the sums
    are ``decimal`` at 40 digits, from the exact binary values of eta and
    d. Shares no helper with ``tripletwb.detector``. Unnormalized and
    unchecked: the raw T(c|n) before the column check, rounded once to
    float.
    """
    N = cfg.pixels
    # S2(k, j) = j S2(k-1, j) + S2(k-1, j-1), S2(0, 0) = 1
    s2 = [[1] + [0] * n_max]
    for k in range(1, n_max + 1):
        s2.append([0] + [j * s2[k - 1][j] + s2[k - 1][j - 1] for j in range(1, n_max + 1)])
    with localcontext() as ctx:
        ctx.prec = 40
        eta, d = Decimal(cfg.efficiency), Decimal(cfg.dark_prob)
        occupancy = [[Fraction(comb(N, j) * s2[k][j] * math.factorial(j), N ** k)
                      for j in range(n_max + 1)] for k in range(n_max + 1)]
        # Q[n][j]: probability of j distinct pixels hit after n arriving photons
        Q = []
        for n in range(n_max + 1):
            thin = _binomial_terms(n, eta, 1 - eta, n)
            Q.append([sum(thin[k] * Decimal(o.numerator) / Decimal(o.denominator)
                          for k, o in enumerate(col[j] for col in occupancy[: n + 1]))
                      for j in range(n_max + 1)])
        dark = [_binomial_terms(max(N - j, 0), d, 1 - d, c_max - j)
                for j in range(min(n_max, c_max) + 1)]
        T = np.zeros((c_max + 1, n_max + 1))
        for n in range(n_max + 1):
            for c in range(c_max + 1):
                T[c, n] = float(sum(dark[j][c - j] * Q[n][j]
                                    for j in range(min(c, n_max) + 1)))
    return T


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


def write_cells_loop(path, header: list[str], table: np.ndarray, keep: np.ndarray,
                     cell) -> None:
    """A ``cell..., value`` CSV written row by row through the ``csv`` module.

    ``io._write_cells`` writes the same bytes in blocks; ``cell`` formats one
    value (``int`` for histogram counts, ``"{:.17g}".format`` for values).
    """
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for idx in np.argwhere(keep):
            writer.writerow([*idx.tolist(), cell(table[tuple(idx)])])


def table_moments_reductions(rel: np.ndarray, labels) -> dict:
    """Means and covariances from one full-table ``sum`` per 1D and 2D marginal.

    The former ``fit.table_moments``: 14 reductions of a 4D table.
    """
    means = {}
    cov = {}
    grids = [np.arange(n, dtype=np.float64) for n in rel.shape]
    for a, la in enumerate(labels):
        marg = rel.sum(axis=tuple(x for x in range(rel.ndim) if x != a))
        means[la] = float(np.dot(grids[a], marg))
    for a, la in enumerate(labels):
        for b, lb in enumerate(labels):
            if b < a:
                cov[(la, lb)] = cov[(lb, la)]
                continue
            keep = (a, b) if a != b else (a,)
            marg = rel.sum(axis=tuple(x for x in range(rel.ndim) if x not in keep))
            if a == b:
                second = float(np.dot(grids[a] ** 2, marg))
                cov[(la, lb)] = second - means[la] ** 2
            else:
                second = float(grids[a] @ marg @ grids[b])
                cov[(la, lb)] = second - means[la] * means[lb]
    return {"mean": means, "cov": cov}


def declination_dense(h: fock.Histogram, f_model: JointDistribution,
                      eps: float = 1e-10) -> float:
    """The Pearson declination summed over every cell of the dense table."""
    rel = h.counts / h.trials
    f = f_model.values
    if rel.shape != f.shape:
        raise DataError("histogram and model cutoffs do not match")
    return float(np.sum((rel - f) ** 2 / np.maximum(f, eps)))


def declination_serial_fold(h: fock.Histogram, f_model: JointDistribution) -> float:
    """``fit.declination`` as one thread folds it: the dense term block by
    block into one running sum, then the correction on the observed cells.

    The reference for its bits: a fold that adds the block sums in another
    order, or in another grouping, reads other bits.
    """
    from tripletwb.fit import DECLINATION_BLOCK, DECLINATION_EPS
    cells, rel = h.support
    flat = f_model.values.reshape(-1)
    buf = np.empty(min(DECLINATION_BLOCK, flat.size))
    dense = 0.0
    for start in range(0, flat.size, DECLINATION_BLOCK):
        block = flat[start: start + DECLINATION_BLOCK]
        clipped = np.minimum(block, DECLINATION_EPS, out=buf[: block.size])
        dense += float(np.dot(block, clipped))
    dense /= DECLINATION_EPS
    fs = flat[cells]
    return dense + float(np.sum(rel * (rel - 2.0 * fs) / np.maximum(fs, DECLINATION_EPS)))


def grid_moments(q, k_max: int) -> np.ndarray:
    """Grid moments sum_W prod_j W_j^k_j P_s(W) dW for every k_j <= k_max.

    Read from the finished grid: the reference for
    ``nonclassical._kernel_moments``, which sums the same moments per axis
    from the kernels. The grid axes are contracted in memory order,
    outermost first, so the grid is read in place and never copied.
    """
    order = sorted(range(q.values.ndim), key=lambda a: -q.values.strides[a])
    powers = [np.stack([q.grid(axis) ** k for k in range(k_max + 1)]) for axis in order]
    grid_mom = fock.contract(q.values.transpose(order), powers)
    return grid_mom.transpose(np.argsort(order)) * math.prod(q.steps)


def quasi_kernels(q, d: JointDistribution) -> list[np.ndarray]:
    """The per-axis Laguerre kernels ``quasi_distribution_W`` built for ``q``."""
    return [_laguerre_kernel(q.grid(a), n - 1, q.s, M)
            for a, (n, M) in enumerate(zip(d.values.shape, q.modes))]


def triangular_cut_loop(arr: np.ndarray, level: int) -> np.ndarray:
    """The lattice plane n_i1 + n_i2 + n_i3 = level, one cell at a time,
    over the full (n_i1, n_i3) box."""
    vals = np.full((arr.shape[0], arr.shape[2]), np.nan)
    for i in range(arr.shape[0]):
        for j in range(arr.shape[2]):
            n2 = level - i - j
            if 0 <= n2 < arr.shape[1]:
                vals[i, j] = arr[i, n2, j]
    return vals


def grid_triangular_cut_loop(q, level: float) -> np.ndarray:
    """The W-grid plane W_1 + W_2 + W_3 = level, nearest grid cell on axis 1."""
    arr = q.values
    g0, g1, g2 = (q.grid(a) for a in range(3))
    vals = np.full((arr.shape[0], arr.shape[2]), np.nan)
    for i in range(arr.shape[0]):
        for j in range(arr.shape[2]):
            w2 = level - g0[i] - g2[j]
            if w2 < 0 or w2 > g1[-1] + 0.5 * q.steps[1]:
                continue
            idx = int(round(w2 / q.steps[1] - 0.5))
            idx = min(max(idx, 0), arr.shape[1] - 1)
            vals[i, j] = arr[i, idx, j]
    return vals


def csv_text_loop(header: list[str], rows) -> bytes:
    """``header`` and ``rows`` written one by one through the ``csv`` module,
    an integer field with ``%d`` and any other with ``'{:.17g}'``: the bytes
    ``io.save_columns`` writes in blocks."""
    out = StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    for row in rows:
        writer.writerow(["%d" % x if isinstance(x, (int, np.integer)) else "{:.17g}".format(x)
                         for x in row])
    return out.getvalue().encode()


def rewrite_csv_loop(src, dst) -> None:
    """The CSV at ``src`` parsed field by field, integer text as an int and
    any other as a float, and written again to ``dst`` by ``csv_text_loop``."""
    with Path(src).open(newline="") as fh:
        header, *rows = csv.reader(fh)
    parsed = [[int(x) if re.fullmatch(r"-?[0-9]+", x) else float(x) for x in row]
              for row in rows]
    Path(dst).write_bytes(csv_text_loop(header, parsed))


def plane_cut_csv_loop(pc) -> bytes:
    """A plane cut's ``u,v,value`` CSV one cell at a time, NaN cells skipped."""
    rows = [(uu, vv, pc.values[i, j]) for i, uu in enumerate(pc.u)
            for j, vv in enumerate(pc.v) if not np.isnan(pc.values[i, j])]
    return csv_text_loop(["u", "v", "value"], rows)


def model_moments(params: TripleTwbParams) -> dict:
    """Closed-form first and second photon-number moments of the model.

    Axis variances add the M B (1+B) of every component on that axis;
    the only nonzero covariances are cov(n_s, n_ij) = M_pj B_pj (1+B_pj)
    through the shared pair components.
    """
    labels = AXIS_ORDER
    means = {l: params.axis_mean(l) for l in labels}
    var = {
        "s": sum(p.variance for p in params.pairs) + params.noise_s.variance,
        "i1": params.pair_1.variance + params.noise_i1.variance,
        "i2": params.pair_2.variance + params.noise_i2.variance,
        "i3": params.pair_3.variance + params.noise_i3.variance,
    }
    cov = {(a, b): 0.0 for a in labels for b in labels}
    for l in labels:
        cov[(l, l)] = var[l]
    for j, l in enumerate(("i1", "i2", "i3")):
        cov[("s", l)] = cov[(l, "s")] = params.pairs[j].variance
    return {"mean": means, "cov": cov}


def stats_row_marginals(d3: JointDistribution):
    """Idler means, Fano factors and correlations from 15 marginal reductions.

    The former ``postselect._stats_row``: 3 axis marginals for the means,
    3 more for the Fano factors, and 2 axis marginals plus 1 pair marginal
    for each of the 3 correlations. Returns (means, fanos, corrs).
    """
    def axis_moments(axis):
        marg = fock.marginalize(d3, [axis]).values
        n = np.arange(marg.size)
        mean = float(np.dot(n, marg))
        return mean, float(np.dot((n - mean) ** 2, marg))

    def corr(a, b):
        (ma, va), (mb, vb) = axis_moments(a), axis_moments(b)
        pair = fock.marginalize(d3, [a, b]).values
        na = np.arange(pair.shape[0], dtype=np.float64)
        nb = np.arange(pair.shape[1], dtype=np.float64)
        return (float(na @ pair @ nb) - ma * mb) / np.sqrt(va * vb)

    idlers = ("i1", "i2", "i3")
    means = tuple(axis_moments(a)[0] for a in idlers)
    fanos = tuple(v / m for m, v in (axis_moments(a) for a in idlers))
    corrs = (corr("i1", "i2"), corr("i1", "i3"), corr("i2", "i3"))
    return means, fanos, corrs


def cs_intensity_formula(t: np.ndarray) -> float:
    """Cauchy-Schwarz intensity criterion <W1^2 W2^2 W3^2> - <W1 W2 W3>^2.

    The former ``nonclassical.ncc_cs_intensity``, written out on the moment
    tensor with the zeroth moment taken as exactly 1.
    """
    return float(t[2, 2, 2] - t[1, 1, 1] ** 2)


def matrix_intensity_formula(t: np.ndarray) -> float:
    """Five-term intensity matrix criterion (beams 1 and 3 against beam 2).

    The former ``nonclassical.ncc_matrix_intensity``, with the zeroth moment
    taken as exactly 1.
    """
    return float(
        t[2, 0, 2] * t[0, 2, 0]
        + 2.0 * t[1, 1, 1] * t[0, 1, 0] * t[1, 0, 1]
        - t[1, 0, 1] ** 2 * t[0, 2, 0]
        - t[0, 1, 0] ** 2 * t[2, 0, 2]
        - t[1, 1, 1] ** 2)


def probability_criterion_formula(p: np.ndarray, criterion: str,
                                  offset: tuple[int, int, int]) -> float:
    """Probability criteria with all arguments translated by ``offset``.

    The former ``nonclassical.ncc_probability``: the factorial weights of
    the moment-matrix determinant written out as the constants 2, 4 and 8.
    """
    o = offset

    def q(a, b, c):
        return float(p[o[0] + a, o[1] + b, o[2] + c])

    if criterion == "cs":
        return 8.0 * q(0, 0, 0) * q(2, 2, 2) - q(1, 1, 1) ** 2
    return (8.0 * q(2, 0, 2) * q(0, 2, 0) * q(0, 0, 0)
            + 2.0 * q(1, 1, 1) * q(0, 1, 0) * q(1, 0, 1)
            - 2.0 * q(1, 0, 1) ** 2 * q(0, 2, 0)
            - 4.0 * q(0, 1, 0) ** 2 * q(2, 0, 2)
            - q(1, 1, 1) ** 2 * q(0, 0, 0))
