"""Nonclassicality engine: intensity moments, s-ordered transforms,
nonclassicality criteria (NCCa), Lee depths and quasi-distributions.

Ordering conventions. Normal-ordered (s = 1) moments of the integrated
intensities equal the multivariate factorial moments of the photon-number
table. Moving to ordering s < 1 convolves, independently per beam, the
intensity statistics with a Gamma kernel of shape M_j (the beam's mode
number) and scale theta = (1 - s)/2:

    <W^k>_s = sum_l C(k,l) <W^l>_1 theta^(k-l) Gamma(M + k - l)/Gamma(M).

The same smoothing acting on the photon-number probabilities via the Mandel
formula gives the s-ordered probabilities

    p_s(n) = sum_k (-1)^|k| <W^(n+k)>_s / (prod_j n_j! k_j!),

an alternating multivariate series whose exact resummation is, per beam,
a stochastic matrix: a Binomial(m, 1/(1+theta)) thinning of m photons to
j, then an NB shift by the Mandel-Rice counts of (M_j + j, theta). Both
evaluations are provided; the resummed form is the default because the
raw series degrades near s = -1. Its tables, like the ordering matrix and
the kernel coefficients, are running products of positive factors.

Both criterion families are one moment-matrix determinant, taken on the
s-ordered intensity moments or on the weighted quasi-probabilities
k! p_s(o + k). A value < 0 certifies nonclassicality; the Lee depth is
tau = (1 - s_th)/2 at the ordering threshold s_th where it changes sign.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import fock
from .errors import CutoffError, DataError, NumericalError, ParameterError
from .fock import JointDistribution, falling_factorial
from .gaussian import mandel_rice_table

S_MIN = -0.999  # lowest ordering the depth search tries: tau = 1 below it
S_TOL = 1e-3  # the bisection stops at this width in s
NCD_BISECTIONS = 40  # ... or after this many halvings
SCAN_POINTS = 17  # orderings of the coarse sign scan over [S_MIN, 1]
_SERIES_TAIL_TOL = 1e-12  # the series route sums its tail to a term below this
_SERIES_K_CAP = 4000  # ... within this many terms
_SHELL_TOL = 1e-6  # default share of the top-order moment the outer shell may carry
#: largest mode number a beam may have: the criteria hold products of up to
#: six factors of M, which overflow a double past M ~ 1e51
MAX_MODES = 1e6


def _theta(s: float) -> float:
    if not (-1.0 < s <= 1.0):
        raise ParameterError(f"ordering parameter s must lie in (-1, 1], got {s}")
    return (1.0 - s) / 2.0


def _check_modes(modes: Sequence[float], ndim: int) -> tuple[float, ...]:
    """One finite, positive mode number up to ``MAX_MODES`` per beam, as floats."""
    modes = tuple(float(x) for x in modes)
    if len(modes) != ndim:
        raise DataError("need one mode number per beam")
    # written so that NaN fails
    if not all(0.0 < M <= MAX_MODES for M in modes):
        raise ParameterError(f"mode numbers must be finite and > 0, at most {MAX_MODES:g}; "
                             f"got {modes}")
    return modes


@dataclass(frozen=True)
class IntensityMoments:
    """Tensor of <prod_j W_j^k_j>_s for per-beam orders k_j <= k_max."""

    tensor: np.ndarray
    s: float
    modes: tuple[float, ...]

    def __post_init__(self):
        if len(self.modes) != self.tensor.ndim:
            raise DataError("mode count does not match moment tensor rank")
        flat0 = self.tensor[(0,) * self.tensor.ndim]
        if abs(flat0 - 1.0) > 1e-9:
            raise DataError(f"zeroth moment must be 1, got {flat0}")

    @property
    def k_max(self) -> int:
        return self.tensor.shape[0] - 1


@dataclass(frozen=True)
class NccResult:
    criterion: str
    value: float
    nonclassical: bool
    ncd: "NcdResult | None" = None


@dataclass(frozen=True)
class NcdResult:
    tau: float
    s_threshold: float | None
    saturated: bool = False
    ambiguous: bool = False


@dataclass(frozen=True)
class NcdField:
    """Lattice of maximal Lee depths of offset probability criteria."""

    values: np.ndarray
    family: str

    def max(self) -> float:
        return float(self.values.max())


@dataclass(frozen=True)
class QuasiProbabilityTable:
    """s-ordered photon-number probabilities (signed in general)."""

    values: np.ndarray
    s: float
    modes: tuple[float, ...]


@dataclass(frozen=True)
class QuasiDistribution:
    """s-ordered quasi-distribution of integrated intensities on a W grid.

    The grid is uniform midpoint: W_i = (i + 1/2) * step[axis].
    """

    values: np.ndarray
    s: float
    modes: tuple[float, ...]
    steps: tuple[float, ...]

    def grid(self, axis: int) -> np.ndarray:
        return (np.arange(self.values.shape[axis]) + 0.5) * self.steps[axis]

    def integral(self) -> float:
        return float(self.values.sum() * math.prod(self.steps))


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def intensity_moments(d: JointDistribution, k_max: int,
                      tail_tol: float = _SHELL_TOL) -> IntensityMoments:
    """Normal-ordered intensity moments = factorial moments of the table.

    The outermost occupation shell must contribute less than ``tail_tol``
    of the top-order moment, otherwise the cutoff is too small.
    """
    if not d.normalized:
        raise DataError("intensity moments need a normalized distribution")
    vals = d.values
    ndim = vals.ndim
    mats = []
    for axis in range(ndim):
        n = np.arange(vals.shape[axis], dtype=np.float64)
        mats.append(np.stack([falling_factorial(n, k) for k in range(k_max + 1)]))
    tensor = fock.contract(vals, mats)
    # outer-shell contribution to the all-k_max moment: weighting the last
    # index of every axis by 0 drops exactly the shell, without a table copy
    top = tensor[(k_max,) * ndim]
    if top > 0:
        t_in = fock.contract(vals, [np.append(m[k_max, :-1], 0.0)[None] for m in mats])
        shell_share = 1.0 - float(t_in.squeeze()) / top
        if shell_share > tail_tol:
            raise CutoffError(
                f"outer shell carries {shell_share:.2e} of the order-{k_max} "
                "moment; enlarge the cutoffs")
    return IntensityMoments(tensor, 1.0, tuple(1.0 for _ in range(ndim)))


def _ordering_matrix(k_max: int, s: float, M: float) -> np.ndarray:
    """S[k, l] = C(k, l) theta^(k-l) Gamma(M + k) / Gamma(M + l).

    Maps normal-ordered intensity moments of an M-mode beam to ordering s
    (theta = (1 - s)/2). For a thermal beam this sends Gamma(M, B) moments
    to Gamma(M, B + theta) moments exactly, i.e. it adds theta mean noise
    photons per mode, which is the defining property of the s-ordered
    smoothing of each mode by a Gaussian of variance theta.
    """
    k = np.arange(k_max + 1)
    rising = np.cumprod(np.append(1.0, M + k[:-1]))  # Gamma(M + k)/Gamma(M)
    comb = np.array([[math.comb(a, b) for b in k] for a in k], dtype=np.float64)  # 0 for l > k
    return comb * _theta(s) ** np.maximum(k[:, None] - k, 0) * rising[:, None] / rising


def s_transform_moments(m: IntensityMoments, s_target: float,
                        modes: Sequence[float]) -> IntensityMoments:
    """Transform normal-ordered moments to ordering ``s_target``."""
    if m.s != 1.0:
        raise DataError("s transform expects normal-ordered (s = 1) input")
    modes = _check_modes(modes, m.tensor.ndim)
    tensor = fock.contract(m.tensor, [_ordering_matrix(m.k_max, s_target, M) for M in modes])
    return IntensityMoments(tensor, s_target, modes)


def _series_smoothing_matrix(n_max: int, m_max: int, s: float, M: float) -> np.ndarray:
    """A[n, m] = sum_k (-1)^k mu(n+k | m) / (n! k!) by direct summation.

    mu(r|m) = sum_l C(r, l) theta^(r-l) Gamma(M+r)/Gamma(M+l) (m)_l is the
    contribution of a unit mass at occupation m to the s-ordered moment
    <W^r>_s. The alternating tail is extended until terms drop below
    ``_SERIES_TAIL_TOL``; no convergence by ``_SERIES_K_CAP`` terms raises
    NumericalError (use the resummed route instead).
    """
    from scipy.special import gammaln, logsumexp  # here: the package starts without it

    th = _theta(s)
    if th == 0.0:
        eye = np.eye(n_max + 1, m_max + 1)
        return eye, np.zeros_like(eye)
    log_th = math.log(th)
    ms = np.arange(m_max + 1, dtype=np.float64)
    ls = np.arange(m_max + 1, dtype=np.float64)
    # log (m)_l, -inf where the falling factorial vanishes
    log_fall = gammaln(ms[:, None] + 1.0) - gammaln(ms[:, None] - ls[None, :] + 1.0)
    log_fall = np.where(ls[None, :] > ms[:, None], -np.inf, log_fall)
    K = 64
    while True:
        r_max = n_max + K
        rs = np.arange(r_max + 1, dtype=np.float64)
        # base[r, l] = log of the (r, l) factor shared by every m, 1/r! folded in
        base = (-gammaln(ls + 1.0)[None, :]
                - gammaln(rs[:, None] - ls[None, :] + 1.0)
                + (rs[:, None] - ls[None, :]) * log_th
                + gammaln(M + rs)[:, None] - gammaln(M + ls)[None, :])
        base = np.where(ls[None, :] > rs[:, None], -np.inf, base)
        # mus[r, m] = mu(r|m)/r! = logsumexp_l exp(base[r, l] + log_fall[m, l])
        mus = np.empty((r_max + 1, m_max + 1))
        for m in range(m_max + 1):
            mus[:, m] = np.exp(logsumexp(base + log_fall[m][None, :], axis=1))
        A = np.zeros((n_max + 1, m_max + 1))
        err = np.zeros((n_max + 1, m_max + 1))
        tail_ok = True
        for n in range(n_max + 1):
            k = np.arange(K + 1, dtype=np.float64)
            # (-1)^k r!/(n! k!) restores mu(r|m)/(n! k!) from mus[r, m]
            coeff = np.exp(gammaln(n + k + 1) - gammaln(k + 1) - gammaln(n + 1))
            coeff[1::2] *= -1.0
            # extended precision: the alternating sum cancels many digits
            terms = coeff[:, None].astype(np.longdouble) * mus[n: n + K + 1, :]
            A[n, :] = terms.sum(axis=0, dtype=np.longdouble).astype(np.float64)
            # round-off estimate per entry: one extended-precision ulp of
            # the largest cancelled term survives the summation
            err[n, :] = np.max(np.abs(terms), axis=0).astype(np.float64) * 1e-19
            if np.max(np.abs(terms[-1])) > _SERIES_TAIL_TOL:
                tail_ok = False
        if tail_ok:
            return A, err
        K *= 2
        if K > _SERIES_K_CAP:
            raise NumericalError(
                "alternating quasi-probability series did not converge; "
                "use the resummed route or a larger ordering parameter")


def _resummed_smoothing_matrix(n_max: int, m_max: int, s: float, M: float) -> np.ndarray:
    """Exact sum of the series, written as a nonnegative stochastic matrix.

    Smoothing an M-mode field to ordering s adds theta mean noise photons
    per mode. The column for occupation m is a Binomial thinning of the m
    photons to j, then an NB shift by the Mandel-Rice counts of M + j modes:

        A[n, m] = sum_j Binomial(m, 1/(1+theta))(j) MR(M + j, theta)(n - j).

    It maps any Mandel-Rice law (M, B) exactly to (M, B + theta).
    """
    th = _theta(s)
    if th == 0.0:
        return np.eye(n_max + 1, m_max + 1)
    j_max = min(n_max, m_max)
    thin = fock.binomial_table(j_max + 1, np.arange(m_max + 1), 1.0 / (1.0 + th), th / (1.0 + th))
    noise = mandel_rice_table(n_max + 1, M + np.arange(j_max + 1), th)
    return fock.shifted_columns(noise, n_max + 1) @ thin


def quasi_probabilities(d: JointDistribution, s: float, modes: Sequence[float],
                        n_box: int | Sequence[int],
                        method: str = "resummed") -> QuasiProbabilityTable:
    """s-ordered probabilities p_s(n) for occupations n_j <= n_box.

    ``method="series"`` sums the alternating moment series directly;
    ``method="resummed"`` evaluates its exact closed-form sum (a per-beam
    signal-plus-thermal-noise photocount matrix). Both return the input
    table at s = 1.
    """
    if not d.normalized:
        raise DataError("quasi-probabilities need a normalized distribution")
    ndim = d.values.ndim
    modes = _check_modes(modes, ndim)
    boxes = [int(n_box)] * ndim if np.isscalar(n_box) else [int(b) for b in n_box]
    vals = d.values
    if method == "resummed":
        # axes that share (box, size, M) share one matrix, built once per call
        build = functools.cache(lambda nb, size, M: _resummed_smoothing_matrix(nb, size - 1, s, M))
        mats = [build(nb, size, M) for nb, size, M in zip(boxes, vals.shape, modes)]
        return QuasiProbabilityTable(fock.contract(vals, mats), s, modes)
    if method != "series":
        raise DataError(f"unknown method {method!r}")
    err_tab = np.zeros_like(vals)
    for axis, (M, nb) in enumerate(zip(modes, boxes)):
        A, E = _series_smoothing_matrix(nb, vals.shape[axis] - 1, s, M)
        # propagate the round-off estimate axis by axis through the same contraction
        err_tab = (fock.apply_matrix(err_tab, np.abs(A), axis)
                   + fock.apply_matrix(np.abs(vals), E, axis))
        vals = fock.apply_matrix(vals, A, axis)
    if float(np.max(err_tab)) > 1e-6:
        raise NumericalError(
            "alternating quasi-probability series loses all significant "
            "digits at this ordering; use the resummed route")
    return QuasiProbabilityTable(vals, s, modes)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

#: k1! k2! k3! for k_j <= 2; powers of two, so weighting by them is exact
_K_FACTORIALS = np.einsum("i,j,k->ijk", *[[1.0, 1.0, 2.0]] * 3)


def moment_criterion(r: np.ndarray, criterion: str) -> float:
    """Moment-matrix determinant of a table r[a, b, c], a, b, c <= 2 (< 0: nonclassical).

    ``"cs"`` is r000 r222 - r111^2; ``"matrix"`` is det [[r000, r010, r101],
    [r010, r020, r111], [r101, r111, r202]]. On s-ordered intensity moments
    these are the intensity criteria; on r(k) = k! p_s(o + k) they are the
    probability criteria at offset o.
    """
    r = np.asarray(r)
    if r.ndim != 3 or min(r.shape) < 3:
        raise DataError(f"criteria need a 3-beam table up to order 2, got shape {r.shape}")

    def q(a, b, c):
        return float(r[a, b, c])

    if criterion == "cs":
        return q(0, 0, 0) * q(2, 2, 2) - q(1, 1, 1) ** 2
    if criterion == "matrix":
        return (q(2, 0, 2) * q(0, 2, 0) * q(0, 0, 0)
                + 2.0 * q(1, 1, 1) * q(0, 1, 0) * q(1, 0, 1)
                - q(1, 0, 1) ** 2 * q(0, 2, 0)
                - q(0, 1, 0) ** 2 * q(2, 0, 2)
                - q(1, 1, 1) ** 2 * q(0, 0, 0))
    raise DataError(f"unknown criterion {criterion!r}")


def _factorial_weighted(p: np.ndarray, offset: tuple[int, int, int]) -> np.ndarray:
    """r(k) = k! p(offset + k) for k_j <= 2: the probability criteria's table."""
    if p.ndim == 3:
        o1, o2, o3 = offset
        p = p[o1:o1 + 3, o2:o2 + 3, o3:o3 + 3]
    if p.shape != (3, 3, 3):
        raise DataError(f"probability criteria need 3 beams covering offset {offset} plus 2")
    return p * _K_FACTORIALS


def intensity_criterion(d: JointDistribution, criterion: str, modes: Sequence[float],
                        tail_tol: float = _SHELL_TOL) -> Callable[[float], float]:
    """The intensity criterion of a 3D field as a function of the ordering s."""
    base = intensity_moments(d, 2, tail_tol=tail_tol)
    return lambda s: moment_criterion(s_transform_moments(base, s, modes).tensor, criterion)


def probability_criterion(d: JointDistribution, criterion: str,
                          modes: Sequence[float]) -> Callable[[float], float]:
    """The probability criterion of a 3D field on the cube [0, 2]^3, a function of s."""
    return lambda s: moment_criterion(
        _factorial_weighted(quasi_probabilities(d, s, modes, 2).values, (0, 0, 0)), criterion)


# ---------------------------------------------------------------------------
# Lee nonclassicality depth
# ---------------------------------------------------------------------------

def ncd(evaluator: Callable[[float], float]) -> NcdResult:
    """Lee depth tau = (1 - s_th)/2 from the sign change of a criterion.

    ``evaluator(s)`` returns the criterion value at ordering s; negative
    means nonclassical. Classical at s = 1 gives tau = 0; nonclassical all
    the way down to S_MIN gives tau = 1 with the saturation flag. A coarse
    scan detects non-monotone sign patterns; those are flagged ambiguous
    and resolved at the largest classical-to-nonclassical transition.
    """
    v1 = evaluator(1.0)
    if v1 >= 0.0:
        return NcdResult(0.0, None)
    v_lo = evaluator(S_MIN)
    if v_lo < 0.0:
        return NcdResult(1.0, None, saturated=True)
    grid = np.linspace(S_MIN, 1.0, SCAN_POINTS)
    signs = []
    vals = {S_MIN: v_lo, 1.0: v1}
    for sv in grid:
        sv = float(sv)
        if sv not in vals:
            vals[sv] = evaluator(sv)
        signs.append(vals[sv] < 0.0)
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    # bracket the highest classical -> nonclassical transition
    hi_idx = max(i for i in range(len(grid) - 1) if (not signs[i]) and signs[i + 1])
    lo, hi = float(grid[hi_idx]), float(grid[hi_idx + 1])
    for _ in range(NCD_BISECTIONS):
        if hi - lo <= S_TOL:
            break
        mid = 0.5 * (lo + hi)
        if evaluator(mid) < 0.0:
            hi = mid
        else:
            lo = mid
    s_th = 0.5 * (lo + hi)
    return NcdResult((1.0 - s_th) / 2.0, s_th, ambiguous=changes > 1)


def _scored(name: str, evaluator: Callable[[float], float]) -> NccResult:
    """A criterion's value at s = 1 and its Lee depth."""
    value = evaluator(1.0)
    return NccResult(name, value, value < 0.0, ncd=ncd(evaluator))


def intensity_ncd(d: JointDistribution, criterion: str, modes: Sequence[float],
                  tail_tol: float = _SHELL_TOL) -> NccResult:
    """NCD of an intensity criterion ("cs" or "matrix") for a 3D field."""
    return _scored(f"{criterion}_intensity", intensity_criterion(d, criterion, modes, tail_tol))


def probability_ncd(d: JointDistribution, criterion: str,
                    modes: Sequence[float]) -> NccResult:
    """NCD of a probability criterion ("cs" or "matrix") for a 3D field."""
    return _scored(f"{criterion}_probability", probability_criterion(d, criterion, modes))


def ncd_field(d: JointDistribution, criterion: str, modes: Sequence[float],
              box: tuple[int, int, int]) -> NcdField:
    """Lattice field of Lee depths of the offset probability criteria.

    At lattice point n the criterion instance uses probabilities from the
    cube [n, n+2]^3; points where the criterion is classical at s = 1 get
    tau = 0. The box must be nonnegative and stay 2 below the table cutoffs.
    """
    if min(box) < 0:
        raise DataError(f"lattice box must be nonnegative, got {tuple(box)}")
    if any(b + 2 > n - 1 for b, n in zip(box, d.values.shape)):
        raise DataError("box plus criterion span exceeds table cutoffs")
    n_box = tuple(b + 2 for b in box)
    # one quasi-probability table per ordering, shared by all offsets
    table_at = functools.cache(lambda s: quasi_probabilities(d, s, modes, n_box).values)
    out = np.zeros(tuple(b + 1 for b in box))
    for off in np.ndindex(out.shape):
        out[off] = ncd(lambda s: moment_criterion(_factorial_weighted(table_at(s), off),
                                                  criterion)).tau
    return NcdField(out, f"{criterion}_probability")


# ---------------------------------------------------------------------------
# quasi-distributions of integrated intensities
# ---------------------------------------------------------------------------

def _axis_scale(mean_n: float, var_n: float, s: float, M: float) -> tuple[float, float]:
    """Mean and standard deviation of the s-ordered intensity on one axis.

    ``mean_n`` and ``var_n`` are the photon-number mean and variance of
    that axis.
    """
    th = _theta(s)
    mean = mean_n + M * th
    var = max(var_n - mean_n, 0.0) + 2.0 * th * mean_n + M * th * th
    return mean, math.sqrt(max(var, 1e-12))


#: largest Laguerre recurrence value kept: the kernel's products must not overflow
_LAGUERRE_GUARD = 1e250


def _laguerre_kernel(w: np.ndarray, n_max: int, s: float, M: float) -> np.ndarray:
    """Kernel table K_{s,M}(W, n), shape (w.size, n_max + 1).

    K_{s,M}(W, n) = 2/(1-s) (2W/(1-s))^(M-1) exp(-2W/(1-s)) / Gamma(M)
                    n! Gamma(M) / Gamma(n+M) ((s+1)/(s-1))^n L_n^(M-1)(4W/(1-s^2)),

    evaluated by the upward three-term recurrence in n,
    (n+1) L_{n+1}^a(x) = (2n+1+a-x) L_n^a(x) - (n+a) L_{n-1}^a(x).
    A recurrence value or coefficient (1/M near M = 0) beyond the guard
    raises NumericalError.
    """
    w = np.asarray(w, dtype=np.float64)
    y = 2.0 * w / (1.0 - s)
    x = 4.0 * w / (1.0 - s * s)
    # the Gamma(M) density in one exponent: past M = 171 its factors overflow alone
    pref = 2.0 / (1.0 - s) * np.exp((M - 1.0) * np.log(np.maximum(y, 1e-300)) - y - math.lgamma(M))
    ratio = (s + 1.0) / (s - 1.0)
    out = np.empty((w.size, n_max + 1), dtype=np.float64)
    lm1 = np.zeros_like(w)
    l0 = np.ones_like(w)
    a = M - 1.0
    cn = 1.0  # n! Gamma(M)/Gamma(n+M) ratio^n, a running product in n
    for n in range(n_max + 1):
        out[:, n] = pref * cn * l0
        lnext = ((2 * n + 1 + a - x) * l0 - (n + a) * lm1) / (n + 1.0)
        lm1, l0 = l0, lnext
        cn *= (n + 1.0) / (n + M) * ratio
        # written so that an infinite or NaN coefficient fails too
        if np.max(np.abs(l0)) > _LAGUERRE_GUARD or not abs(cn) <= _LAGUERRE_GUARD:
            raise NumericalError(f"Laguerre recurrence overflow at n = {n + 1}")
    return out


def quasi_distribution_W(d: JointDistribution, s: float, modes: Sequence[float],
                         points: int = 400) -> QuasiDistribution:
    """Synthesize P_s(W) on a uniform midpoint grid via the Laguerre kernel.

    The per-beam kernel K_{s,M}(W, n) is contracted against the photon
    table. Each axis spans 16 standard deviations of its s-ordered
    intensity above the mean. Grid moments up to order 3 per beam are
    checked against the moment transform (relative 1e-4) and the grid
    integral against 1 (1e-3); a failure raises NumericalError. The check
    sums the grid's moments per axis, from the kernels and the table, and
    reads no grid. A grid or kernel too large to hold (:func:`check_grid`)
    is a DataError, raised before any allocation.
    """
    if not d.normalized:
        raise DataError("quasi-distribution needs a normalized distribution")
    if not (-1.0 < s < 1.0):
        raise ParameterError("quasi-distribution synthesis needs s in (-1, 1)")
    modes = _check_modes(modes, d.values.ndim)
    check_grid(d.values.shape, points)
    steps = []
    kernels = []
    vals = d.values
    mom = fock.table_moments(vals, d.axis_labels)
    for axis, (label, M) in enumerate(zip(d.axis_labels, modes)):
        # 16 sigma: third-order grid moments must hold to 1e-4, and the
        # synthesized density has slowly decaying signed tails
        mean, sd = _axis_scale(mom["mean"][label], mom["cov"][(label, label)], s, M)
        step = (mean + 16.0 * sd) / points
        w = (np.arange(points) + 0.5) * step
        steps.append(step)
        kernels.append(_laguerre_kernel(w, vals.shape[axis] - 1, s, M))
    out = QuasiDistribution(fock.contract(vals, kernels), s, modes, tuple(steps))
    _validate_quasi(out, d, kernels)
    return out


def check_grid(shape: Sequence[int], points: int) -> None:
    """Raise DataError unless a grid of ``points`` per axis over a table of
    ``shape`` can be synthesized: at least 2 points, and neither the grid
    (points^ndim cells) nor a kernel (points x n_a cells) above
    ``fock.MAX_CELLS``.

    Cheap enough to run before a grid is synthesized.
    """
    if points < 2:
        raise DataError("grid needs at least 2 points")
    grid, kernel = points ** len(shape), points * max(shape)
    if max(grid, kernel) > fock.MAX_CELLS:
        raise DataError(f"{points} points per axis make a grid of {grid} cells and kernels "
                        f"of up to {kernel}, above the {fock.MAX_CELLS} cells a grid may hold")


def _kernel_moments(q: QuasiDistribution, d: JointDistribution,
                    kernels: Sequence[np.ndarray]) -> np.ndarray:
    """Grid moments sum_W prod_j W_j^k_j P_s(W) dW, k_j <= 3, without the grid.

    The grid is the table contracted with the kernels K_a, so the table
    contracted with (P_a @ K_a) * step_a, P_a the powers W^0..W^3 of axis
    a, sums the same cells in another order.
    """
    mats = [np.stack([q.grid(a) ** k for k in range(4)]) @ kern * step
            for a, (kern, step) in enumerate(zip(kernels, q.steps))]
    return fock.contract(d.values, mats)


def _validate_quasi(q: QuasiDistribution, d: JointDistribution,
                    kernels: Sequence[np.ndarray]) -> None:
    """Check the grid integral (to 1e-3) and moments to order 3 (relative 1e-4)."""
    grid_mom = _kernel_moments(q, d, kernels)
    total = float(grid_mom[(0,) * grid_mom.ndim])
    if not abs(total - 1.0) <= 1e-3:  # written so that NaN fails
        raise NumericalError(
            f"quasi-distribution integrates to {total:.6f} on the grid")
    exact = s_transform_moments(intensity_moments(d, 3, tail_tol=1.0),
                                q.s, q.modes).tensor
    err = np.abs(grid_mom - exact) / np.maximum(np.abs(exact), 1e-9)
    if not float(err.max()) <= 1e-4:
        raise NumericalError(
            f"Laguerre kernel failed the moment check (max rel err {err.max():.2e})")


# ---------------------------------------------------------------------------
# plane cuts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlaneCut:
    """2D extraction of a 3D lattice or grid field.

    ``kind="diagonal"`` is the plane n_i1 = n_i2, parameterized by the
    common value u along the 1-2 diagonal and v = n_i3. ``kind="triangular"``
    is the plane n_i1 + n_i2 + n_i3 = level, parameterized by u = n_i1 and
    v = n_i3 (so n_i2 = level - u - v); cells off the plane are NaN.
    """

    kind: str
    level: float | None
    u: np.ndarray
    v: np.ndarray
    values: np.ndarray

    def columns(self) -> dict[str, np.ndarray]:
        """``u``, ``v`` and ``value`` of every cell in (u, v) order, NaN cells
        skipped: the cut's CSV columns."""
        i, j = np.nonzero(~np.isnan(self.values))
        return {"u": self.u[i], "v": self.v[j], "value": self.values[i, j]}


def plane_cut(field: np.ndarray | QuasiDistribution, kind: str,
              level: int | float | None = None) -> PlaneCut:
    """Diagonal or triangular plane cut of a 3D field.

    Accepts a 3D array (lattice data: axis coordinates 0, 1, ...; an
    integer level inside the box) or a :class:`QuasiDistribution` (grid
    data: coordinates at cell midpoints). The triangular cut holds, at
    (u, v), the axis-1 cell nearest w = level - u - v, halves rounding to
    even, while 0 <= w <= the axis-1 edge; on a lattice that cell is w.
    """
    grid = isinstance(field, QuasiDistribution)
    arr = field.values if grid else np.asarray(field)
    if arr.ndim != 3:
        raise DataError("plane cuts need a 3-axis field")
    check_cut(kind, level)
    if grid:
        (u, w_axis, v), offset, step = (field.grid(a) for a in range(3)), 0.5, field.steps[1]
    else:
        (u, w_axis, v), offset, step = (np.arange(n) for n in arr.shape), 0.0, 1
        if kind == "triangular" and level != int(level):
            raise DataError(f"a lattice cut needs an integer level, got {level}")
        if kind == "triangular" and not 0 <= int(level) <= sum(n - 1 for n in arr.shape):
            raise DataError(f"level {int(level)} outside the box")
    if kind == "diagonal":
        k = np.arange(min(arr.shape[0], arr.shape[1]))
        return PlaneCut("diagonal", None, u[k], v, arr[k, k])
    level = float(level) if grid else int(level)
    w = level - u[:, None] - v[None, :]
    on = (w >= 0) & (w <= w_axis[-1] + offset * step)
    i, j = np.nonzero(on)
    idx = np.clip(np.rint(w[on] / step - offset).astype(np.intp), 0, arr.shape[1] - 1)
    vals = np.full(w.shape, np.nan)
    vals[on] = arr[i, idx, j]
    return PlaneCut("triangular", level, u, v, vals)


def check_cut(kind: str, level: float | None) -> None:
    """Raise DataError unless ``kind`` and ``level`` name a plane cut.

    Cheap enough to run before a grid is synthesized.
    """
    if kind not in ("diagonal", "triangular"):
        raise DataError(f"unknown cut kind {kind!r}")
    if kind == "diagonal" and level is not None:
        raise DataError(f"a diagonal cut takes no level, got {level}")
    if kind == "triangular":
        if level is None:
            raise DataError("triangular cuts need a level")
        if not math.isfinite(level):
            raise DataError(f"triangular cut level must be finite, got {level}")
