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

an alternating multivariate series whose exact partial resummation is a
per-beam convolution with the Mandel-Rice pmf of (M_j, theta): adding Gamma
intensity noise adds thermal counts. Both evaluations are provided; the
resummed form is the default because the raw series degrades near s = -1.

A criterion value < 0 certifies nonclassicality; the Lee depth is
tau = (1 - s_th)/2 at the ordering threshold s_th where the criterion
changes sign.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaln, logsumexp

from . import fock
from ._kernels import laguerre_kernel
from .errors import CutoffError, DataError, NumericalError, ParameterError
from .fock import JointDistribution, falling_factorial

S_MIN = -0.999


def _theta(s: float) -> float:
    if not (-1.0 < s <= 1.0):
        raise ParameterError(f"ordering parameter s must lie in (-1, 1], got {s}")
    return (1.0 - s) / 2.0


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
                      tail_tol: float = 1e-6) -> IntensityMoments:
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
    # outer-shell contribution to the all-k_max moment
    top = tensor[(k_max,) * ndim]
    if top > 0:
        inner = vals.copy()
        sl = [slice(None)] * ndim
        for axis in range(ndim):
            sl_ax = sl.copy()
            sl_ax[axis] = -1
            inner[tuple(sl_ax)] = 0.0
        t_in = fock.contract(inner, [m[k_max: k_max + 1] for m in mats])
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
    th = _theta(s)
    S = np.zeros((k_max + 1, k_max + 1))
    for k in range(k_max + 1):
        for l in range(k + 1):
            S[k, l] = (math.comb(k, l) * th ** (k - l)
                       * math.exp(gammaln(M + k) - gammaln(M + l)))
    return S


def s_transform_moments(m: IntensityMoments, s_target: float,
                        modes: Sequence[float]) -> IntensityMoments:
    """Transform normal-ordered moments to ordering ``s_target``."""
    if m.s != 1.0:
        raise DataError("s transform expects normal-ordered (s = 1) input")
    modes = tuple(float(x) for x in modes)
    if len(modes) != m.tensor.ndim:
        raise DataError("need one mode number per beam")
    if any(M <= 0 for M in modes):
        raise ParameterError("mode numbers must be > 0")
    tensor = fock.contract(m.tensor, [_ordering_matrix(m.k_max, s_target, M) for M in modes])
    return IntensityMoments(tensor, s_target, modes)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def ncc_cs_intensity(m: IntensityMoments) -> NccResult:
    """Cauchy-Schwarz intensity criterion <W1^2 W2^2 W3^2> - <W1 W2 W3>^2."""
    if m.tensor.ndim != 3 or m.k_max < 2:
        raise DataError("criterion needs 3 beams and orders up to 2")
    t = m.tensor
    value = float(t[2, 2, 2] - t[1, 1, 1] ** 2)
    return NccResult("cs_intensity", value, value < 0.0)


def ncc_matrix_intensity(m: IntensityMoments) -> NccResult:
    """Five-term intensity matrix criterion (beams 1 and 3 against beam 2)."""
    if m.tensor.ndim != 3 or m.k_max < 2:
        raise DataError("criterion needs 3 beams and orders up to 2")
    t = m.tensor
    value = float(
        t[2, 0, 2] * t[0, 2, 0]
        + 2.0 * t[1, 1, 1] * t[0, 1, 0] * t[1, 0, 1]
        - t[1, 0, 1] ** 2 * t[0, 2, 0]
        - t[0, 1, 0] ** 2 * t[2, 0, 2]
        - t[1, 1, 1] ** 2)
    return NccResult("matrix_intensity", value, value < 0.0)


def _series_smoothing_matrix(n_max: int, m_max: int, s: float, M: float,
                             tol: float = 1e-12, k_cap: int = 4000) -> np.ndarray:
    """A[n, m] = sum_k (-1)^k mu(n+k | m) / (n! k!) by direct summation.

    mu(r|m) = sum_l C(r, l) theta^(r-l) Gamma(M+r)/Gamma(M+l) (m)_l is the
    contribution of a unit mass at occupation m to the s-ordered moment
    <W^r>_s. The alternating tail is extended until terms drop below
    ``tol``; no convergence by ``k_cap`` raises NumericalError (use the
    resummed route instead).
    """
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
            if np.max(np.abs(terms[-1])) > tol:
                tail_ok = False
        if tail_ok:
            return A, err
        K *= 2
        if K > k_cap:
            raise NumericalError(
                "alternating quasi-probability series did not converge; "
                "use the resummed route or a larger ordering parameter")


def _resummed_smoothing_matrix(n_max: int, m_max: int, s: float, M: float) -> np.ndarray:
    """Exact sum of the series, written as a nonnegative stochastic matrix.

    Smoothing an M-mode field to ordering s adds theta mean noise photons
    per mode, so the column for occupation m is the photocount law of a
    coherent signal superposed with M-mode thermal noise, expanded in the
    Poisson basis:

        A[n, m] = theta^n / (1+theta)^(n+M) * Gamma(n+M) * m!
                  * sum_j c2^j a^(m-j) / (Gamma(M+j) (n-j)! j! (m-j)!)

    with a = theta/(1+theta), c2 = 1/(theta (1+theta)). It maps any
    Mandel-Rice law (M, B) exactly to (M, B + theta).
    """
    th = _theta(s)
    if th == 0.0:
        return np.eye(n_max + 1, m_max + 1)
    log_a = math.log(th) - math.log1p(th)
    log_c2 = -math.log(th) - math.log1p(th)
    n = np.arange(n_max + 1, dtype=np.float64)[:, None, None]
    m = np.arange(m_max + 1, dtype=np.float64)[None, :, None]
    j = np.arange(min(n_max, m_max) + 1, dtype=np.float64)[None, None, :]
    # log-terms over (n, m, j); the sum runs over j <= min(n, m) only
    logs = (n * math.log(th) - (n + M) * math.log1p(th) + gammaln(n + M)
            + gammaln(m + 1.0) + j * log_c2 + (m - j) * log_a
            - gammaln(M + j) - gammaln(np.maximum(n - j, 0.0) + 1.0)
            - gammaln(j + 1.0) - gammaln(np.maximum(m - j, 0.0) + 1.0))
    logs = np.where((j <= n) & (j <= m), logs, -np.inf)
    return np.exp(logsumexp(logs, axis=-1))


def quasi_probabilities(d: JointDistribution, s: float, modes: Sequence[float],
                        n_box: int | Sequence[int], method: str = "resummed",
                        tol: float = 1e-12) -> QuasiProbabilityTable:
    """s-ordered probabilities p_s(n) for occupations n_j <= n_box.

    ``method="series"`` sums the alternating moment series directly;
    ``method="resummed"`` evaluates its exact closed-form sum (a per-beam
    signal-plus-thermal-noise photocount matrix). Both return the input
    table at s = 1.
    """
    if not d.normalized:
        raise DataError("quasi-probabilities need a normalized distribution")
    modes = tuple(float(x) for x in modes)
    ndim = d.values.ndim
    if len(modes) != ndim:
        raise DataError("need one mode number per beam")
    boxes = [int(n_box)] * ndim if np.isscalar(n_box) else [int(b) for b in n_box]
    vals = d.values
    if method == "resummed":
        mats = [_resummed_smoothing_matrix(nb, size - 1, s, M)
                for size, M, nb in zip(vals.shape, modes, boxes)]
        return QuasiProbabilityTable(fock.contract(vals, mats), s, modes)
    if method != "series":
        raise DataError(f"unknown method {method!r}")
    err_tab = np.zeros_like(vals)
    for axis, (M, nb) in enumerate(zip(modes, boxes)):
        A, E = _series_smoothing_matrix(nb, vals.shape[axis] - 1, s, M, tol=tol)
        # propagate the round-off estimate axis by axis through the same contraction
        err_tab = (fock.apply_matrix(err_tab, np.abs(A), axis)
                   + fock.apply_matrix(np.abs(vals), E, axis))
        vals = fock.apply_matrix(vals, A, axis)
    if float(np.max(err_tab)) > 1e-6:
        raise NumericalError(
            "alternating quasi-probability series loses all significant "
            "digits at this ordering; use the resummed route")
    return QuasiProbabilityTable(vals, s, modes)


def ncc_probability(table: QuasiProbabilityTable, criterion: str,
                    offset: tuple[int, int, int] = (0, 0, 0)) -> NccResult:
    """Probability criteria with all arguments translated by ``offset``."""
    p = table.values
    if p.ndim != 3:
        raise DataError("probability criteria need 3 beams")
    o = tuple(int(x) for x in offset)
    for j in range(3):
        if o[j] < 0 or o[j] + 2 > p.shape[j] - 1:
            raise DataError(f"table does not cover offset {o} plus 2 on axis {j}")

    def q(a, b, c):
        return float(p[o[0] + a, o[1] + b, o[2] + c])

    if criterion == "cs":
        value = 8.0 * q(0, 0, 0) * q(2, 2, 2) - q(1, 1, 1) ** 2
        name = "cs_probability"
    elif criterion == "matrix":
        value = (8.0 * q(2, 0, 2) * q(0, 2, 0) * q(0, 0, 0)
                 + 2.0 * q(1, 1, 1) * q(0, 1, 0) * q(1, 0, 1)
                 - 2.0 * q(1, 0, 1) ** 2 * q(0, 2, 0)
                 - 4.0 * q(0, 1, 0) ** 2 * q(2, 0, 2)
                 - q(1, 1, 1) ** 2 * q(0, 0, 0))
        name = "matrix_probability"
    else:
        raise DataError(f"unknown probability criterion {criterion!r}")
    return NccResult(name, value, value < 0.0)


# ---------------------------------------------------------------------------
# Lee nonclassicality depth
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NcdSettings:
    s_min: float = S_MIN
    s_tol: float = 1e-3
    max_iterations: int = 40
    scan_points: int = 17


def ncd(evaluator: Callable[[float], float],
        settings: NcdSettings = NcdSettings()) -> NcdResult:
    """Lee depth tau = (1 - s_th)/2 from the sign change of a criterion.

    ``evaluator(s)`` returns the criterion value at ordering s; negative
    means nonclassical. Classical at s = 1 gives tau = 0; nonclassical all
    the way down to s_min gives tau = 1 with the saturation flag. A coarse
    scan detects non-monotone sign patterns; those are flagged ambiguous
    and resolved at the largest classical-to-nonclassical transition.
    """
    v1 = evaluator(1.0)
    if v1 >= 0.0:
        return NcdResult(0.0, None)
    v_lo = evaluator(settings.s_min)
    if v_lo < 0.0:
        return NcdResult(1.0, None, saturated=True)
    grid = np.linspace(settings.s_min, 1.0, settings.scan_points)
    signs = []
    vals = {settings.s_min: v_lo, 1.0: v1}
    for sv in grid:
        sv = float(sv)
        if sv not in vals:
            vals[sv] = evaluator(sv)
        signs.append(vals[sv] < 0.0)
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    # bracket the highest classical -> nonclassical transition
    hi_idx = max(i for i in range(len(grid) - 1) if (not signs[i]) and signs[i + 1])
    lo, hi = float(grid[hi_idx]), float(grid[hi_idx + 1])
    for _ in range(settings.max_iterations):
        if hi - lo <= settings.s_tol:
            break
        mid = 0.5 * (lo + hi)
        if evaluator(mid) < 0.0:
            hi = mid
        else:
            lo = mid
    s_th = 0.5 * (lo + hi)
    return NcdResult((1.0 - s_th) / 2.0, s_th, ambiguous=changes > 1)


def intensity_ncd(d: JointDistribution, criterion: str, modes: Sequence[float],
                  settings: NcdSettings = NcdSettings(),
                  tail_tol: float = 1e-6) -> NccResult:
    """NCD of an intensity criterion ("cs" or "matrix") for a 3D field."""
    base = intensity_moments(d, 2, tail_tol=tail_tol)
    crit = {"cs": ncc_cs_intensity, "matrix": ncc_matrix_intensity}[criterion]

    def evaluator(s: float) -> float:
        return crit(s_transform_moments(base, s, modes)).value

    at1 = crit(s_transform_moments(base, 1.0, modes))
    depth = ncd(evaluator, settings)
    return NccResult(at1.criterion, at1.value, at1.nonclassical, ncd=depth)


def probability_ncd(d: JointDistribution, criterion: str, modes: Sequence[float],
                    offset: tuple[int, int, int] = (0, 0, 0),
                    settings: NcdSettings = NcdSettings(),
                    method: str = "resummed") -> NccResult:
    """NCD of a probability criterion at one lattice offset."""
    box = tuple(offset[j] + 2 for j in range(3))

    def evaluator(s: float) -> float:
        table = quasi_probabilities(d, s, modes, box, method=method)
        return ncc_probability(table, criterion, offset).value

    at1 = ncc_probability(quasi_probabilities(d, 1.0, modes, box), criterion, offset)
    depth = ncd(evaluator, settings)
    return NccResult(at1.criterion, at1.value, at1.nonclassical, ncd=depth)


def ncd_field(d: JointDistribution, criterion: str, modes: Sequence[float],
              box: tuple[int, int, int],
              settings: NcdSettings = NcdSettings(),
              method: str = "resummed") -> NcdField:
    """Lattice field of Lee depths of the offset probability criteria.

    At lattice point n the criterion instance uses probabilities from the
    cube [n, n+2]^3; points where the criterion is classical at s = 1 get
    tau = 0. The box must stay 2 below the table cutoffs.
    """
    for j in range(3):
        if box[j] + 2 > d.values.shape[j] - 1:
            raise DataError("box plus criterion span exceeds table cutoffs")
    n_box = tuple(b + 2 for b in box)
    cache: dict[float, QuasiProbabilityTable] = {}

    def table_at(s: float) -> QuasiProbabilityTable:
        if s not in cache:
            cache[s] = quasi_probabilities(d, s, modes, n_box, method=method)
        return cache[s]

    out = np.zeros(tuple(b + 1 for b in box))
    for o1 in range(box[0] + 1):
        for o2 in range(box[1] + 1):
            for o3 in range(box[2] + 1):
                off = (o1, o2, o3)

                def evaluator(s: float, off=off) -> float:
                    return ncc_probability(table_at(s), criterion, off).value

                out[off] = ncd(evaluator, settings).tau
    return NcdField(out, f"{criterion}_probability")


# ---------------------------------------------------------------------------
# quasi-distributions of integrated intensities
# ---------------------------------------------------------------------------

def _axis_scale(d: JointDistribution, axis: int, s: float, M: float) -> tuple[float, float]:
    """Mean and standard deviation of the s-ordered intensity on one axis."""
    marg = d.values
    drop = tuple(a for a in range(marg.ndim) if a != axis)
    m = marg.sum(axis=drop) if drop else marg
    n = np.arange(m.size, dtype=np.float64)
    w1 = float(np.dot(n, m))
    w2 = float(np.dot(n * (n - 1.0), m))
    th = _theta(s)
    mean = w1 + M * th
    var = max(w2 - w1 * w1, 0.0) + 2.0 * th * w1 + M * th * th
    return mean, math.sqrt(max(var, 1e-12))


def quasi_distribution_W(d: JointDistribution, s: float, modes: Sequence[float],
                         points: int = 400, w_max: Sequence[float] | None = None,
                         validate: bool = True) -> QuasiDistribution:
    """Synthesize P_s(W) on a uniform midpoint grid via the Laguerre kernel.

    The per-beam kernel K_{s,M}(W, n) is contracted against the photon
    table. When ``validate`` is set, grid moments up to order 3 per beam
    are checked against the moment transform (relative 1e-4) and the grid
    integral against 1 (1e-3); a failure raises NumericalError.
    """
    if not d.normalized:
        raise DataError("quasi-distribution needs a normalized distribution")
    if not (-1.0 < s < 1.0):
        raise ParameterError("quasi-distribution synthesis needs s in (-1, 1)")
    modes = tuple(float(x) for x in modes)
    ndim = d.values.ndim
    if len(modes) != ndim:
        raise DataError("need one mode number per beam")
    if points < 2:
        raise DataError("grid needs at least 2 points")
    steps = []
    kernels = []
    vals = d.values
    for axis, M in enumerate(modes):
        if w_max is None:
            # 16 sigma: third-order grid moments must hold to 1e-4, and the
            # synthesized density has slowly decaying signed tails
            mean, sd = _axis_scale(d, axis, s, M)
            wmax_ax = mean + 16.0 * sd
        else:
            wmax_ax = float(w_max[axis])
        step = wmax_ax / points
        w = (np.arange(points) + 0.5) * step
        try:
            k = laguerre_kernel(w, vals.shape[axis] - 1, s, M)
        except FloatingPointError as exc:
            raise NumericalError(str(exc)) from exc
        steps.append(step)
        kernels.append(k)
    out = QuasiDistribution(fock.contract(vals, kernels), s, modes, tuple(steps))
    if validate:
        _validate_quasi(out, d)
    return out


def _validate_quasi(q: QuasiDistribution, d: JointDistribution,
                    k_check: int = 3, rel_tol: float = 1e-4,
                    norm_tol: float = 1e-3) -> None:
    # contract the grid axes in memory order, outermost first: the first
    # contraction then reads the grid in place and every later one works on
    # a small table
    order = sorted(range(q.values.ndim), key=lambda a: -q.values.strides[a])
    powers = [np.stack([q.grid(axis) ** k for k in range(k_check + 1)]) for axis in order]
    grid_mom = fock.contract(q.values.transpose(order), powers)
    grid_mom = grid_mom.transpose(np.argsort(order)) * math.prod(q.steps)
    total = float(grid_mom[(0,) * grid_mom.ndim])
    if abs(total - 1.0) > norm_tol:
        raise NumericalError(
            f"quasi-distribution integrates to {total:.6f} on the grid")
    exact = s_transform_moments(intensity_moments(d, k_check, tail_tol=1.0),
                                q.s, q.modes).tensor
    err = np.abs(grid_mom - exact) / np.maximum(np.abs(exact), 1e-9)
    if float(err.max()) > rel_tol:
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

    def to_csv(self) -> str:
        lines = ["u,v,value"]
        for i, uu in enumerate(self.u):
            for j, vv in enumerate(self.v):
                val = self.values[i, j]
                if np.isnan(val):
                    continue
                lines.append(f"{uu:.10g},{vv:.10g},{val:.10g}")
        return "\n".join(lines) + "\n"


def plane_cut(field, kind: str, level: int | float | None = None) -> PlaneCut:
    """Diagonal or triangular plane cut of a 3D field.

    Accepts an :class:`NcdField`, a 3D :class:`JointDistribution`, a raw 3D
    array (lattice data) or a :class:`QuasiDistribution` (grid data; the
    triangular cut uses the nearest grid plane).
    """
    if isinstance(field, QuasiDistribution):
        return _plane_cut_grid(field, kind, level)
    if isinstance(field, NcdField):
        arr = field.values
    elif isinstance(field, JointDistribution):
        arr = field.values
    else:
        arr = np.asarray(field)
    if arr.ndim != 3:
        raise DataError("plane cuts need a 3-axis field")
    if kind == "diagonal":
        k = min(arr.shape[0], arr.shape[1])
        vals = np.stack([arr[i, i, :] for i in range(k)])
        return PlaneCut("diagonal", None, np.arange(k), np.arange(arr.shape[2]), vals)
    if kind == "triangular":
        if level is None:
            raise DataError("triangular cuts need a level")
        L = int(level)
        if not (0 <= L <= sum(s - 1 for s in arr.shape)):
            raise DataError(f"level {L} outside the box")
        u = np.arange(min(L, arr.shape[0] - 1) + 1)
        v = np.arange(min(L, arr.shape[2] - 1) + 1)
        vals = np.full((u.size, v.size), np.nan)
        for i in u:
            for j in v:
                n2 = L - i - j
                if 0 <= n2 < arr.shape[1]:
                    vals[i, j] = arr[i, n2, j]
        return PlaneCut("triangular", L, u, v, vals)
    raise DataError(f"unknown cut kind {kind!r}")


def _plane_cut_grid(q: QuasiDistribution, kind: str, level: float | None) -> PlaneCut:
    arr = q.values
    if arr.ndim != 3:
        raise DataError("plane cuts need a 3-axis field")
    g0, g1, g2 = (q.grid(a) for a in range(3))
    if kind == "diagonal":
        k = min(arr.shape[0], arr.shape[1])
        vals = np.stack([arr[i, i, :] for i in range(k)])
        return PlaneCut("diagonal", None, g0[:k], g2, vals)
    if kind == "triangular":
        if level is None:
            raise DataError("triangular cuts need a level")
        vals = np.full((arr.shape[0], arr.shape[2]), np.nan)
        for i in range(arr.shape[0]):
            for j in range(arr.shape[2]):
                w2 = level - g0[i] - g2[j]
                if w2 < 0 or w2 > g1[-1] + 0.5 * q.steps[1]:
                    continue
                idx = int(round(w2 / q.steps[1] - 0.5))
                idx = min(max(idx, 0), arr.shape[1] - 1)
                vals[i, j] = arr[i, idx, j]
        return PlaneCut("triangular", float(level), g0, g2, vals)
    raise DataError(f"unknown cut kind {kind!r}")


def default_mode_numbers(params) -> tuple[float, float, float]:
    """Per-beam mode numbers from fitted parameters: pair plus noise modes."""
    return (params.pair_1.M + params.noise_i1.M,
            params.pair_2.M + params.noise_i2.M,
            params.pair_3.M + params.noise_i3.M)
