"""Output checks of the benchmark, against independent computations.

Every check compares a program output with a quantity computed here from
closed forms, with plain NumPy or exact rationals, or with a property the
method must have. Nothing here calls the ``tripletwb`` package, so the
checks stay independent of the code they judge. Each check returns a
:class:`Check`; ``ok`` is False when the output is wrong.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


# ---------------------------------------------------------------------------
# reference computations
# ---------------------------------------------------------------------------

def click_mean(components: Sequence[tuple[float, float]], pixels: int,
               efficiency: float, dark_rate: float) -> float:
    """Mean click number of an N-pixel detector fed independent thermal parts.

    A pixel stays dark with probability (1 - D/N) E[(1 - eta/N)^n], and an
    (M, B) Mandel-Rice component has E[z^n] = (1 + B (1 - z))^(-M), so

        <c> = N [1 - (1 - D/N) prod_k (1 + B_k eta / N)^(-M_k)].
    """
    n = float(pixels)
    log_dark = math.log1p(-dark_rate / n) + sum(
        -m * math.log1p(b * efficiency / n) for m, b in components)
    return -n * math.expm1(log_dark)


def detection_prob_exact(pixels: int, efficiency: float, dark_rate: float,
                         c: int, n: int) -> float:
    """T(c|n) from the alternating closed form in exact rational arithmetic.

    T(c|n) = C(N,c) (1-d)^N (1-eta)^n (-1)^c
             * sum_l C(c,l) (-1)^l (1-d)^(-l) [1 + l eta/(N(1-eta))]^n
    """
    N = pixels
    eta = Fraction(efficiency)
    d = Fraction(dark_rate) / N
    acc = Fraction(0)
    for l in range(c + 1):
        term = (math.comb(c, l) * (1 - d) ** (-l)
                * (1 + l * eta / (N * (1 - eta))) ** n)
        acc += term if l % 2 == 0 else -term
    sign = 1 if c % 2 == 0 else -1
    return float(math.comb(N, c) * (1 - d) ** N * (1 - eta) ** n * sign * acc)


def mandel_rice(n_max: int, M: float, B: float) -> np.ndarray:
    """Mandel-Rice pmf Gamma(n+M)/(n! Gamma(M)) B^n/(1+B)^(n+M) via math.lgamma."""
    out = []
    for n in range(n_max + 1):
        logp = (math.lgamma(n + M) - math.lgamma(n + 1) - math.lgamma(M)
                + n * math.log(B) - (n + M) * math.log1p(B))
        out.append(math.exp(logp))
    return np.asarray(out)


def tail_cutoff(M: float, B: float, cell: float = 1e-18) -> int:
    """First photon number past the mode whose Mandel-Rice probability is < ``cell``.

    Beyond the mode the pmf falls at least geometrically, so the mass left
    beyond the cutoff is a small multiple of ``cell``.
    """
    mode = max(0.0, (M - 1.0) * B)
    n = 0
    while n <= mode or mandel_rice(n, M, B)[-1] >= cell:
        n += 1
    return n


def theta(s: float) -> float:
    return (1.0 - s) / 2.0


def ordered_moments(table: np.ndarray, modes: Sequence[float], s: float,
                    k_max: int = 2) -> np.ndarray:
    """<W1^a W2^b W3^c>_s for a, b, c <= k_max from a 3D photon table.

    Normal-ordered moments are the factorial moments of the table; each
    beam is then moved to ordering s by the Gamma formula
    <W^k>_s = sum_l C(k,l) <W^l>_1 theta^(k-l) Gamma(M+k)/Gamma(M+l).
    """
    th = theta(s)
    t = np.asarray(table, dtype=np.float64)
    for axis, M in enumerate(modes):
        n = np.arange(t.shape[axis], dtype=np.float64)
        fall = np.ones((k_max + 1, n.size))
        for k in range(1, k_max + 1):
            fall[k] = fall[k - 1] * (n - (k - 1))
        fall = np.maximum(fall, 0.0)
        order = np.zeros((k_max + 1, k_max + 1))
        for k in range(k_max + 1):
            for l in range(k + 1):
                order[k, l] = (math.comb(k, l) * th ** (k - l)
                               * math.exp(math.lgamma(M + k) - math.lgamma(M + l)))
        t = np.moveaxis(np.tensordot(order @ fall, t, axes=(1, axis)), 0, axis)
    return t


def intensity_criterion(moments: np.ndarray, kind: str) -> float:
    """Cauchy-Schwarz or five-term matrix intensity criterion (< 0: nonclassical)."""
    t = moments
    if kind == "cs":
        return float(t[2, 2, 2] - t[1, 1, 1] ** 2)
    return float(t[2, 0, 2] * t[0, 2, 0]
                 + 2.0 * t[1, 1, 1] * t[0, 1, 0] * t[1, 0, 1]
                 - t[1, 0, 1] ** 2 * t[0, 2, 0]
                 - t[0, 1, 0] ** 2 * t[2, 0, 2]
                 - t[1, 1, 1] ** 2)


def probability_criterion(p: np.ndarray, kind: str,
                          offset: tuple[int, int, int] = (0, 0, 0)) -> float:
    """Probability criteria on the cube [offset, offset + 2]^3 (< 0: nonclassical)."""
    o1, o2, o3 = offset

    def q(a, b, c):
        return float(p[o1 + a, o2 + b, o3 + c])

    if kind == "cs":
        return 8.0 * q(0, 0, 0) * q(2, 2, 2) - q(1, 1, 1) ** 2
    return (8.0 * q(2, 0, 2) * q(0, 2, 0) * q(0, 0, 0)
            + 2.0 * q(1, 1, 1) * q(0, 1, 0) * q(1, 0, 1)
            - 2.0 * q(1, 0, 1) ** 2 * q(0, 2, 0)
            - 4.0 * q(0, 1, 0) ** 2 * q(2, 0, 2)
            - q(1, 1, 1) ** 2 * q(0, 0, 0))


def axis_means(table: np.ndarray) -> list[float]:
    out = []
    for axis in range(table.ndim):
        marg = table.sum(axis=tuple(a for a in range(table.ndim) if a != axis))
        out.append(float(np.dot(np.arange(marg.size), marg)))
    return out


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def frames_accounted(kept: int, dropped: int, frames: int) -> Check:
    ok = kept + dropped == frames and kept > 0 and dropped >= 0
    return Check("simulate.frames_accounted", ok,
                 f"kept {kept} + dropped {dropped} vs requested {frames}")


def click_means_within(clicks: np.ndarray, expected: Sequence[float],
                       n_se: float, name: str) -> Check:
    """Each axis's mean click number within ``n_se`` standard errors.

    ``clicks`` holds one row per frame, every frame that was sampled.
    """
    clicks = np.asarray(clicks, dtype=np.float64)
    frames = clicks.shape[0]
    zs = [(float(col.mean()) - want) / math.sqrt(float(col.var()) / frames)
          for col, want in zip(clicks.T, expected)]
    ok = len(zs) == len(expected) and all(abs(z) <= n_se for z in zs)
    return Check(name, ok, "z = " + ", ".join(f"{z:+.2f}" for z in zs)
                 + f" (limit {n_se})")


def click_moments_match(photons: np.ndarray, detectors: Sequence, moments: dict,
                        rel_tol: float, name: str) -> Check:
    """Click means and covariances of a forward map against closed forms.

    For n photons on an N-pixel detector (efficiency eta, dark rate D), a
    pixel stays dark with q1(n) = (1 - D/N)(1 - eta/N)^n and two pixels stay
    dark with q2(n) = (1 - D/N)^2 (1 - 2 eta/N)^n, so E[c|n] = N (1 - q1)
    and E[c(c-1)|n] = N (N-1) (1 - 2 q1 + q2). The detectors act
    independently given the photon numbers, so every moment follows from the
    photon table's one- and two-axis marginals. ``moments`` holds the
    program's {"mean": {label: ...}, "cov": {(label, label): ...}}.
    Covariances are compared relative to sqrt(var_a var_b).
    """
    p = np.asarray(photons, dtype=np.float64)
    labels = list(moments["mean"])
    first, second = [], []
    for axis, det in enumerate(detectors):
        n = np.arange(p.shape[axis], dtype=np.float64)
        N, x = float(det.pixels), det.efficiency / det.pixels
        log_q1 = math.log1p(-det.dark_rate / N) + n * math.log1p(-x)
        one_minus_q1 = -np.expm1(log_q1)
        # 1 - 2 q1 + q2 = (1 - q1)^2 + q1^2 [((1 - 2x)/(1 - x)^2)^n - 1]
        pair_dark = np.exp(2 * log_q1) * np.expm1(n * (math.log1p(-2 * x) - 2 * math.log1p(-x)))
        first.append(N * one_minus_q1)
        second.append(N * (N - 1) * (one_minus_q1 ** 2 + pair_dark) + N * one_minus_q1)

    def marg(*axes):
        return p.sum(axis=tuple(a for a in range(p.ndim) if a not in axes))

    means = [float(marg(a) @ first[a]) for a in range(p.ndim)]
    var = [float(marg(a) @ second[a]) - means[a] ** 2 for a in range(p.ndim)]
    worst = 0.0
    for a in range(p.ndim):
        worst = max(worst, abs(moments["mean"][labels[a]] - means[a]) / abs(means[a]))
        for b in range(a, p.ndim):
            want = var[a] if a == b else float(first[a] @ marg(a, b) @ first[b]) - means[a] * means[b]
            worst = max(worst, abs(moments["cov"][(labels[a], labels[b])] - want)
                        / math.sqrt(var[a] * var[b]))
    return Check(name, worst <= rel_tol, f"largest relative deviation {worst:.2e} (limit {rel_tol:g})")


def loglik_nondecreasing(trace: np.ndarray, rel_tol: float = 1e-11) -> Check:
    """EM never lowers the log-likelihood (up to the CSV's printed digits)."""
    trace = np.asarray(trace, dtype=np.float64)
    drops = trace[:-1] - trace[1:]
    allowed = rel_tol * np.abs(trace[:-1])
    worst = float(np.max(drops - allowed)) if drops.size else -1.0
    ok = trace.size >= 1 and worst <= 0.0
    return Check("reconstruct.loglik_nondecreasing", ok,
                 f"{trace.size} maps, largest drop beyond print rounding {max(worst, 0.0):.3e}")


def is_distribution(values: np.ndarray, name: str, tol: float = 1e-9) -> Check:
    values = np.asarray(values)
    total = float(values.sum())
    ok = bool(values.min() >= 0.0) and abs(total - 1.0) <= tol
    return Check(name, ok, f"min {values.min():.3e}, sum {total:.12f}")


def relative_close(name: str, got: Sequence[float], want: Sequence[float],
                   rel_tol: float) -> Check:
    errs = [abs(g - w) / max(abs(w), 1e-300) for g, w in zip(got, want)]
    ok = len(errs) == len(want) and max(errs) <= rel_tol
    return Check(name, ok, "relative errors " + ", ".join(f"{e:.2e}" for e in errs)
                 + f" (limit {rel_tol:g})")


def total_expectation(masses: np.ndarray, means: np.ndarray,
                      unconditional: Sequence[float], n_max: Sequence[int],
                      name: str, abs_tol: float = 1e-8) -> Check:
    """sum_rows mass * conditional mean = unconditional mean, up to the gaps.

    Slices reported as gaps hold the mass 1 - sum(masses); their
    conditional mean lies in [0, n_max], which bounds what they can add.
    """
    masses = np.asarray(masses, dtype=np.float64)
    means = np.asarray(means, dtype=np.float64)
    gap = max(1.0 - float(masses.sum()), 0.0)
    rows = []
    ok = float(masses.sum()) <= 1.0 + abs_tol
    for j, (want, top) in enumerate(zip(unconditional, n_max)):
        got = float(np.dot(masses, means[:, j]))
        # the gap slices add between 0 and gap * top to the total
        short = want - got
        ok = ok and -abs_tol <= short <= gap * top + abs_tol
        rows.append(f"{got:.9f} vs {want:.9f}")
    return Check(name, ok, "; ".join(rows) + f"; gap mass {gap:.2e}")


def sign_change_at_depth(evaluate: Callable[[float], float], tau: float,
                         name: str, delta: float = 5e-3,
                         s_min: float = -0.999) -> Check:
    """A Lee depth tau marks a sign change of the criterion at s = 1 - 2 tau.

    The criterion is negative (nonclassical) just above the threshold and
    nonnegative just below it. tau = 0 needs a classical value at s = 1;
    tau = 1 a nonclassical value at ``s_min``.
    """
    if not (0.0 <= tau <= 1.0):
        return Check(name, False, f"tau {tau} outside [0, 1]")
    if tau == 0.0:
        v = evaluate(1.0)
        return Check(name, v >= 0.0, f"tau 0, criterion at s=1 is {v:.3e}")
    if tau == 1.0:
        v = evaluate(s_min)
        return Check(name, v < 0.0, f"tau 1, criterion at s_min is {v:.3e}")
    s_th = 1.0 - 2.0 * tau
    above = evaluate(min(s_th + delta, 1.0))
    below = evaluate(max(s_th - delta, s_min))
    ok = above < 0.0 <= below
    return Check(name, ok, f"tau {tau:.4f}: criterion {above:.3e} at s_th+{delta:g}, "
                 f"{below:.3e} at s_th-{delta:g}")


def taus_in_unit_interval(values: np.ndarray, name: str) -> Check:
    values = np.asarray(values)
    ok = bool(np.all((values >= 0.0) & (values <= 1.0)))
    return Check(name, ok, f"tau range [{values.min():.4f}, {values.max():.4f}]")


def ordering_maps_mandel_rice(got: np.ndarray, M: float, B: float, s: float,
                              tol: float = 1e-10) -> Check:
    """Ordering s adds theta noise photons per mode: (M, B) -> (M, B + theta)."""
    got = np.asarray(got)
    want = mandel_rice(got.size - 1, M, B + theta(s))
    err = float(np.max(np.abs(got - want)))
    return Check("nc.mandel_rice_ordering", err <= tol,
                 f"M={M:.3f} B={B:.3f} s={s:+.3f}: max error {err:.2e} (limit {tol:g})")


def thermal_W_matches(w: np.ndarray, values: np.ndarray, B: float, s: float,
                      rel_tol: float = 1e-9) -> Check:
    """One thermal mode of mean B has P_s(W) = exp(-W/(B+theta))/(B+theta)."""
    width = B + theta(s)
    exact = np.exp(-np.asarray(w) / width) / width
    err = float(np.max(np.abs(np.asarray(values) - exact)) / exact.max())
    return Check("nc.thermal_W", err <= rel_tol,
                 f"B={B:.4f}, s={s:+.4f}: max error {err:.2e} of the peak (limit {rel_tol:g})")


def negative_minimum(values: np.ndarray, name: str) -> Check:
    m = float(np.min(values))
    return Check(name, m < 0.0, f"minimum {m:.4e}")
