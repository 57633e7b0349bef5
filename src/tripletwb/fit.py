"""Estimate the 14 field parameters from a photocount histogram.

The recipe is moment matching plus declination minimization. First and
second photocount moments pin down most of the parameter set through the
moment structure of the field (axis means, axis variances, and the
signal-idler covariances carried by the pair components). That leaves
three weakly identified degrees of freedom - how each idler axis mean
splits between its pair component and its noise component - which are
optimized by a derivative-free simplex descent of the Pearson-weighted
declination between the histogram and the model prediction. Detector
efficiencies default to the configured constants and can optionally be
freed as additional simplex variables.

One objective evaluation builds, at each of up to 13 unfolding steps, the
4D photon table of the current parameters and contracts it once with the
power rows 1, c, c^2 pushed through each detection matrix; that gives the
click means and covariances without the click table. It then maps the
last of those tables forward to the click table, which comes out of the
contraction already normalized, and scores it: one read of every cell, in
cache-sized blocks, plus a correction on the histogram's observed cells.
Only the forward map's ``fock.contract`` steps may run on several threads.
Parameters, declination and moments of one evaluation all belong to that
one table, so the best evaluation is the report and nothing is rebuilt.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .detector import DetectionMatrix, DetectorConfig, detection_matrix, forward_counts
from .errors import CutoffError, DataError, NumericalError, ParameterError
from .fock import (AXIS_ORDER, Histogram, JointDistribution, _power_rows, _read_moments,
                   contract, table_moments)
from .gaussian import (DEFAULT_IDLER_CUTOFF, DEFAULT_SIGNAL_CUTOFF, GaussianFieldModel,
                       MandelRiceComponent, TripleTwbParams)

DECLINATION_EPS = 1e-10
#: Cells per block of the declination's dense term: 256 KB, which stays in
#: cache between the clip and the dot product that reads it back
DECLINATION_BLOCK = 1 << 15
B_MIN, B_MAX = 1e-8, 1e3
M_MIN, M_MAX = 1e-6, 1e4
MEAN_FLOOR = 1e-8
#: Share of each idler mean that the simplex starts by giving the pair component
START_SPLIT = 0.95
#: Photon box (n_s, n_i1, n_i2, n_i3 cutoffs) of every model table the fit builds
PHOTON_CUTOFFS = (DEFAULT_SIGNAL_CUTOFF,) + (DEFAULT_IDLER_CUTOFF,) * 3
#: Largest tail mass a model photon table may discard
TAIL_TOL = 1e-3
#: Moment updates per unfolding, and the largest relative click-moment
#: miss at which it stops early
UNFOLD_STEPS = 12
UNFOLD_TOL = 1e-4
#: Largest relative moment residual at which a fit whose simplex did not
#: converge still returns
CLOSE_TOL = 1e-2


@dataclass(frozen=True)
class FitReport:
    params: TripleTwbParams
    efficiencies: dict[str, float]
    declination: float
    moment_residuals: list[tuple[str, float, float]]
    iterations: int = 0
    converged: bool = True

    def to_json(self) -> str:
        return json.dumps({
            "params": self.params.to_dict(),
            "efficiencies": self.efficiencies,
            "declination": self.declination,
            "moment_residuals": [
                {"moment": mid, "experimental": ex, "model": mo}
                for mid, ex, mo in self.moment_residuals],
            "iterations": self.iterations,
            "converged": self.converged,
        }, indent=2)


def photocount_moments(h: Histogram) -> dict:
    """Means <c_a> and covariances <dc_a dc_b> of the click histogram."""
    return table_moments(h.counts / h.trials, h.axis_labels)


def declination(h: Histogram, f_model: JointDistribution) -> float:
    """Pearson-weighted squared deviation between histogram and model.

    sum_c (r - f)^2 / max(f, eps) with r = counts / trials. Unobserved
    cells (r = 0) contribute f^2 / max(f, eps) = f min(f, eps) / eps. That
    sum is taken over every cell in blocks of ``DECLINATION_BLOCK`` cells
    (256 KB), each clipped into one reused buffer while it is still in
    cache, so the table is read once and no table-sized temporary is made.
    One thread folds the blocks in order: the pass is bound by memory, and
    no fit run's wall time showed a gain when two threads shared it. The
    observed cells are then corrected by r (r - 2 f) / max(f, eps) on the
    histogram's support.
    """
    f = f_model.values
    if h.counts.shape != f.shape:
        raise DataError("histogram and model cutoffs do not match")
    cells, rel = h.support
    flat = f.reshape(-1)
    buf = np.empty(min(DECLINATION_BLOCK, flat.size))
    dense = 0.0
    for start in range(0, flat.size, DECLINATION_BLOCK):
        block = flat[start: start + DECLINATION_BLOCK]
        clipped = np.minimum(block, DECLINATION_EPS, out=buf[: block.size])
        dense += float(np.dot(block, clipped))
    dense /= DECLINATION_EPS
    fs = flat[cells]
    return dense + float(np.sum(rel * (rel - 2.0 * fs) / np.maximum(fs, DECLINATION_EPS)))


def _component_from(mean: float, variance: float) -> MandelRiceComponent:
    """Mandel-Rice component with the given mean and (clipped) variance."""
    mean = max(mean, MEAN_FLOOR)
    B = min(max(variance / mean - 1.0, B_MIN), B_MAX)
    M = min(max(mean / B, M_MIN), M_MAX)
    return MandelRiceComponent(M, B)


def params_from_photon_moments(mom: dict, splits: tuple[float, float, float]) -> TripleTwbParams:
    """Close the 14 parameters from photon-level moments and mean splits.

    ``splits[j]`` is the fraction of the idler-j axis mean carried by its
    pair component; pair variances are set by the signal-idler covariance,
    and the noise components absorb the moment residuals.
    """
    means, cov = mom["mean"], mom["cov"]
    pairs = []
    noises_i = []
    for j, l in enumerate(("i1", "i2", "i3")):
        mu_p = max(splits[j] * means[l], MEAN_FLOOR)
        v_p = max(cov[("s", l)], mu_p * (1.0 + B_MIN))
        pairs.append(_component_from(mu_p, v_p))
        mu_n = max((1.0 - splits[j]) * means[l], MEAN_FLOOR)
        v_n = max(cov[(l, l)] - pairs[-1].variance, mu_n * (1.0 + B_MIN))
        noises_i.append(_component_from(mu_n, v_n))
    mu_ns = max(means["s"] - sum(p.mean for p in pairs), MEAN_FLOOR)
    v_ns = max(cov[("s", "s")] - sum(p.variance for p in pairs),
               mu_ns * (1.0 + B_MIN))
    noise_s = _component_from(mu_ns, v_ns)
    return TripleTwbParams(pairs[0], pairs[1], pairs[2],
                           noise_s, noises_i[0], noises_i[1], noises_i[2])


#: The 11 click moments the unfolding matches and the report lists: axis
#: means, axis variances and the signal-idler covariances
MOMENT_KEYS = (tuple(("mean", l) for l in AXIS_ORDER)
               + tuple(("cov", (l, l)) for l in AXIS_ORDER)
               + tuple(("cov", ("s", l)) for l in ("i1", "i2", "i3")))


def _moment_vector(mom: dict) -> np.ndarray:
    return np.asarray([mom[kind][key] for kind, key in MOMENT_KEYS])


def click_moments(p: JointDistribution, mats: dict[str, DetectionMatrix]) -> dict:
    """Moments of ``forward_counts(p, mats)`` without building that table.

    The detectors act independently given the photon numbers, so the
    mixed click moments are the photon table contracted with the power
    rows pushed through each detection matrix, P_a T_a.
    """
    rows = [_power_rows(mats[l].c_max + 1) @ mats[l].entries[:, :size]
            for l, size in zip(p.axis_labels, p.values.shape)]
    mixed = contract(p.values, rows)
    return _read_moments(mixed / mixed.flat[0], p.axis_labels)


def _unfold_photon_moments(exp_mom: dict, splits, mats: dict[str, DetectionMatrix],
                           start_mom: dict) -> tuple[TripleTwbParams, JointDistribution, dict]:
    """Fixed-point update of photon-level moment targets.

    Adjusts the photon moments multiplicatively until the exact model
    photocount moments match the experimental ones, for at most
    ``UNFOLD_STEPS`` updates. Returns the final parameters, their photon
    table and that table's click moments.
    """
    exp_vec = _moment_vector(exp_mom)
    mom = {"mean": dict(start_mom["mean"]), "cov": dict(start_mom["cov"])}
    for step in range(UNFOLD_STEPS + 1):
        params = params_from_photon_moments(mom, splits)
        table = GaussianFieldModel(params, PHOTON_CUTOFFS[0], PHOTON_CUTOFFS[1:],
                                   tail_tol=TAIL_TOL).distribution()
        model_mom = click_moments(table, mats)
        if step == UNFOLD_STEPS:
            break
        ratio = np.clip(exp_vec / np.maximum(_moment_vector(model_mom), 1e-12), 0.2, 5.0)
        if np.max(np.abs(ratio - 1.0)) < UNFOLD_TOL:
            break
        vec = _moment_vector(mom) * ratio
        for (kind, key), v in zip(MOMENT_KEYS, vec):
            mom[kind][key] = float(v)
        mom["cov"].update({(b, a): v for (a, b), v in list(mom["cov"].items())})
    return params, table, model_mom


def _initial_photon_moments(exp_mom: dict, cfgs: dict[str, DetectorConfig]) -> dict:
    """Crude linear inversion of the click moments through the detectors.

    Uses <c> ~ eta <n> + D and the binomial-thinning variance relation;
    serves only as a starting point for the exact unfolding loop.
    """
    means, cov = {}, {}
    for l in AXIS_ORDER:
        cfg = cfgs[l]
        means[l] = max((exp_mom["mean"][l] - cfg.dark_rate) / cfg.efficiency,
                       MEAN_FLOOR)
    for a in AXIS_ORDER:
        for b in AXIS_ORDER:
            ea, eb = cfgs[a].efficiency, cfgs[b].efficiency
            if a == b:
                dark_var = cfgs[a].dark_rate * (1.0 - cfgs[a].dark_prob)
                v = (exp_mom["cov"][(a, a)] - dark_var
                     - ea * (1.0 - ea) * means[a]) / ea**2
                cov[(a, a)] = max(v, MEAN_FLOOR)
            else:
                cov[(a, b)] = max(exp_mom["cov"][(a, b)] / (ea * eb), 0.0)
    return {"mean": means, "cov": cov}


def fit(h: Histogram, cfgs: dict[str, DetectorConfig],
        fix_efficiencies: bool = True, max_evals: int = 200) -> FitReport:
    """Fit the 14 parameters (optionally plus efficiencies) to a histogram.

    The simplex variables are the logit pair-mean splits (and logit
    efficiencies when freed); every objective evaluation re-solves the
    remaining parameters from the moment-matching closure before scoring
    the Pearson declination of the predicted click table. Each feasible
    evaluation makes one record - declination, parameters, efficiencies
    and click moments, all of the same photon table - and the best record
    is the report.
    """
    exp_mom = photocount_moments(h)
    for l in AXIS_ORDER:
        if exp_mom["cov"][(l, l)] <= 0:
            raise DataError(f"histogram has zero variance on axis {l}")
    start_mom = _initial_photon_moments(exp_mom, cfgs)
    state = {"best": None, "evals": 0, "infeasible": None}

    def matrices(eff: dict[str, float]) -> dict[str, DetectionMatrix]:
        return {l: detection_matrix(replace(cfgs[l], efficiency=eff[l]),
                                    PHOTON_CUTOFFS[axis], h.counts.shape[axis] - 1)
                for axis, l in enumerate(AXIS_ORDER)}

    def logit(x):
        return math.log(x / (1.0 - x))

    def expit(z):
        return 1.0 / (1.0 + math.exp(-z))

    x0 = [logit(START_SPLIT)] * 3
    fixed_eff = {l: cfgs[l].efficiency for l in AXIS_ORDER}
    fixed_mats = matrices(fixed_eff) if fix_efficiencies else None
    if not fix_efficiencies:
        x0 += [logit(fixed_eff[l]) for l in AXIS_ORDER]

    def objective(x):
        splits = tuple(expit(z) for z in x[:3])
        eff = fixed_eff if fix_efficiencies else {
            l: expit(x[3 + i]) for i, l in enumerate(AXIS_ORDER)}
        state["evals"] += 1
        try:
            mats = fixed_mats or matrices(eff)
            params, table, model_mom = _unfold_photon_moments(
                exp_mom, splits, mats, start_mom)
            f_model = forward_counts(table, mats)
        except (CutoffError, ParameterError, DataError) as exc:
            # infeasible vertex (e.g. moment split implies a tail heavier
            # than the truncation box admits): steer the simplex away
            state["infeasible"] = exc
            return 1e12
        d = declination(h, f_model)
        if state["best"] is None or d < state["best"][0]:
            state["best"] = (d, params, eff, model_mom)
        return d

    # imported here so that commands other than fit skip scipy.optimize's start-up cost
    from scipy.optimize import minimize

    res = minimize(objective, x0, method="Nelder-Mead",
                   options={"maxfev": max_evals, "xatol": 1e-3, "fatol": 1e-10})
    if state["best"] is None:
        raise CutoffError(
            f"all {state['evals']} fit evaluations were infeasible; "
            f"the last: {state['infeasible']}")
    d_best, params, eff, model_mom = state["best"]
    residuals = [
        (f"{kind}:{key}", float(exp_mom[kind][key]), float(model_mom[kind][key]))
        for kind, key in MOMENT_KEYS]
    report = FitReport(params, eff, d_best, residuals,
                       iterations=state["evals"], converged=bool(res.success))
    if not res.success and not _moments_close(residuals):
        err = NumericalError("fit optimizer did not converge")
        err.report = report
        raise err
    return report


def _moments_close(residuals) -> bool:
    return all(abs(ex - mo) <= CLOSE_TOL * max(abs(ex), 1e-6)
               for _, ex, mo in residuals)
