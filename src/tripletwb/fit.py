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

One objective evaluation builds, for up to 12 unfolding steps, the 4D
photon table of the current parameters and contracts it once with the
power rows 1, c, c^2 pushed through each detection matrix; that gives the
click means and covariances without the click table. It then maps the
final photon table forward to the click table, which comes out of the
contraction already normalized, and scores it: one read of every cell, in
cache-sized blocks, plus a correction on the histogram's observed cells.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .detector import DetectorConfig, detection_matrix, forward_counts
from .errors import CutoffError, DataError, NumericalError, ParameterError
from .fock import (AXIS_ORDER, Histogram, JointDistribution, _power_rows, _read_moments,
                   contract, table_moments)
from .gaussian import GaussianFieldModel, MandelRiceComponent, TripleTwbParams

DECLINATION_EPS = 1e-10
#: Cells per block of the declination's dense term: 256 KB, which stays in
#: cache between the clip and the dot product that reads it back
DECLINATION_BLOCK = 1 << 15
B_MIN, B_MAX = 1e-8, 1e3
M_MIN, M_MAX = 1e-6, 1e4
MEAN_FLOOR = 1e-8
#: Share of each idler mean that the simplex starts by giving the pair component
START_SPLIT = 0.95


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
    if h.trials <= 0:
        raise DataError("empty histogram")
    return table_moments(h.counts / h.trials, h.axis_labels)


def declination(h: Histogram, f_model: JointDistribution) -> float:
    """Pearson-weighted squared deviation between histogram and model.

    sum_c (r - f)^2 / max(f, eps) with r = counts / trials. Unobserved
    cells (r = 0) contribute f^2 / max(f, eps) = f min(f, eps) / eps. That
    sum is taken over every cell in blocks of ``DECLINATION_BLOCK`` cells
    (256 KB), each clipped into one reused buffer while it is still in
    cache, so the table is read once and no table-sized temporary is made.
    The observed cells are then corrected by r (r - 2 f) / max(f, eps) on
    the histogram's support.
    """
    f = f_model.values
    if h.counts.shape != f.shape:
        raise DataError("histogram and model cutoffs do not match")
    if h.trials <= 0:
        raise DataError("empty histogram")
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


def _moment_vector(mom: dict) -> np.ndarray:
    keys = _moment_keys()
    out = []
    for kind, key in keys:
        out.append(mom[kind][key])
    return np.asarray(out)


def _moment_keys():
    keys = [("mean", l) for l in AXIS_ORDER]
    keys += [("cov", (l, l)) for l in AXIS_ORDER]
    keys += [("cov", ("s", l)) for l in ("i1", "i2", "i3")]
    return keys


class _ForwardCache:
    """Model photocount tables and moments for candidate parameters."""

    def __init__(self, shape, cfgs: dict[str, DetectorConfig],
                 photon_cutoffs: tuple[int, int, int, int], tail_tol: float):
        self.shape = shape
        self.cfgs = cfgs
        self.cutoffs = photon_cutoffs
        self.tail_tol = tail_tol
        self._mats = None

    def matrices(self):
        if self._mats is None:
            self._mats = {}
            for axis, l in enumerate(AXIS_ORDER):
                cfg = self.cfgs[l]
                self._mats[l] = detection_matrix(
                    cfg, self.cutoffs[axis], self.shape[axis] - 1)
        return self._mats

    def set_efficiencies(self, eff: dict[str, float]):
        self.cfgs = {l: replace(c, efficiency=eff[l]) for l, c in self.cfgs.items()}
        self._mats = None

    def photon_table(self, params: TripleTwbParams) -> JointDistribution:
        return GaussianFieldModel(params, self.cutoffs[0], tuple(self.cutoffs[1:]),
                                  tail_tol=self.tail_tol).distribution()

    def click_table(self, params: TripleTwbParams) -> JointDistribution:
        return forward_counts(self.photon_table(params), self.matrices())

    def click_moments(self, params: TripleTwbParams) -> dict:
        """Moments of ``click_table(params)`` without building that table.

        The detectors act independently given the photon numbers, so the
        mixed click moments are the photon table contracted with the power
        rows pushed through each detection matrix, P_a T_a.
        """
        p = self.photon_table(params)
        mats = self.matrices()
        rows = [_power_rows(mats[l].c_max + 1) @ mats[l].entries[:, :size]
                for l, size in zip(p.axis_labels, p.values.shape)]
        mixed = contract(p.values, rows)
        return _read_moments(mixed / mixed.flat[0], p.axis_labels)


def _unfold_photon_moments(exp_mom: dict, splits, cache: _ForwardCache,
                           start_mom: dict, iterations: int = 12,
                           rel_tol: float = 1e-4) -> tuple[dict, TripleTwbParams]:
    """Fixed-point update of photon-level moment targets.

    Adjusts the photon moments multiplicatively until the exact model
    photocount moments match the experimental ones.
    """
    exp_vec = _moment_vector(exp_mom)
    mom = {"mean": dict(start_mom["mean"]), "cov": dict(start_mom["cov"])}
    params = params_from_photon_moments(mom, splits)
    for _ in range(iterations):
        model_vec = _moment_vector(cache.click_moments(params))
        ratio = np.clip(exp_vec / np.maximum(model_vec, 1e-12), 0.2, 5.0)
        if np.max(np.abs(ratio - 1.0)) < rel_tol:
            break
        vec = _moment_vector(mom) * ratio
        for i, (kind, key) in enumerate(_moment_keys()):
            mom[kind][key] = float(vec[i])
        mom["cov"].update({(b, a): v for (a, b), v in list(mom["cov"].items())})
        params = params_from_photon_moments(mom, splits)
    return mom, params


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
        fix_efficiencies: bool = True,
        photon_cutoffs: tuple[int, int, int, int] = (32, 20, 20, 20),
        tail_tol: float = 1e-3, max_evals: int = 200) -> FitReport:
    """Fit the 14 parameters (optionally plus efficiencies) to a histogram.

    The simplex variables are the logit pair-mean splits (and logit
    efficiencies when freed); every objective evaluation re-solves the
    remaining parameters from the moment-matching closure before scoring
    the Pearson declination of the predicted click table.
    """
    if h.trials <= 0:
        raise DataError("empty histogram")
    exp_mom = photocount_moments(h)
    for l in AXIS_ORDER:
        if exp_mom["cov"][(l, l)] <= 0:
            raise DataError(f"histogram has zero variance on axis {l}")
    cache = _ForwardCache(h.counts.shape, dict(cfgs), photon_cutoffs, tail_tol)
    start_mom = _initial_photon_moments(exp_mom, cfgs)
    state = {"best": None, "evals": 0, "infeasible": None}

    def logit(x):
        return math.log(x / (1.0 - x))

    def expit(z):
        return 1.0 / (1.0 + math.exp(-z))

    x0 = [logit(START_SPLIT)] * 3
    if not fix_efficiencies:
        x0 += [logit(cfgs[l].efficiency) for l in AXIS_ORDER]

    def objective(x):
        splits = tuple(expit(z) for z in x[:3])
        if not fix_efficiencies:
            eff = {l: expit(x[3 + i]) for i, l in enumerate(AXIS_ORDER)}
            cache.set_efficiencies(eff)
        else:
            eff = {l: cfgs[l].efficiency for l in AXIS_ORDER}
        try:
            mom, params = _unfold_photon_moments(exp_mom, splits, cache, start_mom)
            f_model = cache.click_table(params)
        except (CutoffError, ParameterError, DataError) as exc:
            # infeasible vertex (e.g. moment split implies a tail heavier
            # than the truncation box admits): steer the simplex away
            state["evals"] += 1
            state["infeasible"] = exc
            return 1e12
        d = declination(h, f_model)
        state["evals"] += 1
        if state["best"] is None or d < state["best"][0]:
            state["best"] = (d, params, eff, mom)
        return d

    # imported here so that commands other than fit skip scipy.optimize's start-up cost
    from scipy.optimize import minimize

    res = minimize(objective, x0, method="Nelder-Mead",
                   options={"maxfev": max_evals, "xatol": 1e-3, "fatol": 1e-10})
    if state["best"] is None:
        raise CutoffError(
            f"all {state['evals']} fit evaluations were infeasible; "
            f"the last: {state['infeasible']}")
    d_best, params, eff, _ = state["best"]
    model_mom = cache.click_moments(params)
    residuals = [
        (f"{kind}:{key}", float(exp_mom[kind][key]), float(model_mom[kind][key]))
        for kind, key in _moment_keys()]
    report = FitReport(params, eff, d_best, residuals,
                       iterations=state["evals"], converged=bool(res.success))
    if not res.success and not _moments_close(residuals):
        err = NumericalError("fit optimizer did not converge")
        err.report = report
        raise err
    return report


def _moments_close(residuals, rel_tol: float = 1e-2) -> bool:
    return all(abs(ex - mo) <= rel_tol * max(abs(ex), 1e-6)
               for _, ex, mo in residuals)
