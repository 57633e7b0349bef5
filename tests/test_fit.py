"""Moment extraction, declination scoring, and the parameter fit."""
import math
import tracemalloc
import types
from dataclasses import replace

import numpy as np
import pytest

import tripletwb.fit
from tripletwb import fock
from tripletwb.detector import PAPER_TABLE_1, detection_matrix, forward_counts, sample_counts
from tripletwb.errors import CutoffError, DataError, NumericalError
from tripletwb.fit import (MOMENT_KEYS, TAIL_TOL, click_moments, declination, fit,
                           params_from_photon_moments, photocount_moments,
                           table_moments)
from tripletwb.fock import AXIS_ORDER, Histogram, JointDistribution
from tripletwb.gaussian import GaussianFieldModel, PAPER_TABLE_2, sample_photon_numbers
from tests.oracles import (declination_dense, declination_serial_fold, model_moments,
                           table_moments_reductions)

PHOTON_SEED = 20240817
CLICK_SEED = 20240818


def clicks_to_histogram(clicks: np.ndarray, box: tuple[int, ...]) -> Histogram:
    """Bin click frames into a histogram, dropping frames outside the box."""
    keep = np.all(clicks <= np.array(box)[None, :], axis=1)
    kept = clicks[keep]
    counts = np.zeros(tuple(b + 1 for b in box), dtype=np.int64)
    np.add.at(counts, tuple(kept.T), 1)
    return Histogram(counts, int(kept.shape[0]))


def test_package_attribute_fit_is_the_module():
    assert isinstance(tripletwb.fit, types.ModuleType)
    assert tripletwb.fit.fit is fit


# ---------------------------------------------------------------- moments

def test_photocount_moments_single_cell():
    counts = np.zeros((5, 6), dtype=np.int64)
    counts[2, 4] = 10
    mom = photocount_moments(Histogram(counts, 10, ("s", "i1")))
    assert mom["mean"]["s"] == pytest.approx(2.0)
    assert mom["mean"]["i1"] == pytest.approx(4.0)
    assert mom["cov"][("s", "s")] == pytest.approx(0.0, abs=1e-12)
    assert mom["cov"][("s", "i1")] == pytest.approx(0.0, abs=1e-12)


def test_photocount_moments_empty_histogram():
    with pytest.raises(DataError):
        photocount_moments(Histogram(np.zeros((3, 3), dtype=np.int64), 0,
                                     ("s", "i1")))


def test_table_moments_product_has_zero_covariance():
    # independent axes: cov factorizes away exactly
    def poisson(lam, n):
        k = np.arange(n + 1, dtype=np.float64)
        p = np.exp(-lam) * lam ** k / np.array(
            [math.factorial(int(x)) for x in k])
        return p / p.sum()

    pa, pb = poisson(1.5, 25), poisson(0.7, 25)
    mom = table_moments(np.outer(pa, pb), ("s", "i1"))
    assert mom["mean"]["s"] == pytest.approx(1.5, abs=1e-6)
    assert mom["mean"]["i1"] == pytest.approx(0.7, abs=1e-6)
    assert mom["cov"][("s", "i1")] == pytest.approx(0.0, abs=1e-10)
    assert mom["cov"][("s", "s")] == pytest.approx(1.5, abs=1e-6)


def assert_moments_close(got: dict, want: dict, rel: float):
    """Means relative to themselves, covariances relative to sqrt(var_a var_b)."""
    assert got["mean"].keys() == want["mean"].keys()
    assert got["cov"].keys() == want["cov"].keys()
    for l, m in want["mean"].items():
        assert abs(got["mean"][l] - m) <= rel * abs(m)
    for (a, b), c in want["cov"].items():
        scale = math.sqrt(want["cov"][(a, a)] * want["cov"][(b, b)])
        assert abs(got["cov"][(a, b)] - c) <= rel * scale


@pytest.mark.parametrize("shape", [(17,), (9, 12), (7, 5, 6, 4)])
def test_table_moments_match_marginal_reductions(shape):
    rng = np.random.default_rng(len(shape))
    labels = AXIS_ORDER[-len(shape):]
    rel = rng.random(shape) ** 4
    rel /= rel.sum()
    assert_moments_close(table_moments(rel, labels),
                         table_moments_reductions(rel, labels), 1e-12)


def test_table_moments_match_marginal_reductions_on_model(f_model):
    assert_moments_close(table_moments(f_model.values, f_model.axis_labels),
                         table_moments_reductions(f_model.values, f_model.axis_labels),
                         1e-12)


def fit_matrices(efficiencies: dict[str, float]) -> dict:
    """Detection matrices of fit's default photon box and a 42/30 click box."""
    return {l: detection_matrix(replace(PAPER_TABLE_1[l], efficiency=efficiencies[l]),
                                n_max, c_max)
            for l, n_max, c_max in zip(AXIS_ORDER, (32, 20, 20, 20), (42, 30, 30, 30))}


def fit_photon_table(params) -> JointDistribution:
    return GaussianFieldModel(params, 32, (20, 20, 20), tail_tol=TAIL_TOL).distribution()


def test_click_moments_skip_the_forward_table(monkeypatch):
    mats = fit_matrices({l: c.efficiency for l, c in PAPER_TABLE_1.items()})
    p = fit_photon_table(PAPER_TABLE_2)
    f = forward_counts(p, mats)
    want = table_moments(f.values, f.axis_labels)
    calls = []

    def counting_forward(*args, **kwargs):
        calls.append(args)
        return forward_counts(*args, **kwargs)

    monkeypatch.setattr(tripletwb.fit, "forward_counts", counting_forward)
    got = click_moments(p, mats)
    assert calls == []
    assert_moments_close(got, want, 1e-12)


def test_sampled_click_mean_matches_exact_table(f_model):
    frames = 20000
    photons = sample_photon_numbers(PAPER_TABLE_2, frames, PHOTON_SEED)
    clicks = sample_counts(photons, PAPER_TABLE_1, CLICK_SEED)
    exact = table_moments(f_model.values, f_model.axis_labels)
    mean_s = float(clicks[:, 0].mean())
    sigma = np.sqrt(exact["cov"][("s", "s")] / frames)
    assert abs(mean_s - exact["mean"]["s"]) < 4.0 * sigma


# ------------------------------------------------------------ declination

def test_declination_zero_on_exact_match():
    counts = np.array([[1, 2], [3, 4]], dtype=np.int64)
    h = Histogram(counts, 10, ("s", "i1"))
    f = JointDistribution(counts / 10.0, ("s", "i1"), normalized=True)
    assert declination(h, f) == pytest.approx(0.0, abs=1e-14)


def test_declination_positive_and_shape_checked():
    counts = np.array([[5, 0], [0, 5]], dtype=np.int64)
    h = Histogram(counts, 10, ("s", "i1"))
    f = JointDistribution(np.full((2, 2), 0.25), ("s", "i1"), normalized=True)
    assert declination(h, f) > 0.0
    wrong = JointDistribution(np.full((3, 3), 1.0 / 9.0), ("s", "i1"),
                              normalized=True)
    with pytest.raises(DataError):
        declination(h, wrong)


def test_declination_matches_dense_sum():
    # observed cells where the model is 0, below and above eps, plus
    # unobserved cells at and below eps (declination needs no normalization)
    rng = np.random.default_rng(5)
    f = rng.random((6, 5, 4)) ** 3 / 30.0
    f[0, 0, :2] = 0.0
    f[1, 0, :3] = [1e-14, 3e-11, 2e-10]
    f[2, 1, :2] = [5e-12, 1e-10]
    counts = rng.integers(0, 40, size=f.shape) * (rng.random(f.shape) < 0.4)
    counts[0, 0, 0] = 3          # observed, f = 0
    counts[1, 0, :3] = [1, 0, 2]  # observed where f << eps, unobserved below eps
    counts[2, 1, :2] = 0          # unobserved, f < eps
    h = Histogram(counts, int(counts.sum()), ("i1", "i2", "i3"))
    model = JointDistribution(f, ("i1", "i2", "i3"))
    want = declination_dense(h, model)
    assert abs(declination(h, model) - want) <= 1e-12 * want
    wrong = JointDistribution(np.full((6, 5, 3), 1.0 / 90), ("i1", "i2", "i3"))
    with pytest.raises(DataError):
        declination(h, wrong)


def test_declination_matches_dense_sum_on_sampled_histogram(f_model):
    photons = sample_photon_numbers(PAPER_TABLE_2, 200_000, PHOTON_SEED)
    clicks = sample_counts(photons, PAPER_TABLE_1, CLICK_SEED)
    h = clicks_to_histogram(clicks, (42, 30, 30, 30))
    want = declination_dense(h, f_model)
    assert abs(declination(h, f_model) - want) <= 1e-12 * want


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_declination_has_the_serial_fold_bits_for_any_worker_count(monkeypatch, f_model,
                                                                     workers):
    # the dense blocks add into one running sum, in block order, whatever
    # the worker count: the fold never splits
    counts = np.random.default_rng(workers).poisson(1e4 * f_model.values)
    h = Histogram(counts, int(counts.sum()))
    monkeypatch.setattr(fock, "_workers", workers)
    assert declination(h, f_model) == declination_serial_fold(h, f_model)


def test_declination_makes_no_table_sized_temporary(f_model):
    counts = np.zeros(f_model.values.shape, dtype=np.int64)
    counts[3, 2, 2, 2], counts[5, 4, 3, 1] = 6, 4
    h = Histogram(counts, 10)
    h.support  # cached before the measurement, as in a fit
    tracemalloc.start()
    try:
        d = declination(h, f_model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(d)
    assert peak < f_model.values.nbytes / 10


# ------------------------------------------------------- moment closure

def test_params_from_photon_moments_recovers_pairs():
    mom = model_moments(PAPER_TABLE_2)
    splits = tuple(
        p.mean / (p.mean + n.mean) for p, n in
        zip(PAPER_TABLE_2.pairs, PAPER_TABLE_2.noises[1:]))
    rec = params_from_photon_moments(mom, splits)
    for got, true in zip(rec.pairs, PAPER_TABLE_2.pairs):
        assert got.mean == pytest.approx(true.mean, rel=1e-9)
        assert got.B == pytest.approx(true.B, rel=1e-9)
        assert got.M == pytest.approx(true.M, rel=1e-9)


# ------------------------------------------------------------------- fit

def test_fit_rejects_degenerate_histograms():
    flat = np.zeros((4, 4, 4, 4), dtype=np.int64)
    with pytest.raises(DataError):
        fit(Histogram(flat, 0), PAPER_TABLE_1)
    flat = flat.copy()
    flat[1, 1, 1, 1] = 100  # one occupied cell: zero variance everywhere
    with pytest.raises(DataError):
        fit(Histogram(flat, 100), PAPER_TABLE_1)


def test_fit_all_infeasible_raises_cutoff_error_with_reason(monkeypatch):
    # photon cutoffs of 4 per idler cut off a pair component of mean ~2.7
    # far above tail_tol at every vertex, so no evaluation is feasible
    photons = sample_photon_numbers(PAPER_TABLE_2, 20_000, PHOTON_SEED)
    clicks = sample_counts(photons, PAPER_TABLE_1, CLICK_SEED)
    h = clicks_to_histogram(clicks, (12, 8, 8, 8))
    monkeypatch.setattr(tripletwb.fit, "PHOTON_CUTOFFS", (8, 4, 4, 4))
    with pytest.raises(CutoffError, match=r"all \d+ fit evaluations were infeasible.*"
                       "discarded tail mass .* exceeds 1.0e-03"):
        fit(h, PAPER_TABLE_1, max_evals=6)


def test_fit_round_trip_on_sampled_histogram(f_model):
    frames = 1_000_000
    photons = sample_photon_numbers(PAPER_TABLE_2, frames, PHOTON_SEED)
    clicks = sample_counts(photons, PAPER_TABLE_1, CLICK_SEED)
    h = clicks_to_histogram(clicks, (42, 30, 30, 30))
    try:
        report = fit(h, PAPER_TABLE_1, max_evals=40)
    except NumericalError as err:
        # the simplex rarely terminates within 40 evaluations, but the
        # moment closure already pins the parameters; the partial report
        # is attached to the error
        report = err.report
    for got, true in zip(report.params.pairs, PAPER_TABLE_2.pairs):
        assert got.mean == pytest.approx(true.mean, rel=0.05)
    total_true = sum(c.mean for c in PAPER_TABLE_2.pairs) + \
        PAPER_TABLE_2.noise_s.mean
    total_got = sum(c.mean for c in report.params.pairs) + \
        report.params.noise_s.mean
    assert total_got == pytest.approx(total_true, rel=0.02)
    # the fitted model should score no worse than the true parameters do
    # against the same finite sample (their score is pure shot noise)
    assert report.declination <= 1.05 * declination(h, f_model)
    parsed = __import__("json").loads(report.to_json())
    assert set(parsed) == {"params", "efficiencies", "declination",
                           "moment_residuals", "iterations", "converged"}


@pytest.mark.parametrize("fix_efficiencies", [True, False])
def test_fit_report_belongs_to_one_table(fix_efficiencies):
    # the reported moments and declination are those of the reported
    # parameters' photon table pushed through detectors at the reported
    # efficiencies, on both efficiency paths
    photons = sample_photon_numbers(PAPER_TABLE_2, 200_000, 3)
    clicks = sample_counts(photons, PAPER_TABLE_1, 4)
    h = clicks_to_histogram(clicks, (42, 30, 30, 30))
    try:
        report = fit(h, PAPER_TABLE_1, fix_efficiencies=fix_efficiencies, max_evals=20)
    except NumericalError as err:
        report = err.report
    mats = fit_matrices(report.efficiencies)
    p = fit_photon_table(report.params)
    want = click_moments(p, mats)
    assert [mid for mid, _, _ in report.moment_residuals] == [
        f"{kind}:{key}" for kind, key in MOMENT_KEYS]
    for (_, _, got), (kind, key) in zip(report.moment_residuals, MOMENT_KEYS):
        assert abs(got - want[kind][key]) <= 1e-12 * abs(want[kind][key])
    assert report.declination == declination(h, forward_counts(p, mats))
