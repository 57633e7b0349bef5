"""The benchmark's output checks accept right answers and reject wrong ones.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest perfbench``.
Each check is fed a correct input and a deliberately wrong one.
"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks as ck  # noqa: E402


# -- reference computations ---------------------------------------------------

def test_detection_prob_exact_is_binomial_dark_count_at_zero_photons():
    N, D = 40, 0.5
    d = D / N
    for c in range(6):
        want = math.comb(N, c) * d**c * (1 - d) ** (N - c)
        assert ck.detection_prob_exact(N, 0.3, D, c, 0) == pytest.approx(want, rel=1e-12)


def test_detection_prob_exact_columns_sum_to_one():
    N = 12
    for n in (0, 1, 5, 9):
        total = sum(ck.detection_prob_exact(N, 0.4, 0.2, c, n) for c in range(N + 1))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_click_mean_reaches_eta_times_photon_mean_without_saturation():
    comps = [(3.0, 0.5), (0.2, 4.0)]
    got = ck.click_mean(comps, 10**12, 0.25, 0.0)
    assert got == pytest.approx(0.25 * sum(m * b for m, b in comps), rel=1e-6)


def test_ordered_moments_of_thermal_beams_are_gamma_moments():
    M, B, s = 2.0, 0.7, -0.3
    pmf = ck.mandel_rice(ck.tail_cutoff(M, B), M, B)
    table = np.einsum("i,j,k->ijk", pmf, pmf, pmf)
    t = ck.ordered_moments(table / table.sum(), (M, M, M), s)
    w = B + ck.theta(s)
    assert t[1, 0, 0] == pytest.approx(M * w, rel=1e-10)
    assert t[2, 0, 0] == pytest.approx(M * (M + 1) * w * w, rel=1e-10)
    assert t[1, 1, 1] == pytest.approx((M * w) ** 3, rel=1e-10)


# -- checks: accept the right input, reject a wrong one ------------------------

@pytest.fixture(scope="module")
def sampled_clicks():
    """5e5 frames of the shipped field through the shipped detectors."""
    from tripletwb.detector import PAPER_TABLE_1
    from tripletwb.detector import sample_counts
    from tripletwb.gaussian import PAPER_TABLE_2, sample_photon_numbers
    photons = sample_photon_numbers(PAPER_TABLE_2, 500_000, 5)
    return PAPER_TABLE_2, PAPER_TABLE_1, sample_counts(photons, PAPER_TABLE_1, 6)


def _means(params, cfgs, eta_s_scale=1.0):
    from workload import axis_components
    out = []
    for a in ("s", "i1", "i2", "i3"):
        eta = cfgs[a].efficiency * (eta_s_scale if a == "s" else 1.0)
        out.append(ck.click_mean(axis_components(params, a), cfgs[a].pixels, eta,
                                 cfgs[a].dark_rate))
    return out


def test_click_means_reject_signal_efficiency_raised_two_percent(sampled_clicks):
    params, cfgs, clicks = sampled_clicks
    assert ck.click_means_within(clicks, _means(params, cfgs), 5.0, "x").ok
    assert not ck.click_means_within(clicks, _means(params, cfgs, 1.02), 5.0, "x").ok


def test_frames_accounted_rejects_lost_frames():
    assert ck.frames_accounted(999_950, 50, 1_000_000).ok
    assert not ck.frames_accounted(999_940, 50, 1_000_000).ok


def test_loglik_check_rejects_a_dip():
    trace = -1000.0 + np.cumsum(np.full(50, 0.1))
    assert ck.loglik_nondecreasing(trace).ok
    trace[30] -= 0.5
    assert not ck.loglik_nondecreasing(trace).ok


def test_distribution_check_rejects_lost_mass_and_negative_cells():
    p = np.full((4, 5), 1.0 / 20)
    assert ck.is_distribution(p, "x").ok
    assert not ck.is_distribution(p * 0.99, "x").ok
    q = p.copy()
    q[0, 0] = -1e-3
    q[0, 1] += 1e-3
    assert not ck.is_distribution(q, "x").ok


def test_relative_close_rejects_three_percent_with_two_percent_limit():
    assert ck.relative_close("x", [1.01, 2.0], [1.0, 2.0], 0.02).ok
    assert not ck.relative_close("x", [1.03, 2.0], [1.0, 2.0], 0.02).ok


def _sweep_rows(p):
    """Slice masses and conditional means of the second axis of p[c, n]."""
    masses = p.sum(axis=1)
    n = np.arange(p.shape[1])
    means = (p @ n) / masses
    return masses, means[:, None], [float(p.sum(axis=0) @ n)]


def test_total_expectation_rejects_a_perturbed_row_mean():
    rng = np.random.default_rng(1)
    p = rng.random((6, 9))
    p /= p.sum()
    masses, means, uncond = _sweep_rows(p)
    assert ck.total_expectation(masses, means, uncond, (8,), "x").ok
    bad = means.copy()
    bad[2, 0] += 0.05
    assert not ck.total_expectation(masses, bad, uncond, (8,), "x").ok


def test_total_expectation_allows_gap_mass_only_up_to_its_bound():
    rng = np.random.default_rng(2)
    p = rng.random((6, 9))
    p /= p.sum()
    masses, means, uncond = _sweep_rows(p)
    # drop the last slice as a gap: its share of the mean is within gap * n_max
    assert ck.total_expectation(masses[:-1], means[:-1], uncond, (8,), "x").ok
    # a gap cannot explain a shortfall beyond gap * n_max
    assert not ck.total_expectation(masses[:-1], means[:-1], [uncond[0] + 1.0], (8,), "x").ok


def test_sign_change_rejects_a_shifted_depth():
    s0 = 0.4  # criterion s0 - s: nonclassical above s0, classical below

    def crit(s):
        return s0 - s

    tau = (1.0 - s0) / 2.0
    assert ck.sign_change_at_depth(crit, tau, "x").ok
    assert not ck.sign_change_at_depth(crit, tau + 0.05, "x").ok
    assert not ck.sign_change_at_depth(crit, 0.0, "x").ok
    assert not ck.sign_change_at_depth(crit, 1.2, "x").ok


def test_tau_range_rejects_values_outside_unit_interval():
    assert ck.taus_in_unit_interval(np.array([0.0, 0.3, 1.0]), "x").ok
    assert not ck.taus_in_unit_interval(np.array([0.0, 1.2]), "x").ok


def test_ordering_check_rejects_a_table_smoothed_with_the_wrong_theta():
    M, B, s = 1.7, 0.6, -0.2
    right = ck.mandel_rice(12, M, B + ck.theta(s))
    wrong = ck.mandel_rice(12, M, B + ck.theta(s) + 0.01)
    assert ck.ordering_maps_mandel_rice(right, M, B, s).ok
    assert not ck.ordering_maps_mandel_rice(wrong, M, B, s).ok


def test_thermal_W_check_rejects_the_wrong_theta():
    B, s = 0.8, -0.3
    w = (np.arange(400) + 0.5) * 0.05
    width = B + ck.theta(s)
    assert ck.thermal_W_matches(w, np.exp(-w / width) / width, B, s).ok
    width += 0.01
    assert not ck.thermal_W_matches(w, np.exp(-w / width) / width, B, s).ok


def test_negative_minimum_rejects_a_nonnegative_field():
    assert ck.negative_minimum(np.array([0.2, -1e-3]), "x").ok
    assert not ck.negative_minimum(np.array([0.2, 0.0]), "x").ok


def test_probability_criterion_is_classical_for_a_product_of_poissons():
    n = np.arange(8)
    pois = np.exp(-0.7) * 0.7**n / np.array([math.factorial(k) for k in n])
    p = np.einsum("i,j,k->ijk", pois, pois, pois)
    for kind in ("cs", "matrix"):
        assert ck.probability_criterion(p, kind) >= -1e-15


def test_click_moments_reject_a_wrong_forward_map():
    """Small detectors: a forward map through exact rational T(c|n) matrices."""
    from collections import namedtuple
    Det = namedtuple("Det", "pixels efficiency dark_rate")
    dets = [Det(6, 0.4, 0.3), Det(5, 0.25, 0.2)]
    rng = np.random.default_rng(3)
    photons = rng.random((4, 3))
    photons /= photons.sum()
    mats = [np.array([[ck.detection_prob_exact(d.pixels, d.efficiency, d.dark_rate, c, n)
                       for n in range(shape)] for c in range(d.pixels + 1)])
            for d, shape in zip(dets, photons.shape)]
    clicks = mats[0] @ photons @ mats[1].T
    c0, c1 = np.arange(clicks.shape[0]), np.arange(clicks.shape[1])
    m0, m1 = clicks.sum(1) @ c0, clicks.sum(0) @ c1
    moments = {"mean": {"a": m0, "b": m1},
               "cov": {("a", "a"): clicks.sum(1) @ c0**2 - m0**2,
                       ("b", "b"): clicks.sum(0) @ c1**2 - m1**2,
                       ("a", "b"): c0 @ clicks @ c1 - m0 * m1}}
    assert ck.click_moments_match(photons, dets, moments, 1e-10, "x").ok
    moments["mean"]["b"] *= 1.001
    assert not ck.click_moments_match(photons, dets, moments, 1e-10, "x").ok
