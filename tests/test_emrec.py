"""Expectation-maximization inversion of photocount tables."""
import numpy as np
import pytest

from tripletwb.detector import (PAPER_TABLE_1, DetectionMatrix, DetectorConfig,
                                detection_matrix, forward_counts, sample_counts)
from tripletwb.emrec import EmSettings, em_reconstruct
from tripletwb.errors import DataError
from tripletwb.fock import Histogram, JointDistribution, normalize
from tripletwb.gaussian import PAPER_TABLE_2, sample_photon_numbers

from tests.oracles import em_reconstruct_full_box

IDEAL = DetectorConfig(pixels=10**6, efficiency=1.0, dark_rate=0.0)


def identity_matrix(n_max):
    return DetectionMatrix(np.eye(n_max + 1), IDEAL)


def small_model(seed=3, shape=(6, 5, 5)):
    rng = np.random.default_rng(seed)
    vals = rng.random(shape)
    vals /= vals.sum()
    return JointDistribution(vals, ("s", "i1", "i2")[: len(shape)],
                             normalized=True)


def small_matrices(shape):
    cfg = DetectorConfig(pixels=40, efficiency=0.45, dark_rate=0.05)
    return [detection_matrix(cfg, n - 1, c_max=n + 5) for n in shape]


def test_settings_validation():
    with pytest.raises(DataError):
        EmSettings(max_iterations=0)
    with pytest.raises(DataError):
        EmSettings(stop_tolerance=0.0)


def test_identity_channel_fixed_point_at_first_iteration():
    d = small_model()
    mats = [identity_matrix(n - 1) for n in d.values.shape]
    # one iteration from the uniform start already lands on p = f exactly
    res = em_reconstruct(d, mats, EmSettings(max_iterations=1,
                                             stop_tolerance=1e-12))
    np.testing.assert_allclose(res.distribution.values, d.values, atol=1e-14)
    res2 = em_reconstruct(d, mats, EmSettings(max_iterations=50,
                                              stop_tolerance=1e-12))
    assert res2.converged and res2.iterations <= 2


def test_truth_is_a_fixed_point():
    p = small_model(seed=8)
    mats = small_matrices(p.values.shape)
    f = forward_counts(p, mats)
    res = em_reconstruct(f, mats,
                         EmSettings(max_iterations=1, stop_tolerance=1e-14),
                         start=p)
    assert res.residual < 1e-10


def test_start_off_the_photon_box_raises():
    p = small_model(seed=8)
    mats = small_matrices(p.values.shape)
    f = forward_counts(p, mats)
    wrong_shape = small_model(seed=9, shape=(5, 5, 5))
    wrong_labels = JointDistribution(p.values, ("s", "i1", "i3"))
    for start in (wrong_shape, wrong_labels):
        with pytest.raises(DataError, match="does not match the photon box"):
            em_reconstruct(f, mats, EmSettings(max_iterations=3), start=start)


def test_all_zero_start_raises_before_the_first_map():
    p = small_model(seed=8)
    mats = small_matrices(p.values.shape)
    f = forward_counts(p, mats)
    start = JointDistribution(np.zeros(p.values.shape), p.axis_labels)
    with pytest.raises(DataError, match="start table sums to 0.0"):
        em_reconstruct(f, mats, EmSettings(max_iterations=3), start=start)


def test_loglik_nondecreasing_and_normalized_iterates():
    p = small_model(seed=12)
    mats = small_matrices(p.values.shape)
    f = forward_counts(p, mats)
    res = em_reconstruct(f, mats,
                         EmSettings(max_iterations=300, stop_tolerance=1e-13))
    assert np.all(np.diff(res.loglik_trace) >= -1e-12)
    assert abs(res.distribution.total() - 1.0) < 1e-12


def test_round_trip_recovers_small_model():
    p = small_model(seed=5, shape=(5, 4))
    mats = small_matrices(p.values.shape)
    f = forward_counts(p, mats)
    res = em_reconstruct(f, mats,
                         EmSettings(max_iterations=20000, stop_tolerance=1e-12))
    assert np.abs(res.distribution.values - p.values).max() < 0.01


def test_unsupported_outcome_errors():
    # observed clicks beyond what the photon cutoff can produce
    vals = np.zeros(8)
    vals[7] = 1.0
    f = JointDistribution(vals, ("s",), normalized=True)
    ideal = identity_matrix(7).entries[:, :3]  # clicks up to 7, photons up to 2
    mats = [DetectionMatrix(ideal, IDEAL)]
    with pytest.raises(DataError, match="unsupported outcome"):
        em_reconstruct(f, mats, EmSettings(max_iterations=5,
                                           stop_tolerance=1e-9))


def test_trace_csv_header():
    d = small_model(shape=(4, 4))
    mats = [identity_matrix(3), identity_matrix(3)]
    res = em_reconstruct(d, mats, EmSettings(max_iterations=3,
                                             stop_tolerance=1e-15))
    lines = res.trace_csv().strip().splitlines()
    assert lines[0] == "iteration,loglik,residual"
    assert len(lines) == res.iterations + 1


# ---------------------------------------------------------------------------
# conditional reconstruction
# ---------------------------------------------------------------------------

def test_conditional_identity_matrices():
    d3 = small_model(seed=4, shape=(4, 4, 4))
    mats = [identity_matrix(3)] * 3
    res = em_reconstruct(d3, mats, EmSettings(max_iterations=10, stop_tolerance=1e-12))
    np.testing.assert_allclose(res.distribution.values, d3.values, atol=1e-12)


# ---------------------------------------------------------------------------
# the observed click box against the full-box map
# ---------------------------------------------------------------------------

def assert_matches_full_box(f, mats, settings, **kwargs):
    res = em_reconstruct(f, mats, settings, **kwargs)
    p, iterations, logliks, residuals, converged = em_reconstruct_full_box(
        f, mats, settings, **kwargs)
    assert res.iterations == iterations
    assert res.converged == converged
    np.testing.assert_allclose(res.loglik_trace, logliks, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(res.residual_trace, residuals, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(res.distribution.values, p, rtol=0.0, atol=1e-14)
    return res


def test_observed_box_matches_full_box_on_sampled_histogram(matrices):
    frames = 100_000
    photons = sample_photon_numbers(PAPER_TABLE_2, frames, 41)
    clicks = sample_counts(photons, PAPER_TABLE_1, 42)
    box = [m.c_max for m in matrices.values()]
    keep = np.all(clicks <= np.asarray(box), axis=1)
    counts = np.zeros([c + 1 for c in box], dtype=np.int64)
    np.add.at(counts, tuple(clicks[keep].T), 1)
    f = normalize(Histogram(counts, int(keep.sum())))
    # the sample fills a small corner of the click box
    assert np.count_nonzero(f.values) < 0.01 * f.values.size
    assert_matches_full_box(f, matrices, EmSettings(max_iterations=15,
                                                    stop_tolerance=1e-9))


def test_observed_box_matches_full_box_with_unobserved_middle_row():
    p = small_model(seed=21, shape=(5, 4, 4))
    mats = small_matrices(p.values.shape)
    counts = np.random.default_rng(22).multinomial(
        4000, forward_counts(p, mats).values.ravel()).reshape(
            tuple(m.c_max + 1 for m in mats))
    counts[:, 3, :] = 0  # click 3 unobserved on i1, clicks 2 and 4 observed
    assert counts[:, 2, :].sum() > 0 and counts[:, 4, :].sum() > 0
    f = normalize(Histogram(counts, int(counts.sum()), ("s", "i1", "i2")))
    res = assert_matches_full_box(f, mats, EmSettings(max_iterations=3000,
                                                      stop_tolerance=5e-5))
    assert res.converged


def test_observed_box_matches_full_box_on_exact_full_support_data():
    p = small_model(seed=23, shape=(4, 5, 3))
    mats = small_matrices(p.values.shape)
    f = forward_counts(p, mats)
    assert np.all(f.values > 0)
    res = assert_matches_full_box(f, mats, EmSettings(max_iterations=3000,
                                                      stop_tolerance=1e-5))
    assert res.converged


def test_observed_box_matches_full_box_with_start_and_reduced_cutoffs():
    p = small_model(seed=25, shape=(6, 5, 5))
    mats = small_matrices(p.values.shape)
    f = forward_counts(p, mats)
    cutoffs = (4, 3, 4)
    start = small_model(seed=26, shape=tuple(c + 1 for c in cutoffs))
    assert_matches_full_box(f, mats, EmSettings(max_iterations=200,
                                                stop_tolerance=1e-12),
                            photon_cutoffs=cutoffs, start=start)


def test_iterates_hold_no_subnormal_cells():
    # only click 0 is observed and T(0|n) = 0.1^n, so the weight on n >= 1
    # falls tenfold per map and passes through the subnormal range near
    # map 308; the flushed iterate stops there, the full-box route keeps
    # 1e-315 on (0, 1) and (1, 0)
    cfg = DetectorConfig(pixels=100, efficiency=0.9, dark_rate=0.0)
    mats = [detection_matrix(cfg, 3, c_max=3)] * 2
    counts = np.zeros((4, 4), dtype=np.int64)
    counts[0, 0] = 10
    f = normalize(Histogram(counts, 10, ("s", "i1")))
    settings = EmSettings(max_iterations=315, stop_tolerance=1e-320)
    p = em_reconstruct(f, mats, settings).distribution.values
    q = em_reconstruct_full_box(f, mats, settings)[0]
    tiny = np.finfo(np.float64).tiny
    assert np.any((q > 0) & (q < tiny))
    assert not np.any((p > 0) & (p < tiny))
    np.testing.assert_allclose(p, q, rtol=0.0, atol=tiny)


def test_zero_probability_observed_cell_raises_in_observed_box():
    # i1 observes clicks 0 and 6; with photons <= 1 and no dark counts
    # click 6 has zero model probability
    cfg = DetectorConfig(pixels=20, efficiency=0.5, dark_rate=0.0)
    mats = [detection_matrix(cfg, 3, c_max=7)] * 2
    counts = np.zeros((8, 8), dtype=np.int64)
    counts[0, 0] = 5
    counts[1, 6] = 1
    f = normalize(Histogram(counts, 6, ("s", "i1")))
    with pytest.raises(DataError, match="unsupported outcome"):
        em_reconstruct(f, mats, EmSettings(max_iterations=5), photon_cutoffs=(3, 1))
