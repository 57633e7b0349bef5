"""Expectation-maximization inversion of photocount tables."""
import math
import tracemalloc

import numpy as np
import pytest

from tripletwb import io
from tripletwb.detector import (PAPER_TABLE_1, DetectionMatrix, DetectorConfig,
                                detection_matrix, forward_counts, sample_counts)
from tripletwb.emrec import STOP_GAIN_NATS, EmSettings, em_reconstruct
from tripletwb.errors import DataError
from tripletwb.fock import AXIS_ORDER, Histogram, JointDistribution, normalize
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
    return {l: detection_matrix(cfg, n - 1, c_max=n + 5) for l, n in zip(AXIS_ORDER, shape)}


def test_settings_validation():
    with pytest.raises(DataError):
        EmSettings(max_iterations=0)
    # an infinite tolerance stopped after one map and reported convergence
    for tol in (0.0, -1e-9, math.inf, math.nan):
        with pytest.raises(DataError, match="stop_tolerance must be finite and > 0"):
            EmSettings(stop_tolerance=tol)


@pytest.mark.parametrize("bad", [2.5, 3.0, True, "100"])
def test_settings_require_an_integer_iteration_cap(bad):
    # 2.5 passed the >= 1 check and failed later in range() with a TypeError
    with pytest.raises(DataError, match="max_iterations must be an integer >= 1"):
        EmSettings(max_iterations=bad)
    assert EmSettings(max_iterations=np.int64(3)).max_iterations == 3


def test_identity_channel_fixed_point_at_first_iteration():
    d = small_model()
    mats = {l: identity_matrix(n - 1) for l, n in zip(d.axis_labels, d.values.shape)}
    # one iteration from the uniform start already lands on p = f exactly
    res = em_reconstruct(d, mats, EmSettings(max_iterations=1,
                                             stop_tolerance=1e-12))
    np.testing.assert_allclose(res.distribution.values, d.values, atol=1e-14)
    res2 = em_reconstruct(d, mats, EmSettings(max_iterations=50,
                                              stop_tolerance=1e-12))
    assert res2.converged and res2.iterations <= 2


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
    mats = {"s": DetectionMatrix(ideal, IDEAL)}
    with pytest.raises(DataError, match="unsupported outcome"):
        em_reconstruct(f, mats, EmSettings(max_iterations=5,
                                           stop_tolerance=1e-9))


def test_trace_csv_header(tmp_path):
    d = small_model(shape=(4, 4))
    mats = {"s": identity_matrix(3), "i1": identity_matrix(3)}
    res = em_reconstruct(d, mats, EmSettings(max_iterations=3,
                                             stop_tolerance=1e-15))
    io.save_columns(res.trace_columns(), tmp_path / "trace.csv")
    lines = (tmp_path / "trace.csv").read_bytes().split(b"\r\n")
    assert lines[0] == b"iteration,loglik,residual"
    assert len(lines) == res.iterations + 2 and lines[-1] == b""
    # every field reads back to the exact double of the run
    table = np.loadtxt(tmp_path / "trace.csv", delimiter=",", skiprows=1, ndmin=2)
    np.testing.assert_array_equal(table[:, 0], np.arange(1, res.iterations + 1))
    np.testing.assert_array_equal(table[:, 1], res.loglik_trace)
    np.testing.assert_array_equal(table[:, 2], res.residual_trace)


# ---------------------------------------------------------------------------
# conditional reconstruction
# ---------------------------------------------------------------------------

def test_conditional_identity_matrices():
    d3 = small_model(seed=4, shape=(4, 4, 4))
    mats = dict.fromkeys(d3.axis_labels, identity_matrix(3))
    res = em_reconstruct(d3, mats, EmSettings(max_iterations=10, stop_tolerance=1e-12))
    np.testing.assert_allclose(res.distribution.values, d3.values, atol=1e-12)


# ---------------------------------------------------------------------------
# the observed click box against the full-box map
# ---------------------------------------------------------------------------

def assert_matches_full_box(data, mats, settings):
    res = em_reconstruct(data, mats, settings)
    # the oracle takes the frequency table and the frame count apart
    f, trials = (normalize(data), data.trials) if isinstance(data, Histogram) else (data, None)
    p, iterations, logliks, residuals, stop = em_reconstruct_full_box(
        f, mats, settings, trials)
    assert res.iterations == iterations
    assert res.stop == stop
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


@pytest.fixture(scope="module")
def sampled4(matrices):
    """A sampled 10^5-frame histogram over the full 43 x 31^3 click box of
    ``matrices``, binned as ``simulate`` bins it."""
    photons = sample_photon_numbers(PAPER_TABLE_2, 100_000, 43)
    clicks = sample_counts(photons, PAPER_TABLE_1, 44, out=photons)
    return Histogram.binned(clicks, [m.c_max for m in matrices.values()])


def test_em_on_a_histogram_forms_no_dense_frequency_table(sampled4, matrices):
    # the observed box is divided by N; a dense counts / N table would add
    # 10.2 MB of the 43 x 31^3 box
    assert sampled4.counts.shape == (43, 31, 31, 31)
    tracemalloc.start()
    try:
        em_reconstruct(sampled4, matrices, EmSettings(max_iterations=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_em_on_a_histogram_and_on_its_frequency_table_agree_bit_for_bit(sampled4, matrices):
    # the same cells divided by the same N: equal iterates and traces at a
    # budget the likelihood stop does not cut short
    settings = EmSettings(max_iterations=6)
    got = em_reconstruct(sampled4, matrices, settings)
    want = em_reconstruct(normalize(sampled4), matrices, settings)
    assert got.stop == want.stop == "budget"
    np.testing.assert_array_equal(got.distribution.values, want.distribution.values)
    np.testing.assert_array_equal(got.loglik_trace, want.loglik_trace)
    np.testing.assert_array_equal(got.residual_trace, want.residual_trace)


SAMPLED_FRAMES = 4000


def sampled_histogram():
    """A multinomial sample of a small 3-axis model's click table, and its matrices."""
    p = small_model(seed=21, shape=(5, 4, 4))
    mats = small_matrices(p.values.shape)
    counts = np.random.default_rng(22).multinomial(
        SAMPLED_FRAMES, forward_counts(p, mats).values.ravel()).reshape(
            tuple(m.c_max + 1 for m in mats.values()))
    return counts, mats


def sampled_frames():
    """The sample of :func:`sampled_histogram` as a Histogram, and its matrices."""
    counts, mats = sampled_histogram()
    return Histogram(counts, SAMPLED_FRAMES, ("s", "i1", "i2")), mats


def test_observed_box_matches_full_box_with_unobserved_middle_row():
    counts, mats = sampled_histogram()
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
    assert res.converged and res.stop == "residual"


def test_observed_box_matches_full_box_with_start_and_reduced_cutoffs():
    p = small_model(seed=25, shape=(6, 5, 5))
    mats = small_matrices(p.values.shape)
    f = forward_counts(p, mats)
    # the same click rows on a photon box smaller than the table's, from
    # the uniform start
    cutoffs = (4, 3, 4)
    reduced = {l: detection_matrix(m.config, cut, c_max=m.c_max)
               for (l, m), cut in zip(mats.items(), cutoffs)}
    assert_matches_full_box(f, reduced, EmSettings(max_iterations=200,
                                                   stop_tolerance=1e-12))


# ---------------------------------------------------------------------------
# the likelihood stop
# ---------------------------------------------------------------------------

def test_likelihood_stop_fires_before_the_budget():
    h, mats = sampled_frames()
    settings = EmSettings(max_iterations=5000, stop_tolerance=1e-15)
    res = assert_matches_full_box(h, mats, settings)
    assert res.stop == "likelihood" and res.converged
    assert res.iterations < settings.max_iterations
    gains = SAMPLED_FRAMES * np.diff(res.loglik_trace)
    assert res.last_gain == gains[-1]
    assert gains[-1] < STOP_GAIN_NATS <= gains[-2]


def test_budget_stop_is_not_converged():
    h, mats = sampled_frames()
    res = em_reconstruct(h, mats, EmSettings(max_iterations=5, stop_tolerance=1e-15))
    assert res.stop == "budget" and not res.converged
    assert res.iterations == 5
    assert res.last_gain == SAMPLED_FRAMES * (res.loglik_trace[-1] - res.loglik_trace[-2])


def test_without_trials_the_likelihood_run_has_the_same_iterates():
    # the rule only reads the trace: up to its stop, a run on the histogram
    # and one on its frequency table, which has no frame count, compute the
    # same maps bit for bit; the table's run goes on to its budget
    h, mats = sampled_frames()
    stopped = em_reconstruct(h, mats, EmSettings(5000, 1e-15))
    plain = em_reconstruct(normalize(h), mats, EmSettings(stopped.iterations, 1e-15))
    assert plain.stop == "budget" and plain.last_gain is None
    np.testing.assert_array_equal(plain.distribution.values, stopped.distribution.values)
    np.testing.assert_array_equal(plain.loglik_trace, stopped.loglik_trace)
    np.testing.assert_array_equal(plain.residual_trace, stopped.residual_trace)


@pytest.mark.parametrize("bad", [0, -3, 2.5, True, "100"])
def test_trials_must_be_a_positive_integer(bad):
    # EM reads the frame count from its histogram, so a bad one is refused
    # where the histogram is built and never reaches EM
    counts, _ = sampled_histogram()
    with pytest.raises(DataError, match="trials must be an integer >= 1"):
        Histogram(counts * 0, bad, ("s", "i1", "i2"))


def test_iterates_hold_no_subnormal_cells():
    # only click 0 is observed and T(0|n) = 0.1^n, so the weight on n >= 1
    # falls tenfold per map and passes through the subnormal range near
    # map 308; the flushed iterate stops there, the full-box route keeps
    # 1e-315 on (0, 1) and (1, 0)
    cfg = DetectorConfig(pixels=100, efficiency=0.9, dark_rate=0.0)
    mats = dict.fromkeys(("s", "i1"), detection_matrix(cfg, 3, c_max=3))
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
    mats = {"s": detection_matrix(cfg, 3, c_max=7), "i1": detection_matrix(cfg, 1, c_max=7)}
    counts = np.zeros((8, 8), dtype=np.int64)
    counts[0, 0] = 5
    counts[1, 6] = 1
    f = normalize(Histogram(counts, 6, ("s", "i1")))
    with pytest.raises(DataError, match="unsupported outcome"):
        em_reconstruct(f, mats, EmSettings(max_iterations=5))


def test_per_axis_list_is_refused():
    # detector arguments are keyed by axis label; a list names no axis
    p = small_model(seed=8)
    mats = small_matrices(p.values.shape)
    f = forward_counts(p, mats)
    cfg = mats["s"].config
    with pytest.raises(DataError, match=r"no detector entry for axes \['s', 'i1', 'i2'\]"):
        forward_counts(p, list(mats.values()))
    with pytest.raises(DataError, match=r"no detector entry for axes \['s', 'i1', 'i2'\]"):
        em_reconstruct(f, list(mats.values()), EmSettings(max_iterations=3))
    with pytest.raises(DataError, match=r"no detector entry for axes \['s'\]"):
        sample_counts(np.zeros((5, 1), dtype=np.int64), [cfg], seed=1)
