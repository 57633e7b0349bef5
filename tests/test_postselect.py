"""Post-selected idler statistics: Fano factors, correlations, sweeps."""
import math

import numpy as np
import pytest
from scipy.stats import poisson

from tripletwb import io
from tripletwb.detector import (DetectionMatrix, DetectorConfig, detection_matrix,
                                forward_counts)
from tripletwb.emrec import EmSettings, em_reconstruct
from tripletwb.errors import DataError
from tripletwb.fock import JointDistribution, condition, marginalize
from tripletwb.gaussian import MandelRiceComponent, mandel_rice_vector
from tripletwb.postselect import (SWEEP_STATS, conditioned_field, corr_fluct, fano,
                                  sweep_distribution, sweep_histogram)

from tests.oracles import stats_row_marginals

IDEAL = DetectorConfig(pixels=10**6, efficiency=1.0, dark_rate=0.0)


def multinomial_thirds(n):
    """Joint pmf of n items split uniformly over three idler slots."""
    vals = np.zeros((n + 1, n + 1, n + 1))
    for a in range(n + 1):
        for b in range(n + 1 - a):
            c = n - a - b
            vals[a, b, c] = (math.factorial(n)
                             / (math.factorial(a) * math.factorial(b)
                                * math.factorial(c)) / 3.0 ** n)
    return JointDistribution(vals, ("i1", "i2", "i3"), normalized=True)


def equal_split_pure_pair(n_max=12):
    """4D model: signal photons routed multinomially to the three idlers."""
    w = mandel_rice_vector(n_max, MandelRiceComponent(M=2.0, B=0.8))
    w /= w.sum()
    vals = np.zeros((n_max + 1,) * 4)
    for n in range(n_max + 1):
        vals[n, :n + 1, :n + 1, :n + 1] = w[n] * multinomial_thirds(n).values
    return JointDistribution(vals, ("s", "i1", "i2", "i3"), normalized=True)


# ---------------------------------------------------------------------------
# scalar statistics
# ---------------------------------------------------------------------------

def test_fano_poisson_is_one():
    pmf = poisson.pmf(np.arange(80), 3.0)
    d = JointDistribution(np.asarray(pmf), ("i1",), normalized=True)
    assert abs(fano(d, "i1") - 1.0) < 1e-9


def test_fano_binomial_third():
    from scipy.stats import binom
    pmf = binom.pmf(np.arange(11), 10, 1.0 / 3.0)
    d = JointDistribution(pmf, ("i1",), normalized=True)
    assert abs(fano(d, "i1") - 2.0 / 3.0) < 1e-12


def test_fano_mandel_rice_is_one_plus_b():
    for M, B in [(1.0, 0.5), (3.3, 0.2), (29.9, 0.091)]:
        pmf = mandel_rice_vector(400, MandelRiceComponent(M, B))
        d = JointDistribution(pmf / pmf.sum(), ("i1",), normalized=True)
        assert abs(fano(d, "i1") - (1.0 + B)) < 1e-6


def test_fano_zero_mean_errors():
    vals = np.zeros(4)
    vals[0] = 1.0
    d = JointDistribution(vals, ("i1",), normalized=True)
    with pytest.raises(DataError):
        fano(d, "i1")


def test_corr_product_is_zero():
    p = poisson.pmf(np.arange(20), 1.0)
    q = poisson.pmf(np.arange(20), 2.0)
    d = JointDistribution(np.einsum("i,j->ij", p, q) / (p.sum() * q.sum()),
                          ("i1", "i2"), normalized=True)
    assert abs(corr_fluct(d, "i1", "i2")) < 1e-9


def test_corr_perfect_anticorrelation():
    vals = np.array([[0.0, 0.5], [0.5, 0.0]])
    d = JointDistribution(vals, ("i1", "i2"), normalized=True)
    assert abs(corr_fluct(d, "i1", "i2") + 1.0) < 1e-12


def test_corr_multinomial_thirds_is_minus_half():
    d = multinomial_thirds(10)  # all 66 outcomes enumerated exactly
    for a, b in (("i1", "i2"), ("i1", "i3"), ("i2", "i3")):
        assert abs(corr_fluct(d, a, b) + 0.5) < 1e-12


def test_corr_zero_variance_errors():
    vals = np.zeros((2, 3))
    vals[1, 0] = 0.4
    vals[1, 2] = 0.6
    d = JointDistribution(vals, ("i1", "i2"), normalized=True)
    with pytest.raises(DataError):
        corr_fluct(d, "i1", "i2")


# ---------------------------------------------------------------------------
# conditioning
# ---------------------------------------------------------------------------

def test_conditioned_field_photon_selector():
    p4 = equal_split_pure_pair(8)
    mass, d3 = conditioned_field(p4, "n_s", 6)
    assert abs(d3.total() - 1.0) < 1e-12
    np.testing.assert_allclose(
        d3.values[: 7, : 7, : 7], multinomial_thirds(6).values, atol=1e-12)


#: the two public conditioning routes, each given a selector kind and matrix
ROUTES = (lambda p4, kind, t_s=None: conditioned_field(p4, kind, 2, t_s),
          lambda p4, kind, t_s=None: sweep_distribution(p4, kind, range(4), t_s))


def test_conditioned_field_click_selector_needs_matrix():
    # the sweep too refuses before any value is tried, not with a raw
    # AttributeError
    p4 = equal_split_pure_pair(4)
    for route in ROUTES:
        with pytest.raises(DataError, match="needs the signal detection matrix"):
            route(p4, "c_s")


def test_conditioned_field_unknown_selector():
    # the sweep too refuses, rather than reporting every value as a gap
    p4 = equal_split_pure_pair(4)
    for route in ROUTES:
        with pytest.raises(DataError, match="unknown selector kind 'clicks'"):
            route(p4, "clicks")


def test_c_s_field_needs_a_normalized_four_axis_signal_table():
    p4 = equal_split_pure_pair(4)
    t_s = DetectionMatrix(np.eye(5), IDEAL)
    unnormalized = JointDistribution(p4.values, p4.axis_labels)
    for table in (unnormalized, multinomial_thirds(4)):
        for route in ROUTES:
            with pytest.raises(DataError, match="normalized 4-axis table"):
                route(table, "c_s", t_s)


def test_c_s_field_needs_a_matrix_covering_the_signal_cutoff():
    p4 = equal_split_pure_pair(4)
    t_s = DetectionMatrix(np.eye(4), IDEAL)  # photons up to 3, the table has 4
    for route in ROUTES:
        with pytest.raises(DataError, match="does not cover the signal cutoff"):
            route(p4, "c_s", t_s)


# ---------------------------------------------------------------------------
# click-selected fields of the shipped model
# ---------------------------------------------------------------------------

def test_c_s_field_with_ideal_signal_detector(model4):
    t_s = DetectionMatrix(np.eye(model4.values.shape[0]), IDEAL)
    mass, d3 = conditioned_field(model4, "c_s", 10, t_s)
    direct = condition(model4, "s", 10)
    np.testing.assert_allclose(d3.values, direct.values, atol=1e-12)
    assert abs(mass - marginalize(model4, ["s"]).values[10]) < 1e-12


def test_c_s_field_with_blind_signal_detector(model4):
    blind = DetectorConfig(pixels=64, efficiency=0.0, dark_rate=0.0)
    t_s = detection_matrix(blind, model4.values.shape[0] - 1, c_max=2)
    mass, d3 = conditioned_field(model4, "c_s", 0, t_s)
    assert abs(mass - 1.0) < 1e-12
    idlers = marginalize(model4, ["i1", "i2", "i3"])
    np.testing.assert_allclose(d3.values, idlers.values, atol=1e-12)
    for c_s in (1, 2):
        with pytest.raises(DataError, match="unconditionable outcome"):
            conditioned_field(model4, "c_s", c_s, t_s)


def test_c_s_field_matches_direct_summation(model4, matrices):
    mass, d3 = conditioned_field(model4, "c_s", 5, matrices["s"])
    t = matrices["s"].entries
    brute = sum(t[5, n] * model4.values[n]
                for n in range(model4.values.shape[0]))
    np.testing.assert_allclose(d3.values, brute / brute.sum(), rtol=1e-12)
    assert abs(mass - brute.sum()) < 1e-12


def test_c_s_field_round_trip_through_the_idler_detectors(model4, matrices):
    # the c_s = 5 slice of the exact click table, inverted with the idler
    # matrices, must recover the conditional photon field's means within 2%
    mass, truth = conditioned_field(model4, "c_s", 5, matrices["s"])
    idler_mats = {l: matrices[l] for l in ("i1", "i2", "i3")}
    f3 = forward_counts(truth, idler_mats)
    res = em_reconstruct(f3, idler_mats, EmSettings(max_iterations=4000, stop_tolerance=1e-11))
    for l in ("i1", "i2", "i3"):
        m_true = marginalize(truth, [l]).values
        m_rec = marginalize(res.distribution, [l]).values
        mean_true = float(np.arange(m_true.size) @ m_true)
        mean_rec = float(np.arange(m_rec.size) @ m_rec)
        assert abs(mean_rec - mean_true) < 0.02 * mean_true


@pytest.mark.parametrize("kind, values", [("c_s", range(43)), ("n_s", range(33))])
def test_sweep_rows_match_marginal_reductions(model4, matrices, kind, values):
    sw = sweep_distribution(model4, kind, values, matrices["s"])
    assert len(sw.rows) > 10
    for row in sw.rows:
        mass, d3 = conditioned_field(model4, kind, row.selector, matrices["s"])
        assert row.mass == mass
        means, fanos, corrs = stats_row_marginals(d3)
        np.testing.assert_allclose(row.mean, means, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(row.fano, fanos, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(row.corr, corrs, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_equal_split_means_are_exact_thirds():
    p4 = equal_split_pure_pair(10)
    sw = sweep_distribution(p4, "n_s", range(2, 9))
    for row in sw.rows:
        for m in row.mean:
            assert abs(m - row.selector / 3.0) < 1e-12
        for f in row.fano:
            assert abs(f - 2.0 / 3.0) < 1e-12
        for c in row.corr:
            assert abs(c + 0.5) < 1e-12


def test_sweep_records_gaps_for_starved_slices():
    p4 = equal_split_pure_pair(6)
    sw = sweep_distribution(p4, "n_s", range(0, 40))
    assert set(sw.gaps) >= {20, 39}
    assert all(r.selector <= 6 for r in sw.rows)


def test_sweep_csv_header(tmp_path):
    p4 = equal_split_pure_pair(6)
    sw = sweep_distribution(p4, "n_s", range(2, 5))
    io.save_columns(sw.columns(), tmp_path / "sweep.csv")
    lines = (tmp_path / "sweep.csv").read_bytes().split(b"\r\n")
    assert lines[0] == (b"selector,mean_i1,mean_i2,mean_i3,"
                        b"fano_i1,fano_i2,fano_i3,"
                        b"corr_12,corr_13,corr_23,slice_mass")
    assert len(lines) == 5 and lines[-1] == b""
    # every field reads back to the exact double of its row
    table = np.loadtxt(tmp_path / "sweep.csv", delimiter=",", skiprows=1)
    for row, r in zip(table, sw.rows):
        assert row.tolist() == [r.selector, *r.mean, *r.fano, *r.corr, r.mass]


def test_sweep_without_rows_writes_its_header(tmp_path):
    sw = sweep_distribution(equal_split_pure_pair(6), "n_s", range(30, 32))
    assert sw.rows == () and sw.gaps == (30, 31)
    io.save_columns(sw.columns(), tmp_path / "sweep.csv")
    assert (tmp_path / "sweep.csv").read_bytes() == (
        ",".join(("selector",) + SWEEP_STATS) + "\r\n").encode()


def test_sweep_histogram_matches_distribution_for_ideal_idlers():
    # with ideal signal and idler channels a histogram sweep over c_s must
    # reproduce the distribution sweep over n_s (identity reconstruction)
    from tripletwb.fock import Histogram
    p4 = equal_split_pure_pair(8)
    trials = 10**9
    counts = np.round(p4.values * trials).astype(np.int64)
    h = Histogram(counts, int(counts.sum()))
    mats = {l: DetectionMatrix(np.eye(9), IDEAL) for l in ("i1", "i2", "i3")}
    sw_h = sweep_histogram(h, mats, range(2, 7))
    sw_d = sweep_distribution(p4, "n_s", range(2, 7))
    for rh, rd in zip(sw_h.rows, sw_d.rows):
        assert rh.selector == rd.selector
        np.testing.assert_allclose(rh.mean, rd.mean, atol=1e-6)
        np.testing.assert_allclose(rh.fano, rd.fano, atol=1e-6)


def test_sweep_histogram_slices_carry_their_frames():
    # each row's mass is its slice's share of the frames, each slice's EM
    # counts that slice's frames; a value without frames is a gap
    from tripletwb.fock import Histogram
    rng = np.random.default_rng(5)
    counts = rng.integers(0, 40, size=(4, 3, 3, 3))
    counts[2] = 0
    h = Histogram(counts, int(counts.sum()))
    mats = {l: DetectionMatrix(np.eye(3), IDEAL) for l in ("i1", "i2", "i3")}
    sw = sweep_histogram(h, mats, range(0, 6))
    assert sw.gaps == (2, 4, 5)
    assert [r.selector for r in sw.rows] == [0, 1, 3]
    for row, em in zip(sw.rows, sw.em):
        frames = int(counts[row.selector].sum())
        assert em["frames"] == frames
        assert row.mass == frames / h.trials


def test_sweep_histogram_needs_a_signal_axis():
    from tripletwb.fock import Histogram
    h = Histogram(np.ones((2, 2, 2), dtype=np.int64), 8, ("i1", "i2", "i3"))
    mats = {l: DetectionMatrix(np.eye(2), IDEAL) for l in ("i1", "i2", "i3")}
    with pytest.raises(DataError, match="signal axis"):
        sweep_histogram(h, mats, range(2))
