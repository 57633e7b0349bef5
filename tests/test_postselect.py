"""Post-selected idler statistics: Fano factors, correlations, sweeps."""
import math

import numpy as np
import pytest
from scipy.stats import poisson

from tripletwb.errors import DataError
from tripletwb.fock import JointDistribution
from tripletwb.gaussian import MandelRiceComponent, mandel_rice_vector
from tripletwb.postselect import (conditioned_field, corr_fluct, fano,
                                  sweep_distribution, sweep_histogram)


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


#: the two public conditioning routes, each given a selector kind
ROUTES = (lambda p4, kind: conditioned_field(p4, kind, 2),
          lambda p4, kind: sweep_distribution(p4, kind, range(4)))


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


def test_sweep_csv_header():
    p4 = equal_split_pure_pair(6)
    sw = sweep_distribution(p4, "n_s", range(2, 5))
    lines = sw.to_csv().strip().splitlines()
    assert lines[0] == ("selector,mean_i1,mean_i2,mean_i3,"
                        "fano_i1,fano_i2,fano_i3,"
                        "corr_12,corr_13,corr_23,slice_mass")
    assert len(lines) == 4


def test_sweep_histogram_matches_distribution_for_ideal_idlers():
    # with ideal signal and idler channels a histogram sweep over c_s must
    # reproduce the distribution sweep over n_s (identity reconstruction)
    from tripletwb.detector import DetectionMatrix, DetectorConfig
    from tripletwb.fock import Histogram
    p4 = equal_split_pure_pair(8)
    trials = 10**9
    counts = np.round(p4.values * trials).astype(np.int64)
    h = Histogram(counts, int(counts.sum()))
    ideal = DetectorConfig(pixels=10**6, efficiency=1.0, dark_rate=0.0)
    mats = {l: DetectionMatrix(np.eye(9), ideal) for l in ("i1", "i2", "i3")}
    sw_h = sweep_histogram(h, mats, range(2, 7))
    sw_d = sweep_distribution(p4, "n_s", range(2, 7))
    for rh, rd in zip(sw_h.rows, sw_d.rows):
        assert rh.selector == rd.selector
        np.testing.assert_allclose(rh.mean, rd.mean, atol=1e-6)
        np.testing.assert_allclose(rh.fano, rd.fano, atol=1e-6)
