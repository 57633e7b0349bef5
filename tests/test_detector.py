"""Click-detector model: matrices, forward map, sampling."""
import dataclasses

import numpy as np
import pytest
from scipy.stats import binom, chi2

from tripletwb.detector import (PAPER_TABLE_1, DetectionMatrix, DetectorConfig,
                                _sample_clicks_pixelwise, default_c_max, detection_matrix,
                                detection_matrix_alternating, forward_counts,
                                sample_counts, simulate_pixel_clicks)
from tripletwb.errors import DataError, ParameterError
from tripletwb.fock import JointDistribution

from tests.oracles import sample_clicks_pixelwise_copying


IDEAL = DetectorConfig(pixels=10**6, efficiency=1.0, dark_rate=0.0)


def identity_matrix(n_max):
    return DetectionMatrix(np.eye(n_max + 1), IDEAL)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ParameterError):
        DetectorConfig(pixels=0, efficiency=0.5, dark_rate=0.0)
    with pytest.raises(ParameterError):
        DetectorConfig(pixels=10, efficiency=1.5, dark_rate=0.0)
    with pytest.raises(ParameterError):
        DetectorConfig(pixels=10, efficiency=0.5, dark_rate=-1.0)
    with pytest.raises(ParameterError):
        DetectorConfig(pixels=2, efficiency=0.5, dark_rate=2.5)


def test_dark_prob_is_rate_over_pixels():
    cfg = PAPER_TABLE_1["s"]
    assert cfg.dark_prob == pytest.approx(0.220 / 4536)


def test_c_max_respects_pixel_count():
    cfg = DetectorConfig(pixels=8, efficiency=0.5, dark_rate=0.1)
    assert default_c_max(cfg, 20) == 8
    with pytest.raises(ParameterError):
        detection_matrix(cfg, 4, c_max=9)


# ---------------------------------------------------------------------------
# detection matrices
# ---------------------------------------------------------------------------

def test_blind_detector_is_delta_at_zero():
    cfg = DetectorConfig(pixels=64, efficiency=0.0, dark_rate=0.0)
    t = detection_matrix(cfg, 10, c_max=10)
    expected = np.zeros((11, 11))
    expected[0, :] = 1.0
    np.testing.assert_allclose(t.entries, expected, atol=1e-12)


def test_ideal_limit_approaches_identity():
    cfg = DetectorConfig(pixels=10**4, efficiency=1.0, dark_rate=0.0)
    t = detection_matrix(cfg, 5, c_max=8)
    for n in range(6):
        assert t.entries[n, n] > 1.0 - 1e-3
        off = t.entries[:, n].copy()
        off[n] = 0.0
        assert off.max() < 1e-3


def test_columns_stochastic_for_preset():
    for cfg in PAPER_TABLE_1.values():
        t = detection_matrix(cfg, 32)
        np.testing.assert_allclose(t.entries.sum(axis=0), 1.0, atol=1e-9)
        assert t.entries.min() >= 0.0


def test_dark_only_column_is_binomial():
    cfg = PAPER_TABLE_1["s"]
    t = detection_matrix(cfg, 4)
    c = np.arange(t.c_max + 1)
    expected = binom.pmf(c, cfg.pixels, cfg.dark_prob)
    np.testing.assert_allclose(t.entries[:, 0], expected, rtol=1e-9, atol=1e-14)


def test_mean_click_count_monotone_in_n():
    for cfg in (PAPER_TABLE_1["s"], PAPER_TABLE_1["i1"]):
        t = detection_matrix(cfg, 32)
        c = np.arange(t.c_max + 1, dtype=float)
        means = c @ t.entries
        assert np.all(np.diff(means) > 0.0)


def test_occupancy_and_alternating_routes_agree():
    # the alternating closed form cancels catastrophically for large pixel
    # counts; cross-check the occupancy route where it is still stable
    cfg = DetectorConfig(pixels=12, efficiency=0.4, dark_rate=0.02)
    a = detection_matrix(cfg, 4, c_max=12)
    b = detection_matrix_alternating(cfg, 4, c_max=12, clamp=1e-9)
    np.testing.assert_allclose(a.entries, b.entries, atol=1e-9)


def test_alternating_route_rejects_unstable_configs():
    from tripletwb.errors import NumericalError
    with pytest.raises(NumericalError):
        detection_matrix_alternating(PAPER_TABLE_1["s"], 16)


def pooled_pearson(clicks, col):
    """Pearson statistic of click samples against a T(.|n) column.

    Cells expecting fewer than 5 counts are pooled into one; returns the
    statistic and its degrees of freedom.
    """
    frames = clicks.size
    obs = np.bincount(clicks, minlength=col.size)[: col.size]
    exp = col * frames
    keep = exp >= 5.0
    pooled_obs = np.append(obs[keep], frames - obs[keep].sum())
    pooled_exp = np.append(exp[keep], max(frames - exp[keep].sum(), 1e-9))
    stat = float(np.sum((pooled_obs - pooled_exp) ** 2 / pooled_exp))
    return stat, int(keep.sum())


def test_pixel_monte_carlo_matches_closed_form():
    cfg = PAPER_TABLE_1["i1"]
    t = detection_matrix(cfg, 12)
    for n in (0, 3, 9):
        clicks = simulate_pixel_clicks(cfg, n, 10**5, seed=100 + n)
        stat, dof = pooled_pearson(clicks, t.entries[:, n])
        assert stat < chi2.ppf(0.99, dof)


def test_monte_carlo_gate_rejects_biased_efficiency():
    # Power of the acceptance Monte-Carlo gate (test_02: 10^6 frames, seeds
    # 97 + n, 1% family-wise over its 10 distinct (config, n) checks):
    # a signal detector 0.5% (relative) more efficient than the matrix
    # assumes must be rejected. The asymptotic (noncentral chi^2) power is
    # 0.86 at n = 5 and indistinguishable from 1 at n = 32.
    cfg = PAPER_TABLE_1["s"]
    biased = dataclasses.replace(cfg, efficiency=cfg.efficiency * 1.005)
    t = detection_matrix(cfg, 32)
    for n in (5, 32):
        clicks = simulate_pixel_clicks(biased, n, 10**6, seed=97 + n)
        stat, dof = pooled_pearson(clicks, t.entries[:, n])
        assert stat > chi2.isf(0.01 / 10, dof), (n, stat)


# ---------------------------------------------------------------------------
# forward map
# ---------------------------------------------------------------------------

def test_forward_with_identity_matrices_is_identity(model4):
    mats = {l: identity_matrix(model4.values.shape[i] - 1)
            for i, l in enumerate(model4.axis_labels)}
    f = forward_counts(model4, mats)
    np.testing.assert_allclose(f.values, model4.values, rtol=1e-12)


def test_vacuum_dark_floor():
    vals = np.zeros((1, 1, 1, 1))
    vals[0, 0, 0, 0] = 1.0
    p = JointDistribution(vals, ("s", "i1", "i2", "i3"), normalized=True)
    mats = {l: detection_matrix(cfg, 0) for l, cfg in PAPER_TABLE_1.items()}
    f = forward_counts(p, mats)
    assert abs(f.values[0, 0, 0, 0] - 0.645) < 0.01


def test_forward_is_linear(rng):
    a = rng.random((5, 5))
    a /= a.sum()
    b = rng.random((5, 5))
    b /= b.sum()
    cfg = DetectorConfig(pixels=30, efficiency=0.4, dark_rate=0.02)
    mats = {"s": detection_matrix(cfg, 4), "i1": detection_matrix(cfg, 4)}
    mk = lambda v: JointDistribution(v, ("s", "i1"), normalized=True)
    w = 0.3
    mix = forward_counts(mk(w * a + (1 - w) * b), mats).values
    parts = (w * forward_counts(mk(a), mats).values
             + (1 - w) * forward_counts(mk(b), mats).values)
    np.testing.assert_allclose(mix, parts, atol=1e-12)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_blind_detector_never_clicks():
    cfg = DetectorConfig(pixels=16, efficiency=0.0, dark_rate=0.0)
    photons = np.full((500, 1), 7)
    out = sample_counts(photons, [detection_matrix(cfg, 10)], seed=3,
                        axis_labels=("s",))
    assert np.all(out == 0)


def test_sample_counts_deterministic():
    mats = {l: detection_matrix(cfg, 20) for l, cfg in PAPER_TABLE_1.items()}
    photons = np.tile(np.array([[5, 2, 1, 0]]), (400, 1))
    a = sample_counts(photons, mats, seed=9)
    b = sample_counts(photons, mats, seed=9)
    c = sample_counts(photons, mats, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_counts_column_chi_square():
    cfg = PAPER_TABLE_1["i1"]
    t = detection_matrix(cfg, 10)
    photons = np.full((10**5, 1), 6)
    out = sample_counts(photons, [t], seed=21, axis_labels=("i1",))
    col = t.entries[:, 6]
    obs = np.bincount(out[:, 0], minlength=col.size)[: col.size]
    exp = col * photons.shape[0]
    keep = exp >= 5.0
    stat = float(np.sum((obs[keep] - exp[keep]) ** 2 / exp[keep]))
    assert stat < chi2.ppf(0.99, keep.sum() - 1)


@pytest.mark.parametrize("label", ["s", "i1"])
def test_pixelwise_sampler_matches_copying_reference(label):
    cfg = PAPER_TABLE_1[label]
    n = np.random.default_rng(4).poisson(6.0, size=20_000)
    got = _sample_clicks_pixelwise(n, cfg, np.random.default_rng(5))
    want = sample_clicks_pixelwise_copying(n, cfg, np.random.default_rng(5))
    np.testing.assert_array_equal(got, want)
