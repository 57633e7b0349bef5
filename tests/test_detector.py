"""Click-detector model: matrices, forward map, sampling."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binom, chi2, ncx2

from tripletwb import detector, fock
from tripletwb.detector import (PAPER_TABLE_1, DetectionMatrix, DetectorConfig,
                                _sample_clicks_pixelwise, default_c_max, detection_matrix,
                                forward_counts, sample_counts)
from tripletwb.errors import DataError, ParameterError
from tripletwb.fock import FRAME_CHUNK, JointDistribution, contract
from tripletwb.gaussian import PAPER_TABLE_2, sample_photon_numbers

from tests.oracles import (detection_matrix_alternating, detection_matrix_loop,
                           forward_counts_then_normalized, sample_clicks_pixelwise_copying)


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


@pytest.mark.parametrize("dark_rate", [math.nan, math.inf])
def test_config_rejects_a_non_finite_dark_rate(dark_rate):
    # a NaN dark rate passed the dark_rate < 0 check and reached the
    # binomial sampler as a NaN probability
    with pytest.raises(ParameterError, match="dark rate must be finite"):
        DetectorConfig(pixels=10, efficiency=0.5, dark_rate=dark_rate)


@pytest.mark.parametrize("pixels", [1512.5, 1512.0, True, "10"])
def test_config_requires_an_integer_pixel_count(pixels):
    # 1512.5 failed later in the click sampler's integer cast; True ran as
    # a one-pixel detector
    with pytest.raises(ParameterError, match="pixels must be an integer"):
        DetectorConfig(pixels=pixels, efficiency=0.5, dark_rate=0.0)
    assert DetectorConfig(pixels=np.int64(12), efficiency=0.5, dark_rate=0.0).pixels == 12


@pytest.mark.parametrize("key", ["efficiency", "dark_rate"])
@pytest.mark.parametrize("flag", [True, False])
def test_config_refuses_a_bool_efficiency_or_dark_rate(key, flag):
    # a bool passed the range checks as 1 or 0, so a JSON true read as 1.0
    values = {"pixels": 10, "efficiency": 0.5, "dark_rate": 0.0, key: flag}
    with pytest.raises(ParameterError, match=key.replace("_", " ")):
        DetectorConfig(**values)


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


@pytest.mark.parametrize("cfg, n_max", [
    (PAPER_TABLE_1["s"], 32),
    (PAPER_TABLE_1["i1"], 20),
    (DetectorConfig(pixels=7, efficiency=0.5, dark_rate=0.3), 12),  # n > pixels
    (DetectorConfig(pixels=5, efficiency=1.0, dark_rate=0.0), 10),
    (DetectorConfig(pixels=40, efficiency=0.0, dark_rate=2.0), 8),
])
def test_matrix_product_matches_the_term_loop(cfg, n_max):
    assert_matches_the_term_loop(cfg, n_max, default_c_max(cfg, n_max))


@pytest.mark.parametrize("cfg, n_max, c_max", [
    # occupancies beyond the click range carry less than COLUMN_TOL
    (PAPER_TABLE_1["i1"], 45, 30),
    (DetectorConfig(pixels=8, efficiency=0.6, dark_rate=0.4), 32, 8),  # n_max > pixels
    (DetectorConfig(pixels=5, efficiency=1e-11, dark_rate=1e-11), 6, 0),
], ids=["n_max-above-c_max", "n_max-above-pixels", "c_max-0"])
def test_matrix_product_matches_the_term_loop_below_the_photon_cutoff(cfg, n_max, c_max):
    assert_matches_the_term_loop(cfg, n_max, c_max)


def assert_matches_the_term_loop(cfg, n_max, c_max):
    got = detection_matrix(cfg, n_max, c_max).entries
    raw = detection_matrix_loop(cfg, n_max, c_max)
    want = raw / raw.sum(axis=0, keepdims=True)
    nonzero = want > 0
    assert np.all(got[~nonzero] == 0.0)
    assert np.max(np.abs(got[nonzero] - want[nonzero]) / want[nonzero]) <= 1e-14


@pytest.mark.parametrize("dark_rate", [800.0, 1400.0])
def test_heavy_dark_counts_keep_their_columns(dark_rate):
    # the dark-count columns start at (1 - d)^(N - j), which underflows to
    # 0.0 here; they must still hold the Binomial law, not zeros. The
    # log-space route of earlier versions was within 2.7e-12 of the same
    # exact matrix
    cfg = DetectorConfig(pixels=1512, efficiency=0.2, dark_rate=dark_rate)
    assert (1.0 - cfg.dark_prob) ** (cfg.pixels - 4) == 0.0
    got = detection_matrix(cfg, 4).entries
    np.testing.assert_allclose(got.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)
    raw = detection_matrix_loop(cfg, 4, default_c_max(cfg, 4))
    np.testing.assert_allclose(got, raw / raw.sum(axis=0), rtol=1e-10, atol=1e-300)


def test_too_few_click_rows_fail_the_column_check():
    # a truncation, not a loss of precision: exit 2 at the CLI, with the
    # cutoff and the click range named
    from tripletwb.errors import CutoffError
    cfg = DetectorConfig(pixels=100, efficiency=0.9, dark_rate=0.0)
    raw = detection_matrix_loop(cfg, 12, 4)
    assert np.abs(raw.sum(axis=0) - 1.0).max() > 1e-9
    with pytest.raises(CutoffError, match=r"click range 0\.\.4 is too narrow for the "
                                          r"photon cutoff n_max = 12"):
        detection_matrix(cfg, 12, c_max=4)


def test_a_photon_cutoff_far_above_the_click_range_fails_in_a_few_megabytes():
    # only the occupancies a click can reach are formed: 31 x 3001 doubles
    # here, where an (n_max + 1)^2 chain would hold 72 MB
    from tripletwb.errors import CutoffError
    tracemalloc.start()
    try:
        with pytest.raises(CutoffError, match=r"click range 0\.\.30 is too narrow for the "
                                              r"photon cutoff n_max = 3000"):
            detection_matrix(PAPER_TABLE_1["i1"], 3000, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_nan_entry_fails_the_column_check():
    from tripletwb.errors import NumericalError
    with pytest.raises(NumericalError, match="not column-stochastic"):
        DetectionMatrix(np.array([[np.nan, 0.0], [0.5, 1.0]]),
                        DetectorConfig(10, 0.5, 0.0))


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
        clicks = sample_counts(np.full((10**5, 1), n), {"s": cfg}, 100 + n)[:, 0]
        stat, dof = pooled_pearson(clicks, t.entries[:, n])
        assert stat < chi2.ppf(0.99, dof)


def test_monte_carlo_gate_rejects_biased_efficiency():
    # Power of the acceptance Monte-Carlo gate (test_02: 10^6 frames, seeds
    # 97 + n, 1% family-wise over its 10 distinct (config, n) checks)
    # against a signal detector 0.5% (relative) more efficient than the
    # matrix assumes. At n = 5 one sampled draw would miss with the gate's
    # own miss rate (about 14%), so the asymptotic power is computed: the
    # Pearson statistic is noncentral chi^2 with noncentrality frames times
    # the pooled chi^2 distance of the biased column. At n = 32 the power
    # is 1 to double precision and one sampled draw must reject.
    cfg = PAPER_TABLE_1["s"]
    biased = dataclasses.replace(cfg, efficiency=cfg.efficiency * 1.005)
    frames = 10**6
    t = detection_matrix(cfg, 32)
    p, q = t.entries[:, 5], detection_matrix(biased, 32).entries[:, 5]
    keep = p * frames >= 5.0  # the gate's pooling, from the assumed column
    p = np.append(p[keep], 1.0 - p[keep].sum())
    q = np.append(q[keep], 1.0 - q[keep].sum())
    dof = int(keep.sum())
    power = ncx2.sf(chi2.isf(0.01 / 10, dof), dof, frames * np.sum((q - p) ** 2 / p))
    assert power >= 0.85, power
    clicks = sample_counts(np.full((frames, 1), 32), {"s": biased}, 97 + 32)[:, 0]
    stat, dof = pooled_pearson(clicks, t.entries[:, 32])
    assert stat > chi2.isf(0.01 / 10, dof), stat


def test_pixel_sampler_peak_memory():
    # the photon and click columns, one frame vector at a time (8 MB each)
    # and one chunk of at most 2**17 keys: ~25 MiB. One key per registered
    # photon (7.5 per frame here) would need ~57 MiB more, and a dense
    # (frames, max registered) pixel table far more.
    tracemalloc.start()
    try:
        sample_counts(np.full((10**6, 1), 32), {"s": PAPER_TABLE_1["s"]}, 129)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20, f"peak {peak / 2**20:.0f} MiB"


# ---------------------------------------------------------------------------
# forward map
# ---------------------------------------------------------------------------

def test_forward_with_identity_matrices_is_identity(model4):
    mats = {l: identity_matrix(model4.values.shape[i] - 1)
            for i, l in enumerate(model4.axis_labels)}
    f = forward_counts(model4, mats)
    np.testing.assert_allclose(f.values, model4.values, rtol=1e-12)


def preset_click_box_matrices():
    return {l: detection_matrix(PAPER_TABLE_1[l], n, c)
            for l, n, c in zip(("s", "i1", "i2", "i3"), (32, 20, 20, 20), (42, 30, 30, 30))}


def random_photon_table(seed):
    vals = np.random.default_rng(seed).random((33, 21, 21, 21))
    return JointDistribution(vals / vals.sum(), ("s", "i1", "i2", "i3"), normalized=True)


def test_forward_counts_builds_one_click_table():
    # the 42/30 click box of 33 x 21^3 photons: 10.2 MB; the last GEMM's
    # 7 MB operand is alive while it is written, a second table is not
    mats = preset_click_box_matrices()
    p = random_photon_table(5)
    tracemalloc.start()
    try:
        f = forward_counts(p, mats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.values.shape == (43, 31, 31, 31)
    assert peak < 1.9 * f.values.nbytes


@pytest.mark.parametrize("source", ["preset", "random"])
def test_forward_counts_matches_contract_then_normalize(source, model4):
    p = model4 if source == "preset" else random_photon_table(11)
    mats = preset_click_box_matrices()
    got = forward_counts(p, mats).values
    want = forward_counts_then_normalized(p, mats)
    assert got.shape == (43, 31, 31, 31)
    np.testing.assert_array_equal(got == 0.0, want == 0.0)
    nz = want != 0.0
    assert np.max(np.abs(got[nz] - want[nz]) / want[nz]) <= 1e-14
    assert abs(got.sum() - 1.0) <= 1e-14


def test_forward_counts_of_an_unnormalized_table_is_the_plain_contraction():
    vals = np.random.default_rng(12).random((33, 21, 21, 21)) * 3.0
    p = JointDistribution(vals, ("s", "i1", "i2", "i3"))
    mats = preset_click_box_matrices()
    f = forward_counts(p, mats)
    assert not f.normalized
    want = contract(vals, [mats[l].entries for l in ("s", "i1", "i2", "i3")])
    np.testing.assert_array_equal(f.values, want)


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
    out = sample_counts(photons, {"s": cfg}, seed=3)
    assert np.all(out == 0)


def test_sample_counts_deterministic():
    photons = np.tile(np.array([[5, 2, 1, 0]]), (400, 1))
    a = sample_counts(photons, PAPER_TABLE_1, seed=9)
    b = sample_counts(photons, PAPER_TABLE_1, seed=9)
    c = sample_counts(photons, PAPER_TABLE_1, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def pixelwise_pair(n, cfg, seed):
    """The production sampler and its copying reference on the same stream."""
    got = _sample_clicks_pixelwise(n, cfg, np.random.default_rng(seed), np.empty_like(n))
    return got, sample_clicks_pixelwise_copying(n, cfg, np.random.default_rng(seed))


@pytest.mark.parametrize("label", ["s", "i1"])
def test_pixelwise_sampler_matches_copying_reference(label):
    # three frame chunks and a remainder, several key chunks, and frames
    # whose registered photons alone exceed one key chunk: first, last,
    # back to back and on a frame-chunk boundary
    cfg = PAPER_TABLE_1[label]
    n = np.random.default_rng(4).poisson(6.0, size=3 * FRAME_CHUNK + 4321)
    assert (n * cfg.efficiency).sum() > 2 * detector._KEY_CHUNK
    n[[0, 7, 8, FRAME_CHUNK, n.size - 1]] = 4 * detector._KEY_CHUNK
    got, want = pixelwise_pair(n, cfg, 5)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("frame_chunk, key_chunk", [(1, 1), (7, 13), (64, 3), (1000, 5000)])
def test_pixelwise_sampler_is_independent_of_the_chunk_sizes(monkeypatch, frame_chunk,
                                                              key_chunk):
    monkeypatch.setattr(fock, "FRAME_CHUNK", frame_chunk)
    monkeypatch.setattr(detector, "_KEY_CHUNK", key_chunk)
    n = np.random.default_rng(6).poisson(9.0, size=997)
    n[[3, 500]] = 200
    got, want = pixelwise_pair(n, PAPER_TABLE_1["i2"], 8)
    np.testing.assert_array_equal(got, want)


def test_sample_counts_writes_over_the_photon_table():
    photons = sample_photon_numbers(PAPER_TABLE_2, 3 * FRAME_CHUNK + 999, 3)
    want = sample_counts(photons.copy(), PAPER_TABLE_1, 4)
    got = sample_counts(photons, PAPER_TABLE_1, 4, out=photons)
    assert got is photons
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("out", [
    np.zeros((10, 4), dtype=np.int32), np.zeros((10, 3), dtype=np.int64),
    np.zeros((10, 4)), [[0] * 4] * 10])
def test_sample_counts_rejects_a_bad_out(out):
    with pytest.raises(DataError, match=r"out must be an array of photons' dtype int64 "
                                        r"and shape \(10, 4\)"):
        sample_counts(np.ones((10, 4), dtype=np.int64), PAPER_TABLE_1, 1, out=out)


def test_sample_counts_keeps_the_dtype_of_photons():
    # the same draws into an int32 and an int64 table, each written over
    # its photons; an out of the other dtype is refused
    photons = sample_photon_numbers(PAPER_TABLE_2, FRAME_CHUNK + 999, 3)
    wide = photons.astype(np.int64)
    want = sample_counts(wide, PAPER_TABLE_1, 4, out=wide)
    got = sample_counts(photons, PAPER_TABLE_1, 4, out=photons)
    assert got.dtype == np.int32 and want.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    assert sample_counts(photons[:10], PAPER_TABLE_1, 4).dtype == np.int32
    with pytest.raises(DataError, match="dtype int32"):
        sample_counts(photons[:10], PAPER_TABLE_1, 4, out=wide[:10])


@pytest.mark.parametrize("dtype, pixels, most", [
    (np.int32, 2**31, 10**9 - 1), (np.int16, 2**15, 2**15 - 1), (np.int64, 10**9, 10**9 - 1),
    (np.int16, 2**15 - 1, None), (np.int64, 10**9 - 1, None)])
def test_sample_counts_bounds_the_pixel_count(dtype, pixels, most):
    # on the last axis: above the table's dtype or numpy's hypergeometric
    # bound the sampler refuses before any click is drawn, so the photons
    # it was to write over are untouched; at the bound it draws
    cfgs = {**PAPER_TABLE_1, "i3": DetectorConfig(pixels=pixels, efficiency=0.5, dark_rate=0.0)}
    photons = np.full((10, 4), 5, dtype=dtype)
    if most is None:
        clicks = sample_counts(photons, cfgs, 1, out=photons)
        assert clicks.dtype == dtype and np.all(clicks <= 5)
        return
    with pytest.raises(ParameterError, match=f"i3: {pixels} pixels, above the {most} "):
        sample_counts(photons, cfgs, 1, out=photons)
    assert np.all(photons == 5)
