"""End-to-end acceptance gate: ten pipeline-level checks.

Each test is one criterion and prints one pass/fail line under pytest -v.
The heavy artifacts (EM reconstructions of exact and sampled data) are
built once per module and shared.
"""
import math

import numpy as np
import pytest
from scipy.stats import chi2

from tripletwb import emrec, nonclassical, postselect
from tripletwb.detector import PAPER_TABLE_1, detection_matrix, sample_counts
from tripletwb.fock import (Histogram, JointDistribution, condition,
                            marginalize, normalize)
from tripletwb.gaussian import (PAPER_TABLE_2, PAPER_TABLE_2_MEANS, PARAM_KEYS,
                                MandelRiceComponent, mandel_rice_vector,
                                sample_photon_numbers)
from tests.oracles import grid_moments, kernel_route_probabilities, quasi_kernels

PHOTON_SEED = 20240817
CLICK_SEED = 20240818
FRAMES = 1_000_000
CLICK_BOX = (42, 30, 30, 30)
MODES = (1.0, 1.0, 1.0)
EM_EXACT_SETTINGS = emrec.EmSettings(3000, 1e-9)


def axis_mean(d: JointDistribution, label: str) -> float:
    m = marginalize(d, [label]).values
    return float(np.dot(np.arange(m.size), m))


def pair_tvs(a: JointDistribution, b: JointDistribution) -> dict[str, float]:
    """Total-variation distance of each 2D marginal, keyed "s/i1" etc."""
    labels = a.axis_labels
    tvs = {}
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            ma = marginalize(a, [labels[i], labels[j]]).values
            mb = marginalize(b, [labels[i], labels[j]]).values
            tvs[f"{labels[i]}/{labels[j]}"] = 0.5 * float(np.abs(ma - mb).sum())
    return tvs


#: (field, axis) of the sweep columns the trend tests read
SWEEP_COLUMNS = {"mean_i1": ("mean", 0), "fano_i1": ("fano", 0), "fano_i2": ("fano", 1),
                 "fano_i3": ("fano", 2), "corr_23": ("corr", 2)}


def column(sweep: postselect.PostselectSweep, name: str) -> np.ndarray:
    """One column of a sweep, named as in its CSV header."""
    if name == "selector":
        return np.array([r.selector for r in sweep.rows])
    field, k = SWEEP_COLUMNS[name]
    return np.array([getattr(r, field)[k] for r in sweep.rows])


def max_2d_tv(a: JointDistribution, b: JointDistribution) -> float:
    """Largest total-variation distance over the six 2D marginals."""
    return max(pair_tvs(a, b).values())


@pytest.fixture(scope="module")
def em_exact(f_model, matrices):
    """EM inversion of the exact (noise-free) photocount table."""
    return emrec.em_reconstruct(f_model, matrices, EM_EXACT_SETTINGS)


@pytest.fixture(scope="module")
def h_sampled():
    """10^6 synthetic frames binned into the reference click box."""
    photons = sample_photon_numbers(PAPER_TABLE_2, FRAMES, PHOTON_SEED)
    clicks = sample_counts(photons, PAPER_TABLE_1, CLICK_SEED)
    keep = np.all(clicks <= np.array(CLICK_BOX)[None, :], axis=1)
    kept = clicks[keep]
    counts = np.zeros(tuple(b + 1 for b in CLICK_BOX), dtype=np.int64)
    np.add.at(counts, tuple(kept.T), 1)
    return Histogram(counts, int(kept.shape[0]))


@pytest.fixture(scope="module")
def em_sampled(h_sampled, matrices):
    """EM inversion of the sampled histogram (fixed 2000 iterations)."""
    return emrec.em_reconstruct(normalize(h_sampled), matrices,
                                emrec.EmSettings(2000, 1e-15))


@pytest.fixture(scope="module")
def ideal_field_ml(em_sampled):
    """Reconstructed idler field post-selected on n_s = 10."""
    return condition(em_sampled.distribution, "s", 10)


@pytest.fixture(scope="module")
def real_field_ml(h_sampled):
    """Idler field reconstructed from the c_s = 5 histogram slice."""
    f3 = condition(normalize(h_sampled), "s", 5)
    mats3 = {l: detection_matrix(PAPER_TABLE_1[l], 20, f3.values.shape[i] - 1)
             for i, l in enumerate(("i1", "i2", "i3"))}
    return emrec.em_reconstruct(f3, mats3, emrec.EmSettings(8000, 1e-15)).distribution


@pytest.fixture(scope="module")
def ideal_field_exact(model4):
    return condition(model4, "s", 10)


@pytest.fixture(scope="module")
def real_field_exact(model4, matrices):
    return postselect.conditioned_field(model4, "c_s", 5, matrices["s"])[1]


# ---------------------------------------------------------------------------

def test_01_component_mean_consistency():
    # M*B must reproduce the published per-component mean within 1% for
    # all seven components. Two of the shipped noise rows are internally
    # inconsistent as published (see the README's Testing section); this
    # check reports them honestly instead of patching them.
    comps = {k: getattr(PAPER_TABLE_2, k) for k in PARAM_KEYS}
    failures = []
    for key, published in zip(PARAM_KEYS, PAPER_TABLE_2_MEANS):
        got = comps[key].M * comps[key].B
        if abs(got - published) > 0.01 * published:
            failures.append(f"{key}: M*B={got:.4g} vs published {published}")
    assert not failures, "; ".join(failures)


def test_02_detection_matrices_stochastic_and_match_monte_carlo():
    # i1, i2 and i3 share one config (and so one seeded Monte-Carlo stream);
    # each distinct config is checked once
    configs = {}
    for label, cfg in PAPER_TABLE_1.items():
        configs.setdefault(cfg, label)
    photon_numbers = (0, 1, 5, 16, 32)
    # 1% family-wise false-alarm rate: Bonferroni over the K distinct
    # (config, n) checks, valid however the checks are correlated
    checks = len(configs) * len(photon_numbers)
    for cfg, label in configs.items():
        mat = detection_matrix(cfg, 32)
        cols = mat.entries.sum(axis=0)
        assert np.max(np.abs(cols - 1.0)) < 1e-9, label
        assert mat.entries.min() >= 0.0, label
        for n in photon_numbers:
            frames = 1_000_000
            mc = sample_counts(np.full((frames, 1), n), {"s": cfg}, 97 + n)[:, 0]
            obs = np.bincount(mc, minlength=mat.c_max + 1).astype(float)
            exp = mat.entries[:, n] * frames
            keepb = exp >= 5.0
            pooled_obs = np.append(obs[keepb], frames - obs[keepb].sum())
            pooled_exp = np.append(exp[keepb],
                                   max(frames - exp[keepb].sum(), 1e-9))
            stat = float(np.sum((pooled_obs - pooled_exp) ** 2 / pooled_exp))
            assert stat < chi2.isf(0.01 / checks, int(keepb.sum())), (label, n)


def test_03_em_round_trip_exact_data(model4, em_exact):
    rec = em_exact.distribution
    tvs = pair_tvs(model4, rec)
    # a failure reports how far the EM got, not only which gate it missed
    state = (f"EM iterations={em_exact.iterations}, "
             f"residual={em_exact.residual:.3g} "
             f"(stop tolerance {EM_EXACT_SETTINGS.stop_tolerance:g}), "
             f"converged={em_exact.converged}, 2D-marginal TV: "
             + ", ".join(f"{k}={v:.4f}" for k, v in tvs.items()))
    for label in model4.axis_labels:
        truth = axis_mean(model4, label)
        got = axis_mean(rec, label)
        assert abs(got - truth) <= 0.01 * truth, (
            f"{label} mean {got:.6g} vs {truth:.6g}; {state}")
    assert max(tvs.values()) <= 0.01, state


def test_04_em_round_trip_sampled_data(model4, em_sampled):
    assert np.all(np.diff(em_sampled.loglik_trace) >= -1e-9)
    assert max_2d_tv(model4, em_sampled.distribution) <= 0.05


def test_05_ideal_postselection_trends(model4):
    sweep = postselect.sweep_distribution(model4, "n_s", range(0, 14))
    ns = column(sweep, "selector").astype(float)
    slope = np.polyfit(ns, column(sweep, "mean_i1"), 1)[0]
    assert abs(slope - 1.0 / 3.0) <= 0.05
    window = (ns >= 3) & (ns <= 13)
    min_fano = min(column(sweep, f"fano_i{j}")[window].min() for j in (1, 2, 3))
    assert min_fano < 0.8
    assert column(sweep, "corr_23")[window].min() < -0.40


def test_06_real_postselection_trends(model4, matrices):
    sweep = postselect.sweep_distribution(model4, "c_s", range(0, 16),
                                          t_s=matrices["s"])
    cs = column(sweep, "selector")
    for col in ("fano_i1", "fano_i2", "fano_i3", "corr_23"):
        vals = column(sweep, col)
        ext = int(cs[np.argmin(vals)])
        assert abs(ext - 7) <= 1, (col, ext)
        # non-monotone: strictly falls into the extremum, then rises
        k = np.argmin(vals)
        assert vals[0] > vals[k] and vals[-1] > vals[k], col


def test_07_equal_split_pure_pair_oracle():
    from tests.test_postselect import equal_split_pure_pair
    d = equal_split_pure_pair(n_max=12)
    for n_s in range(1, 13):
        cond = condition(d, "s", n_s)
        ks = np.arange(n_s + 1)
        binom_pmf = np.array([
            math.comb(n_s, int(k)) * (1 / 3) ** k * (2 / 3) ** (n_s - k)
            for k in ks])
        for label in ("i1", "i2", "i3"):
            marg = marginalize(cond, [label]).values
            assert np.max(np.abs(marg[: n_s + 1] - binom_pmf)) < 1e-12
            assert abs(postselect.fano(cond, label) - 2.0 / 3.0) < 1e-12
        for a, b in (("i1", "i2"), ("i1", "i3"), ("i2", "i3")):
            assert abs(postselect.corr_fluct(cond, a, b) + 0.5) < 1e-12


def test_08_ncd_hierarchy_and_magnitudes(ideal_field_ml, real_field_ml):
    # reconstructed fields carry EM ripple in the moment tail; loosen the
    # diagnostic tail guard (it does not change the computed moments)
    tail = 2e-2
    # ideal n_s = 10 field
    tau_m = nonclassical.intensity_ncd(ideal_field_ml, "matrix", MODES,
                                       tail_tol=tail).ncd.tau
    tau_c = nonclassical.intensity_ncd(ideal_field_ml, "cs", MODES,
                                       tail_tol=tail).ncd.tau
    taubar_m = nonclassical.ncd_field(ideal_field_ml, "matrix", MODES,
                                      (6, 6, 6)).max()
    taubar_c = nonclassical.ncd_field(ideal_field_ml, "cs", MODES,
                                      (6, 6, 6)).max()
    assert taubar_m >= taubar_c
    assert tau_m < taubar_m and tau_c < taubar_c
    assert abs(taubar_m - 0.65) <= 0.10
    assert abs(taubar_c - 0.56) <= 0.10
    assert abs(tau_m - 0.38) <= 0.10
    assert abs(tau_c - 0.36) <= 0.10
    # real c_s = 5 field
    tau_m = nonclassical.intensity_ncd(real_field_ml, "matrix", MODES,
                                       tail_tol=tail).ncd.tau
    tau_c = nonclassical.intensity_ncd(real_field_ml, "cs", MODES,
                                       tail_tol=tail).ncd.tau
    taubar_m = nonclassical.ncd_field(real_field_ml, "matrix", MODES,
                                      (9, 9, 9)).max()
    taubar_c = nonclassical.ncd_field(real_field_ml, "cs", MODES,
                                      (9, 9, 9)).max()
    assert taubar_m >= taubar_c
    assert tau_m < taubar_m
    assert abs(taubar_m - 0.56) <= 0.10
    assert abs(taubar_c - 0.45) <= 0.10
    assert abs(tau_m - 0.12) <= 0.07
    # the intensity CS criterion does not certify this field: its depth is
    # zero within the tolerance the neighbouring intensity values carry
    assert abs(tau_c - 0.0) <= 0.07


def test_09_quasi_distribution_negativity(ideal_field_exact, real_field_exact):
    pmf = mandel_rice_vector(200, MandelRiceComponent(1.0, 0.8))
    thermal = JointDistribution(pmf / pmf.sum(), ("i1",), normalized=True)
    q = nonclassical.quasi_distribution_W(thermal, 0.0, (1.0,))
    assert q.values.min() > -1e-12
    q_ideal = nonclassical.quasi_distribution_W(ideal_field_exact, 0.0, MODES)
    assert q_ideal.values.min() < 0.0
    q_real = nonclassical.quasi_distribution_W(real_field_exact, 0.05, MODES)
    assert q_real.values.min() < 0.0
    # the grid check's per-axis moments are the moments of the grid itself
    for d, q in ((ideal_field_exact, q_ideal), (real_field_exact, q_real)):
        got = nonclassical._kernel_moments(q, d, quasi_kernels(q, d))
        ref = grid_moments(q, 3)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12
    # negativity at s = 0.05 certifies a depth beyond (1 - s)/2
    assert (1.0 - 0.05) / 2.0 == pytest.approx(0.475)


def test_10_ordering_identities(ideal_field_exact, real_field_exact):
    for d, s in ((ideal_field_exact, 0.0), (real_field_exact, 0.05)):
        box = 4
        ref = d.values[: box + 1, : box + 1, : box + 1]
        for method in ("series", "resummed"):
            at1 = nonclassical.quasi_probabilities(d, 1.0, MODES, box,
                                                   method=method)
            assert np.max(np.abs(at1.values - ref)) < 1e-9
        mom = nonclassical.intensity_moments(d, 2, tail_tol=1.0)
        ident = nonclassical.s_transform_moments(mom, 1.0, MODES)
        assert np.max(np.abs(ident.tensor - mom.tensor)) < 1e-9
        series = nonclassical.quasi_probabilities(d, s, MODES, box,
                                                  method="series")
        kernel = kernel_route_probabilities(d, s, MODES, box)
        assert np.max(np.abs(series.values - kernel)) <= 1e-6
