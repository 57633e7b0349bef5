"""Forward field model: Mandel-Rice components, pairing, noise, sampling."""
import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.stats import chi2

from tripletwb import fock, io
from tripletwb.errors import CutoffError, DataError, ParameterError
from tripletwb.fock import AXIS_ORDER, FRAME_CHUNK, JointDistribution, contract, marginalize
from tripletwb.gaussian import (PAPER_TABLE_2, GaussianFieldModel,
                                MandelRiceComponent, TripleTwbParams,
                                mandel_rice_pmf, mandel_rice_table, mandel_rice_vector,
                                sample_photon_numbers)

from tests.oracles import (compose_with_noise, model_moments, paired_part,
                           sample_photon_numbers_per_component)


def zero(M=1.0):
    return MandelRiceComponent(M=M, B=0.0)


def pure_pair_params(comp):
    return TripleTwbParams(pair_1=comp, pair_2=comp, pair_3=comp,
                           noise_s=zero(), noise_i1=zero(),
                           noise_i2=zero(), noise_i3=zero())


# ---------------------------------------------------------------------------
# Mandel-Rice pmf
# ---------------------------------------------------------------------------

def test_pmf_vacuum_term():
    for M, B in [(0.5, 0.3), (552.0, 0.00475), (1.0, 9.0)]:
        assert abs(mandel_rice_pmf(0, MandelRiceComponent(M, B))
                   - (1.0 + B) ** (-M)) < 1e-12


def test_pmf_single_mode_thermal_is_geometric():
    c = MandelRiceComponent(M=1.0, B=1.0)
    n = np.arange(20)
    np.testing.assert_allclose(mandel_rice_pmf(n, c), 2.0 ** (-(n + 1.0)),
                               rtol=1e-12)


def test_mandel_rice_table_is_the_negative_binomial():
    from scipy.stats import nbinom
    # M = 1000, B = 10 starts at 11^-1000, below the smallest float
    M, B = np.array([6.33e-5, 0.3, 1.0, 552.0, 1000.0]), 10.0
    got = mandel_rice_table(30000, M, B)
    want = nbinom.pmf(np.arange(30000)[:, None], M, 1.0 / (1.0 + B))
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-300)
    one = mandel_rice_vector(29999, MandelRiceComponent(552.0, B))
    np.testing.assert_array_equal(got[:, 3], one)


def test_pmf_takes_integer_occupations_only():
    c = MandelRiceComponent(M=2.0, B=0.5)
    assert mandel_rice_pmf(np.int64(3), c) == mandel_rice_pmf(3.0, c) == mandel_rice_vector(3, c)[3]
    for bad in (-1, 2.5, [1, -2]):
        with pytest.raises(ParameterError, match="integer >= 0"):
            mandel_rice_pmf(bad, c)


def test_pmf_pair1_mean():
    pmf = mandel_rice_vector(120, MandelRiceComponent(M=552.0, B=0.00475))
    mean = float(np.arange(121) @ pmf)
    assert abs(mean - 2.62) < 0.01


def test_component_validation():
    with pytest.raises(ParameterError):
        MandelRiceComponent(M=0.0, B=0.1)
    with pytest.raises(ParameterError):
        MandelRiceComponent(M=1.0, B=-0.1)


@pytest.mark.parametrize("M, B", [(math.nan, 0.1), (math.inf, 0.1), (1.0, math.nan),
                                  (1.0, math.inf)])
def test_component_rejects_non_finite_constants(M, B):
    # a NaN B passed the B < 0 check and reached the Poisson sampler
    with pytest.raises(ParameterError, match="must be finite"):
        MandelRiceComponent(M=M, B=B)


# ---------------------------------------------------------------------------
# paired part
# ---------------------------------------------------------------------------

def test_paired_part_vacuum_when_pairs_off():
    d = paired_part(pure_pair_params(zero()), 4, (2, 2, 2))
    assert d.values[0, 0, 0, 0] == 1.0
    assert d.values.sum() == 1.0


def test_paired_part_supported_on_hyperplane():
    d = paired_part(PAPER_TABLE_2, 24, (8, 8, 8), tail_tol=1e-2)
    n_s, n1, n2, n3 = np.indices(d.values.shape)
    off = d.values[n_s != n1 + n2 + n3]
    assert np.all(off == 0.0)


def test_paired_part_signal_cell_matches_brute_force():
    d = paired_part(PAPER_TABLE_2, 24, (8, 8, 8), tail_tol=1e-2)
    total2 = marginalize(d, ["s"]).values[2]
    pmfs = [mandel_rice_vector(2, c) for c in PAPER_TABLE_2.pairs]
    brute = sum(pmfs[0][a] * pmfs[1][b] * pmfs[2][2 - a - b]
                for a in range(3) for b in range(3 - a))
    assert abs(total2 - brute) < 1e-14


# ---------------------------------------------------------------------------
# noise composition
# ---------------------------------------------------------------------------

def test_compose_with_zero_noise_is_identity():
    comp = MandelRiceComponent(M=2.0, B=0.2)
    params = pure_pair_params(comp)
    paired = paired_part(params, 30, (10, 10, 10), tail_tol=1e-6)
    composed = compose_with_noise(paired, params, tail_tol=1e-6)
    np.testing.assert_allclose(composed.values,
                               paired.values / paired.values.sum(),
                               rtol=1e-12)


def test_composed_idler1_mean(model4):
    m = marginalize(model4, ["i1"])
    mean = float(np.arange(m.values.size) @ m.values)
    assert abs(mean - 2.71) < 0.02


def test_composed_signal_mean(model4):
    m = marginalize(model4, ["s"])
    mean = float(np.arange(m.values.size) @ m.values)
    assert abs(mean - 8.10) < 0.05


def test_mean_additivity():
    p = PAPER_TABLE_2
    assert abs(p.axis_mean("s")
               - sum(c.mean for c in (*p.pairs, p.noise_s))) < 1e-12
    assert abs(p.axis_mean("i2") - (p.pair_2.mean + p.noise_i2.mean)) < 1e-12


# ---------------------------------------------------------------------------
# analytic moments
# ---------------------------------------------------------------------------

def test_single_pair_moments_perfectly_correlated():
    comp = MandelRiceComponent(M=3.0, B=0.2)
    params = TripleTwbParams(pair_1=comp, pair_2=zero(), pair_3=zero(),
                             noise_s=zero(), noise_i1=zero(),
                             noise_i2=zero(), noise_i3=zero())
    mom = model_moments(params)
    assert mom["cov"][("s", "s")] == mom["cov"][("i1", "i1")]
    assert mom["cov"][("s", "i1")] == mom["cov"][("s", "s")]
    assert mom["cov"][("i1", "i2")] == 0.0


def test_moments_vanish_without_light():
    mom = model_moments(pure_pair_params(zero()))
    assert all(v == 0.0 for v in mom["mean"].values())
    assert all(v == 0.0 for v in mom["cov"].values())


def test_analytic_axis_moments_match_long_tail_summation():
    # each axis marginal is the convolution of its components; summing the
    # per-component pmfs over a long support must reproduce the closed-form
    # mean and variance (the heavy dark components need thousands of terms)
    mom = model_moments(PAPER_TABLE_2)
    comps = {"s": (*PAPER_TABLE_2.pairs, PAPER_TABLE_2.noise_s),
             "i2": (PAPER_TABLE_2.pair_2, PAPER_TABLE_2.noise_i2)}
    for axis, parts in comps.items():
        mean = var = 0.0
        for c in parts:
            n = np.arange(60001)
            pmf = mandel_rice_vector(60000, c)
            m1 = float(n @ pmf)
            m2 = float((n * n) @ pmf)
            mean += m1
            var += m2 - m1 * m1
        assert abs(mean - mom["mean"][axis]) < 1e-6 * max(mom["mean"][axis], 1)
        assert abs(var - mom["cov"][(axis, axis)]) < 1e-6 * mom["cov"][(axis, axis)]


def test_pair_covariance_equals_pair_variance():
    mom = model_moments(PAPER_TABLE_2)
    for j, l in enumerate(("i1", "i2", "i3")):
        assert mom["cov"][("s", l)] == PAPER_TABLE_2.pairs[j].variance


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sampling_deterministic_per_seed():
    a = sample_photon_numbers(PAPER_TABLE_2, 2000, seed=77)
    b = sample_photon_numbers(PAPER_TABLE_2, 2000, seed=77)
    c = sample_photon_numbers(PAPER_TABLE_2, 2000, seed=78)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampling_signal_mean():
    s = sample_photon_numbers(PAPER_TABLE_2, 10**6, seed=4)
    assert abs(s[:, 0].mean() - 8.10) < 0.03


def test_noiseless_single_pair_samples_are_paired():
    comp = MandelRiceComponent(M=2.0, B=0.7)
    params = TripleTwbParams(pair_1=comp, pair_2=zero(), pair_3=zero(),
                             noise_s=zero(), noise_i1=zero(),
                             noise_i2=zero(), noise_i3=zero())
    s = sample_photon_numbers(params, 5000, seed=5)
    assert np.array_equal(s[:, 0], s[:, 1])
    assert np.all(s[:, 2:] == 0)


def test_sampling_chi_square_against_composed_table(model4):
    # pooled goodness of fit of the sampled signal and i1 marginals
    samples = sample_photon_numbers(PAPER_TABLE_2, 10**5, seed=11)
    for axis, label in [(0, "s"), (1, "i1")]:
        probs = marginalize(model4, [label]).values
        cut = 12
        pooled = np.append(probs[:cut], max(1.0 - probs[:cut].sum(), 0.0))
        obs = np.bincount(np.minimum(samples[:, axis], cut), minlength=cut + 1)
        exp = pooled * samples.shape[0]
        keep = exp >= 5.0
        stat = float(np.sum((obs[keep] - exp[keep]) ** 2 / exp[keep]))
        assert stat < chi2.ppf(0.99, keep.sum() - 1)


@pytest.mark.parametrize("trials", [1, FRAME_CHUNK, 3 * FRAME_CHUNK + 4321])
def test_sampler_matches_per_component_reference(trials):
    np.testing.assert_array_equal(sample_photon_numbers(PAPER_TABLE_2, trials, 19),
                                  sample_photon_numbers_per_component(PAPER_TABLE_2, trials, 19))


@pytest.mark.parametrize("frame_chunk", [1, 7, 1000])
def test_sampler_is_independent_of_the_chunk_size(monkeypatch, frame_chunk):
    # a B = 0 component draws nothing, on either route
    params = dataclasses.replace(PAPER_TABLE_2, noise_i2=zero())
    want = sample_photon_numbers_per_component(params, 2345, 23)
    monkeypatch.setattr(fock, "FRAME_CHUNK", frame_chunk)
    np.testing.assert_array_equal(sample_photon_numbers(params, 2345, 23), want)


def test_sampling_rejects_empty_request():
    with pytest.raises(DataError):
        sample_photon_numbers(PAPER_TABLE_2, 0, seed=1)


# ---------------------------------------------------------------------------
# the model table as nested convolutions
# ---------------------------------------------------------------------------

def two_step_route(model):
    """The model table the long way: the paired table, then the noise sweeps."""
    paired = paired_part(model.params, model.signal_cutoff, model.idler_cutoffs,
                         tail_tol=model.tail_tol)
    return compose_with_noise(paired, model.params, tail_tol=model.tail_tol)


NESTED_CASES = {
    "preset 32/(20,20,20)": (PAPER_TABLE_2, 32, (20, 20, 20), 1e-3),
    "signal cutoff above the idler sum": (PAPER_TABLE_2, 40, (8, 8, 8), 0.2),
    "unequal idler cutoffs": (PAPER_TABLE_2, 24, (6, 9, 12), 0.2),
    "B = 0 pair and B = 0 noise": (
        dataclasses.replace(PAPER_TABLE_2, pair_2=zero(3.0), noise_i3=zero(0.5)),
        24, (6, 9, 12), 0.2),
    "B = 0 signal noise": (dataclasses.replace(PAPER_TABLE_2, noise_s=zero()),
                           10, (12, 3, 20), 0.9),
}


@pytest.mark.parametrize("case", list(NESTED_CASES))
def test_distribution_matches_paired_then_composed(case):
    params, s_cut, i_cuts, tol = NESTED_CASES[case]
    model = GaussianFieldModel(params, s_cut, i_cuts, tail_tol=tol)
    got = model.distribution()
    want = two_step_route(model).values
    assert got.normalized and got.axis_labels == AXIS_ORDER
    assert got.values.shape == want.shape == (s_cut + 1,) + tuple(c + 1 for c in i_cuts)
    nonzero = want > 0
    rel = np.abs(got.values[nonzero] - want[nonzero]) / want[nonzero]
    assert rel.max() <= 1e-13
    # the cells the two-step route leaves empty (t < K, m_j < k_j) stay empty
    np.testing.assert_array_equal(got.values[~nonzero], 0.0)


def cutoff_message(fn):
    with pytest.raises(CutoffError) as exc:
        fn()
    return str(exc.value)


@pytest.mark.parametrize("check", ["paired part", "composed model"])
def test_distribution_tail_checks_match_two_step_route(check):
    # 12/(5,5,5) discards the pairs beyond an idler cutoff or with K > 12,
    # and the noise beyond the box on top; each check fires just below the
    # mass it reads
    s_cut, i_cuts = 12, (5, 5, 5)
    paired = paired_part(PAPER_TABLE_2, s_cut, i_cuts, tail_tol=1.0)
    # summing a Toeplitz sweep's output rows leaves the reversed noise cdf
    cdfs = [np.cumsum(mandel_rice_vector(n - 1, comp))[::-1][None, :]
            for n, comp in zip(paired.values.shape, PAPER_TABLE_2.noises)]
    lost = {"paired part": 1.0 - paired.total(),
            "composed model": 1.0 - contract(paired.values, cdfs).item()}
    assert 0.0 < lost["paired part"] < lost["composed model"] < 1.0
    below = GaussianFieldModel(PAPER_TABLE_2, s_cut, i_cuts,
                               tail_tol=lost[check] * (1 - 1e-9))
    above = GaussianFieldModel(PAPER_TABLE_2, s_cut, i_cuts,
                               tail_tol=lost[check] * (1 + 1e-9))
    got = cutoff_message(below.distribution)
    assert got == cutoff_message(lambda: two_step_route(below))
    assert got.startswith(f"{check}: discarded tail mass")
    if check == "paired part":
        # past the paired check, the composed one still fires
        assert cutoff_message(above.distribution).startswith("composed model:")
    else:
        assert above.distribution().normalized
        assert two_step_route(above).normalized


# ---------------------------------------------------------------------------
# parameter serialization
# ---------------------------------------------------------------------------

def test_params_json_round_trip(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(PAPER_TABLE_2.to_dict()))
    back = io.load_params(path)
    assert back == PAPER_TABLE_2


def test_model_tail_guard():
    from tripletwb.errors import CutoffError
    with pytest.raises(CutoffError):
        GaussianFieldModel(PAPER_TABLE_2, signal_cutoff=32,
                           idler_cutoffs=(20, 20, 20),
                           tail_tol=1e-8).distribution()
