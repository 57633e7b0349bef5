"""Nonclassicality engine: moments, orderings, criteria, depths, cuts."""
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import poisson

from tripletwb import fock, io, nonclassical
from tripletwb.errors import CutoffError, DataError, NumericalError, ParameterError
from tripletwb.fock import JointDistribution
from tripletwb.gaussian import (PAPER_TABLE_2, MandelRiceComponent,
                                mandel_rice_vector)
from tripletwb.nonclassical import (_factorial_weighted, check_cut, intensity_moments,
                                    intensity_ncd, moment_criterion, ncd,
                                    ncd_field, plane_cut, probability_ncd,
                                    quasi_distribution_W, quasi_probabilities,
                                    s_transform_moments)
from tests.oracles import (cs_intensity_formula, grid_moments,
                           grid_triangular_cut_loop, kernel_route_probabilities,
                           matrix_intensity_formula, paired_part,
                           plane_cut_csv_loop, probability_criterion_formula,
                           quasi_kernels, resummed_smoothing_matrix_loop,
                           triangular_cut_loop)


def poisson_product(lams, n_max=30):
    vecs = [poisson.pmf(np.arange(n_max + 1), lam) for lam in lams]
    vals = np.einsum("i,j,k->ijk", *vecs)
    vals /= vals.sum()
    return JointDistribution(vals, ("i1", "i2", "i3"), normalized=True)


def delta_111():
    vals = np.zeros((4, 4, 4))
    vals[1, 1, 1] = 1.0
    return JointDistribution(vals, ("i1", "i2", "i3"), normalized=True)


def thermal_product(Bs, n_max=60):
    vecs = [mandel_rice_vector(n_max, MandelRiceComponent(1.0, B)) for B in Bs]
    vals = np.einsum("i,j,k->ijk", *vecs)
    vals /= vals.sum()
    return JointDistribution(vals, ("i1", "i2", "i3"), normalized=True)


# ---------------------------------------------------------------------------
# intensity moments
# ---------------------------------------------------------------------------

def test_poisson_moments_factorize():
    d = poisson_product((0.8, 1.1, 0.5))
    m = intensity_moments(d, 2)
    assert abs(m.tensor[1, 1, 1] - 0.8 * 1.1 * 0.5) < 1e-9
    assert abs(m.tensor[0, 0, 0] - 1.0) < 1e-12


def test_single_photon_second_moment_vanishes():
    m = intensity_moments(delta_111(), 2)
    assert m.tensor[2, 2, 2] == 0.0
    assert m.tensor[1, 1, 1] == 1.0


def test_moments_match_brute_force_on_conditioned_field(model4):
    from tripletwb.fock import condition, falling_factorial
    d = condition(model4, "s", 10)
    m = intensity_moments(d, 2, tail_tol=1e-2)
    n = np.indices(d.values.shape)
    for orders in [(1, 0, 0), (1, 1, 1), (2, 2, 2), (2, 0, 1)]:
        brute = float(np.sum(d.values * np.prod(
            [falling_factorial(n[a], k) for a, k in enumerate(orders)], axis=0)))
        assert abs(m.tensor[orders] - brute) < 1e-12 * max(1.0, brute)


def test_moment_tail_guard():
    # a heavy-tailed table truncated hard must be rejected at high order
    pmf = mandel_rice_vector(6, MandelRiceComponent(1.0, 3.0))
    vals = np.einsum("i,j,k->ijk", pmf, pmf, pmf)
    d = JointDistribution(vals / vals.sum(), ("i1", "i2", "i3"),
                          normalized=True)
    with pytest.raises(CutoffError):
        intensity_moments(d, 2, tail_tol=1e-6)


# ---------------------------------------------------------------------------
# ordering transform
# ---------------------------------------------------------------------------

def test_s_transform_at_one_is_identity():
    d = poisson_product((0.8, 1.1, 0.5))
    m = intensity_moments(d, 2)
    t = s_transform_moments(m, 1.0, (1.0, 2.0, 3.0))
    np.testing.assert_allclose(t.tensor, m.tensor, atol=1e-12)


def test_vacuum_first_moment_is_kernel_mean():
    vals = np.zeros((3, 3, 3))
    vals[0, 0, 0] = 1.0
    d = JointDistribution(vals, ("i1", "i2", "i3"), normalized=True)
    m = intensity_moments(d, 2)
    t = s_transform_moments(m, 0.0, (1.0, 1.0, 1.0))
    assert abs(t.tensor[1, 0, 0] - 0.5) < 1e-12


def test_thermal_second_moment_matches_quadrature():
    # a single-mode thermal beam smoothed to ordering s has the intensity
    # law Gamma(M, B + (1-s)/2); check the second moment by quadrature
    B, s = 0.6, 0.2
    th = (1.0 - s) / 2.0
    pmf = mandel_rice_vector(900, MandelRiceComponent(1.0, B))
    vals = np.einsum("i,j,k->ijk", pmf, [1.0], [1.0])
    d = JointDistribution(vals / vals.sum(), ("i1", "i2", "i3"),
                          normalized=True)
    m = intensity_moments(d, 2, tail_tol=1e-4)
    t = s_transform_moments(m, s, (1.0, 1.0, 1.0))
    scale = B + th
    quadrature = quad(lambda w: w**2 * math.exp(-w / scale) / scale,
                      0, 60 * scale)[0]
    assert abs(t.tensor[2, 0, 0] - quadrature) < 1e-6 * quadrature


def test_s_transform_requires_valid_range():
    d = poisson_product((0.5, 0.5, 0.5))
    m = intensity_moments(d, 2)
    with pytest.raises(ParameterError):
        s_transform_moments(m, 1.5, (1.0, 1.0, 1.0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0, 2e6])
@pytest.mark.parametrize("route", ["s_transform", "resummed", "series", "grid"])
def test_invalid_mode_numbers_raise_parameter_error(route, bad):
    d = poisson_product((0.5, 0.5, 0.5))
    modes = (bad, 1.0, 1.0)
    with pytest.raises(ParameterError, match="mode numbers must be finite and > 0"):
        if route == "s_transform":
            s_transform_moments(intensity_moments(d, 2), 0.5, modes)
        elif route == "grid":
            quasi_distribution_W(d, 0.5, modes, points=4)
        else:
            quasi_probabilities(d, 0.5, modes, 2, method=route)


# ---------------------------------------------------------------------------
# intensity criteria
# ---------------------------------------------------------------------------

def test_cs_intensity_zero_for_coherent():
    m = intensity_moments(poisson_product((0.8, 1.1, 0.5)), 2)
    value = moment_criterion(m.tensor, "cs")
    assert abs(value) < 1e-9
    assert not value < 0.0


def test_cs_intensity_single_photon():
    value = moment_criterion(intensity_moments(delta_111(), 2).tensor, "cs")
    assert value == -1.0
    assert value < 0.0


def test_matrix_intensity_zero_for_coherent():
    m = intensity_moments(poisson_product((0.8, 1.1, 0.5)), 2)
    value = moment_criterion(m.tensor, "matrix")
    assert abs(value) < 1e-9


# ---------------------------------------------------------------------------
# quasi-probabilities
# ---------------------------------------------------------------------------

def test_quasi_probabilities_identity_at_s_one():
    d = poisson_product((0.8, 1.1, 0.5), n_max=12)
    for method in ("resummed", "series"):
        t = quasi_probabilities(d, 1.0, (1.0, 1.0, 1.0), 4, method=method)
        np.testing.assert_allclose(
            t.values, d.values[: 5, : 5, : 5], atol=1e-9)


def test_quasi_probabilities_vacuum_symmetric_ordering():
    vals = np.zeros((3, 3, 3))
    vals[0, 0, 0] = 1.0
    d = JointDistribution(vals, ("i1", "i2", "i3"), normalized=True)
    t = quasi_probabilities(d, 0.0, (1.0, 1.0, 1.0), 2)
    assert abs(t.values[0, 0, 0] - (2.0 / 3.0) ** 3) < 1e-12
    kern = kernel_route_probabilities(d, 0.0, (1.0, 1.0, 1.0), 2,
                                      points=200000)
    assert abs(t.values[0, 0, 0] - kern[0, 0, 0]) < 1e-6


def test_quasi_probabilities_delta_at_s_one():
    t = quasi_probabilities(delta_111(), 1.0, (1.0, 1.0, 1.0), 2)
    assert abs(t.values[1, 1, 1] - 1.0) < 1e-12
    assert abs(t.values[0, 0, 0]) < 1e-12


def test_series_and_resummed_routes_agree():
    d = thermal_product((0.4, 0.6, 0.3), n_max=40)
    for s in (0.0, 0.05):
        a = quasi_probabilities(d, s, (1.0, 1.0, 1.0), 4, method="series")
        b = quasi_probabilities(d, s, (1.0, 1.0, 1.0), 4, method="resummed")
        np.testing.assert_allclose(a.values, b.values, atol=1e-6)


def test_series_route_rejects_deep_orderings():
    # far below s = 0 the alternating series cancels away every significant
    # digit on wide tables; it must refuse rather than return noise
    d = thermal_product((0.4, 0.6, 0.3), n_max=40)
    with pytest.raises(NumericalError):
        quasi_probabilities(d, -0.5, (1.0, 1.0, 1.0), 4, method="series")


def test_smoothing_maps_thermal_to_thermal():
    # a Mandel-Rice beam at ordering s is again Mandel-Rice with the mean
    # per mode increased by (1-s)/2
    M, B, s = 2.5, 0.3, 0.0
    pmf = mandel_rice_vector(120, MandelRiceComponent(M, B))
    d = JointDistribution(pmf / pmf.sum(), ("i1",), normalized=True)
    t = quasi_probabilities(d, s, (M,), 8)
    expected = mandel_rice_vector(8, MandelRiceComponent(M, B + 0.5))
    np.testing.assert_allclose(t.values, expected, atol=1e-10)


@pytest.mark.parametrize("n_max, m_max", [(5, 20), (20, 5), (7, 0), (0, 0)])
def test_resummed_matrix_matches_loop_oracle(n_max, m_max):
    # s = 1 is the theta = 0 identity branch; s = -0.999 and M = 1e-4 are
    # the extremes of ordering and mode number
    for s in (1.0, 0.999, 0.5, 0.0, -0.5, -0.999):
        for M in (1e-4, 0.3, 1.0, 5.7):
            got = nonclassical._resummed_smoothing_matrix(n_max, m_max, s, M)
            want = resummed_smoothing_matrix_loop(n_max, m_max, s, M)
            assert got.shape == want.shape == (n_max + 1, m_max + 1)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("modes, box, builds", [((1.0, 1.0, 1.0), 3, 1),
                                                ((1.0, 2.0, 1.0), 3, 2),
                                                ((1.0, 1.0, 1.0), (3, 2, 3), 2)])
def test_resummed_route_builds_each_distinct_matrix_once(monkeypatch, modes, box, builds):
    d = poisson_product((0.5, 0.8, 0.5), n_max=10)
    build = nonclassical._resummed_smoothing_matrix
    want = [build(b, 10, -0.4, M) for b, M in zip(np.broadcast_to(box, 3), modes)]
    calls = []
    monkeypatch.setattr(nonclassical, "_resummed_smoothing_matrix",
                        lambda *args: calls.append(args) or build(*args))
    got = quasi_probabilities(d, -0.4, modes, box).values
    assert len(calls) == builds
    np.testing.assert_array_equal(got, fock.contract(d.values, want))


# ---------------------------------------------------------------------------
# probability criteria
# ---------------------------------------------------------------------------

def test_probability_cs_single_photon():
    t = quasi_probabilities(delta_111(), 1.0, (1.0, 1.0, 1.0), 2)
    value = moment_criterion(_factorial_weighted(t.values, (0, 0, 0)), "cs")
    assert value == -1.0
    assert value < 0.0


def test_probability_cs_coherent_is_classical():
    d = poisson_product((0.8, 1.1, 0.5), n_max=20)
    t = quasi_probabilities(d, 1.0, (1.0, 1.0, 1.0), 2)
    assert moment_criterion(_factorial_weighted(t.values, (0, 0, 0)), "cs") >= 0.0
    assert moment_criterion(_factorial_weighted(t.values, (0, 0, 0)), "matrix") >= 0.0


def test_probability_offset_coverage():
    t = quasi_probabilities(delta_111(), 1.0, (1.0, 1.0, 1.0), 2)
    with pytest.raises(DataError):
        _factorial_weighted(t.values, (1, 0, 0))


# ---------------------------------------------------------------------------
# the moment-matrix kernel against the written-out formulas
# ---------------------------------------------------------------------------

OFFSETS = [(0, 0, 0), (1, 0, 2), (3, 2, 0), (4, 4, 5), (2, 3, 1)]


@pytest.mark.parametrize("sign", ["nonnegative", "signed"])
@pytest.mark.parametrize("criterion", ["cs", "matrix"])
def test_moment_criterion_is_the_probability_formula_bit_for_bit(criterion, sign):
    # k! <= 2 per axis is a power of two, so weighting the probabilities
    # first rounds exactly as the written-out constants 2, 4 and 8 do
    rng = np.random.default_rng(19)
    for trial in range(20):
        p = rng.random((7, 7, 8)) * 10.0 ** rng.integers(-12, 1)
        if sign == "signed":
            p -= 0.5 * p.mean()
        for off in OFFSETS:
            got = moment_criterion(_factorial_weighted(p, off), criterion)
            assert got == probability_criterion_formula(p, criterion, off)


@pytest.mark.parametrize("s", [1.0, 0.6, 0.0, -0.5, -0.999])
def test_moment_criterion_is_the_intensity_formula(s):
    # the kernel multiplies in the zeroth moment, the formulas take it as 1:
    # the two agree to the rounding of the table's normalization
    rng = np.random.default_rng(7)
    for trial in range(10):
        vals = rng.random((6, 5, 7)) ** 3
        d = JointDistribution(vals / vals.sum(), ("i1", "i2", "i3"), normalized=True)
        t = s_transform_moments(intensity_moments(d, 2, tail_tol=1.0), s,
                                (1.0, 2.5, 0.7)).tensor
        for criterion, formula in (("cs", cs_intensity_formula),
                                   ("matrix", matrix_intensity_formula)):
            got, want = moment_criterion(t, criterion), formula(t)
            assert abs(got - want) <= 1e-12 * abs(want)


def test_moment_criterion_needs_three_axes_up_to_order_two():
    for shape in [(3, 3), (3, 3, 2), (3,)]:
        with pytest.raises(DataError, match="3-beam table"):
            moment_criterion(np.ones(shape), "cs")
    d2 = JointDistribution(np.full((4, 4), 1.0 / 16), ("i1", "i2"), normalized=True)
    with pytest.raises(DataError):
        intensity_ncd(d2, "cs", (1.0, 1.0), tail_tol=1.0)
    with pytest.raises(DataError):
        probability_ncd(d2, "cs", (1.0, 1.0))
    with pytest.raises(DataError):
        ncd_field(d2, "cs", (1.0, 1.0), (1, 1, 1))


def test_unknown_criterion_is_a_data_error():
    d = poisson_product((0.8, 1.1, 0.5), n_max=8)
    modes = (1.0, 1.0, 1.0)
    for call in (lambda: intensity_ncd(d, "det", modes, tail_tol=1.0),
                 lambda: probability_ncd(d, "det", modes),
                 lambda: ncd_field(d, "det", modes, (1, 1, 1)),
                 lambda: moment_criterion(np.ones((3, 3, 3)), "det")):
        with pytest.raises(DataError, match="unknown criterion 'det'"):
            call()


# ---------------------------------------------------------------------------
# Lee depths
# ---------------------------------------------------------------------------

def test_ncd_zero_for_coherent_field():
    d = poisson_product((0.8, 1.1, 0.5), n_max=20)
    res = intensity_ncd(d, "cs", (1.0, 1.0, 1.0))
    assert res.ncd.tau == 0.0


def test_ncd_single_photon_has_positive_depth():
    res = probability_ncd(delta_111(), "cs", (1.0, 1.0, 1.0))
    assert res.value == -1.0
    assert 0.0 < res.ncd.tau < 1.0


def test_ncd_saturation_flag():
    # an evaluator negative on the entire ordering range saturates at tau 1
    res = ncd(lambda s: -1.0)
    assert res.tau == 1.0
    assert res.saturated


def test_thermal_criteria_monotone_in_s():
    d = thermal_product((0.5, 0.7, 0.4), n_max=50)
    base = intensity_moments(d, 2, tail_tol=1e-4)
    vals = [moment_criterion(s_transform_moments(base, s, (1.0, 1.0, 1.0)).tensor, "cs")
            for s in np.linspace(1.0, -0.9, 12)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(v >= 0 for v in vals)


def test_ncd_field_vanishes_for_coherent():
    # truncating the Poisson tails leaves a residual sub-Poissonian bias,
    # so the depths are only zero up to the truncation scale
    d = poisson_product((0.8, 1.1, 0.5))
    field = ncd_field(d, "matrix", (1.0, 1.0, 1.0), (3, 3, 3))
    assert field.max() < 1e-3


def test_ncd_field_symmetric_under_beam_permutation():
    d = thermal_product((0.5, 0.5, 0.5), n_max=12)
    field = ncd_field(d, "cs", (1.0, 1.0, 1.0), (3, 3, 3))
    np.testing.assert_allclose(field.values,
                               np.transpose(field.values, (1, 2, 0)),
                               atol=2e-3)


def test_ncd_field_matches_loop_oracle(monkeypatch):
    # a model field post-selected at n_s = 6: offsets classical, saturated
    # and in between, for both criteria
    from tripletwb.fock import condition
    from tripletwb.gaussian import GaussianFieldModel
    model = GaussianFieldModel(PAPER_TABLE_2, 16, (8, 8, 8), tail_tol=5e-2)
    d = condition(model.distribution(), "s", 6)
    for criterion in ("cs", "matrix"):
        got = ncd_field(d, criterion, (1.0, 1.0, 1.0), (2, 2, 2)).values
        with monkeypatch.context() as m:
            m.setattr(nonclassical, "_resummed_smoothing_matrix",
                      resummed_smoothing_matrix_loop)
            want = ncd_field(d, criterion, (1.0, 1.0, 1.0), (2, 2, 2)).values
        assert np.count_nonzero((got > 0.0) & (got < 1.0)) >= 10
        np.testing.assert_array_equal(got, want)


def test_ncd_field_box_guard():
    d = poisson_product((0.5, 0.5, 0.5), n_max=6)
    with pytest.raises(DataError):
        ncd_field(d, "cs", (1.0, 1.0, 1.0), (6, 6, 6))
    with pytest.raises(DataError, match="nonnegative"):
        ncd_field(d, "cs", (1.0, 1.0, 1.0), (1, -1, 1))


# ---------------------------------------------------------------------------
# quasi-distributions of intensity
# ---------------------------------------------------------------------------

def test_thermal_quasi_distribution_nonnegative_at_s_zero():
    pmf = mandel_rice_vector(200, MandelRiceComponent(1.0, 0.8))
    d = JointDistribution(pmf / pmf.sum(), ("i1",), normalized=True)
    q = quasi_distribution_W(d, 0.0, (1.0,))
    assert q.values.min() > -1e-12
    assert abs(q.integral() - 1.0) < 1e-3


def test_quasi_distribution_takes_a_large_mode_number():
    # past M = 171, 1/Gamma(M) underflows and (2W/(1-s))^(M-1) overflows;
    # the kernel takes both in one exponent, so the pair-1 mode number 552
    # passes the grid checks (the grid integrated to NaN)
    pmf = mandel_rice_vector(60, MandelRiceComponent(552.0, 0.00475))
    d = JointDistribution(pmf / pmf.sum(), ("i1",), normalized=True)
    q = quasi_distribution_W(d, 0.0, (552.0,))
    assert q.values.min() > -1e-12
    assert abs(q.integral() - 1.0) < 1e-3


def test_quasi_distribution_validates_grid_moments():
    # the constructor itself cross-checks grid moments against the moment
    # transform; a too-coarse grid must be rejected
    pmf = mandel_rice_vector(60, MandelRiceComponent(1.0, 0.5))
    d = JointDistribution(pmf / pmf.sum(), ("i1",), normalized=True)
    with pytest.raises(NumericalError):
        quasi_distribution_W(d, 0.0, (1.0,), points=4)


def test_quasi_distribution_mode_number_near_zero_is_numerical_error():
    # the coefficient n! Gamma(M) / Gamma(n + M) takes 1/M at n = 1, which
    # overflows at the smallest subnormal M (a NaN grid before)
    pmf = mandel_rice_vector(20, MandelRiceComponent(1.0, 0.5))
    d = JointDistribution(pmf / pmf.sum(), ("i1",), normalized=True)
    with pytest.raises(NumericalError, match="Laguerre recurrence overflow at n = 1"):
        quasi_distribution_W(d, 0.5, (5e-324,), points=40)


def test_quasi_distribution_laguerre_overflow_is_numerical_error():
    # at s = -0.999 the Laguerre argument 4W/(1 - s^2) is 2000 W: on the
    # default grid of a uniform 101-cell table the recurrence passes its
    # guard at n = 54, before any grid moment is checked
    d = JointDistribution(np.full(101, 1.0 / 101), ("i1",), normalized=True)
    with pytest.raises(NumericalError, match="Laguerre recurrence overflow at n = 54"):
        quasi_distribution_W(d, -0.999, (1.0,), points=4)


MODES_8 = (8.0, 8.0, 8.0)


def quasi_3d():
    """An 8-mode thermal product and its s = 0 grid.

    Eight modes make the density vanish smoothly at W = 0, so 100 points
    per axis pass the grid-moment check (one mode needs about 400).
    """
    vecs = [mandel_rice_vector(30, MandelRiceComponent(8.0, B))
            for B in (0.2, 0.3, 0.25)]
    vals = np.einsum("i,j,k->ijk", *vecs)
    d = JointDistribution(vals / vals.sum(), ("i1", "i2", "i3"), normalized=True)
    return d, quasi_distribution_W(d, 0.0, MODES_8, points=100)


def test_validate_quasi_rejects_one_wrong_third_moment():
    d, q = quasi_3d()
    kernels = quasi_kernels(q, d)
    nonclassical._validate_quasi(q, d, kernels)
    # the least-norm grid vector u with P_0 u = (0, 0, 0, 1) carries only
    # <W^3>: added to every column of the axis-0 kernel it moves only the
    # moments of order 3 on axis 0. The table is a product, so all of them
    # move by the same share, 1e-3 of the exact moment
    p0 = np.stack([q.grid(0) ** k for k in range(4)])
    u = np.linalg.pinv(p0) @ np.array([0.0, 0.0, 0.0, 1.0])
    exact = s_transform_moments(intensity_moments(d, 3, tail_tol=1.0), 0.0,
                                MODES_8).tensor
    bumped = [kernels[0] + np.outer(1e-3 * exact[3, 0, 0] / q.steps[0] * u,
                                    np.ones(kernels[0].shape[1]))] + kernels[1:]
    before = nonclassical._kernel_moments(q, d, kernels)
    after = nonclassical._kernel_moments(q, d, bumped)
    np.testing.assert_allclose(after[:3], before[:3], rtol=1e-12, atol=1e-12)
    assert after[3, 0, 0] - before[3, 0, 0] == pytest.approx(1e-3 * exact[3, 0, 0],
                                                            rel=1e-2)
    with pytest.raises(NumericalError, match="moment check"):
        nonclassical._validate_quasi(q, d, bumped)


def test_validate_quasi_allocates_no_grid_copy():
    # the check never reads the grid: a grid of NaN passes it
    import tracemalloc
    d, q = quasi_3d()
    kernels = quasi_kernels(q, d)
    blank = nonclassical.QuasiDistribution(np.full_like(q.values, np.nan), q.s,
                                           q.modes, q.steps)
    tracemalloc.start()
    try:
        nonclassical._validate_quasi(blank, d, kernels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < q.values.nbytes / 10


def test_validate_quasi_rejects_nan_moments():
    d, q = quasi_3d()
    kernels = quasi_kernels(q, d)
    kernels[2][5, 3] = np.nan
    with pytest.raises(NumericalError, match="integrates to nan"):
        nonclassical._validate_quasi(q, d, kernels)


def test_kernel_moments_match_grid_moments():
    d, q = quasi_3d()
    got = nonclassical._kernel_moments(q, d, quasi_kernels(q, d))
    ref = grid_moments(q, 3)
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12


@pytest.mark.parametrize("shape", [(31,), (12, 7), (9, 13, 6)])
def test_quasi_grid_matches_contract_of_kernels(shape, monkeypatch):
    # the synthesis contracts axes 1..d-1 first and axis 0 last; the grid
    # is the plain all-axes contraction of the per-axis kernels. The check
    # sums its moments from the kernels and never reads the grid, so this
    # test is what guards the grid against differing from that contraction.
    # 50 points are too coarse for the check, which is switched off here
    vals = np.random.default_rng(len(shape)).random(shape)
    labels = ("i1", "i2", "i3")[: len(shape)]
    d = JointDistribution(vals / vals.sum(), labels, normalized=True)
    modes = (1.0, 2.5, 4.0)[: len(shape)]
    monkeypatch.setattr(nonclassical, "_validate_quasi", lambda q, d, kernels: None)
    q = quasi_distribution_W(d, -0.3, modes, points=50)
    kernels = quasi_kernels(q, d)
    ref = fock.contract(d.values, kernels)
    assert q.values.shape == (50,) * len(shape)
    assert q.values.flags.c_contiguous
    assert np.max(np.abs(q.values - ref)) <= 1e-13 * np.max(np.abs(ref))


def rectangular_grid():
    """A signed 3D grid with unequal points and steps per axis."""
    vals = np.random.default_rng(11).standard_normal((20, 30, 40))
    return nonclassical.QuasiDistribution(vals, 0.0, MODES_8, (0.1, 0.25, 0.05))


def transposed(q, perm):
    """The same field with its axes permuted: a non-C-ordered view of the grid."""
    return nonclassical.QuasiDistribution(
        q.values.transpose(perm), q.s, tuple(q.modes[a] for a in perm),
        tuple(q.steps[a] for a in perm))


def einsum_moments(q, k_max):
    """Grid moments as one einsum over the grid and the per-axis powers."""
    ax = "abc"[: q.values.ndim]
    powers = [np.stack([q.grid(a) ** k for k in range(k_max + 1)]) for a in range(len(ax))]
    spec = ax + "".join(f",{o}{a}" for o, a in zip("ijk", ax)) + "->" + "ijk"[: len(ax)]
    return np.einsum(spec, q.values, *powers) * math.prod(q.steps)


@pytest.mark.parametrize("grid", ["quasi_3d", "rectangular"])
@pytest.mark.parametrize("perm", [(0, 1, 2), (2, 0, 1), (1, 2, 0), (2, 1, 0)])
def test_grid_moments_match_memory_order_route(grid, perm):
    # the oracle contracts in memory order; transposed views must agree
    # with the einsum and with the transposed moments of the C-ordered grid
    q = quasi_3d()[1] if grid == "quasi_3d" else rectangular_grid()
    qt = transposed(q, perm)
    got = grid_moments(qt, 3)
    np.testing.assert_allclose(got, einsum_moments(qt, 3),
                               rtol=1e-12, atol=1e-12 * np.max(np.abs(got)))
    np.testing.assert_allclose(got, grid_moments(q, 3).transpose(perm),
                               rtol=1e-12, atol=1e-12 * np.max(np.abs(got)))


@pytest.mark.parametrize("shape", [(40,), (25, 30)])
def test_grid_moments_in_one_and_two_dimensions(shape):
    vals = np.random.default_rng(3).standard_normal(shape)
    q = nonclassical.QuasiDistribution(vals, 0.0, (1.0,) * len(shape),
                                       (0.2, 0.3)[: len(shape)])
    for qq in (q, transposed(q, tuple(range(len(shape)))[::-1])):
        got = grid_moments(qq, 3)
        np.testing.assert_allclose(got, einsum_moments(qq, 3),
                                   rtol=1e-12, atol=1e-12 * np.max(np.abs(got)))


def test_quasi_distribution_requires_open_interval():
    pmf = mandel_rice_vector(30, MandelRiceComponent(1.0, 0.3))
    d = JointDistribution(pmf / pmf.sum(), ("i1",), normalized=True)
    with pytest.raises(ParameterError):
        quasi_distribution_W(d, 1.0, (1.0,))


# ---------------------------------------------------------------------------
# plane cuts
# ---------------------------------------------------------------------------

def test_triangular_cut_of_multinomial_is_symmetric():
    from tests.test_postselect import multinomial_thirds
    d = multinomial_thirds(6)
    pc = plane_cut(d.values, "triangular", 6)
    vals = pc.values
    # 3-cycle of barycentric coordinates: (a, b, c) -> (b, c, a)
    for a in range(7):
        for b in range(7 - a):
            c = 6 - a - b
            assert abs(vals[a, c] - vals[b, a]) < 1e-12


def test_cut_of_zero_field_is_zero():
    field = np.zeros((5, 5, 5))
    pc = plane_cut(field, "diagonal")
    assert np.nansum(np.abs(pc.values)) == 0.0


def test_triangular_cut_of_paired_slice_carries_all_mass():
    from tripletwb.fock import condition
    d4 = paired_part(PAPER_TABLE_2, 24, (8, 8, 8), tail_tol=1e-2)
    sl = condition(d4, "s", 4)
    pc = plane_cut(sl.values, "triangular", 4)
    assert abs(np.nansum(pc.values) - 1.0) < 1e-9


def test_cut_level_must_be_in_box():
    with pytest.raises(DataError):
        plane_cut(np.zeros((4, 4, 4)), "triangular", 30)


def test_lattice_cut_level_must_be_an_integer():
    # 2.5 read as the level-2 cut, labelled 2; an integral float is that integer
    arr = np.random.default_rng(5).standard_normal((4, 4, 4))
    with pytest.raises(DataError, match="integer level"):
        plane_cut(arr, "triangular", 2.5)
    pc = plane_cut(arr, "triangular", 3.0)
    assert pc.level == 3 and isinstance(pc.level, int)
    np.testing.assert_array_equal(pc.values, triangular_cut_loop(arr, 3))


def test_a_diagonal_cut_takes_no_level():
    # a level was ignored: the cut came back as the diagonal without it
    arr = np.random.default_rng(6).standard_normal((4, 4, 4))
    for field in (arr, rectangular_grid()):
        with pytest.raises(DataError, match="a diagonal cut takes no level"):
            plane_cut(field, "diagonal", 3)
    with pytest.raises(DataError, match="a diagonal cut takes no level"):
        check_cut("diagonal", 0.0)
    check_cut("diagonal", None)


def test_lattice_triangular_cut_matches_loop():
    arr = np.random.default_rng(4).standard_normal((5, 7, 6))
    for level in range(sum(n - 1 for n in arr.shape) + 1):
        pc = plane_cut(arr, "triangular", level)
        np.testing.assert_array_equal(pc.values, triangular_cut_loop(arr, level))
        assert pc.u.size == pc.values.shape[0] and pc.v.size == pc.values.shape[1]


@pytest.mark.parametrize("grid", ["quasi_3d", "rectangular"])
def test_grid_triangular_cut_matches_loop(grid):
    q = quasi_3d()[1] if grid == "quasi_3d" else rectangular_grid()
    top = sum(q.grid(a)[-1] for a in range(3))
    # level 0 and levels past the box give all-NaN cuts; the last level
    # puts w2 on cell boundaries (exactly on the rectangular grid), where
    # halves round to even
    levels = [0.0, 0.3 * top, 0.5 * top, top, 2.0 * top,
              q.grid(0)[3] + q.grid(2)[2] + 3.0 * q.steps[1]]
    for level in levels:
        pc = plane_cut(q, "triangular", level)
        np.testing.assert_array_equal(pc.values, grid_triangular_cut_loop(q, level))


def test_grid_triangular_cut_needs_a_finite_level():
    q = rectangular_grid()
    for level in (math.nan, math.inf):
        with pytest.raises(DataError, match="finite"):
            plane_cut(q, "triangular", level)


def test_diagonal_cuts_take_the_diagonal():
    arr = np.random.default_rng(6).standard_normal((4, 6, 3))
    pc = plane_cut(arr, "diagonal")
    np.testing.assert_array_equal(pc.values, np.stack([arr[i, i, :] for i in range(4)]))
    q = rectangular_grid()
    pc = plane_cut(q, "diagonal")
    np.testing.assert_array_equal(pc.values, np.stack([q.values[i, i, :] for i in range(20)]))
    np.testing.assert_array_equal(pc.u, q.grid(0)[:20])


def test_cut_csv_matches_cell_loop(tmp_path):
    vals = np.array([[1.0, np.nan, -2.5e-7, np.inf],
                     [-np.inf, 5e-324, -0.0, 123456789012.5],
                     [np.nan, np.nan, np.nan, np.nan],
                     [1e300, -1e-300, 0.1 + 0.2, 7.0]])
    cuts = [
        nonclassical.PlaneCut("triangular", 3, np.arange(4), np.arange(4), vals),
        nonclassical.PlaneCut("diagonal", None, np.linspace(-1.5, 2e11, 4),
                              np.array([0.05, 1e-12, -3.0, 12345678901.0]), vals),
        nonclassical.PlaneCut("triangular", 1.0, np.arange(4.0), np.arange(4.0),
                              np.full((4, 4), np.nan)),
        plane_cut(np.random.default_rng(8).standard_normal((6, 6, 6)), "triangular", 7),
        plane_cut(np.arange(60).reshape(3, 4, 5), "diagonal"),
        plane_cut(rectangular_grid(), "triangular", 4.0),
    ]
    for k, pc in enumerate(cuts):
        path = tmp_path / f"cut{k}.csv"
        io.save_columns(pc.columns(), path)
        assert path.read_bytes() == plane_cut_csv_loop(pc)


def test_cut_csv_format(tmp_path):
    pc = plane_cut(np.arange(27, dtype=float).reshape(3, 3, 3), "diagonal")
    io.save_columns(pc.columns(), tmp_path / "cut.csv")
    lines = (tmp_path / "cut.csv").read_bytes().split(b"\r\n")
    assert lines[0] == b"u,v,value"
    assert len(lines) == 1 + 9 + 1 and lines[-1] == b""
    # every field reads back to the double the cut holds
    cells = np.loadtxt(tmp_path / "cut.csv", delimiter=",", skiprows=1)
    for name, column in zip(("u", "v", "value"), cells.T):
        np.testing.assert_array_equal(column, pc.columns()[name])

