"""Distribution/histogram algebra: normalization, marginals, moments."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletwb.errors import DataError
from tripletwb.fock import (AXIS_ORDER, Histogram, JointDistribution,
                            apply_matrix, condition, contract, factorial_moment,
                            falling_factorial, marginalize, normalize)
from tripletwb.gaussian import MandelRiceComponent, mandel_rice_vector


def table(values, labels, normalized=True):
    return JointDistribution(np.asarray(values, dtype=float), labels,
                             normalized=normalized)


def poisson_table(lam, n_max=60):
    n = np.arange(n_max + 1)
    from scipy.stats import poisson
    return poisson.pmf(n, lam)


# ---------------------------------------------------------------------------
# constructors and invariants
# ---------------------------------------------------------------------------

def test_negative_cell_rejected():
    with pytest.raises(DataError):
        table([[0.5, -0.1], [0.3, 0.3]], ("s", "i1"))


def test_normalized_flag_checks_total():
    with pytest.raises(DataError):
        table([[0.5, 0.1]], ("s", "i1"))  # sums to 0.6


def test_axis_labels_must_follow_canonical_order():
    with pytest.raises(DataError):
        JointDistribution(np.ones((2, 2)) / 4, ("i1", "s"), normalized=True)


def test_histogram_counts_must_be_integers_and_nonnegative():
    with pytest.raises(DataError):
        Histogram(np.array([[1.5, 0.0], [0.0, 0.0]]), 2)
    with pytest.raises(DataError):
        Histogram(np.array([[-1, 3], [0, 0]]), 2)


def test_histogram_trials_must_cover_counts():
    with pytest.raises(DataError):
        Histogram(np.array([[3, 1], [0, 4]]), 5)


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

def test_normalize_divides_by_trials():
    counts = np.zeros((2, 2, 1, 1), dtype=np.int64)
    counts[0, 0, 0, 0] = 3
    counts[1, 1, 0, 0] = 1
    d = normalize(Histogram(counts, 4))
    assert d.normalized
    assert d.values[0, 0, 0, 0] == 0.75
    assert d.values[1, 1, 0, 0] == 0.25


def test_normalize_rejects_zero_trials():
    with pytest.raises(DataError):
        Histogram(np.zeros((2, 2), dtype=np.int64), 0)


def test_normalize_delta_histogram():
    counts = np.zeros((3, 2, 2, 1), dtype=np.int64)
    counts[2, 1, 1, 0] = 10
    d = normalize(Histogram(counts, 10))
    assert d.values[2, 1, 1, 0] == 1.0
    assert d.total() == 1.0


# ---------------------------------------------------------------------------
# marginalize
# ---------------------------------------------------------------------------

def test_marginalize_product_recovers_factor():
    p = np.array([0.2, 0.3, 0.5])
    q = np.array([0.6, 0.4])
    d = table(np.outer(p, q), ("s", "i1"))
    m = marginalize(d, ["s"])
    np.testing.assert_allclose(m.values, p, atol=1e-15)
    assert m.axis_labels == ("s",)


def test_marginalize_conserves_mass(model4):
    m = marginalize(model4, ["i1", "i3"])
    assert abs(m.total() - 1.0) < 1e-9
    assert m.axis_labels == ("i1", "i3")


def test_marginalize_unknown_axis_errors(model4):
    with pytest.raises(DataError):
        marginalize(model4, ["s", "nope"])


def test_paired_marginal_matches_triple_convolution():
    # signal marginal of the paired table is the convolution of the three
    # pair pmfs, checked by brute-force triple summation for n_s <= 6
    from tripletwb.gaussian import PAPER_TABLE_2, paired_part
    d = paired_part(PAPER_TABLE_2, 24, (8, 8, 8), tail_tol=1e-2)
    sig = marginalize(d, ["s"]).values
    pmfs = [mandel_rice_vector(8, c) for c in PAPER_TABLE_2.pairs]
    for total in range(7):
        brute = sum(pmfs[0][a] * pmfs[1][b] * pmfs[2][total - a - b]
                    for a in range(total + 1)
                    for b in range(total - a + 1))
        assert abs(sig[total] - brute) < 1e-14


# ---------------------------------------------------------------------------
# factorial moments
# ---------------------------------------------------------------------------

def test_factorial_moment_poisson():
    d = JointDistribution(poisson_table(2.0), ("i1",), normalized=True)
    assert abs(factorial_moment(d, {"i1": 2}) - 4.0) < 1e-9


def test_factorial_moment_order_zero_is_one(model4):
    assert abs(factorial_moment(model4, {}) - 1.0) < 1e-12


def test_factorial_moment_thermal_by_direct_summation():
    # second factorial moment of a Mandel-Rice table equals the direct sum
    # of n(n-1) p(n) over a long tail, and the closed form M(M+1)B^2
    comp = MandelRiceComponent(M=1.0, B=1.0)
    pmf = mandel_rice_vector(200, comp)
    d = JointDistribution(pmf / pmf.sum(), ("i1",), normalized=True)
    n = np.arange(201)
    brute = float(np.sum(n * (n - 1) * d.values))
    assert abs(factorial_moment(d, {"i1": 2}) - brute) < 1e-12
    assert abs(brute - comp.M * (comp.M + 1) * comp.B**2) < 1e-9


def test_factorial_moment_requires_normalized():
    d = JointDistribution(np.ones(4), ("i1",), normalized=False)
    with pytest.raises(DataError):
        factorial_moment(d, {"i1": 1})


def test_factorial_moment_factorizes_on_products():
    p = poisson_table(1.3, 40)
    q = poisson_table(0.7, 40)
    d2 = table(np.outer(p, q), ("i1", "i2"))
    d1p = JointDistribution(p, ("i1",), normalized=True)
    d1q = JointDistribution(q, ("i2",), normalized=True)
    j = factorial_moment(d2, {"i1": 2, "i2": 1})
    assert abs(j - factorial_moment(d1p, {"i1": 2})
               * factorial_moment(d1q, {"i2": 1})) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
       st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
       st.floats(0.05, 0.95))
def test_factorial_moment_linear_in_distribution(a, b, w):
    pa = np.array(a) / np.sum(a)
    pb = np.array(b) / np.sum(b)
    da = JointDistribution(pa, ("i1",), normalized=True)
    db = JointDistribution(pb, ("i1",), normalized=True)
    dm = JointDistribution(w * pa + (1 - w) * pb, ("i1",), normalized=True)
    lhs = factorial_moment(dm, {"i1": 2})
    rhs = (w * factorial_moment(da, {"i1": 2})
           + (1 - w) * factorial_moment(db, {"i1": 2}))
    assert abs(lhs - rhs) < 1e-12


def test_falling_factorial_values():
    n = np.array([0.0, 1.0, 2.0, 5.0])
    np.testing.assert_allclose(falling_factorial(n, 0), [1, 1, 1, 1])
    np.testing.assert_allclose(falling_factorial(n, 2), [0, 0, 2, 20])


# ---------------------------------------------------------------------------
# condition
# ---------------------------------------------------------------------------

def test_condition_independent_axes_leaves_other_marginal():
    p = np.array([0.2, 0.5, 0.3])
    q = np.array([0.1, 0.6, 0.3])
    d = table(np.outer(p, q), ("s", "i1"))
    c = condition(d, "s", 1)
    np.testing.assert_allclose(c.values, q, atol=1e-15)


def test_condition_perfect_pairing_gives_delta():
    w = np.array([0.3, 0.5, 0.2])
    vals = np.diag(w)
    d = table(vals, ("s", "i1"))
    c = condition(d, "s", 2)
    np.testing.assert_allclose(c.values, [0.0, 0.0, 1.0], atol=1e-15)


def test_condition_zero_mass_slice_errors():
    vals = np.zeros((3, 2))
    vals[0, 0] = 1.0
    d = table(vals, ("s", "i1"))
    with pytest.raises(DataError, match="unconditionable"):
        condition(d, "s", 2)


def test_condition_matches_direct_ratio(model4):
    c = condition(model4, "s", 10)
    assert abs(c.total() - 1.0) < 1e-9
    sl = model4.values[10]
    np.testing.assert_allclose(c.values, sl / sl.sum(), rtol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 3))
def test_condition_then_marginalize_commutes(v):
    rng = np.random.default_rng(v + 7)
    vals = rng.random((4, 4, 4))
    vals /= vals.sum()
    d = JointDistribution(vals, ("s", "i1", "i2"), normalized=True)
    lhs = marginalize(condition(d, "s", v), ["i1"]).values
    sl = vals[v].sum(axis=1)
    rhs = sl / sl.sum()
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# contract
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(7,), (5, 3), (4, 6, 3), (6, 2, 5, 3)])
@pytest.mark.parametrize("rows", ["mixed", "collapse"])
def test_contract_matches_apply_matrix_loop(shape, rows):
    rng = np.random.default_rng(len(shape))
    values = rng.random(shape)
    # rectangular on every axis: "mixed" widens some axes and narrows others,
    # "collapse" maps each axis to one row
    width = {"mixed": lambda a, n: n + (2 if a % 2 else -1),
             "collapse": lambda a, n: 1}[rows]
    mats = [rng.random((width(a, n), n)) for a, n in enumerate(shape)]
    loop = values
    for axis, mat in enumerate(mats):
        loop = apply_matrix(loop, mat, axis)
    got = contract(values, mats)
    assert got.shape == loop.shape
    assert got.flags.c_contiguous
    np.testing.assert_allclose(got, loop, rtol=1e-14, atol=0.0)


def test_contract_reads_strided_input_and_checks_rank():
    rng = np.random.default_rng(9)
    values = rng.random((4, 5, 6)).transpose(2, 0, 1)
    mats = [rng.random((3, n)) for n in values.shape]
    loop = values
    for axis, mat in enumerate(mats):
        loop = apply_matrix(loop, mat, axis)
    np.testing.assert_allclose(contract(values, mats), loop, rtol=1e-14, atol=0.0)
    with pytest.raises(DataError):
        contract(values, mats[:2])
