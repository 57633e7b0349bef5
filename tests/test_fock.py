"""Distribution/histogram algebra: normalization, marginals, moments."""
import hashlib
import math
import multiprocessing
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletwb import fock
from tripletwb.errors import DataError
from tripletwb.fock import (AXIS_ORDER, FRAME_CHUNK, MAX_CELLS, SPLIT_CELLS,
                            Histogram, JointDistribution, apply_matrix, binomial_table,
                            condition, contract, falling_factorial, marginalize, normalize)
from tripletwb.gaussian import MandelRiceComponent, mandel_rice_vector
from tripletwb.nonclassical import intensity_moments, quasi_distribution_W

from tests.oracles import axis_contraction, binned_tuple_index, quasi_kernels


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


@pytest.mark.parametrize("normalized", [True, False])
def test_nan_cell_rejected(normalized):
    with pytest.raises(DataError, match="NaN"):
        table([0.5, np.nan, 0.5], ("s",), normalized=normalized)


def test_normalized_flag_rejects_an_infinite_total():
    with pytest.raises(DataError, match="sums to"):
        table([0.5, np.inf, 0.5], ("s",))


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


def test_histogram_keeps_a_python_int_frame_count(tmp_path):
    # the sidecar is JSON: a numpy integer count could not be saved
    from tripletwb import io
    from tripletwb.detector import PAPER_TABLE_1
    counts = np.zeros((2, 1, 1, 1), dtype=np.int64)
    counts[1, 0, 0, 0] = 3
    h = Histogram(counts, counts.sum())
    assert type(h.trials) is int
    io.save_histogram(h, tmp_path / "h.csv", PAPER_TABLE_1)
    assert io.load_histogram(tmp_path / "h.csv").trials == 3


def test_binned_counts_frames_inside_the_box():
    clicks = np.array([[0, 1, 0, 0], [2, 1, 0, 1], [0, 1, 0, 0], [3, 0, 0, 0]])
    h = Histogram.binned(clicks, (2, 1, 0, 1))
    assert h.counts.shape == (3, 2, 1, 2)
    assert h.trials == 3  # the frame with c_s = 3 lies outside the box
    assert h.counts[0, 1, 0, 0] == 2 and h.counts[2, 1, 0, 1] == 1


def test_binned_matches_tuple_index_reference():
    # three frame chunks and a remainder; about a third of the frames lie
    # outside the box, on one axis or several
    clicks = np.random.default_rng(2).poisson((8.0, 3.0, 3.0, 3.0),
                                              size=(3 * FRAME_CHUNK + 777, 4))
    box = (9, 4, 5, 3)
    got, want = Histogram.binned(clicks, box), binned_tuple_index(clicks, box)
    assert got.trials == want.trials < 0.8 * len(clicks)
    np.testing.assert_array_equal(got.counts, want.counts)
    assert got.counts.base is None  # the table is the one binned filled


@pytest.mark.parametrize("row", [0, FRAME_CHUNK + 5])
def test_binned_refuses_a_frame_with_a_negative_click(row):
    # its flat cell index would wrap around: (0, 0, 0, -1) lands on (2, 2, 2, 2)
    clicks = np.zeros((FRAME_CHUNK + 10, 4), dtype=np.int64)
    clicks[row, 3] = -1
    with pytest.raises(DataError, match=rf"frame {row} has a negative click count \(0,0,0,-1\)"):
        Histogram.binned(clicks, (2, 2, 2, 2))


def test_binned_with_every_frame_outside_the_box_names_it():
    clicks = np.array([[5, 0, 0, 0], [0, 0, 0, 9]])
    with pytest.raises(DataError, match=r"all 2 frames lie outside the click box 0..\(4, 1, 1, 1\)"):
        Histogram.binned(clicks, (4, 1, 1, 1))


@pytest.mark.parametrize("p", [0.0, 3e-5, 0.3, 0.5, 0.9, 0.999])
def test_binomial_table_matches_scipy(p):
    from scipy.stats import binom
    # 1500 trials at p = 0.5, 0.9 and 0.999 start below the smallest float
    n = np.array([0, 1, 7, 40, 1500])
    got = binomial_table(1600, n, p, 1.0 - p)
    want = binom.pmf(np.arange(1600)[:, None], n, p)
    assert got.shape == (1600, 5) and np.all(got[n[None, :] < np.arange(1600)[:, None]] == 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-300)
    # a column started at its mode is good to about |log q^n| 2^-53:
    # 2.7e-13 at p = 0.999 (1.6e-12 at p = 0.9 when summed in log space)
    bulk = want > 1e-10
    np.testing.assert_allclose(got[bulk], want[bulk], rtol=5e-13)
    np.testing.assert_allclose(got.sum(axis=0), 1.0, rtol=0.0, atol=5e-13)


def test_binned_refuses_a_box_beyond_the_cell_bound():
    # counts near the 1512-pixel limit on every idler ask for a 4 x 1513^3
    # int64 table, about 110 GB; the box is refused before any allocation
    clicks = np.array([[3, 1512, 1512, 1512]])
    cells = 4 * 1513**3
    assert cells > MAX_CELLS
    with pytest.raises(DataError, match=rf"click box 0..\(3, 1512, 1512, 1512\) has {cells} cells"):
        Histogram.binned(clicks, clicks.max(axis=0))


def test_binned_takes_a_sparse_box_below_the_cell_bound():
    # one frame sizes a 2 x 301^3 box, 5.4e7 cells, below the bound
    clicks = np.array([[1, 300, 300, 300], [0, 2, 0, 1]])
    h = Histogram.binned(clicks, clicks.max(axis=0))
    assert h.counts.size == 2 * 301**3 <= MAX_CELLS
    assert h.trials == 2 and h.counts[1, 300, 300, 300] == 1 and h.counts[0, 2, 0, 1] == 1


def sliced_histogram():
    counts = np.zeros((3, 2, 2), dtype=np.int64)
    counts[0, 1, 0], counts[0, 0, 1], counts[2, 1, 1] = 4, 1, 3
    return Histogram(counts, 8, ("s", "i1", "i3"))


def test_slice_is_a_histogram_of_the_slice_frames():
    h = sliced_histogram()
    sl = h.slice("s", 0)
    assert sl.axis_labels == ("i1", "i3") and sl.trials == 5
    np.testing.assert_array_equal(sl.counts, h.counts[0])
    sl = h.slice("i1", 1)
    assert sl.axis_labels == ("s", "i3") and sl.trials == 7
    np.testing.assert_array_equal(sl.counts, h.counts[:, 1, :])


@pytest.mark.parametrize("label, value, match", [
    ("i2", 0, r"unknown axis 'i2'"),
    ("s", 3, r"no frames at c_s=3: outside the histogram's c_s range 0..2"),
    ("s", -1, r"no frames at c_s=-1: outside"),
    ("s", 1, r"^no frames at c_s=1$"),
])
def test_slice_names_an_outcome_without_frames(label, value, match):
    with pytest.raises(DataError, match=match):
        sliced_histogram().slice(label, value)


def test_histogram_support_lists_observed_cells_once():
    counts = np.zeros((3, 4), dtype=np.int64)
    counts[0, 1], counts[2, 3] = 6, 2
    h = Histogram(counts, 8, ("s", "i1"))
    cells, rel = h.support
    np.testing.assert_array_equal(cells, [1, 11])
    np.testing.assert_array_equal(rel, [0.75, 0.25])
    assert h.support[0] is cells
    with pytest.raises(ValueError):
        rel[0] = 1.0


def test_histogram_on_a_view_keeps_its_own_counts():
    base = np.zeros((2, 3, 3), dtype=np.int64)
    base[0, 0, 0] = 4
    h = Histogram(base[0], 4, ("s", "i1"))
    cells, _ = h.support
    base[0, 0, 0], base[0, 2, 2] = 0, 4
    assert h.counts[0, 0] == 4 and h.counts[2, 2] == 0
    np.testing.assert_array_equal(h.support[0], cells)
    assert base.flags.writeable


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
    # two labels for the 2-d table, so the empty-histogram check is the one met
    with pytest.raises(DataError, match="empty histogram"):
        Histogram(np.zeros((2, 2), dtype=np.int64), 0, ("s", "i1"))


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
    from tripletwb.gaussian import PAPER_TABLE_2

    from tests.oracles import paired_part
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

def factorial_moment(d, orders):
    """sum p(n) prod_j n_j (n_j-1)...(n_j-k_j+1), ``orders`` keyed by axis label.

    Read off the normal-ordered intensity moment tensor, with the outer
    shell check switched off.
    """
    ks = tuple(orders.get(l, 0) for l in d.axis_labels)
    return intensity_moments(d, max(ks), tail_tol=1.0).tensor[ks]


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

def loop_contraction(values, mats):
    for axis, mat in enumerate(mats):
        if mat is not None:
            values = axis_contraction(values, mat, axis)
    return values


def rectangular_mats(rng, shape, rows):
    # "mixed" widens some axes and narrows others, "collapse" maps each
    # axis to one row
    width = {"mixed": lambda a, n: n + (2 if a % 2 else -1),
             "collapse": lambda a, n: 1}[rows]
    return [rng.random((width(a, n), n)) for a, n in enumerate(shape)]


@pytest.mark.parametrize("shape", [(7,), (5, 3), (4, 6, 3), (6, 2, 5, 3)])
@pytest.mark.parametrize("rows", ["mixed", "collapse"])
def test_contract_matches_apply_matrix_loop(shape, rows):
    rng = np.random.default_rng(len(shape))
    values = rng.random(shape)
    mats = rectangular_mats(rng, shape, rows)
    loop = loop_contraction(values, mats)
    got = contract(values, mats)
    assert got.shape == loop.shape
    assert got.flags.c_contiguous
    assert got.flags.owndata  # a distribution built on it needs no copy
    np.testing.assert_allclose(got, loop, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("shape", [(7,), (5, 3), (4, 6, 3), (6, 2, 5, 3)])
@pytest.mark.parametrize("layout", ["c", "fortran", "strided"])
def test_none_entries_leave_their_axes(shape, layout):
    # every subset of axes contracted, the others left as they are
    rng = np.random.default_rng(len(shape) + 20)
    values = rng.random(shape)
    mats = rectangular_mats(rng, shape, "mixed")
    for keep in np.ndindex((2,) * len(shape)):
        picked = [m if k else None for m, k in zip(mats, keep)]
        want = loop_contraction(values, picked)
        got = contract(values if layout == "c" else laid_out(values, layout), picked)
        assert got.shape == want.shape
        if any(keep):
            assert got.flags.c_contiguous and got.flags.owndata
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_untouched_axes_keep_their_bits():
    # None moves values, it rounds none: one matrix on axis 0 is the bare
    # GEMM, and identity rows on the other axes would give the same bits
    rng = np.random.default_rng(21)
    values = rng.standard_normal((5, 4, 6))
    mat = rng.standard_normal((3, 5))
    gemm = (mat @ values.reshape(5, -1)).reshape(3, 4, 6)
    np.testing.assert_array_equal(contract(values, [mat, None, None]), gemm)
    kernels = [rng.standard_normal((7, 4)), rng.standard_normal((2, 6))]
    np.testing.assert_array_equal(contract(values, [None, *kernels]),
                                  contract(values, [np.eye(5), *kernels]))
    assert contract(values, [None, None, None]) is values


@pytest.mark.parametrize("axis", [0, 1, 2, 3])
def test_apply_matrix_is_contract_on_one_axis(axis):
    rng = np.random.default_rng(axis)
    values = rng.random((6, 2, 5, 3))
    mat = rng.random((4, values.shape[axis]))
    got = apply_matrix(values, mat, axis)
    np.testing.assert_array_equal(got, contract(values, [mat if a == axis else None
                                                         for a in range(4)]))
    np.testing.assert_allclose(got, axis_contraction(values, mat, axis), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("layout", ["c", "fortran", "strided"])
def test_apply_matrix_on_axis_0_owns_its_result(layout):
    # the c_s post-selection mix: a distribution built on it needs no copy
    rng = np.random.default_rng(4)
    values = rng.random((6, 2, 5, 3))
    mat = rng.random((4, 6))
    got = apply_matrix(values if layout == "c" else laid_out(values, layout), mat, 0)
    assert got.flags.c_contiguous and got.flags.owndata
    np.testing.assert_allclose(got, np.tensordot(mat, values, axes=(1, 0)),
                               rtol=1e-14, atol=0.0)
    assert JointDistribution(got, AXIS_ORDER).values is got


def laid_out(values, layout):
    """The same table in Fortran order or as a strided view."""
    if layout == "fortran":
        return np.asfortranarray(values)
    # every other cell of a table twice as long on each axis
    big = np.zeros(tuple(2 * n for n in values.shape))
    view = big[tuple(slice(None, None, 2) for _ in values.shape)]
    view[...] = values
    return view


@pytest.mark.parametrize("shape", [(7,), (5, 3), (4, 6, 3), (6, 2, 5, 3)])
@pytest.mark.parametrize("rows", ["mixed", "collapse"])
@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_contract_reads_any_layout_with_either_matrix_order(shape, rows, layout):
    rng = np.random.default_rng(len(shape))
    values = rng.random(shape)
    mats = rectangular_mats(rng, shape, rows)
    loop = loop_contraction(values, mats)
    # C-ordered matrices and Fortran-ordered ones (the EM passes those)
    for ms in (mats, [np.asfortranarray(m) for m in mats]):
        got = contract(laid_out(values, layout), ms)
        assert got.flags.c_contiguous and got.flags.owndata
        np.testing.assert_allclose(got, loop, rtol=1e-14, atol=0.0)


# (table shape, rows of each axis's matrix): the batched steps write cells
# on both sides of SPLIT_CELLS, a trailing None step (a copy) included
SPLIT_CASES = [((10, 90), (6000, 100)), ((10, 90), (6000, 80)),
               ((40, 120, 110), (40, 100, 120)), ((20, 30, 30, 30), (20, 25, 30, 32))]


def split_case(case, seed):
    shape, rows = case
    rng = np.random.default_rng(seed)
    return rng.random(shape), [rng.random((r, n)) for r, n in zip(rows, shape)]


@pytest.fixture
def workers(monkeypatch):
    """``workers(n)`` forces the worker count to n and drops the pool, so the
    next split makes one of n - 1 threads. The pools made in the test are
    shut down after it, and the process's own count and pool come back."""
    def drop_pool():
        if fock._pool is not None:
            fock._pool.shutdown()
        fock._pool = None

    def force(count):
        drop_pool()
        monkeypatch.setattr(fock, "_workers", count)

    monkeypatch.setattr(fock, "_pool", None)
    yield force
    drop_pool()


@pytest.mark.parametrize("case", SPLIT_CASES)
@pytest.mark.parametrize("layout", ["c", "fortran"])
def test_contract_has_the_same_bits_for_any_worker_count(monkeypatch, workers, case, layout):
    values, mats = split_case(case, len(case[0]))
    if layout == "fortran":
        values = np.asfortranarray(values)
    steps = []
    step = fock._slices_step

    def spy(mat, columns, out, lo, hi):
        steps.append((out.size, out.shape[0], hi - lo))
        step(mat, columns, out, lo, hi)

    monkeypatch.setattr(fock, "_slices_step", spy)
    for picked in (mats, [None, *mats[1:]], [*mats[:-1], None]):
        got = {}
        for count in (1, 2, 3):
            workers(count)
            steps.clear()
            got[count] = contract(values, picked)
            for cells, c0, share in steps:
                if count > 1 and cells >= SPLIT_CELLS:
                    assert share in (c0 // count, -(-c0 // count))
                else:
                    assert share == c0
        np.testing.assert_array_equal(got[2], got[1])
        np.testing.assert_array_equal(got[3], got[1])
        np.testing.assert_allclose(got[1], loop_contraction(values, picked),
                                   rtol=1e-14, atol=0.0)


def test_split_cases_write_steps_on_both_sides_of_the_floor():
    sizes = set()
    for shape, rows in SPLIT_CASES:
        c0, rest = rows[0], list(shape[1:])
        for a in reversed(range(1, len(shape))):
            rest[a - 1] = rows[a]
            sizes.add(c0 * math.prod(rest) >= SPLIT_CELLS)
    assert sizes == {False, True}


@pytest.mark.parametrize("rows", [65, 130, 401])
@pytest.mark.parametrize("layout", ["c", "fortran"])
def test_leading_gemm_blocks_have_the_same_bits_for_any_worker_count(workers, rows, layout):
    # a long lead is one call; the c_0 slices it writes are then shared out
    # in blocks, one per worker, by the trailing step
    rng = np.random.default_rng(rows)
    values, mat = rng.random((21, 90, 90)), rng.random((rows, 21))
    trailing = rng.random((100, 90))
    if layout == "fortran":
        values, mat = np.asfortranarray(values), np.asfortranarray(mat)
    assert rows * 90 * 90 >= SPLIT_CELLS
    for mats in ([mat, None, None], [mat, None, trailing]):
        got = {}
        for count in (1, 2, 3):
            workers(count)
            got[count] = contract(values, mats)
        np.testing.assert_array_equal(got[2], got[1])
        np.testing.assert_array_equal(got[3], got[1])
        np.testing.assert_allclose(got[1], loop_contraction(values, mats),
                                   rtol=1e-14, atol=0.0)


def test_the_leading_gemm_stays_one_call_above_the_floor(monkeypatch, workers):
    # leads of 2 to 401 rows: one np.matmul on all rows, read from its out=,
    # with the bits of the bare GEMM. Cut into row blocks, a lead would read
    # other bits: one-row blocks take another BLAS kernel
    rng = np.random.default_rng(30)
    calls, matmul = [], np.matmul

    def spy(a, b, out):
        calls.append(out.shape)
        return matmul(a, b, out=out)

    monkeypatch.setattr(np, "matmul", spy)
    for rows, shape in ((2, (4, 300, 900)), (65, (21, 100, 100)), (130, (21, 100, 100)),
                        (401, (21, 100, 100))):
        values, mat = rng.random(shape), rng.random((rows, shape[0]))
        gemm = (mat @ values.reshape(shape[0], -1)).reshape(rows, *shape[1:])
        assert gemm.size >= SPLIT_CELLS
        for count in (1, 2, 3):
            workers(count)
            calls.clear()
            got = contract(values, [mat, None, None])
            assert calls == [(rows, math.prod(shape[1:]))]
            np.testing.assert_array_equal(got, gemm)


def test_the_400_point_w_grid_has_the_bits_of_one_gemm(model4, workers):
    # the W synthesis is one contraction of the table with its kernels; its
    # last step writes the 512 MB grid in c_0 slices, shared among the
    # workers. Grids are compared by digest and dropped before the next is
    # made, so that two never coexist
    d = condition(model4, "s", 10)
    digests = {}
    for count in (1, 2, 3):
        workers(count)
        q = quasi_distribution_W(d, 0.0, (1.0, 1.0, 1.0))
        assert q.values.shape == (400, 400, 400)
        kernels = quasi_kernels(q, d)
        digests[count] = hashlib.sha256(q.values.data).digest()
        del q
    grid = contract(d.values, kernels)
    assert digests == dict.fromkeys((1, 2, 3), hashlib.sha256(grid.data).digest())


def test_contract_returns_inside_every_pool_thread(workers):
    # each pool thread's own split finds no idle thread: it runs its shares itself
    workers(3)
    values, mats = split_case(SPLIT_CASES[-1], 4)
    want = contract(values, mats)
    pool = fock._executor()
    futures = [pool.submit(contract, values, mats) for _ in range(2)]
    for future in futures:
        np.testing.assert_array_equal(future.result(timeout=60), want)


def test_the_pool_is_made_once_with_a_thread_per_other_worker(workers):
    # the first split has two c_0 slices, so two shares; a later one has 20
    # and takes three: the pool the first made serves both
    workers(3)
    rng = np.random.default_rng(31)
    values = rng.random((20, 30, 30, 30))
    contract(values, [rng.random((2, 20)), None, None, rng.random((300, 30))])
    pool = fock._pool
    assert pool._max_workers == 2
    contract(*split_case(SPLIT_CASES[-1], 4))
    assert fock._pool is pool


def test_concurrent_contracts_share_the_pool(workers):
    # more calling threads than CPUs, switching often: every one gets the bits
    workers(3)
    values, mats = split_case(SPLIT_CASES[-1], 4)
    want = contract(values, mats)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as callers:
            futures = [callers.submit(contract, values, mats) for _ in range(8)]
            got = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for g in got:
        np.testing.assert_array_equal(g, want)


def _exit_on_bits(values, mats, want):
    raise SystemExit(0 if np.array_equal(contract(values, mats), want) else 1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_contract_returns_in_a_fork_started_child(workers):
    workers(2)
    values, mats = split_case(SPLIT_CASES[-1], 4)
    want = contract(values, mats)  # the pool and its thread exist at the fork
    child = multiprocessing.get_context("fork").Process(target=_exit_on_bits,
                                                        args=(values, mats, want))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads, Python >= 3.12
        child.start()
    child.join(timeout=60)
    alive = child.is_alive()
    if alive:
        child.kill()
        child.join()
    assert not alive and child.exitcode == 0


def pinned_worker_count(monkeypatch, workers, blas, env):
    """_worker_count on 4 CPUs, with numpy's build record naming ``blas``
    (None: no BLAS entry) and only ``env`` of the BLAS variables set."""
    record = {} if blas is None else {"blas": {"name": blas}}
    monkeypatch.setattr(np.__config__, "CONFIG", {"Build Dependencies": record})
    for var in fock.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    workers(None)
    return fock._worker_count()


@pytest.mark.parametrize("env, count", [
    ({}, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 4),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, 4),
    ({"OMP_NUM_THREADS": "2"}, 2),
    ({"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "3"}, 1),
    ({"OPENBLAS_NUM_THREADS": "8"}, 1),
    ({"OPENBLAS_NUM_THREADS": "0"}, 1),
    ({"OMP_NUM_THREADS": "4,2"}, 1),
    ({"MKL_NUM_THREADS": "1"}, 1),  # OpenBLAS does not read it
])
def test_workers_are_the_cpus_over_the_pinned_blas_threads(monkeypatch, workers, env, count):
    assert pinned_worker_count(monkeypatch, workers, "scipy-openblas", env) == count


@pytest.mark.parametrize("blas, env, count", [
    ("mkl-sdl", {"MKL_NUM_THREADS": "1"}, 4),
    ("mkl-sdl", {"OPENBLAS_NUM_THREADS": "1"}, 1),
    ("mkl-sdl", {"OMP_NUM_THREADS": "2"}, 2),
    # a BLAS the rule does not know, or none recorded: any variable pins it
    ("blis", {"MKL_NUM_THREADS": "1"}, 4),
    (None, {"MKL_NUM_THREADS": "2"}, 2),
])
def test_blas_counts_as_pinned_by_the_variables_its_vendor_reads(monkeypatch, workers,
                                                                 blas, env, count):
    assert pinned_worker_count(monkeypatch, workers, blas, env) == count


def test_contract_reads_strided_input_and_checks_rank():
    rng = np.random.default_rng(9)
    values = rng.random((4, 5, 6)).transpose(2, 0, 1)
    mats = [rng.random((3, n)) for n in values.shape]
    loop = loop_contraction(values, mats)
    np.testing.assert_allclose(contract(values, mats), loop, rtol=1e-14, atol=0.0)
    with pytest.raises(DataError):
        contract(values, mats[:2])


def test_distribution_on_a_view_keeps_its_values():
    base = np.full((2, 4), 0.25)
    d = JointDistribution(base[0], ("i1",), normalized=True)
    base[0] = [1, -5, 0, 0]
    assert d.total() == 1.0
    np.testing.assert_array_equal(d.values, [0.25] * 4)


def test_distribution_takes_an_owning_array_without_a_copy():
    vals = contract(np.full((3, 4), 1.0 / 12), [np.eye(3), np.eye(4)])
    assert JointDistribution(vals, ("i1", "i2"), normalized=True).values is vals
