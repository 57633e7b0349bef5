"""File formats and the command-line pipelines."""
import csv
import hashlib
import inspect
import json
import math
import re
import tracemalloc
import types
from io import BytesIO

import hypothesis
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import strategies as st

import tripletwb
from tripletwb import emrec, io, nonclassical, postselect
from tripletwb.cli import main
from tripletwb.detector import PAPER_TABLE_1, detection_matrix
from tripletwb.errors import DataError
from tripletwb.fit import fit
from tripletwb.fock import AXIS_ORDER, Histogram, JointDistribution, condition
from tripletwb.gaussian import PAPER_TABLE_2
from tripletwb.io import FRAME_HEADER

from tests.oracles import csv_text_loop, plane_cut_csv_loop, write_cells_loop

FRAME_TEXT = """frame_id,c_s,c_i1,c_i2,c_i3
0,2,1,0,1
1,0,0,0,0
2,3,1,1,1
3,2,1,0,1
"""


def thermal_vec(n, B):
    p = (B / (1.0 + B)) ** np.arange(n + 1) / (1.0 + B)
    return p / p.sum()


def product_dist(Bs, n):
    vals = thermal_vec(n, Bs[0])
    for B in Bs[1:]:
        vals = np.multiply.outer(vals, thermal_vec(n, B))
    labels = ("s", "i1", "i2", "i3")[: len(Bs)] if len(Bs) == 4 else \
        ("i1", "i2", "i3")[: len(Bs)]
    return JointDistribution(vals / vals.sum(), labels, normalized=True)


# ------------------------------------------------------------------ io

def test_ingest_frames(tmp_path):
    p = tmp_path / "frames.csv"
    p.write_text(FRAME_TEXT)
    h = io.ingest_frames(p, PAPER_TABLE_1)
    assert h.trials == 4
    assert h.counts[2, 1, 0, 1] == 2
    assert h.counts[0, 0, 0, 0] == 1
    assert h.counts[3, 1, 1, 1] == 1


def test_ingest_frames_rejects_duplicates(tmp_path):
    p = tmp_path / "frames.csv"
    p.write_text(FRAME_TEXT + "2,1,1,1,1\n")
    with pytest.raises(DataError, match="duplicate frame_id"):
        io.ingest_frames(p, PAPER_TABLE_1)


def test_ingest_frames_rejects_malformed_rows(tmp_path):
    p = tmp_path / "frames.csv"
    p.write_text("frame_id,c_s,c_i1,c_i2,c_i3\n0,2,x,0,1\n")
    with pytest.raises(DataError, match=":2:"):
        io.ingest_frames(p, PAPER_TABLE_1)
    p.write_text("frame_id,c_s,c_i1,c_i2,c_i3\n0,2,1,0\n")
    with pytest.raises(DataError, match="expected 5 fields"):
        io.ingest_frames(p, PAPER_TABLE_1)
    p.write_text("bad,header\n")
    with pytest.raises(DataError, match="expected header"):
        io.ingest_frames(p, PAPER_TABLE_1)
    p.write_text("frame_id,c_s,c_i1,c_i2,c_i3\n")
    with pytest.raises(DataError, match="no frames"):
        io.ingest_frames(p, PAPER_TABLE_1)


def test_ingest_frames_enforces_pixel_budget(tmp_path):
    p = tmp_path / "frames.csv"
    pixels = PAPER_TABLE_1["i1"].pixels
    p.write_text(f"frame_id,c_s,c_i1,c_i2,c_i3\n0,1,{pixels + 1},0,0\n")
    with pytest.raises(DataError, match="exceeds"):
        io.ingest_frames(p, PAPER_TABLE_1)


@pytest.mark.parametrize("row, match", [
    ("-1,2,1,0,1", r":3: negative cell index \(-1,2,1,0,1\)"),
    ("1,2,-1,0,1", r":3: negative cell index"),
    ("1,2,1,0,-1", r":3: count is not a nonnegative integer"),
    ("1,2,1.5,0,1", r":3: cell index is not an integer"),
    # read as doubles, ids above 2**53 would collide
    ("9007199254740993,2,1,0,1", r":3: cell index is not an integer below 2\*\*53"),
])
def test_ingest_frames_rejects_negative_or_fractional_fields(tmp_path, row, match):
    p = tmp_path / "frames.csv"
    p.write_text(f"frame_id,c_s,c_i1,c_i2,c_i3\n0,0,0,0,0\n{row}\n")
    with pytest.raises(DataError, match=match):
        io.ingest_frames(p, PAPER_TABLE_1)


def test_ingest_frames_accepts_integral_floats(tmp_path):
    p = tmp_path / "frames.csv"
    p.write_text("frame_id,c_s,c_i1,c_i2,c_i3\n0,2.0,1,0,1\n1.0,2,1,0,1e0\n")
    h = io.ingest_frames(p, PAPER_TABLE_1)
    assert h.trials == 2
    assert h.counts[2, 1, 0, 1] == 2


def test_histogram_round_trip(tmp_path):
    counts = np.zeros((4, 3, 3, 3), dtype=np.int64)
    counts[0, 0, 0, 0] = 5
    counts[3, 2, 1, 0] = 2
    h = Histogram(counts, 7)
    path = tmp_path / "hist.csv"
    io.save_histogram(h, path, PAPER_TABLE_1)
    back = io.load_histogram(path)
    assert back.trials == 7
    assert back.axis_labels == h.axis_labels
    np.testing.assert_array_equal(back.counts, counts)
    assert io.recorded_detectors(path) == PAPER_TABLE_1


def test_distribution_round_trip(tmp_path):
    d = product_dist((0.4, 0.2, 0.3), 5)
    path = tmp_path / "dist.csv"
    io.save_distribution(d, path)
    back = io.load_distribution(path)
    assert back.normalized
    assert back.axis_labels == d.axis_labels
    np.testing.assert_array_equal(back.values, d.values)
    assert "detectors" not in json.loads((tmp_path / "dist.csv.meta.json").read_text())
    io.save_distribution(d, path, PAPER_TABLE_1)
    assert io.recorded_detectors(path) == PAPER_TABLE_1


def awkward_table():
    """Unnormalized 3D table of 17-digit values, subnormals, zeros and a -0.0."""
    rng = np.random.default_rng(21)
    values = rng.random((4, 5, 3)) * 10.0 ** rng.integers(-300, 3, (4, 5, 3))
    values[rng.random(values.shape) < 0.2] = 0.0
    values[0, 0, :3] = [5e-324, 2.2250738585072e-309, 1.0 / 3.0]
    values[3, 4, 2] = -0.0
    return JointDistribution(values, ("i1", "i2", "i3"))


@pytest.fixture
def csv_reads(monkeypatch):
    """Paths the CSV route parsed since the test began."""
    paths = []
    read_cells = io._read_cells

    def spy(path, *args, **kwargs):
        paths.append(path)
        return read_cells(path, *args, **kwargs)
    monkeypatch.setattr(io, "_read_cells", spy)
    return paths


def bits(values):
    return np.ascontiguousarray(values).view(np.int64)


def test_payload_and_csv_routes_give_the_same_bits(tmp_path, csv_reads):
    d = awkward_table()
    path = tmp_path / "dist.csv"
    io.save_distribution(d, path)
    meta = json.loads((tmp_path / "dist.csv.meta.json").read_text())
    assert sorted(meta["payload"]) == ["csv_sha256", "npy_sha256"]
    via_payload = io.load_distribution(path)
    assert csv_reads == []
    (tmp_path / "dist.csv.npy").unlink()
    via_csv = io.load_distribution(path)
    assert csv_reads == [path]
    assert via_payload.axis_labels == via_csv.axis_labels == d.axis_labels
    np.testing.assert_array_equal(bits(via_payload.values), bits(via_csv.values))
    np.testing.assert_array_equal(bits(via_csv.values), bits(d.values + 0.0))
    assert bits(via_csv.values)[3, 4, 2] == 0  # -0.0 reads as +0.0 on both routes


@pytest.mark.parametrize("edit", ["value", "row"])
def test_hand_edit_of_a_saved_csv_wins(tmp_path, csv_reads, edit):
    path = tmp_path / "dist.csv"
    io.save_distribution(awkward_table(), path)
    lines = path.read_text().splitlines(keepends=True)
    cell = tuple(int(x) for x in lines[1].split(",")[:-1])
    lines[1] = ",".join(map(str, cell)) + ",0.25\r\n" if edit == "value" else ""
    path.write_text("".join(lines))
    back = io.load_distribution(path)
    assert csv_reads == [path]
    assert back.values[cell] == (0.25 if edit == "value" else 0.0)


def _rewrite_payload(path, values):
    """Replace a saved table's .npy and pin the sidecar's digest to it."""
    np.save(io._payload(path), values, allow_pickle=False)
    side = io._sidecar(path)
    meta = json.loads(side.read_text())
    meta["payload"]["npy_sha256"] = io._sha256(io._payload(path))
    side.write_text(json.dumps(meta))


@pytest.mark.parametrize("stale", ["deleted", "truncated", "swapped", "no record",
                                   "float32", "wrong shape"])
def test_stale_payload_falls_back_to_the_csv(tmp_path, csv_reads, stale):
    d = awkward_table()
    path = tmp_path / "dist.csv"
    io.save_distribution(d, path)
    npy, side = tmp_path / "dist.csv.npy", tmp_path / "dist.csv.meta.json"
    if stale == "deleted":
        npy.unlink()
    elif stale == "truncated":
        npy.write_bytes(npy.read_bytes()[:-8])
    elif stale == "swapped":
        io.save_distribution(JointDistribution(d.values[::-1].copy(), d.axis_labels),
                             tmp_path / "other.csv")
        npy.write_bytes((tmp_path / "other.csv.npy").read_bytes())
    elif stale == "no record":
        meta = json.loads(side.read_text())
        del meta["payload"]
        side.write_text(json.dumps(meta))
    elif stale == "float32":
        _rewrite_payload(path, d.values.astype(np.float32))
    else:
        _rewrite_payload(path, d.values[:, :, :2])
    back = io.load_distribution(path)
    assert csv_reads == [path]
    np.testing.assert_array_equal(bits(back.values), bits(d.values + 0.0))


def test_non_finite_table_fails_on_the_csv_route(tmp_path, csv_reads):
    values = awkward_table().values.copy()
    values[1, 1, 1] = np.inf
    path = tmp_path / "dist.csv"
    io.save_distribution(JointDistribution(values, ("i1", "i2", "i3")), path)
    with pytest.raises(DataError, match=r"dist\.csv:\d+: non-finite value"):
        io.load_distribution(path)
    assert csv_reads == [path]


def test_malformed_row_in_a_saved_csv_keeps_its_line(tmp_path):
    path = tmp_path / "dist.csv"
    io.save_distribution(awkward_table(), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([*lines[:3], "0,0,x,1", *lines[3:]]) + "\n")
    with pytest.raises(DataError, match=r":4: could not convert string to float: 'x'") as exc:
        io.load_distribution(path)
    assert str(path) in str(exc.value)


def test_table_writers_match_csv_module_loop(tmp_path):
    # more rows than one write block, values of every magnitude and sign
    rng = np.random.default_rng(8)
    values = rng.normal(size=(50, 40, 40)) * 10.0 ** rng.integers(-300, 300, (50, 40, 40))
    values[rng.random(values.shape) < 0.1] = 0.0
    values[0, :4, 0] = [np.inf, -np.inf, 5e-324, 0.5]
    signed = types.SimpleNamespace(values=values, axis_labels=("i1", "i2", "i3"),
                                   cutoffs=(49, 39, 39), normalized=False)
    io.save_distribution(signed, tmp_path / "signed.csv")
    write_cells_loop(tmp_path / "loop.csv", ["n_i1", "n_i2", "n_i3", "value"],
                     values, np.abs(values) > 0, "{:.17g}".format)
    assert (tmp_path / "signed.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()
    counts = rng.integers(0, 3, size=(20, 13, 31, 17))
    counts[0, 0, 0, 0] = 10**12
    h = Histogram(counts, int(counts.sum()))
    io.save_histogram(h, tmp_path / "hist.csv", PAPER_TABLE_1)
    write_cells_loop(tmp_path / "loop.csv", ["c_s", "c_i1", "c_i2", "c_i3", "count"],
                     counts, counts > 0, int)
    assert (tmp_path / "hist.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()
    # frames: more rows than one write block, a count beyond 32 bits
    frames = rng.integers(0, 40, size=(10_000, 4))
    frames[7, 2] = 10**12
    io.save_frames(frames, tmp_path / "frames.csv")
    with (tmp_path / "loop.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(io.FRAME_HEADER)
        for i, row in enumerate(frames):
            writer.writerow([i, *[int(x) for x in row]])
    assert (tmp_path / "frames.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()


#: doubles at and beside every power of ten, whose 17 digits are all nines
#: or carry into the exponent (10.0**-243 is below 1e-243 and prints so)
POWERS_OF_TEN = [float(x) for k in range(-323, 309)
                 for x in (10.0**k, np.nextafter(10.0**k, 0.0), np.nextafter(10.0**k, np.inf))]
#: exact ties and near-ties of the 17th digit, which the renderer hands to
#: '%.17g' (a fraction within its margin of one half), and neighbours of them
NEAR_TIES = [1.78813934326171875e-07, 1234567890123456.25, 182880069120204.62,
             85372427961856.44, 0.5**60, 3 * 0.5**60, 9.9999999999999995e-05,
             *np.nextafter(1.78813934326171875e-07, [0.0, 1.0]).tolist()]


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(values=st.lists(st.floats(), min_size=1, max_size=64))
@hypothesis.example(values=POWERS_OF_TEN)
@hypothesis.example(values=[s * 2.0**k for k in range(-1074, 1024) for s in (1.0, -1.0)])
@hypothesis.example(values=NEAR_TIES)
@hypothesis.example(values=[0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                            2.2250738585072014e-308, -2.2250738585072014e-308,
                            1.7976931348623157e308, 1e-270, 1e270, 1e16, 1e17, 0.0001, 1e-05])
def test_rendered_values_are_their_17g_text(values):
    rows = io._render_rows([np.arange(len(values)), np.array(values)])
    assert rows == "".join("%d,%.17g\r\n" % row for row in enumerate(values)).encode()


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(columns=st.lists(st.lists(st.integers(-2**63, 2**63 - 1), min_size=3, max_size=3),
                                   min_size=1, max_size=64))
@hypothesis.example(columns=[[0, 10**12, 2**63 - 1], [-2**63, -1, 9], [10, 9999, 10_000],
                             [-10_000, 99_999_999, 100_000_000]])
def test_rendered_integers_are_their_d_text(columns):
    rows = io._render_rows([np.array(c, dtype=np.int64) for c in zip(*columns)])
    assert rows == "".join("%d,%d,%d\r\n" % tuple(c) for c in columns).encode()


def test_frame_writer_spans_row_blocks(tmp_path):
    # two whole blocks and a part, fields of 1 to 13 digits
    rng = np.random.default_rng(9)
    frames = rng.integers(0, 10 ** rng.integers(1, 14, size=(2 * io._BLOCK_ROWS + 5, 4)))
    io.save_frames(frames, tmp_path / "frames.csv")
    want = "".join("%d,%d,%d,%d,%d\r\n" % (i, *row) for i, row in enumerate(frames.tolist()))
    assert (tmp_path / "frames.csv").read_bytes() == ("frame_id,c_s,c_i1,c_i2,c_i3\r\n" + want).encode()


TABLE_FORMATS = {
    "distribution": (io.load_distribution, "n_s,n_i1,n_i2,n_i3,value",
                     {"cutoffs": [2, 2, 2, 2], "axis_labels": list(AXIS_ORDER),
                      "normalized": False}),
    "histogram": (io.load_histogram, "c_s,c_i1,c_i2,c_i3,count",
                  {"cutoffs": [2, 2, 2, 2], "axis_labels": list(AXIS_ORDER),
                   "trials": 2}),
}


@pytest.mark.parametrize("kind", sorted(TABLE_FORMATS))
@pytest.mark.parametrize("header, rows, match", [
    (None, ["-1,0,0,0,1"], r":3: negative cell index \(-1,0,0,0,1\)"),
    (None, ["0,3,0,0,1"], r":3: cell outside cutoffs \[2, 2, 2, 2\]"),
    (None, ["0,0,0,1"], r":3: expected 5 fields, got 4"),
    (None, ["0,0,x,0,1"], r":3: could not convert string to float: 'x'"),
    (None, ["0,0.5,0,0,1"], r":3: cell index is not an integer"),
    ("a,b,c,d,e", ["1,1,1,1,1"], r":1: expected header"),
    # a loader that kept the last row (a table) or added both (a histogram)
    # would pass either sum check on this file
    (None, ["1,0,0,0,0", "0,0,0,0,1"], r":4: repeated cell \(0,0,0,0,1\)"),
])
def test_table_loaders_reject_malformed_rows(tmp_path, kind, header, rows, match):
    loader, good_header, meta = TABLE_FORMATS[kind]
    path = tmp_path / "table.csv"
    path.write_text("\n".join([header or good_header, "0,0,0,0,1", *rows]) + "\n")
    (tmp_path / "table.csv.meta.json").write_text(json.dumps(meta))
    with pytest.raises(DataError, match=match) as exc:
        loader(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("kind", sorted(TABLE_FORMATS))
def test_table_loaders_reject_wrong_rank(tmp_path, kind):
    loader, header, meta = TABLE_FORMATS[kind]
    path = tmp_path / "table.csv"
    path.write_text(header + "\n\n0,0,0,1\n1,1,1,1\n")  # 3 indices, 4 axes
    (tmp_path / "table.csv.meta.json").write_text(json.dumps(meta))
    with pytest.raises(DataError, match=r":3: wrong cell rank"):
        loader(path)


def test_histogram_loader_rejects_fractional_count(tmp_path):
    loader, header, meta = TABLE_FORMATS["histogram"]
    path = tmp_path / "table.csv"
    path.write_text(header + "\n0,0,0,0,1\n1,1,1,1,0.5\n")
    (tmp_path / "table.csv.meta.json").write_text(json.dumps(meta))
    with pytest.raises(DataError, match=r":3: count is not a nonnegative integer \(1,1,1,1,0.5\)"):
        loader(path)


def test_write_manifest(tmp_path):
    out = tmp_path / "artifact.csv"
    out.write_text("x\n")
    io.write_manifest(out, "simulate", {"frames": 10, "seed": 1})
    manifest = json.loads((tmp_path / "artifact.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["settings"] == {"frames": 10, "seed": 1}
    assert manifest["version"] == tripletwb.__version__


# ----------------------------------------------------------------- cli

@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def sim_hist(runner, workdir):
    out = workdir / "sim_hist.csv"
    res = runner.invoke(main, [
        "simulate", "--frames", "3000", "--seed", "11",
        "--out", str(out), "--frames-out", str(workdir / "frames.csv")])
    assert res.exit_code == 0, res.output
    return out


@pytest.fixture(scope="module")
def dist4(workdir):
    path = workdir / "dist4.csv"
    io.save_distribution(product_dist((0.5, 0.3, 0.2, 0.25), 8), path, PAPER_TABLE_1)
    return path


@pytest.fixture(scope="module")
def dist3_poisson(workdir):
    from scipy.stats import poisson
    vecs = [poisson.pmf(np.arange(25), 2.0) for _ in range(3)]
    vals = np.einsum("i,j,k->ijk", *vecs)
    path = workdir / "dist3_poisson.csv"
    io.save_distribution(JointDistribution(
        vals / vals.sum(), ("i1", "i2", "i3"), normalized=True), path)
    return path


@pytest.fixture(scope="module")
def dist3(workdir):
    path = workdir / "dist3.csv"
    io.save_distribution(product_dist((0.3, 0.2, 0.25), 8), path)
    return path


def test_cli_simulate_writes_histogram_and_manifest(sim_hist, workdir):
    h = io.load_histogram(sim_hist)
    assert h.trials > 0
    manifest = json.loads(
        (workdir / "sim_hist.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert (workdir / "frames.csv").exists()


def test_cli_ingest(runner, workdir, sim_hist):
    out = workdir / "ingested.csv"
    res = runner.invoke(main, [
        "ingest", "--frames", str(workdir / "frames.csv"), "--out", str(out)])
    assert res.exit_code == 0, res.output
    h = io.load_histogram(out)
    assert h.trials == 3000
    # the frames simulate wrote bin to simulate's own histogram; frames it
    # dropped beyond its click box lie outside the shared cells
    sim = io.load_histogram(sim_hist).counts
    shared = tuple(slice(0, min(a, b)) for a, b in zip(sim.shape, h.counts.shape))
    assert sim[shared].sum() == sim.sum()
    np.testing.assert_array_equal(h.counts[shared], sim[shared])


def test_cli_simulate_keeps_its_stream(runner, tmp_path):
    # digests of the files this command wrote before the samplers drew in
    # chunks and wrote the clicks over the photon table
    res = runner.invoke(main, [
        "simulate", "--frames", "20000", "--seed", "7", "--out", str(tmp_path / "hist.csv"),
        "--frames-out", str(tmp_path / "frames.csv")])
    assert res.exit_code == 0, res.output
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("hist.csv", "frames.csv")}
    assert digests == {
        "hist.csv": "dcdbb870d86a88e161c61d38995a4d5a0793ec31abe2152d682bcec3dea76ef8",
        "frames.csv": "8d63c9951700df427f1f216e80428a29695f4247eb760f046fac43847fecd9a4"}


def test_cli_simulate_peak_memory(runner, tmp_path):
    # one (frames x 4) int64 table of 32 MB, written over by the clicks,
    # plus frame vectors and chunks; the per-component draws and a separate
    # click table needed about 97 MB
    tracemalloc.start()
    try:
        res = runner.invoke(main, ["simulate", "--frames", "1000000", "--seed", "7",
                                   "--out", str(tmp_path / "hist.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 0, res.output
    assert peak <= 60e6, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("tail_tol, match", [
    (None, r"10 of 10 simulated frames beyond the click box 0..\(42, 30, 30, 30\)"),
    ("1", r"all 10 frames lie outside the click box 0..\(42, 30, 30, 30\)")])
def test_cli_simulate_with_every_frame_outside_the_box_names_it(runner, tmp_path,
                                                                 tail_tol, match):
    params = PAPER_TABLE_2.to_dict()
    params["noise_s"] = {"M": 1, "B": 1e7}
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    res = runner.invoke(main, ["simulate", "--params-file", str(path), "--frames", "10",
                               "--seed", "1", "--out", str(tmp_path / "hist.csv")]
                        + (["--tail-tol", tail_tol] if tail_tol else []))
    assert res.exit_code == 2, res.output
    assert re.search(match, res.output), res.output
    assert "empty histogram" not in res.output and not (tmp_path / "hist.csv").exists()


def test_cli_ingest_duplicate_frames_exits_2(runner, workdir):
    bad = workdir / "bad_frames.csv"
    bad.write_text(FRAME_TEXT + "2,1,1,1,1\n")
    res = runner.invoke(main, [
        "ingest", "--frames", str(bad), "--out", str(workdir / "nope.csv")])
    assert res.exit_code == 2


@pytest.mark.parametrize("args, code, message", [
    # one frame near the 1512-pixel limit on every idler: a 4 x 1513^3 box
    (["ingest", "--frames", "{frames}"], 2,
     r"click box 0..\(3, 1512, 1512, 1512\) has 13854050788 cells"),
    (["simulate", "--frames", "10", "--seed", "1", "--signal-cutoff", "5000",
      "--idler-cutoff", "2000"], 2, r"click box 0..\(4536, 1512, 1512, 1512\) has"),
    # the 2 x 301^3 box of one frame 1,1,300,300,300 stays accepted
    (["ingest", "--frames", "{small}"], 0, r"trials 2"),
], ids=["ingest-refused", "simulate-refused", "ingest-accepted"])
def test_cli_bounds_the_histogram_box(runner, tmp_path, args, code, message):
    header = FRAME_TEXT.splitlines()[0]
    paths = {"frames": tmp_path / "frames.csv", "small": tmp_path / "small.csv"}
    paths["frames"].write_text(f"{header}\n0,3,1512,1512,1512\n")
    paths["small"].write_text(f"{header}\n0,0,0,0,0\n1,1,300,300,300\n")
    res = runner.invoke(main, [a.format(**paths) for a in args]
                        + ["--out", str(tmp_path / "hist.csv")])
    assert res.exit_code == code, res.output
    assert re.search(message, res.output), res.output


def test_cli_reconstruct_conditional(runner, workdir, sim_hist):
    out = workdir / "rec3.csv"
    res = runner.invoke(main, [
        "reconstruct", "--histogram", str(sim_hist), "--out", str(out),
        "--conditional", "2", "--idler-cutoff", "12",
        "--max-iterations", "200", "--tol", "1e-7",
        "--trace-out", str(workdir / "trace.csv")])
    assert res.exit_code == 0, res.output
    d = io.load_distribution(out)
    assert d.values.ndim == 3
    assert d.values.sum() == pytest.approx(1.0, abs=1e-6)
    trace = (workdir / "trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,loglik,residual"
    # the likelihood stop counts the frames of the c_s = 2 slice
    settings = json.loads((workdir / "rec3.csv.manifest.json").read_text())["settings"]
    assert settings["detectors"] == preset_detector_entries()
    assert io.recorded_detectors(out) == PAPER_TABLE_1
    assert settings["trials"] == int(io.load_histogram(sim_hist).counts[2].sum())
    assert settings["stop_gain_nats"] == emrec.STOP_GAIN_NATS
    assert settings["stop"] in ("residual", "likelihood", "budget")
    assert settings["converged"] == (settings["stop"] != "budget")
    loglik = [float(row.split(",")[1]) for row in trace[1:]]
    assert len(loglik) == settings["iterations"]
    assert settings["last_gain_nats"] == pytest.approx(
        settings["trials"] * (loglik[-1] - loglik[-2]), rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("where", ["past the click box", "empty slice"])
def test_cli_reconstruct_conditional_without_frames_exits_2(runner, workdir, sim_hist, where):
    counts = io.load_histogram(sim_hist).counts
    c_s = (counts.shape[0] if where == "past the click box"
           else next(c for c in range(counts.shape[0]) if not counts[c].any()))
    out = workdir / "rec_none.csv"
    res = runner.invoke(main, ["reconstruct", "--histogram", str(sim_hist), "--out", str(out),
                               "--conditional", str(c_s)])
    assert res.exit_code == 2, res.output
    assert f"no frames at c_s={c_s}" in res.output
    assert "Traceback" not in res.output
    assert not out.exists()


def test_cli_postselect(runner, workdir, dist4):
    out = workdir / "cond.csv"
    res = runner.invoke(main, [
        "postselect", "--dist", str(dist4), "--selector", "n_s",
        "--value", "1", "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert "slice mass" in res.output
    d = io.load_distribution(out)
    assert d.values.ndim == 3
    manifest = json.loads((workdir / "cond.csv.manifest.json").read_text())
    assert manifest["settings"]["slice_mass"] > 0


def test_cli_sweep(runner, workdir, dist4):
    out = workdir / "sweep.csv"
    res = runner.invoke(main, [
        "sweep", "--source", "dist", "--input", str(dist4),
        "--selector", "n_s", "--range", "0:3", "--out", str(out)])
    assert res.exit_code == 0, res.output
    lines = out.read_text().splitlines()
    assert lines[0].startswith("selector,mean_i1")
    assert len(lines) == 5


def test_cli_outputs_do_not_depend_on_the_payload(runner, tmp_path, csv_reads):
    rng = np.random.default_rng(5)
    values = rng.random((9, 5, 4, 6))
    dist = tmp_path / "photons.csv"
    io.save_distribution(JointDistribution(values / values.sum(), AXIS_ORDER,
                                           normalized=True), dist, PAPER_TABLE_1)
    commands = [
        ["postselect", "--dist", str(dist), "--selector", "n_s", "--value", "2",
         "--out", "cond_ns.csv"],
        ["postselect", "--dist", str(dist), "--selector", "c_s", "--value", "1",
         "--out", "cond_cs.csv"],
        ["sweep", "--source", "dist", "--input", str(dist), "--selector", "c_s",
         "--out", "sweep.csv"],
    ]
    outputs = {}
    for run in ("with", "without"):
        if run == "without":
            io._payload(dist).unlink()
        out_dir = tmp_path / run
        out_dir.mkdir()
        for args in commands:
            res = runner.invoke(main, [*args[:-1], str(out_dir / args[-1])])
            assert res.exit_code == 0, res.output
        outputs[run] = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        assert csv_reads.count(dist) == (0 if run == "with" else len(commands))
    assert "cond_cs.csv.npy" in outputs["with"]
    assert outputs["with"] == outputs["without"]


def test_cli_ncc(runner, workdir, dist3):
    res = runner.invoke(main, [
        "ncc", "--dist", str(dist3), "--criterion", "cs",
        "--kind", "probability", "--no-ncd"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    # a classical thermal product never violates the criterion
    assert payload["nonclassical"] is False
    out = workdir / "ncc.json"
    res = runner.invoke(main, [
        "ncc", "--dist", str(dist3), "--criterion", "cs", "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert json.loads(out.read_text())["tau"] is not None


@pytest.fixture(scope="module")
def ideal_ns10(workdir, model4):
    """The exact idler field of the shipped model post-selected on n_s = 10."""
    path = workdir / "ideal_ns10.csv"
    io.save_distribution(condition(model4, "s", 10), path)
    return path


def test_cli_ncc_intensity_tail_tol(runner, workdir, ideal_ns10):
    # the outer shell of this field carries 4.5e-3 of the order-2 moment
    res = runner.invoke(main, [
        "ncc", "--dist", str(ideal_ns10), "--criterion", "cs", "--kind", "intensity"])
    assert res.exit_code == 2, res.output
    assert "outer shell carries" in res.output
    out = workdir / "ncc_ns10.json"
    res = runner.invoke(main, [
        "ncc", "--dist", str(ideal_ns10), "--criterion", "cs", "--kind", "intensity",
        "--tail-tol", "2e-2", "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert json.loads(out.read_text())["tau"] > 0.0
    manifest = json.loads((workdir / "ncc_ns10.json.manifest.json").read_text())
    assert manifest["settings"]["tail_tol"] == 2e-2


@pytest.mark.parametrize("tol", ["0", "-1e-3", "nan", "inf"])
def test_cli_ncc_rejects_a_bad_tail_tol(runner, workdir, dist3, tol):
    out = workdir / f"ncc_tol_{tol}.json"
    res = runner.invoke(main, [
        "ncc", "--dist", str(dist3), "--criterion", "cs", "--kind", "intensity",
        "--tail-tol", tol, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "--tail-tol must be finite and > 0" in res.output
    assert not out.exists()


def test_cli_ncd_field_and_cut(runner, workdir, dist3):
    field_out = workdir / "field.csv"
    res = runner.invoke(main, [
        "ncd-field", "--dist", str(dist3), "--criterion", "cs",
        "--box", "1,1,1", "--out", str(field_out)])
    assert res.exit_code == 0, res.output
    # a classical field: every depth is zero, and zero cells are not written
    assert field_out.read_text().splitlines() == ["n_i1,n_i2,n_i3,value"]
    np.testing.assert_array_equal(io.load_distribution(field_out).values, np.zeros((2, 2, 2)))
    cut_out = workdir / "cut.csv"
    res = runner.invoke(main, [
        "cut", "--input", str(field_out), "--kind", "diagonal",
        "--out", str(cut_out)])
    assert res.exit_code == 0, res.output
    assert cut_out.read_text().splitlines()[0] == "u,v,value"
    res = runner.invoke(main, [
        "cut", "--input", str(workdir / "dist3.csv"), "--kind", "triangular",
        "--level", "2", "--out", str(workdir / "cut2.csv")])
    assert res.exit_code == 0, res.output


@pytest.fixture(scope="module")
def model_ns6(workdir):
    """A model field post-selected at n_s = 6, whose depth lattice at box
    2,2,2 holds both zero and nonzero depths for both criteria."""
    from tripletwb.gaussian import GaussianFieldModel
    model = GaussianFieldModel(PAPER_TABLE_2, 16, (8, 8, 8), tail_tol=5e-2)
    path = workdir / "model_ns6.csv"
    io.save_distribution(condition(model.distribution(), "s", 6), path)
    return path


@pytest.mark.parametrize("criterion", ["cs", "matrix"])
def test_cli_ncd_field_saves_a_table(runner, workdir, model_ns6, criterion):
    out = workdir / f"field_{criterion}.csv"
    res = runner.invoke(main, [
        "ncd-field", "--dist", str(model_ns6), "--criterion", criterion,
        "--box", "2,2,2", "--out", str(out)])
    assert res.exit_code == 0, res.output
    want = nonclassical.ncd_field(io.load_distribution(model_ns6), criterion,
                                  (1.0, 1.0, 1.0), (2, 2, 2))
    assert np.count_nonzero(want.values == 0.0) >= 3
    assert np.count_nonzero(want.values > 0.0) >= 10
    got = io.load_distribution(out)
    assert got.axis_labels == ("i1", "i2", "i3")
    np.testing.assert_array_equal(bits(got.values), bits(want.values))
    assert json.loads((workdir / f"{out.name}.meta.json").read_text())["normalized"] is False
    settings = json.loads((workdir / f"{out.name}.manifest.json").read_text())["settings"]
    assert settings == {"dist": str(model_ns6), "criterion": criterion,
                        "criterion_family": f"{criterion}_probability",
                        "modes": [1.0, 1.0, 1.0], "box": [2, 2, 2],
                        "max_tau": want.max()}
    # the CSV route gives the same table: %.17g round-trips every depth
    (workdir / f"{out.name}.npy").unlink()
    np.testing.assert_array_equal(bits(io.load_distribution(out).values), bits(want.values))
    for args in (["--kind", "diagonal"], ["--kind", "triangular", "--level", "3"]):
        cut_out = workdir / f"field_{criterion}_cut.csv"
        res = runner.invoke(main, ["cut", "--input", str(out), *args, "--out", str(cut_out)])
        assert res.exit_code == 0, res.output
        level = int(args[-1]) if len(args) > 2 else None
        assert cut_out.read_bytes() == plane_cut_csv_loop(
            nonclassical.plane_cut(want.values, args[1], level))


#: what each command records beyond its options: the dict it returns
RECORDED = {
    "simulate": {"detectors", "dropped_frames", "params"},
    "ingest": {"detectors"},
    "fit": {"detectors"},
    "reconstruct": {"detectors", "trials", "stop_gain_nats", "iterations", "residual",
                    "stop", "last_gain_nats", "converged"},
    "postselect": {"detectors", "slice_mass"},
    "sweep": {"detectors", "stop_gain_nats", "em"},
    "ncc": {"criterion", "value", "nonclassical", "tau", "saturated", "ambiguous", "modes"},
    "ncd-field": {"criterion_family", "max_tau"},
    "quasi": {"min_value", "integral", "steps"},
    "cut": set(),
}


def non_default_options(command, workdir, sim_hist, fit_hist, dist4, dist3,
                        dist3_poisson):
    """Every option of ``command`` but --out, each set off its default, as
    arguments and as the manifest records them: keyed by the first flag
    without dashes, ``-`` as ``_``, holding the value click parsed."""
    detectors = workdir / "preset_detectors.json"
    detectors.write_text(json.dumps(preset_detector_entries()))
    params = workdir / "preset_params.json"
    params.write_text(json.dumps(PAPER_TABLE_2.to_dict()))
    options = {
        "simulate": {"params_file": str(params), "detector_file": str(detectors),
                     "frames": 500, "seed": 4,
                     "frames_out": str(workdir / "manifest_frames.csv"),
                     "signal_cutoff": 30, "idler_cutoff": 18, "tail_tol": 0.5},
        "ingest": {"frames": str(workdir / "frames.csv"), "detector_file": str(detectors)},
        "fit": {"histogram": str(fit_hist), "free_efficiencies": True, "max_evals": 3},
        "reconstruct": {"histogram": str(sim_hist), "conditional": 2, "signal_cutoff": 30,
                        "idler_cutoff": 12, "max_iterations": 50, "tol": 1e-7,
                        "trace_out": str(workdir / "manifest_trace.csv")},
        "postselect": {"dist": str(dist4), "selector": "c_s", "value": 1},
        "sweep": {"source": "histogram", "input": str(sim_hist), "selector": "c_s",
                  "range": "1:2", "idler_cutoff": 8},
        # the returned criterion name wins over the option's value
        "ncc": {"dist": str(dist3), "criterion": "matrix_intensity", "kind": "intensity",
                "modes": [2.0, 1.0, 1.0], "with_ncd": False, "tail_tol": 0.5},
        "ncd-field": {"dist": str(dist3), "criterion": "matrix", "modes": [2.0, 1.0, 1.0],
                      "box": [1, 2, 1]},
        "quasi": {"dist": str(dist3_poisson), "s": 0.5, "modes": [1.0, 1.0, 2.0],
                  "points": 150, "cut": "triangular", "level": 3.0},
        "cut": {"input": str(dist3), "kind": "triangular", "level": 2},
    }[command]
    args = {
        "ncc": ["--dist", str(dist3), "--criterion", "matrix", "--kind", "intensity",
                "--modes", "2,1,1", "--no-ncd", "--tail-tol", "0.5"],
        "ncd-field": ["--dist", str(dist3), "--criterion", "matrix", "--modes", "2,1,1",
                      "--box", "1,2,1"],
        "quasi": ["--dist", str(dist3_poisson), "--s", "0.5", "--modes", "1,1,2",
                  "--points", "150", "--cut", "triangular", "--level", "3"],
    }.get(command)
    if args is None:
        args = []
        for key, value in options.items():
            flag = "--" + key.replace("_", "-")
            args += [flag] if value is True else [flag, str(value)]
    return [command, *args], options


@pytest.mark.parametrize("command", sorted(RECORDED))
def test_cli_manifest_records_every_option(runner, workdir, sim_hist, fit_hist, dist4,
                                           dist3, dist3_poisson, command):
    args, options = non_default_options(command, workdir, sim_hist, fit_hist, dist4,
                                        dist3, dist3_poisson)
    manifests = []
    for name in ("first", "second"):
        out = workdir / f"manifest_{command}_{name}.csv"
        res = runner.invoke(main, [*args, "--out", str(out)])
        assert res.exit_code == 0, res.output
        manifests.append((workdir / f"{out.name}.manifest.json").read_bytes())
    # runs that differ only in --out record the same manifest
    assert manifests[0] == manifests[1]
    manifest = json.loads(manifests[0])
    assert manifest["command"] == command
    settings = manifest["settings"]
    assert set(settings) == set(options) | RECORDED[command]
    assert {k: settings[k] for k in options} == options
    if command == "ncc":
        assert settings == {**settings, **json.loads(out.read_text())}
    if command == "simulate":
        assert settings["dropped_frames"] == 500 - io.load_histogram(out).trials


@pytest.mark.parametrize("command, options", [
    ("ncc", ["--criterion", "cs", "--dist"]),
    ("ncc", ["--criterion", "cs", "--kind", "intensity", "--dist"]),
    ("quasi", ["--s", "0.5", "--dist"]),
    ("ncd-field", ["--criterion", "cs", "--box", "1,1,1", "--dist"]),
    ("postselect", ["--selector", "n_s", "--value", "1", "--dist"]),
    ("sweep", ["--source", "dist", "--selector", "n_s", "--input"]),
])
def test_cli_depth_table_is_not_a_photon_table(runner, workdir, dist3, command, options):
    field = workdir / "depths.csv"
    res = runner.invoke(main, ["ncd-field", "--dist", str(dist3), "--criterion", "cs",
                               "--box", "1,1,1", "--out", str(field)])
    assert res.exit_code == 0, res.output
    out = workdir / "from_depths.csv"
    res = runner.invoke(main, [command, *options, str(field), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert f"error: {field}: not a photon-number distribution" in res.output
    assert not out.exists()


@pytest.mark.parametrize("command, option, value", [
    ("ncc", "--modes", "a,1,1"),
    ("ncd-field", "--box", "1,x,1"),
    ("ncd-field", "--box", "1,1"),
])
def test_cli_malformed_triple_exits_2(runner, workdir, dist3, command, option, value):
    res = runner.invoke(main, [
        command, "--dist", str(dist3), "--criterion", "cs", option, value,
        "--out", str(workdir / "nope6.csv")])
    assert res.exit_code == 2, res.output
    assert f"{option} needs three comma-separated" in res.output
    assert repr(value) in res.output


@pytest.mark.parametrize("kind", ["probability", "intensity"])
@pytest.mark.parametrize("modes", ["nan,1,1", "0,1,1", "-1,1,1", "1,1,1.3e154"])
def test_cli_ncc_invalid_modes_exit_2(runner, workdir, dist3_poisson, modes, kind):
    out = workdir / f"ncc_modes_{kind}_{modes}.json"
    res = runner.invoke(main, [
        "ncc", "--dist", str(dist3_poisson), "--criterion", "cs", "--kind", kind,
        "--modes", modes, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "mode numbers must be finite and > 0" in res.output
    assert "NaN" not in res.output
    assert not out.exists()


def test_cli_quasi(runner, workdir, dist3_poisson):
    out = workdir / "quasi.csv"
    res = runner.invoke(main, [
        "quasi", "--dist", str(dist3_poisson), "--s", "0.5", "--out", str(out)])
    assert res.exit_code == 0, res.output
    settings = json.loads((workdir / "quasi.csv.manifest.json").read_text())["settings"]
    assert settings["integral"] == pytest.approx(1.0, abs=1e-2)
    assert not (workdir / "quasi.csv.meta.json").exists()


def test_cli_quasi_nonfinite_level_exits_2(runner, workdir, dist3_poisson):
    out = workdir / "nan_level.csv"
    res = runner.invoke(main, [
        "quasi", "--dist", str(dist3_poisson), "--s", "0.5", "--cut", "triangular",
        "--level", "nan", "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "level must be finite" in res.output
    assert not out.exists()


@pytest.mark.parametrize("level", [None, "nan"])
def test_cli_quasi_checks_the_cut_before_the_grid(runner, workdir, dist3_poisson,
                                                   monkeypatch, level):
    from tripletwb import nonclassical
    calls = []
    synthesize = nonclassical.quasi_distribution_W
    monkeypatch.setattr(nonclassical, "quasi_distribution_W",
                        lambda *a, **k: calls.append(1) or synthesize(*a, **k))
    out = workdir / f"cut_first_{level}.csv"
    extra = [] if level is None else ["--level", level]
    res = runner.invoke(main, [
        "quasi", "--dist", str(dist3_poisson), "--s", "0.5", "--cut", "triangular",
        *extra, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert ("need a level" if level is None else "level must be finite") in res.output
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["quasi", "cut"])
def test_cli_diagonal_cut_with_a_level_exits_2(runner, workdir, dist3_poisson, monkeypatch,
                                               command):
    # the level was dropped, yet the manifest recorded it
    from tripletwb import nonclassical
    calls = []
    synthesize = nonclassical.quasi_distribution_W
    monkeypatch.setattr(nonclassical, "quasi_distribution_W",
                        lambda *a, **k: calls.append(1) or synthesize(*a, **k))
    out = workdir / f"diagonal_level_{command}.csv"
    args = {"quasi": ["--dist", str(dist3_poisson), "--s", "0.5", "--cut", "diagonal"],
            "cut": ["--input", str(dist3_poisson), "--kind", "diagonal"]}[command]
    res = runner.invoke(main, [command, *args, "--level", "3", "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "a diagonal cut takes no level" in res.output
    assert calls == []
    assert not out.exists()
    assert not (workdir / f"{out.name}.manifest.json").exists()


def test_cli_quasi_numerical_error_exits_3(runner, workdir, dist3_poisson):
    res = runner.invoke(main, [
        "quasi", "--dist", str(dist3_poisson), "--s", "0.5", "--points", "3",
        "--out", str(workdir / "nope2.csv")])
    assert res.exit_code == 3


def test_cli_quasi_out_of_memory_exits_2(runner, workdir):
    # a 3x3x3 table keeps the kernels and the first partial contraction
    # near 30 MB; the next one asks for 894 GiB and fails at once
    path = workdir / "tiny3.csv"
    io.save_distribution(product_dist((0.3, 0.2, 0.25), 2), path)
    out = workdir / "huge_quasi.csv"
    res = runner.invoke(main, [
        "quasi", "--dist", str(path), "--s", "0.0", "--points", "200000",
        "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "--points" in res.output
    assert "Traceback" not in res.output
    assert not out.exists()


def test_cli_sweep_default_range_is_full_axis(runner, workdir, dist4):
    from tripletwb.detector import default_c_max
    n_max = 8
    tops = {"n_s": n_max, "c_s": default_c_max(PAPER_TABLE_1["s"], n_max)}
    for selector, top in tops.items():
        outs = {}
        for name, extra in (("default", []), ("explicit", ["--range", f"0:{top}"])):
            out = workdir / f"sweep_{selector}_{name}.csv"
            res = runner.invoke(main, [
                "sweep", "--source", "dist", "--input", str(dist4),
                "--selector", selector, *extra, "--out", str(out)])
            assert res.exit_code == 0, res.output
            outs[name] = out.read_text()
        assert outs["default"] == outs["explicit"]


def test_cli_sweep_histogram_default_range_is_full_axis(runner, workdir):
    counts = np.random.default_rng(5).integers(0, 40, size=(4, 9, 9, 9))
    hist = workdir / "small_hist.csv"
    io.save_histogram(Histogram(counts, int(counts.sum())), hist, PAPER_TABLE_1)
    outs = {}
    for name, extra in (("default", []), ("explicit", ["--range", "0:3"])):
        out = workdir / f"sweep_hist_{name}.csv"
        res = runner.invoke(main, [
            "sweep", "--source", "histogram", "--input", str(hist),
            "--selector", "c_s", "--idler-cutoff", "3", *extra,
            "--out", str(out)])
        assert res.exit_code == 0, res.output
        outs[name] = out.read_text()
    assert outs["default"] == outs["explicit"]
    assert len(outs["default"].splitlines()) == 5


def test_cli_sweep_histogram_manifest_records_em(runner, workdir):
    counts = np.random.default_rng(6).integers(0, 40, size=(3, 9, 9, 9))
    hist = workdir / "em_hist.csv"
    io.save_histogram(Histogram(counts, int(counts.sum())), hist, PAPER_TABLE_1)
    out = workdir / "sweep_em.csv"
    res = runner.invoke(main, [
        "sweep", "--source", "histogram", "--input", str(hist),
        "--selector", "c_s", "--idler-cutoff", "3", "--out", str(out)])
    assert res.exit_code == 0, res.output
    settings = json.loads((workdir / "sweep_em.csv.manifest.json").read_text())["settings"]
    assert settings["stop_gain_nats"] == emrec.STOP_GAIN_NATS
    em = settings["em"]
    assert [e["selector"] for e in em] == [0, 1, 2]
    for e in em:
        # each slice stops on a 1e-9 residual, on a gain below STOP_GAIN_NATS
        # over its own frames, or on the sweep's budget of 2000 maps
        assert e["frames"] == int(counts[e["selector"]].sum())
        assert 1 <= e["iterations"] <= 2000
        assert e["converged"] == (e["stop"] != "budget")
        if e["stop"] == "residual":
            assert e["residual"] < 1e-9
        elif e["stop"] == "likelihood":
            assert e["last_gain_nats"] < emrec.STOP_GAIN_NATS
        else:
            assert e["stop"] == "budget" and e["iterations"] == 2000
    # this histogram holds thousands of frames per slice: no slice needs
    # the budget
    assert {e["stop"] for e in em} == {"likelihood"}


def test_cli_cut_malformed_lattice_exits_2(runner, workdir):
    # a saved table's sidecar over a hand-edited CSV: the digests no longer
    # match, so the CSV is parsed and its bad line reported
    lattice = workdir / "bad_field.csv"
    io.save_distribution(JointDistribution(np.full((2, 2, 2), 0.5), ("i1", "i2", "i3")),
                         lattice)
    lattice.write_text("n_i1,n_i2,n_i3,value\n0,0,0,0.5\n0,-1,0,0.2\n")
    res = runner.invoke(main, [
        "cut", "--input", str(lattice), "--kind", "diagonal",
        "--out", str(workdir / "nope6.csv")])
    assert res.exit_code == 2, res.output
    assert f"{lattice}:3: negative cell index" in res.output


@pytest.mark.parametrize("command, option, value", [
    ("simulate", "--seed", "-5"),
    ("simulate", "--frames", "0"),
    ("simulate", "--tail-tol", "nan"),
    ("simulate", "--tail-tol", "0"),
    ("reconstruct", "--signal-cutoff", "-2"),
    ("reconstruct", "--max-iterations", "0"),
    ("reconstruct", "--tol", "inf"),
    ("reconstruct", "--tol", "nan"),
    ("reconstruct", "--tol", "0"),
    ("sweep", "--idler-cutoff", "-1"),
    ("fit", "--max-evals", "0"),
    ("quasi", "--points", "1"),
])
def test_cli_out_of_range_option_exits_2(runner, workdir, sim_hist, dist3,
                                         command, option, value):
    out = workdir / f"out_of_range_{command}{option}{value}.csv"
    inputs = {"simulate": ["--frames", "10", "--seed", "1"],
              "reconstruct": ["--histogram", str(sim_hist)],
              "sweep": ["--source", "histogram", "--input", str(sim_hist),
                        "--selector", "c_s"],
              "fit": ["--histogram", str(sim_hist)],
              "quasi": ["--dist", str(dist3), "--s", "0.5"]}[command]
    res = runner.invoke(main, [command, *inputs, option, value, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert option in res.output
    assert "Traceback" not in res.output
    assert not out.exists()


def test_cli_sweep_malformed_range_exits_2(runner, workdir, dist4):
    # not lo:hi, a negative end, and lo > hi (which wrote a header-only CSV)
    for sel_range in ("3", "-2:1", "0:-1", "4:2"):
        out = workdir / f"nope3_{sel_range}.csv"
        res = runner.invoke(main, [
            "sweep", "--source", "dist", "--input", str(dist4), "--selector", "n_s",
            "--range", sel_range, "--out", str(out)])
        assert res.exit_code == 2, (sel_range, res.output)
        assert "--range" in res.output
        assert not out.exists()


@pytest.fixture(scope="module")
def fit_hist(runner, workdir):
    """A 200 000-frame histogram of the shipped model and detectors."""
    hist = workdir / "fit_hist.csv"
    res = runner.invoke(main, [
        "simulate", "--frames", "200000", "--seed", "11", "--out", str(hist)])
    assert res.exit_code == 0, res.output
    return hist


def test_cli_fit_runs(runner, workdir, fit_hist):
    # a tiny budget may end before the fit converges: that is a numerical
    # error (exit 3), never an uncaught exception (exit 1)
    out = workdir / "fit.json"
    res = runner.invoke(main, [
        "fit", "--histogram", str(fit_hist), "--max-evals", "3", "--out", str(out)])
    assert res.exit_code in (0, 3), res.output
    if res.exit_code == 0:
        assert "declination" in json.loads(out.read_text())
        manifest = json.loads((workdir / "fit.json.manifest.json").read_text())
        assert manifest["settings"]["max_evals"] == 3
        assert manifest["settings"]["detectors"] == preset_detector_entries()
    else:
        assert res.output.startswith("numerical error: ")


def test_cli_missing_sidecar_exits_2(runner, workdir, sim_hist):
    bare = workdir / "bare_hist.csv"
    bare.write_text(sim_hist.read_text())
    res = runner.invoke(main, [
        "reconstruct", "--histogram", str(bare), "--out", str(workdir / "nope4.csv")])
    assert res.exit_code == 2, res.output
    assert str(bare) in res.output
    # cut reads saved tables only: a field CSV in the format ncd-field wrote
    # before it saved tables has no sidecar
    bare = workdir / "bare_field.csv"
    bare.write_text("n_i1,n_i2,n_i3,tau\n0,0,0,0.5\n1,1,1,0.2\n")
    res = runner.invoke(main, [
        "cut", "--input", str(bare), "--kind", "diagonal", "--out", str(workdir / "nope4.csv")])
    assert res.exit_code == 2, res.output
    assert f"{bare}.meta.json: cannot read JSON" in res.output


def copy_table(source, path, edit, payload=True):
    """A copy of the saved table ``source`` at ``path`` whose sidecar is
    ``edit(meta)``; with ``payload``, its ``.npy`` copy too."""
    path.write_bytes(source.read_bytes())
    npy = path.with_suffix(path.suffix + ".npy")
    npy.unlink(missing_ok=True)
    if payload and source.with_suffix(source.suffix + ".npy").exists():
        npy.write_bytes(source.with_suffix(source.suffix + ".npy").read_bytes())
    meta = json.loads(source.with_suffix(source.suffix + ".meta.json").read_text())
    path.with_suffix(path.suffix + ".meta.json").write_text(json.dumps(edit(meta)))
    return path


@pytest.mark.parametrize("table, key, value, match", [
    ("histogram", "axis_labels", 5, "axis_labels must be a list of names, got 5"),
    ("histogram", "trials", "abc", "trials must be an integer >= 1, got 'abc'"),
    ("histogram", "trials", 1, ", trials = 1"),
    ("histogram", "cutoffs", [2**62] * 4, "give a table too large to hold"),
    ("table", "axis_labels", 5, "axis_labels must be a list of names, got 5"),
    ("table", "axis_labels", ["i3", "i2", "i1"], "must be ordered from"),
    ("table", "normalized", "abc", "normalized must be true or false, got 'abc'"),
    ("table", "cutoffs", [8, 8.5, 8], "must be one integer >= 0 per axis label"),
    ("table", "cutoffs", [2**62] * 3, "give a table too large to hold"),
])
def test_cli_malformed_sidecar_exits_2_and_names_it(runner, workdir, sim_hist, dist3,
                                                    table, key, value, match):
    out = workdir / "bad_sidecar_out.csv"
    if table == "histogram":
        path = copy_table(sim_hist, workdir / "bad_sidecar_hist.csv",
                          lambda meta: {**meta, key: value})
        args = ["reconstruct", "--histogram", str(path), "--max-iterations", "2"]
    else:
        path = copy_table(dist3, workdir / "bad_sidecar_dist.csv",
                          lambda meta: {**meta, key: value})
        args = ["ncc", "--dist", str(path), "--criterion", "cs", "--no-ncd"]
    res = runner.invoke(main, [*args, "--out", str(out)])
    assert res.exit_code == 2, (res.output, res.exception)
    assert f"error: {path}.meta.json: " in res.output
    assert match in res.output
    assert not out.exists()


#: JSON values a hand edit might leave in a sidecar field
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.integers(2**62, 2**64)
    | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=5), max_leaves=8)


@st.composite
def mutated_sidecars(draw):
    """A saved histogram or 3D table, the command that reads it, and an edit
    of its sidecar: one of ``trials``, ``cutoffs``, ``axis_labels`` and
    ``normalized`` deleted, set to any JSON value, or set to a near miss."""
    table = draw(st.sampled_from(["histogram", "table"]))
    rank = 4 if table == "histogram" else 3
    key = draw(st.sampled_from(["trials", "cutoffs", "axis_labels", "normalized"]))
    kind = draw(st.sampled_from(["missing", "any", "near"]))
    if kind == "missing":
        return table, lambda meta: {k: v for k, v in meta.items() if k != key}
    if kind == "any":
        value = draw(JSON_VALUES)
        return table, lambda meta: {**meta, key: value}
    if key == "trials":
        shift = draw(st.integers(-2, 2))
        return table, lambda meta: {**meta, key: meta.get(key, 1) + shift}
    value = draw({
        "cutoffs": st.lists(st.integers(-1, 12), min_size=rank - 1, max_size=rank + 1),
        "axis_labels": st.lists(st.sampled_from([*AXIS_ORDER, "x"]),
                                min_size=rank - 1, max_size=rank + 1),
        "normalized": st.booleans()}[key])
    return table, lambda meta: {**meta, key: value}


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(case=mutated_sidecars(), command=st.sampled_from(["cut", "ncc"]),
                  payload=st.booleans())
def test_cli_mutated_sidecar_exits_0_2_or_3(runner, workdir, sim_hist, dist3, case,
                                            command, payload):
    table, edit = case
    out = workdir / "fuzzed_out.csv"
    out.unlink(missing_ok=True)
    if table == "histogram":
        path = copy_table(sim_hist, workdir / "fuzzed_hist.csv", edit)
        args = ["reconstruct", "--histogram", str(path), "--max-iterations", "2"]
    else:
        path = copy_table(dist3, workdir / "fuzzed_dist.csv", edit, payload)
        args = {"cut": ["cut", "--input", str(path), "--kind", "diagonal"],
                "ncc": ["ncc", "--dist", str(path), "--criterion", "cs", "--no-ncd"]}[command]
    res = runner.invoke(main, [*args, "--out", str(out)])
    assert res.exit_code in (0, 2, 3), (res.output, res.exception)
    assert "Traceback" not in res.output
    if res.exit_code != 0:
        assert not out.exists()


#: JSON numbers for a parameter constant. The finite ones are at most 1e3 or
#: at least 1e19: between them a frame can hold 1e9 photons, and the click
#: sampler keeps one array entry per detected photon, gigabytes in all.
PARAM_NUMBERS = (st.floats(max_value=1e3) | st.floats(min_value=1e19)
                 | st.sampled_from([math.nan, math.inf, -math.inf]))
#: text without digits: float() of a digit string would bypass PARAM_NUMBERS
NO_DIGITS = st.text(st.characters(blacklist_categories=["Nd", "Cs"]), max_size=6)
PARAM_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 1000) | PARAM_NUMBERS | NO_DIGITS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(NO_DIGITS, inner, max_size=2),
    max_leaves=4)


@st.composite
def mutated_params(draw):
    """The shipped parameters with one entry broken: a key or a whole
    component missing, a component set to any JSON value, or one constant of
    a component set to any JSON value, the other being 1."""
    data = PAPER_TABLE_2.to_dict()
    name = draw(st.sampled_from(PARAM_NAMES))
    kind = draw(st.sampled_from(["missing", "component", "constant", "missing-constant"]))
    if kind == "missing":
        del data[name]
    elif kind == "component":
        data[name] = draw(PARAM_VALUES)
    else:
        key, other = draw(st.permutations(["M", "B"]))
        data[name] = {other: 1.0}
        if kind == "constant":
            data[name][key] = draw(PARAM_VALUES)
    return data


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(data=mutated_params())
@hypothesis.example(data={**PAPER_TABLE_2.to_dict(), "noise_s": {"M": 1e20, "B": 1}})
@hypothesis.example(data={**PAPER_TABLE_2.to_dict(), "noise_s": {"M": 1, "B": 1e20}})
@hypothesis.example(data={**PAPER_TABLE_2.to_dict(), "noise_i3": {"M": True, "B": 1.0}})
@hypothesis.example(data={**PAPER_TABLE_2.to_dict(), "pair_1": {"M": 552.0, "B": "0.00475"}})
def test_cli_mutated_params_file_exits_0_2_or_3(runner, workdir, data):
    path = workdir / "fuzzed_params.json"
    path.write_text(json.dumps(data))
    out = workdir / "fuzzed_params_hist.csv"
    out.unlink(missing_ok=True)
    res = runner.invoke(main, ["simulate", "--params-file", str(path), "--frames", "10",
                               "--seed", "1", "--out", str(out)])
    assert res.exit_code in (0, 2, 3), (res.output, res.exception)
    # a bool or a string is no number, whatever float() makes of it
    if any(isinstance(entry.get(key), (bool, str)) for entry in data.values()
           if isinstance(entry, dict) for key in ("M", "B")):
        assert res.exit_code == 2, res.output
    assert "Traceback" not in res.output
    if res.exit_code != 0:
        assert not out.exists()


#: a frame CSV field: any integer, any float, or text without digits. One
#: field changes per example, so the histogram grows on one axis at most.
FRAME_FIELDS = (st.integers(-2**70, 2**70).map(str) | st.floats().map(repr)
                | NO_DIGITS.filter(lambda t: "," not in t and "\n" not in t and "\r" not in t))


@st.composite
def mutated_frames(draw):
    """The bytes of FRAME_TEXT with one edit: a field replaced, a field
    dropped or added, a row repeated, the header dropped, or any one byte
    inserted."""
    rows = [line.split(",") for line in FRAME_TEXT.splitlines()]
    row = draw(st.integers(1, len(rows) - 1))
    col = draw(st.integers(0, len(FRAME_HEADER) - 1))
    kind = draw(st.sampled_from(["field", "drop", "add", "repeat", "header", "byte"]))
    if kind == "byte":
        data = FRAME_TEXT.encode()
        at = draw(st.integers(0, len(data)))
        return data[:at] + draw(st.binary(min_size=1, max_size=1)) + data[at:]
    if kind == "field":
        rows[row][col] = draw(FRAME_FIELDS)
    elif kind == "drop":
        del rows[row][col]
    elif kind == "add":
        rows[row].insert(col, draw(FRAME_FIELDS))
    elif kind == "repeat":
        rows.append(list(rows[row]))
    else:
        del rows[0]
    return ("\n".join(",".join(r) for r in rows) + "\n").encode()


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(data=mutated_frames())
@hypothesis.example(data=(FRAME_TEXT + "4,2,0,1,1e19\n").encode())
@hypothesis.example(data=(FRAME_TEXT + "4,2,0,1,9.3e18\n").encode())
@hypothesis.example(data=FRAME_TEXT.encode().replace(b"3,2", b"3,\xff"))
def test_cli_mutated_frames_exit_0_2_or_3(runner, workdir, data):
    path = workdir / "fuzzed_frames.csv"
    path.write_bytes(data)
    out = workdir / "fuzzed_ingested.csv"
    out.unlink(missing_ok=True)
    res = runner.invoke(main, ["ingest", "--frames", str(path), "--out", str(out)])
    assert res.exit_code in (0, 2, 3), (res.output, res.exception)
    assert "Traceback" not in res.output
    if res.exit_code == 0:
        lines = data.decode().replace("\r\n", "\n").replace("\r", "\n").split("\n")
        assert io.load_histogram(out).trials == sum(1 for l in lines[1:] if l.strip())
    else:
        assert not out.exists()


@pytest.fixture(scope="module")
def small_hist(runner, workdir):
    out = workdir / "small_hist.csv"
    res = runner.invoke(main, ["simulate", "--frames", "300", "--seed", "3", "--out", str(out)])
    assert res.exit_code == 0, res.output
    return out


@st.composite
def histogram_edits(draw):
    """An edit of a saved histogram CSV: a field replaced, a field dropped or
    added, a row repeated, the header dropped, or any one byte inserted."""
    kind = draw(st.sampled_from(["field", "drop", "add", "repeat", "header", "byte"]))
    row, col, at = draw(st.integers(0, 10**6)), draw(st.integers(0, 4)), draw(st.integers(0, 10**6))
    field, byte = draw(FRAME_FIELDS), draw(st.binary(min_size=1, max_size=1))

    def edit(data):
        if kind == "byte":
            return data[: at % (len(data) + 1)] + byte + data[at % (len(data) + 1):]
        rows = [line.split(",") for line in data.decode().splitlines()]
        r = 1 + row % (len(rows) - 1)
        if kind == "field":
            rows[r][col] = field
        elif kind == "drop":
            del rows[r][col]
        elif kind == "add":
            rows[r].insert(col, field)
        elif kind == "repeat":
            rows.append(list(rows[r]))
        else:
            del rows[0]
        return ("\r\n".join(",".join(x) for x in rows) + "\r\n").encode()
    return edit


HISTOGRAM_READERS = {
    "reconstruct": ["reconstruct", "--signal-cutoff", "6", "--idler-cutoff", "4",
                    "--max-iterations", "2", "--histogram"],
    "sweep": ["sweep", "--source", "histogram", "--selector", "c_s", "--idler-cutoff", "4",
              "--input"],
}


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(edit=histogram_edits(), command=st.sampled_from(sorted(HISTOGRAM_READERS)))
# a float count, a cell beyond the sidecar's cutoffs, a count of 2**53 + 1
@hypothesis.example(edit=lambda data: data.replace(b",1\r\n", b",1.5\r\n", 1), command="sweep")
@hypothesis.example(edit=lambda data: data + b"99,0,0,0,1\r\n", command="reconstruct")
@hypothesis.example(edit=lambda data: data.replace(b",1\r\n", b",9007199254740993\r\n", 1),
                    command="reconstruct")
def test_cli_mutated_histogram_exits_0_2_or_3(runner, workdir, small_hist, edit, command):
    path = copy_table(small_hist, workdir / "fuzzed_hist.csv", lambda meta: meta)
    path.write_bytes(edit(path.read_bytes()))
    out = workdir / "fuzzed_hist_out.csv"
    out.unlink(missing_ok=True)
    res = runner.invoke(main, [*HISTOGRAM_READERS[command], str(path), "--out", str(out)])
    assert res.exit_code in (0, 2, 3), (res.output, res.exception)
    assert "Traceback" not in res.output
    if res.exit_code != 0:
        assert not out.exists()


@st.composite
def mutated_payloads(draw):
    """An edit of a ``.npy`` payload's bytes: cut short, extended, one to
    three bytes changed (often in the 128-byte header), or the payload of
    another table."""
    kind = draw(st.sampled_from(["truncate", "extend", "flip", "other"]))
    if kind == "truncate":
        cut = draw(st.integers(1, 400))
        return lambda data: data[:-cut]
    if kind == "extend":
        tail = draw(st.binary(min_size=1, max_size=16))
        return lambda data: data + tail
    if kind == "flip":
        at = st.integers(0, 127) | st.integers(0, 10**6)
        flips = draw(st.lists(st.tuples(at, st.integers(1, 255)), min_size=1, max_size=3))

        def flip(data):
            data = bytearray(data)
            for at, mask in flips:
                data[at % len(data)] ^= mask
            return bytes(data)
        return flip
    shape = draw(st.lists(st.integers(0, 9), min_size=0, max_size=4))
    dtype = draw(st.sampled_from(["<f8", ">f8", "<f4", "<i8", "|b1"]))

    def other(data):
        buf = BytesIO()
        np.save(buf, np.ones(shape, dtype=dtype), allow_pickle=False)
        return buf.getvalue()
    return other


PAYLOAD_READERS = {
    "postselect": ["postselect", "--selector", "c_s", "--value", "1", "--dist"],
    "sweep": ["sweep", "--source", "dist", "--selector", "c_s", "--range", "0:2", "--input"],
    "ncc": ["ncc", "--criterion", "cs", "--no-ncd", "--dist"],
    "cut": ["cut", "--kind", "diagonal", "--input"],
}


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(edit=mutated_payloads(), command=st.sampled_from(sorted(PAYLOAD_READERS)),
                  pinned=st.booleans())
# a header np.load cannot tokenize
@hypothesis.example(edit=lambda data: data.replace(b"}", b" ", 1), command="cut", pinned=True)
def test_cli_mutated_payload_exits_0_2_or_3(runner, workdir, dist4, dist3, edit, command,
                                            pinned):
    """A payload whose bytes no longer match the sidecar's digest gives the
    outputs of a deleted one; one whose digest is pinned to the new bytes
    still exits 0, 2 or 3."""
    source = dist4 if command in ("postselect", "sweep") else dist3
    outputs = {}
    for run in ("deleted", "edited"):
        # one input path for both runs, so that their manifests may agree
        path = copy_table(source, workdir / "fuzzed_payload.csv", lambda meta: meta)
        npy = path.with_suffix(path.suffix + ".npy")
        if run == "deleted":
            npy.unlink()
        else:
            npy.write_bytes(edit(npy.read_bytes()))
            if pinned:
                side = path.with_suffix(path.suffix + ".meta.json")
                meta = json.loads(side.read_text())
                meta["payload"]["npy_sha256"] = io._sha256(npy)
                side.write_text(json.dumps(meta))
        out_dir = workdir / f"fuzzed_payload_{run}"
        out_dir.mkdir(exist_ok=True)
        for old in out_dir.iterdir():
            old.unlink()
        res = runner.invoke(main, [*PAYLOAD_READERS[command], str(path),
                                   "--out", str(out_dir / "out.csv")])
        assert res.exit_code in (0, 2, 3), (res.output, res.exception)
        assert "Traceback" not in res.output
        outputs[run] = (res.exit_code, res.output.replace(str(out_dir), ""),
                        {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    if not pinned:
        assert outputs["edited"] == outputs["deleted"]


@pytest.mark.parametrize("text", [
    "{not json",
    "[1, 2]",
    json.dumps({"s": {"pixels": 10, "efficiency": 0.2, "dark_rate": 0.1}}),
    json.dumps({l: {"pixels": 10, "efficiency": 0.2} for l in ("s", "i1", "i2", "i3")}),
])
def test_cli_malformed_detector_file_exits_2(runner, workdir, text):
    path = workdir / "detectors.json"
    path.write_text(text)
    res = runner.invoke(main, [
        "simulate", "--frames", "10", "--seed", "1", "--detector-file", str(path),
        "--out", str(workdir / "nope5.csv")])
    assert res.exit_code == 2, res.output
    assert str(path) in res.output


def preset_detector_entries() -> dict:
    return {l: {"pixels": c.pixels, "efficiency": c.efficiency, "dark_rate": c.dark_rate}
            for l, c in PAPER_TABLE_1.items()}


@pytest.mark.parametrize("pixels", [1512.5, True])
def test_cli_non_integer_pixel_count_exits_2(runner, workdir, pixels):
    path = workdir / "detectors_pixels.json"
    cfgs = preset_detector_entries()
    cfgs["i1"]["pixels"] = pixels
    path.write_text(json.dumps(cfgs))
    res = runner.invoke(main, [
        "simulate", "--frames", "10", "--seed", "1", "--detector-file", str(path),
        "--out", str(workdir / "nope_pixels.csv")])
    assert res.exit_code == 2, res.output
    assert "pixels must be an integer" in res.output


PARAM_NAMES = ("pair_1", "pair_2", "pair_3", "noise_s", "noise_i1", "noise_i2", "noise_i3")


@pytest.mark.parametrize("text", [
    "{not json",
    json.dumps({k: 3 for k in PARAM_NAMES}),
    json.dumps({k: {"M": "x" if k == "pair_2" else 1.0, "B": 0.1} for k in PARAM_NAMES}),
    json.dumps({k: {"M": 1.0} if k == "noise_i3" else {"M": 1.0, "B": 0.1}
                for k in PARAM_NAMES}),
], ids=["not-json", "number-entries", "text-M", "no-B"])
def test_cli_malformed_params_file_exits_2(runner, workdir, text):
    path = workdir / "params_bad.json"
    path.write_text(text)
    res = runner.invoke(main, [
        "simulate", "--params-file", str(path), "--frames", "10", "--seed", "1",
        "--out", str(workdir / "nope_params.csv")])
    assert res.exit_code == 2, res.output
    assert "Traceback" not in res.output
    assert str(path) in res.output


@pytest.mark.parametrize("entry, key, value", [
    ("noise_i3", "M", True), ("noise_i3", "M", False), ("pair_1", "B", "0.00475")],
    ids=["M-true", "M-false", "B-numeric-string"])
def test_cli_params_file_refuses_a_bool_or_a_string_constant(runner, workdir, entry, key, value):
    # float() takes both: true ran as M = 1.0, and the manifest recorded it
    data = PAPER_TABLE_2.to_dict()
    data[entry][key] = value
    path = workdir / "params_not_numbers.json"
    path.write_text(json.dumps(data))
    out = workdir / "nope_not_numbers.csv"
    res = runner.invoke(main, [
        "simulate", "--params-file", str(path), "--frames", "10", "--seed", "1",
        "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "Traceback" not in res.output
    assert f"{path}: {entry}: {key} must be a number" in res.output
    assert not out.exists()


@pytest.mark.parametrize("option, entry, key, value", [
    ("--params-file", "noise_i3", "B", math.nan),
    ("--params-file", "noise_i3", "B", math.inf),
    ("--params-file", "noise_i3", "M", math.inf),
    ("--detector-file", "i2", "dark_rate", math.nan),
], ids=["B-nan", "B-inf", "M-inf", "dark-rate-nan"])
def test_cli_non_finite_constant_exits_2(runner, workdir, option, entry, key, value):
    # NaN passed the B < 0 and dark_rate < 0 checks and failed in the samplers
    data = PAPER_TABLE_2.to_dict() if option == "--params-file" else preset_detector_entries()
    data[entry][key] = value
    path = workdir / "non_finite.json"
    path.write_text(json.dumps(data))
    res = runner.invoke(main, [
        "simulate", option, str(path), "--frames", "10", "--seed", "1",
        "--out", str(workdir / "nope_non_finite.csv")])
    assert res.exit_code == 2, res.output
    assert "Traceback" not in res.output
    assert "must be finite" in res.output
    assert str(path) in res.output


@pytest.fixture(scope="module")
def half_i2_detectors(workdir):
    path = workdir / "half_i2.json"
    data = preset_detector_entries()
    data["i2"]["efficiency"] = 0.5
    path.write_text(json.dumps(data))
    return path


def test_cli_simulate_records_its_detector_file(runner, workdir, sim_hist, half_i2_detectors):
    out = workdir / "hist_file_detectors.csv"
    res = runner.invoke(main, [
        "simulate", "--frames", "200", "--seed", "3",
        "--detector-file", str(half_i2_detectors), "--out", str(out)])
    assert res.exit_code == 0, res.output
    record = json.loads(half_i2_detectors.read_text())
    meta = json.loads((workdir / "hist_file_detectors.csv.meta.json").read_text())
    assert meta["detectors"] == record
    assert "detector_presets" not in meta
    settings = json.loads((workdir / "hist_file_detectors.csv.manifest.json").read_text()
                          )["settings"]
    assert settings["detectors"] == record
    # without a file, both record the shipped constants
    assert json.loads((workdir / "sim_hist.csv.meta.json").read_text()
                      )["detectors"] == preset_detector_entries()
    assert json.loads((workdir / "sim_hist.csv.manifest.json").read_text()
                      )["settings"]["detectors"] == preset_detector_entries()


def test_cli_ingest_records_its_detector_file(runner, workdir, sim_hist, half_i2_detectors):
    out = workdir / "ingested_file_detectors.csv"
    res = runner.invoke(main, [
        "ingest", "--frames", str(workdir / "frames.csv"),
        "--detector-file", str(half_i2_detectors), "--out", str(out)])
    assert res.exit_code == 0, res.output
    record = json.loads(half_i2_detectors.read_text())
    assert json.loads((workdir / "ingested_file_detectors.csv.meta.json").read_text()
                      )["detectors"] == record
    assert json.loads((workdir / "ingested_file_detectors.csv.manifest.json").read_text()
                      )["settings"]["detectors"] == record


def test_cli_reconstruct_and_fit_record_their_detector_file(runner, workdir):
    # the preset's constants but a signal dark rate of 0.25: the fit returns
    # as it does on the preset (test_cli_fit_runs' histogram), while the
    # record differs from the preset's
    path = workdir / "dark_s.json"
    record = preset_detector_entries()
    record["s"]["dark_rate"] = 0.25
    path.write_text(json.dumps(record))
    hist = workdir / "hist_for_file.csv"
    res = runner.invoke(main, [
        "simulate", "--frames", "200000", "--seed", "11", "--detector-file", str(path),
        "--out", str(hist)])
    assert res.exit_code == 0, res.output
    for command, out, extra in (
            ("reconstruct", "rec_file.csv",
             ["--conditional", "4", "--idler-cutoff", "10", "--max-iterations", "50"]),
            ("fit", "fit_file.json", ["--max-evals", "3"])):
        res = runner.invoke(main, [command, "--histogram", str(hist), *extra,
                                   "--out", str(workdir / out)])
        assert res.exit_code == 0, res.output
        settings = json.loads((workdir / f"{out}.manifest.json").read_text())["settings"]
        assert settings["detectors"] == record
    assert io.recorded_detectors(workdir / "rec_file.csv") == io.load_detectors(path)


def test_cli_c_s_postselection_uses_the_detectors_of_its_histogram(runner, workdir):
    # signal and i2 efficiencies off the shipped constants
    record = preset_detector_entries()
    record["s"]["efficiency"] = 0.6
    record["i2"]["efficiency"] = 0.5
    path = workdir / "s60_detectors.json"
    path.write_text(json.dumps(record))
    hist, photons, cond = (workdir / f"s60_{name}.csv" for name in ("hist", "photons", "cond"))
    for args in (
            ["simulate", "--frames", "20000", "--seed", "3", "--detector-file", str(path),
             "--out", str(hist)],
            ["reconstruct", "--histogram", str(hist), "--idler-cutoff", "8",
             "--max-iterations", "20", "--out", str(photons)],
            ["postselect", "--dist", str(photons), "--selector", "c_s", "--value", "5",
             "--out", str(cond)]):
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
    cfgs = io.load_detectors(path)
    p_s = io.load_distribution(photons).values.sum(axis=(1, 2, 3))
    settings = json.loads((workdir / "s60_cond.csv.manifest.json").read_text())["settings"]
    assert settings["detectors"] == record
    want = float(detection_matrix(cfgs["s"], len(p_s) - 1).entries[5] @ p_s)
    assert settings["slice_mass"] == pytest.approx(want, rel=1e-12)
    preset = float(detection_matrix(PAPER_TABLE_1["s"], len(p_s) - 1).entries[5] @ p_s)
    assert preset != pytest.approx(want, rel=1e-3)
    # the histogram sweep inverts each slice through the file's idler matrices
    out = workdir / "s60_sweep.csv"
    res = runner.invoke(main, [
        "sweep", "--source", "histogram", "--input", str(hist), "--selector", "c_s",
        "--range", "4:5", "--idler-cutoff", "6", "--out", str(out)])
    assert res.exit_code == 0, res.output
    h = io.load_histogram(hist)

    def sweep_rows(detectors):
        mats = {l: detection_matrix(detectors[l], 6, c_max)
                for l, c_max in zip(AXIS_ORDER[1:], h.cutoffs[1:])}
        sw = postselect.sweep_histogram(h, mats, range(4, 6))
        return csv_text_loop(list(sw.columns()), zip(*sw.columns().values()))
    assert out.read_bytes() == sweep_rows(cfgs)
    assert out.read_bytes() != sweep_rows(PAPER_TABLE_1)
    settings = json.loads((workdir / "s60_sweep.csv.manifest.json").read_text())["settings"]
    assert settings["detectors"] == record


@pytest.fixture(scope="module")
def unrecorded(workdir, sim_hist, dist4):
    """A histogram and a 4D table whose sidecars hold no detector record;
    the histogram's names its preset, as sidecars did before the record."""
    paths = {}
    for name, source in (("hist", sim_hist), ("dist", dist4)):
        path = workdir / f"unrecorded_{name}.csv"
        path.write_text(source.read_text())
        meta = json.loads((workdir / f"{source.name}.meta.json").read_text())
        del meta["detectors"]
        if name == "hist":
            meta["detector_presets"] = {"preset": "paper-table-1"}
        (workdir / f"unrecorded_{name}.csv.meta.json").write_text(json.dumps(meta))
        paths[name] = path
    return paths


@pytest.mark.parametrize("command, table, options", [
    ("reconstruct", "hist", ["--histogram"]),
    ("fit", "hist", ["--histogram"]),
    ("sweep", "hist", ["--source", "histogram", "--selector", "c_s", "--input"]),
    ("postselect", "dist", ["--selector", "c_s", "--value", "1", "--dist"]),
    ("sweep", "dist", ["--source", "dist", "--selector", "c_s", "--input"]),
])
def test_cli_missing_detector_record_exits_2(runner, workdir, unrecorded, command, table,
                                             options):
    path = unrecorded[table]
    out = workdir / f"no_record_{command}_{table}.csv"
    res = runner.invoke(main, [command, *options, str(path), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert f"{path}.meta.json: no detector record" in res.output
    assert "Traceback" not in res.output
    assert not out.exists()


@pytest.mark.parametrize("command, options", [
    ("postselect", ["--selector", "n_s", "--value", "1", "--dist"]),
    ("sweep", ["--source", "dist", "--selector", "n_s", "--range", "0:2", "--input"]),
])
def test_cli_n_s_selection_needs_no_detector_record(runner, workdir, unrecorded,
                                                    command, options):
    out = workdir / f"no_record_{command}_n_s.csv"
    res = runner.invoke(main, [command, *options, str(unrecorded["dist"]),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    settings = json.loads((workdir / f"{out.name}.manifest.json").read_text())["settings"]
    assert "detectors" not in settings


DETECTOR_KEYS = ("pixels", "efficiency", "dark_rate")


@st.composite
def mutated_records(draw):
    """The shipped record with one entry broken: a key missing, NaN, a bool
    for any value, a fractional pixel count, or a string for a value or a
    whole entry."""
    record = preset_detector_entries()
    label = draw(st.sampled_from(AXIS_ORDER))
    key = draw(st.sampled_from(DETECTOR_KEYS))
    kind = draw(st.sampled_from(["missing", "nan", "bool", "fractional", "string",
                                 "string-entry"]))
    if kind == "missing":
        del record[label][key]
    elif kind == "nan":
        record[label][key] = math.nan
    elif kind == "bool":
        record[label][key] = draw(st.booleans())
    elif kind == "fractional":
        record[label]["pixels"] = draw(st.floats(1.0, 1e6).filter(
            lambda x: not x.is_integer()))
    elif kind == "string":
        record[label][key] = draw(st.text(max_size=8))
    else:
        record[label] = draw(st.text(max_size=8))
    return record


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(record=mutated_records(), source=st.sampled_from(["sidecar", "detector-file"]))
def test_cli_malformed_detector_record_exits_2(runner, workdir, dist4, record, source):
    out = workdir / "mutated_out.csv"
    if source == "sidecar":
        path = workdir / "mutated.csv"
        path.write_text(dist4.read_text())
        meta = json.loads((workdir / "dist4.csv.meta.json").read_text())
        (workdir / "mutated.csv.meta.json").write_text(json.dumps({**meta, "detectors": record}))
        named = f"{path}.meta.json"
        args = ["postselect", "--dist", str(path), "--selector", "c_s", "--value", "1"]
    else:
        path = workdir / "mutated.json"
        path.write_text(json.dumps(record))
        named = str(path)
        args = ["simulate", "--frames", "10", "--seed", "1", "--detector-file", str(path)]
    res = runner.invoke(main, [*args, "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "Traceback" not in res.output
    assert named in res.output
    assert not out.exists()


def test_cli_detector_file_only_where_detectors_are_written(runner):
    for name in main.commands:
        res = runner.invoke(main, [name, "--help"])
        assert res.exit_code == 0, res.output
        assert "--detectors" not in res.output
        assert ("--detector-file" in res.output) == (name in ("simulate", "ingest"))


def test_load_detectors_round_trip(tmp_path):
    path = tmp_path / "detectors.json"
    path.write_text(json.dumps(preset_detector_entries()))
    assert io.load_detectors(path) == PAPER_TABLE_1


def test_one_version_string():
    import warnings
    from pathlib import Path

    from setuptools.config.pyprojecttoml import read_configuration

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] is flagged beta
        project = read_configuration(pyproject)["project"]
    assert project["version"] == tripletwb.__version__


def test_import_leaves_scipy_optimize_unloaded():
    # a fresh interpreter, since other tests load them all into this one;
    # only fit.fit imports scipy.optimize and only the series route
    # scipy.special, so the other commands start without them. A split
    # contraction, run here on two workers, starts bare threads: it loads
    # neither concurrent.futures nor the logging that would come with it
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(tripletwb.__file__).resolve().parents[1])
    modules = ("scipy.optimize", "scipy.special", "concurrent.futures", "logging")
    code = ("import sys, numpy as np, tripletwb, tripletwb.cli; from tripletwb import fock; "
            "fock._workers = 2; "
            "fock.contract(np.ones((20, 30, 30, 30)), [None, None, None, np.ones((32, 30))]); "
            f"print([m for m in {modules!r} if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def _signature_default(fn, name):
    return inspect.signature(fn).parameters[name].default


@pytest.mark.parametrize("command, option, library", [
    ("reconstruct", "max_iterations", emrec.EmSettings().max_iterations),
    ("reconstruct", "tol", emrec.EmSettings().stop_tolerance),
    ("fit", "max_evals", _signature_default(fit, "max_evals")),
    ("quasi", "points", _signature_default(nonclassical.quasi_distribution_W, "points")),
    *[("ncc", "tail_tol", _signature_default(fn, "tail_tol"))
      for fn in (nonclassical.intensity_moments, nonclassical.intensity_criterion,
                 nonclassical.intensity_ncd)],
], ids=["max_iterations", "tol", "max_evals", "points", "tail_tol-intensity_moments",
        "tail_tol-intensity_criterion", "tail_tol-intensity_ncd"])
def test_cli_defaults_are_the_library_defaults(command, option, library):
    default = next(p.default for p in main.commands[command].params if p.name == option)
    assert default == library and type(default) is type(library)


@pytest.fixture(scope="module")
def narrow_hist(workdir):
    """40 frames with every count <= 2: a click box narrower than the
    detection matrices of the default photon cutoffs need."""
    path = workdir / "narrow_hist.csv"
    clicks = np.random.default_rng(0).integers(0, 3, (40, 4))
    io.save_histogram(Histogram.binned(clicks, (2, 2, 2, 2)), path, PAPER_TABLE_1)
    return path


@pytest.mark.parametrize("args, n_max, lost", [
    (["reconstruct", "--signal-cutoff", "6", "--idler-cutoff", "4", "--histogram"], 6,
     "2.07e-01"),
    (["sweep", "--source", "histogram", "--selector", "c_s", "--idler-cutoff", "4",
      "--input"], 4, "5.23e-02"),
    (["fit", "--histogram"], 32, "9.90e-01"),
])
def test_cli_narrow_click_range_exits_2(runner, workdir, narrow_hist, args, n_max, lost):
    # a truncation of the detection matrices, named by its cutoff and click
    # range: a data error, not a numerical one
    out = workdir / f"narrow_{args[0]}.csv"
    res = runner.invoke(main, [*args, str(narrow_hist), "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert res.output == (f"error: click range 0..2 is too narrow for the photon cutoff "
                          f"n_max = {n_max}: the detection matrix loses {lost} of a column "
                          "beyond it; lower the photon cutoff or widen the click range\n")
    assert not out.exists()


def read_columns(path):
    """The header and the parsed float columns of a CSV."""
    with path.open(newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, np.array(rows, dtype=np.float64).reshape(-1, len(header)).T


def test_cli_tables_read_back_to_the_library_doubles(runner, workdir, sim_hist, dist4,
                                                     dist3_poisson):
    # the sweep, trace and cut CSVs: their headers, and every field the
    # exact double the library computed
    trace = workdir / "exact_trace.csv"
    res = runner.invoke(main, [
        "reconstruct", "--histogram", str(sim_hist), "--max-iterations", "7",
        "--out", str(workdir / "exact_photons.csv"), "--trace-out", str(trace)])
    assert res.exit_code == 0, res.output
    h = io.load_histogram(sim_hist)
    mats = {l: detection_matrix(PAPER_TABLE_1[l], 32 if l == "s" else 20, c)
            for l, c in zip(AXIS_ORDER, h.cutoffs)}
    want = emrec.em_reconstruct(h, mats, emrec.EmSettings(max_iterations=7)).trace_columns()
    sweep = workdir / "exact_sweep.csv"
    res = runner.invoke(main, ["sweep", "--source", "dist", "--input", str(dist4),
                               "--selector", "c_s", "--out", str(sweep)])
    assert res.exit_code == 0, res.output
    t_s = detection_matrix(PAPER_TABLE_1["s"], 8)
    sw = postselect.sweep_distribution(io.load_distribution(dist4), "c_s",
                                       range(t_s.c_max + 1), t_s)
    assert len(sw.rows) > 3
    cut = workdir / "exact_cut.csv"
    res = runner.invoke(main, ["quasi", "--dist", str(dist3_poisson), "--s", "0.5",
                               "--modes", "1,1,2", "--points", "150", "--cut", "triangular",
                               "--level", "3", "--out", str(cut)])
    assert res.exit_code == 0, res.output
    q = nonclassical.quasi_distribution_W(io.load_distribution(dist3_poisson), 0.5,
                                          (1.0, 1.0, 2.0), points=150)
    for path, columns in ((trace, want), (sweep, sw.columns()),
                          (cut, nonclassical.plane_cut(q, "triangular", 3.0).columns())):
        header, got = read_columns(path)
        assert header == list(columns)
        for name, column in zip(header, got):
            np.testing.assert_array_equal(column, columns[name], err_msg=f"{path.name} {name}")


def int_text(lo, hi):
    return st.integers(lo, hi).map(str)


#: any float option value: nan, infinities, negatives, zeros, subnormals
FLOAT_TEXT = (st.floats() | st.sampled_from([0.0, -0.0, -1.0, 5e-324, 1e300])).map(str)
TRIPLE_TEXT = st.tuples(FLOAT_TEXT, FLOAT_TEXT, FLOAT_TEXT).map(",".join) | st.text(max_size=10)
RANGE_TEXT = st.tuples(int_text(-3, 60), int_text(-3, 60)).map(":".join) | st.text(max_size=8)
#: each command's options, with the values drawn for them. The sizes are
#: bounded so that no example asks for more than ~100 MB: --frames <= 2000,
#: a simulated click box of at most 61 x 41^3 int64 cells (34 MB), photon
#: tables of at most 41 x 26^3 doubles (5.6 MB), --points <= 48 (a 0.9 MB
#: grid) and a --box of at most 9 per axis on a table of 9^3 cells. Sizes
#: that would ask for gigabytes are left to the refusals tested above.
OPTION_VALUES = {
    "simulate": {"--frames": int_text(-2, 2000), "--seed": int_text(-2, 2**70),
                 "--signal-cutoff": int_text(-2, 50), "--idler-cutoff": int_text(-2, 30),
                 "--tail-tol": FLOAT_TEXT},
    "fit": {"--max-evals": int_text(-2, 3), "--free-efficiencies": st.just(None)},
    "reconstruct": {"--conditional": int_text(-2, 50), "--signal-cutoff": int_text(-2, 40),
                    "--idler-cutoff": int_text(-2, 25), "--max-iterations": int_text(-2, 5),
                    "--tol": FLOAT_TEXT},
    "postselect": {"--selector": st.sampled_from(["n_s", "c_s"]), "--value": int_text(-5, 50)},
    "sweep": {"--source": st.sampled_from(["dist", "histogram"]),
              "--selector": st.sampled_from(["n_s", "c_s"]), "--range": RANGE_TEXT,
              "--idler-cutoff": int_text(-2, 12)},
    "ncc": {"--criterion": st.sampled_from(["cs", "matrix"]),
            "--kind": st.sampled_from(["intensity", "probability"]), "--modes": TRIPLE_TEXT,
            "--no-ncd": st.just(None), "--tail-tol": FLOAT_TEXT},
    "ncd-field": {"--criterion": st.sampled_from(["cs", "matrix"]), "--modes": TRIPLE_TEXT,
                  "--box": (st.tuples(*[int_text(-2, 9)] * 3).map(",".join)
                            | st.text(max_size=8))},
    "quasi": {"--s": FLOAT_TEXT, "--modes": TRIPLE_TEXT, "--points": int_text(-1, 48),
              "--cut": st.sampled_from(["diagonal", "triangular"]), "--level": FLOAT_TEXT},
    "cut": {"--kind": st.sampled_from(["diagonal", "triangular"]),
            "--level": int_text(-5, 40)},
}
#: options a command cannot run without, and their values when an example omits them
REQUIRED = {"simulate": {"--frames": "50", "--seed": "1"},
            "postselect": {"--selector": "n_s", "--value": "1"},
            "sweep": {"--source": "dist", "--selector": "c_s"}, "ncc": {"--criterion": "cs"},
            "ncd-field": {"--criterion": "cs"}, "quasi": {"--s": "0.5"},
            "cut": {"--kind": "diagonal"}}


@st.composite
def option_values(draw, command):
    """Arguments for ``command``: each of its options left out or given a
    drawn value (a flag given or not), the required ones filled in."""
    args = []
    for option, values in OPTION_VALUES[command].items():
        if draw(st.booleans()):
            value = draw(values)
            args += [option] if value is None else [option, value]
        elif option in REQUIRED.get(command, {}):
            args += [option, REQUIRED[command][option]]
    return args


@pytest.mark.parametrize("command", sorted(OPTION_VALUES))
@hypothesis.settings(max_examples=15, deadline=None)
@hypothesis.given(data=st.data())
def test_cli_option_values_exit_0_2_or_3(runner, workdir, small_hist, fit_hist, dist4, dist3,
                                        dist3_poisson, command, data):
    args = data.draw(option_values(command))
    source = dist4 if "dist" in args else small_hist
    inputs = {"simulate": [], "fit": ["--histogram", str(fit_hist)],
              "reconstruct": ["--histogram", str(small_hist), "--trace-out",
                              str(workdir / "fuzzed_trace.csv")],
              "postselect": ["--dist", str(dist4)], "sweep": ["--input", str(source)],
              "ncc": ["--dist", str(dist3)], "ncd-field": ["--dist", str(dist3)],
              "quasi": ["--dist", str(dist3_poisson)], "cut": ["--input", str(dist3)]}[command]
    out = workdir / "fuzzed_option_out.csv"
    out.unlink(missing_ok=True)
    res = runner.invoke(main, [command, *inputs, *args, "--out", str(out)])
    assert res.exit_code in (0, 2, 3), (args, res.output, res.exception)
    assert "Traceback" not in res.output
