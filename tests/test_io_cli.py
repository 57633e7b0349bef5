"""File formats and the command-line pipelines."""
import json

import numpy as np
import pytest
from click.testing import CliRunner

import tripletwb
from tripletwb import io
from tripletwb.cli import main
from tripletwb.detector import PAPER_TABLE_1
from tripletwb.errors import DataError
from tripletwb.fock import AXIS_ORDER, Histogram, JointDistribution

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
        io.ingest_frames(p)


def test_ingest_frames_rejects_malformed_rows(tmp_path):
    p = tmp_path / "frames.csv"
    p.write_text("frame_id,c_s,c_i1,c_i2,c_i3\n0,2,x,0,1\n")
    with pytest.raises(DataError, match=":2:"):
        io.ingest_frames(p)
    p.write_text("frame_id,c_s,c_i1,c_i2,c_i3\n0,2,1,0\n")
    with pytest.raises(DataError, match="expected 5 fields"):
        io.ingest_frames(p)
    p.write_text("bad,header\n")
    with pytest.raises(DataError, match="expected header"):
        io.ingest_frames(p)
    p.write_text("frame_id,c_s,c_i1,c_i2,c_i3\n")
    with pytest.raises(DataError, match="no frames"):
        io.ingest_frames(p)


def test_ingest_frames_enforces_pixel_budget(tmp_path):
    p = tmp_path / "frames.csv"
    pixels = PAPER_TABLE_1["i1"].pixels
    p.write_text(f"frame_id,c_s,c_i1,c_i2,c_i3\n0,1,{pixels + 1},0,0\n")
    with pytest.raises(DataError, match="exceeds"):
        io.ingest_frames(p, PAPER_TABLE_1)


def test_histogram_round_trip(tmp_path):
    counts = np.zeros((4, 3, 3, 3), dtype=np.int64)
    counts[0, 0, 0, 0] = 5
    counts[3, 2, 1, 0] = 2
    h = Histogram(counts, 7)
    path = tmp_path / "hist.csv"
    io.save_histogram(h, path, detector_presets={"preset": "paper-table-1"})
    back = io.load_histogram(path)
    assert back.trials == 7
    assert back.axis_labels == h.axis_labels
    np.testing.assert_array_equal(back.counts, counts)


def test_distribution_round_trip(tmp_path):
    d = product_dist((0.4, 0.2, 0.3), 5)
    path = tmp_path / "dist.csv"
    io.save_distribution(d, path)
    back = io.load_distribution(path)
    assert back.normalized
    assert back.axis_labels == d.axis_labels
    np.testing.assert_allclose(back.values, d.values, atol=1e-16)


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
    io.save_distribution(product_dist((0.5, 0.3, 0.2, 0.25), 8), path)
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


def test_cli_ingest(runner, workdir):
    out = workdir / "ingested.csv"
    res = runner.invoke(main, [
        "ingest", "--frames", str(workdir / "frames.csv"), "--out", str(out)])
    assert res.exit_code == 0, res.output
    h = io.load_histogram(out)
    assert h.trials == 3000


def test_cli_ingest_duplicate_frames_exits_2(runner, workdir):
    bad = workdir / "bad_frames.csv"
    bad.write_text(FRAME_TEXT + "2,1,1,1,1\n")
    res = runner.invoke(main, [
        "ingest", "--frames", str(bad), "--out", str(workdir / "nope.csv")])
    assert res.exit_code == 2


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


def test_cli_ncd_field_and_cut(runner, workdir, dist3):
    field_out = workdir / "field.csv"
    res = runner.invoke(main, [
        "ncd-field", "--dist", str(dist3), "--criterion", "cs",
        "--box", "1,1,1", "--out", str(field_out)])
    assert res.exit_code == 0, res.output
    lines = field_out.read_text().splitlines()
    assert lines[0] == "n_i1,n_i2,n_i3,tau"
    assert len(lines) == 9
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


def test_cli_quasi(runner, workdir, dist3_poisson):
    out = workdir / "quasi.csv"
    res = runner.invoke(main, [
        "quasi", "--dist", str(dist3_poisson), "--s", "0.5", "--out", str(out)])
    assert res.exit_code == 0, res.output
    meta = json.loads((workdir / "quasi.csv.meta.json").read_text())
    assert meta["integral"] == pytest.approx(1.0, abs=1e-2)


def test_cli_quasi_numerical_error_exits_3(runner, workdir, dist3_poisson):
    res = runner.invoke(main, [
        "quasi", "--dist", str(dist3_poisson), "--s", "0.5", "--points", "3",
        "--out", str(workdir / "nope2.csv")])
    assert res.exit_code == 3


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
    io.save_histogram(Histogram(counts, int(counts.sum())), hist)
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
    io.save_histogram(Histogram(counts, int(counts.sum())), hist)
    out = workdir / "sweep_em.csv"
    res = runner.invoke(main, [
        "sweep", "--source", "histogram", "--input", str(hist),
        "--selector", "c_s", "--idler-cutoff", "3", "--out", str(out)])
    assert res.exit_code == 0, res.output
    em = json.loads((workdir / "sweep_em.csv.manifest.json").read_text())["settings"]["em"]
    assert [e["selector"] for e in em] == [0, 1, 2]
    for e in em:
        # the sweep's default budget is 2000 maps at a 1e-9 stop tolerance
        assert 1 <= e["iterations"] <= 2000
        assert e["converged"] == (e["residual"] < 1e-9)
        assert e["converged"] or e["iterations"] == 2000


def test_cli_cut_malformed_lattice_exits_2(runner, workdir):
    lattice = workdir / "bad_field.csv"
    lattice.write_text("n_i1,n_i2,n_i3,tau\n0,0,0,0.5\n0,-1,0,0.2\n")
    res = runner.invoke(main, [
        "cut", "--input", str(lattice), "--kind", "diagonal",
        "--out", str(workdir / "nope6.csv")])
    assert res.exit_code == 2, res.output
    assert f"{lattice}:3: negative cell index" in res.output


def test_cli_sweep_malformed_range_exits_2(runner, workdir, dist4):
    res = runner.invoke(main, [
        "sweep", "--source", "dist", "--input", str(dist4), "--selector", "n_s",
        "--range", "3", "--out", str(workdir / "nope3.csv")])
    assert res.exit_code == 2
    assert "--range" in res.output


def test_cli_fit_runs(runner, workdir):
    # a tiny budget may end before the fit converges: that is a numerical
    # error (exit 3), never an uncaught exception (exit 1)
    hist = workdir / "fit_hist.csv"
    res = runner.invoke(main, [
        "simulate", "--frames", "200000", "--seed", "11", "--out", str(hist)])
    assert res.exit_code == 0, res.output
    out = workdir / "fit.json"
    res = runner.invoke(main, [
        "fit", "--histogram", str(hist), "--max-evals", "3", "--out", str(out)])
    assert res.exit_code in (0, 3), res.output
    if res.exit_code == 0:
        assert "declination" in json.loads(out.read_text())
    else:
        assert res.output.startswith("numerical error: ")


def test_cli_missing_sidecar_exits_2(runner, workdir, sim_hist):
    bare = workdir / "bare_hist.csv"
    bare.write_text(sim_hist.read_text())
    res = runner.invoke(main, [
        "reconstruct", "--histogram", str(bare), "--out", str(workdir / "nope4.csv")])
    assert res.exit_code == 2, res.output
    assert str(bare) in res.output


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


def test_load_detectors_round_trip(tmp_path):
    path = tmp_path / "detectors.json"
    path.write_text(json.dumps({l: {"pixels": c.pixels, "efficiency": c.efficiency,
                                    "dark_rate": c.dark_rate}
                                for l, c in PAPER_TABLE_1.items()}))
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
