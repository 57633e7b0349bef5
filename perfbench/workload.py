"""One benchmark workload in its own process: set-up, timed rounds, checks.

Run from the repository root with ``src`` on the path (``run.py`` does
this):

    python3 perfbench/workload.py --workload cli-chain --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the set-up time,
the time of every round, the peak resident memory, the operations
attempted and failed, the check results and, with ``--trace 1``, the
per-layer figures. ``--setup-only`` stops after the set-up.

Times are reported twice: as measured, and in reference seconds. A short
fixed speed probe runs before the first and after every operation; an
operation's reference time is its measured time scaled by PROBE_REF_S over
the mean of the two probes around it. The host's speed drifts by 10-20%
within a minute, and the probe slows with it, so reference seconds follow
the program and not the host.
"""
from __future__ import annotations

import functools
import time

T_START = time.perf_counter()  # set-up time counts from before the imports

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io as _stdio  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.special import logsumexp  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks as ck  # noqa: E402
from spans import Tracer  # noqa: E402

FRAMES = 1_000_000
SIGNAL_CUTOFF, IDLER_CUTOFF = 32, 20
CLICK_BOX = (42, 30, 30, 30)  # default_c_max of the preset at 32 / 20 photons
MODEL_TAIL_TOL = 1e-3  # the shipped noise tails need a 1e-3 box tolerance
RECONSTRUCT_TOL = 5e-6  # EM stop tolerance: max per-cell change of one map
SWEEP_HIST_RANGE = (3, 7)  # c_s slices inverted by `sweep --source histogram`
NCC_SELECTOR = 3  # n_s slice scored by `ncc`; its criterion is far from round-off
AXIS_MEAN_TOL = 0.02  # reconstructed axis photon means against sum M*B
CLICK_MEAN_SE = 5.0  # click means of all sampled frames against the closed form
FIT_CANDIDATES = 192  # fit-objective forward evaluations per round
FIT_BLOCKS = 12  # probes bracket blocks of FIT_CANDIDATES / FIT_BLOCKS evaluations
FIT_CHECKED = 2  # candidates re-evaluated by the checks
MOMENT_REL_TOL = 1e-8  # click moments against closed forms on the same photon table
PROBE_REF_S = 0.2  # probe time that defines a reference second
NC_MODES = (1.0, 1.0, 1.0)
NC_BOXES = {"ideal": (3, 3, 3), "real": (2, 2, 2)}
NC_QUASI = {"ideal": 0.0, "real": 0.05}  # ordering s of each quasi_distribution_W
QUASI_POINTS = 400  # the CLI default; smaller grids fail the moment check
INTENSITY_TAIL_TOL = 2e-2  # the exact fields' i2 noise tail exceeds the 1e-6 default
AXES = ("s", "i1", "i2", "i3")


def _now() -> float:
    return time.perf_counter()


def _maybe_span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class SpeedProbe:
    """A fixed mix of the workloads' kinds of work, about 0.2 s.

    Contractions of a 2.4 MB and a 7.5 MB table (the EM, forward and
    moment sums on 4D tables are memory-bound), small scipy calls (the
    lattice NCD is call overhead) and plain interpreter work.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.random((33, 21, 21, 21))
        self.large = rng.random((33, 31, 31, 31))
        self.mat = rng.random((43, 33))
        self.vec = rng.random(20)

    def __call__(self) -> float:
        t0 = _now()
        for _ in range(30):
            np.tensordot(self.mat, self.small, axes=(1, 0))
        for _ in range(12):
            np.tensordot(self.mat, self.large, axes=(1, 0))
        for _ in range(500):
            logsumexp(self.vec)
        acc = 0
        for i in range(200_000):
            acc += i * i
        return _now() - t0


def run_round(wl: "Workload", tracer: Tracer | None, probe: SpeedProbe) -> tuple[float, float]:
    """Measured and reference seconds of one round of ``wl``'s operations.

    Each operation's time is scaled by PROBE_REF_S over the mean of the two
    probes around it.
    """
    raw = ref = 0.0
    before = probe()
    for op in wl.ops(tracer):
        t0 = _now()
        op()
        dt = _now() - t0
        after = probe()
        raw += dt
        ref += dt * PROBE_REF_S / (0.5 * (before + after))
        before = after
    return raw, ref


def axis_components(params, axis: str) -> list[tuple[float, float]]:
    """(M, B) of every Mandel-Rice component that lands on ``axis``."""
    if axis == "s":
        comps = [*params.pairs, params.noise_s]
    else:
        j = ("i1", "i2", "i3").index(axis)
        comps = [params.pairs[j], params.noises[j + 1]]
    return [(c.M, c.B) for c in comps]


def closed_form_click_means(params, cfgs) -> list[float]:
    return [ck.click_mean(axis_components(params, a), cfgs[a].pixels,
                          cfgs[a].efficiency, cfgs[a].dark_rate) for a in AXES]


def read_table(path: Path, shape) -> np.ndarray:
    """Dense table from a `cell indices..., value` CSV, parsed with NumPy."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    out = np.zeros(shape)
    idx = tuple(rows[:, i].astype(np.int64) for i in range(len(shape)))
    np.add.at(out, idx, rows[:, -1])
    return out


def read_csv_columns(path: Path) -> dict[str, np.ndarray]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:] if ln],
                    ndmin=2)
    return {h: data[:, i] for i, h in enumerate(header)}


# ---------------------------------------------------------------------------
# tracing: which functions are wrapped, at which names
# ---------------------------------------------------------------------------

#: (module, attribute, span name). A function is wrapped at every name its
#: callers look it up by; modules that import it by name hold their own copy.
WRAPS = (
    ("tripletwb.cli", "sample_photon_numbers", "gaussian.sample_photon_numbers"),
    ("tripletwb.gaussian", "sample_photon_numbers", "gaussian.sample_photon_numbers"),
    ("tripletwb.gaussian:GaussianFieldModel", "distribution", "gaussian.model"),
    ("tripletwb.cli", "sample_counts", "detector.sample_counts"),
    ("tripletwb.detector", "sample_counts", "detector.sample_counts"),
    ("tripletwb.cli", "detection_matrix", "detector.detection_matrix"),
    ("tripletwb.fit", "detection_matrix", "detector.detection_matrix"),
    ("tripletwb.detector", "detection_matrix", "detector.detection_matrix"),
    ("tripletwb.fit", "forward_counts", "detector.forward_counts"),
    ("tripletwb.detector", "forward_counts", "detector.forward_counts"),
    ("tripletwb.fock", "apply_matrix", "fock.apply_matrix"),
    ("tripletwb.emrec", "apply_matrix", "fock.apply_matrix"),
    ("tripletwb.detector", "apply_matrix", "fock.apply_matrix"),
    ("tripletwb.emrec", "em_reconstruct", "emrec.em_reconstruct"),
    ("tripletwb.postselect", "conditioned_field", "postselect.conditioned_field"),
    ("tripletwb.postselect", "sweep_distribution", "postselect.sweep_distribution"),
    ("tripletwb.postselect", "sweep_histogram", "postselect.sweep_histogram"),
    ("tripletwb.nonclassical", "intensity_ncd", "nonclassical.intensity_ncd"),
    ("tripletwb.nonclassical", "probability_ncd", "nonclassical.probability_ncd"),
    ("tripletwb.nonclassical", "ncd_field", "nonclassical.ncd_field"),
    ("tripletwb.nonclassical", "quasi_probabilities", "nonclassical.quasi_probabilities"),
    ("tripletwb.nonclassical", "quasi_distribution_W", "nonclassical.quasi_distribution_W"),
    ("tripletwb.nonclassical", "plane_cut", "nonclassical.plane_cut"),
    ("tripletwb.fit", "table_moments", "fit.table_moments"),
    ("tripletwb.fit", "declination", "fit.declination"),
    ("tripletwb.io", "save_histogram", "io.save_histogram"),
    ("tripletwb.io", "load_histogram", "io.load_histogram"),
    ("tripletwb.io", "save_distribution", "io.save_distribution"),
    ("tripletwb.io", "load_distribution", "io.load_distribution"),
)

#: Spans the benchmark records itself, around each CLI command it runs.
CLI_SPANS = ("cli.simulate", "cli.reconstruct", "cli.postselect", "cli.sweep_dist",
             "cli.sweep_histogram", "cli.ncc")

SPAN_NAMES = tuple(dict.fromkeys([w[2] for w in WRAPS] + list(CLI_SPANS)))


def _owner(path: str):
    # importlib, not `import tripletwb.fit as m`: the package's own
    # `from .fit import fit` rebinds the attribute `tripletwb.fit` to the
    # function, while sys.modules keeps the module
    mod_name, _, cls = path.partition(":")
    mod = importlib.import_module(mod_name)
    return getattr(mod, cls) if cls else mod


class LayerCounters:
    """Counts read from return values and arguments of wrapped calls."""

    def __init__(self):
        self.em_maps = {3: 0, 4: 0}  # EM maps by table rank
        self.em_seconds = {3: 0.0, 4: 0.0}
        self.offsets = 0
        self.bytes_written = 0

    def install(self, tracer: Tracer) -> None:
        tracer.observe("emrec.em_reconstruct", self._em)
        tracer.observe("nonclassical.ncd_field", self._ncd)
        for name in ("io.save_histogram", "io.save_distribution"):
            tracer.observe(name, self._saved)

    def _em(self, args, kwargs, result, seconds):
        rank = result.distribution.values.ndim
        self.em_maps[rank] = self.em_maps.get(rank, 0) + result.iterations
        self.em_seconds[rank] = self.em_seconds.get(rank, 0.0) + seconds

    def _ncd(self, args, kwargs, result, seconds):
        self.offsets += result.values.size

    def _saved(self, args, kwargs, result, seconds):
        path = Path(args[1] if len(args) > 1 else kwargs["path"])
        self.bytes_written += path.stat().st_size
        sidecar = path.with_suffix(path.suffix + ".meta.json")
        if sidecar.exists():
            self.bytes_written += sidecar.stat().st_size


def install_tracer() -> tuple[Tracer, LayerCounters]:
    tracer = Tracer()
    for owner, attr, name in WRAPS:
        tracer.wrap(_owner(owner), attr, name)
    counters = LayerCounters()
    counters.install(tracer)
    return tracer, counters


def layer_metrics(tracer: Tracer, counters: LayerCounters) -> dict:
    summary = tracer.summary()
    out = {}
    for name in SPAN_NAMES:
        row = summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        out[f"{name}_calls"] = (row["calls"], "count")
        out[f"{name}_s"] = (row["s"], "s")
        out[f"{name}_self_s"] = (row["self_s"], "s")
    maps, em_s = sum(counters.em_maps.values()), sum(counters.em_seconds.values())
    out["emrec.maps"] = (maps, "count")
    out["emrec.map_ms"] = (1e3 * em_s / maps if maps else 0.0, "ms")
    for rank in (4, 3):
        n, sec = counters.em_maps.get(rank, 0), counters.em_seconds.get(rank, 0.0)
        out[f"emrec.maps_{rank}d"] = (n, "count")
        out[f"emrec.map_ms_{rank}d"] = (1e3 * sec / n if n else 0.0, "ms")
    out["io.bytes_written"] = (counters.bytes_written, "bytes")
    sim = summary.get("cli.simulate", {"s": 0.0, "calls": 0})
    out["cli.simulate_frames_per_s"] = (FRAMES * sim["calls"] / sim["s"] if sim["s"] else 0.0,
                                        "frames/s")
    ncd = summary.get("nonclassical.ncd_field", {"s": 0.0})["s"]
    out["nonclassical.ncd_offsets_per_s"] = (counters.offsets / ncd if ncd else 0.0,
                                             "offsets/s")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Set-up, one round of operations, and the checks of that round."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed % 2**31  # derived seeds must be nonnegative
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.unexpected_failures: list[str] = []

    def setup(self) -> None:
        """Import, the 4D model table, the four detection matrices, inputs."""
        from tripletwb.detector import PAPER_TABLE_1
        from tripletwb.gaussian import PAPER_TABLE_2, GaussianFieldModel
        detector = importlib.import_module("tripletwb.detector")
        self.cfgs = PAPER_TABLE_1
        self.params = PAPER_TABLE_2
        # built on every workload, so that set-up time covers the model build
        self.model4 = GaussianFieldModel(PAPER_TABLE_2, tail_tol=MODEL_TAIL_TOL).distribution()
        self.mats = {l: detector.detection_matrix(cfg, SIGNAL_CUTOFF if l == "s" else IDLER_CUTOFF)
                     for l, cfg in PAPER_TABLE_1.items()}
        self.make_inputs()

    def make_inputs(self) -> None:
        pass

    def ops(self, tracer: Tracer | None) -> list:
        """The round's operations, as callables run one after another."""
        raise NotImplementedError

    def call(self, store: dict, key, fn, *args, **kwargs) -> None:
        """One library operation; a raised error counts as a failed operation."""
        self.attempted += 1
        try:
            store[key] = fn(*args, **kwargs)
        except Exception as exc:
            store[key] = None
            self.failed += 1
            self.unexpected_failures.append(f"{fn.__name__}{key}: {exc!r}")

    def checks(self) -> list[ck.Check]:
        raise NotImplementedError


class CliChain(Workload):
    """The documented CLI chain, run in-process through tripletwb.cli.main."""

    name = "cli-chain"

    def make_inputs(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.sim_seed = 1000 + 7 * self.seed
        self.log = self.workdir / "cli.log"
        self.exit_codes: dict[str, int] = {}  # by output path

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def cli(self, tracer, span: str, args: list[str], expect_fault: str | None = None) -> int:
        """Run one command as the console script would; return its exit code."""
        from tripletwb.cli import main
        self.attempted += 1
        out = _stdio.StringIO()
        with _maybe_span(tracer, span), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            try:
                main.main(args=args, prog_name="tripletwb", standalone_mode=False)
                code = 0
            except SystemExit as exc:  # handle_errors exits 2 or 3
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught error exits 1 with a traceback
                code = 1
                traceback.print_exc(file=out)
        with self.log.open("a") as fh:
            fh.write(f"$ tripletwb {' '.join(args)}\n{out.getvalue()}[exit {code}]\n")
        if code != 0:
            self.failed += 1
            if expect_fault is None or expect_fault not in out.getvalue():
                self.unexpected_failures.append(f"{args[0]} exited {code}")
        self.exit_codes[args[-1]] = code
        return code

    def ops(self, tracer) -> list:
        p = self.path
        self.log.write_text("")
        lo, hi = SWEEP_HIST_RANGE
        cmd = functools.partial(self.cli, tracer)
        return [
            functools.partial(cmd, "cli.simulate", [
                "simulate", "--frames", str(FRAMES), "--seed", str(self.sim_seed),
                "--out", p("hist.csv")]),
            functools.partial(cmd, "cli.reconstruct", [
                "reconstruct", "--histogram", p("hist.csv"), "--out", p("photons.csv"),
                "--tol", f"{RECONSTRUCT_TOL:g}", "--trace-out", p("trace.csv")]),
            functools.partial(cmd, "cli.postselect", [
                "postselect", "--dist", p("photons.csv"), "--selector", "n_s",
                "--value", str(NCC_SELECTOR), "--out", p("cond_ns.csv")]),
            functools.partial(cmd, "cli.postselect", [
                "postselect", "--dist", p("photons.csv"), "--selector", "c_s",
                "--value", "5", "--out", p("cond_cs.csv")]),
            functools.partial(cmd, "cli.sweep_dist", [
                "sweep", "--source", "dist", "--input", p("photons.csv"), "--selector", "c_s",
                "--range", f"0:{CLICK_BOX[0]}", "--out", p("sweep_dist.csv")]),
            # the README's own example: no --range, documented to mean the full axis
            functools.partial(cmd, "cli.sweep_dist", [
                "sweep", "--source", "dist", "--input", p("photons.csv"), "--selector", "c_s",
                "--out", p("sweep_readme.csv")],
                expect_fault="TypeError: 'NoneType' object is not iterable"),
            functools.partial(cmd, "cli.sweep_histogram", [
                "sweep", "--source", "histogram", "--input", p("hist.csv"), "--selector", "c_s",
                "--range", f"{lo}:{hi}", "--out", p("sweep_hist.csv")]),
            functools.partial(cmd, "cli.ncc", [
                "ncc", "--dist", p("cond_ns.csv"), "--criterion", "cs",
                "--kind", "probability", "--out", p("ncc.json")]),
        ]

    def checks(self) -> list[ck.Check]:
        nonclassical = importlib.import_module("tripletwb.nonclassical")
        gaussian = importlib.import_module("tripletwb.gaussian")
        detector = importlib.import_module("tripletwb.detector")
        from tripletwb.fock import JointDistribution
        wd = self.workdir
        out = []
        hist_meta = json.loads((wd / "hist.csv.meta.json").read_text())
        hist_man = json.loads((wd / "hist.csv.manifest.json").read_text())
        counts = read_table(wd / "hist.csv", [c + 1 for c in CLICK_BOX])
        out.append(ck.frames_accounted(int(hist_meta["trials"]),
                                       int(hist_man["settings"]["dropped_frames"]), FRAMES))
        # the sampler is deterministic per seed: regenerate every frame,
        # dropped ones included, which the histogram alone cannot show
        photons = gaussian.sample_photon_numbers(self.params, FRAMES, self.sim_seed)
        clicks = detector.sample_counts(photons, self.cfgs, self.sim_seed + 1)
        keep = np.all(clicks <= np.asarray(CLICK_BOX), axis=1)
        again = np.zeros_like(counts)
        np.add.at(again, tuple(clicks[keep].T), 1)
        out.append(ck.Check("simulate.histogram_matches_frames", np.array_equal(again, counts),
                            f"{int(keep.sum())} kept frames rebinned"))
        out.append(ck.click_means_within(
            clicks, closed_form_click_means(self.params, self.cfgs), CLICK_MEAN_SE,
            "simulate.click_means"))
        del photons, clicks
        # reconstruct
        man = json.loads((wd / "photons.csv.manifest.json").read_text())["settings"]
        out.append(ck.Check("reconstruct.converged", man["converged"] is True,
                            f"{man['iterations']} maps, residual {man['residual']:.3e}"))
        trace = read_csv_columns(wd / "trace.csv")
        out.append(ck.loglik_nondecreasing(trace["loglik"]))
        shape = (SIGNAL_CUTOFF + 1,) + (IDLER_CUTOFF + 1,) * 3
        p4 = read_table(wd / "photons.csv", shape)
        out.append(ck.is_distribution(p4, "reconstruct.distribution"))
        out.append(ck.relative_close("reconstruct.axis_means", ck.axis_means(p4),
                                     [self.params.axis_mean(a) for a in AXES], AXIS_MEAN_TOL))
        # postselect on n_s and on c_s
        m_ns = json.loads((wd / "cond_ns.csv.manifest.json").read_text())["settings"]
        want_ns = float(p4[NCC_SELECTOR].sum())
        out.append(ck.relative_close("postselect.n_s_mass", [m_ns["slice_mass"]], [want_ns], 1e-9))
        cond = read_table(wd / "cond_ns.csv", shape[1:])
        err = float(np.max(np.abs(cond - p4[NCC_SELECTOR] / want_ns)))
        out.append(ck.Check("postselect.n_s_field", err <= 1e-12, f"max deviation {err:.2e}"))
        s_cfg = self.cfgs["s"]
        t_s5 = np.array([ck.detection_prob_exact(s_cfg.pixels, s_cfg.efficiency,
                                                 s_cfg.dark_rate, 5, n)
                         for n in range(SIGNAL_CUTOFF + 1)])
        m_cs = json.loads((wd / "cond_cs.csv.manifest.json").read_text())["settings"]
        want_cs = float(t_s5 @ p4.sum(axis=(1, 2, 3)))
        out.append(ck.relative_close("postselect.c_s_mass", [m_cs["slice_mass"]], [want_cs], 1e-8))
        # full-axis distribution sweep: law of total expectation
        sw = read_csv_columns(wd / "sweep_dist.csv")
        means = np.stack([sw["mean_i1"], sw["mean_i2"], sw["mean_i3"]], axis=1)
        out.append(ck.total_expectation(sw["slice_mass"], means, ck.axis_means(p4)[1:],
                                        (IDLER_CUTOFF,) * 3, "sweep_dist.total_expectation"))
        if self.exit_codes.get(self.path("sweep_readme.csv")) == 0:  # the fault is mended: same rows as the explicit range
            same = (wd / "sweep_readme.csv").read_text() == (wd / "sweep_dist.csv").read_text()
            out.append(ck.Check("sweep_dist.default_range", same, "rows of the default range"))
        # histogram sweep: slice masses are histogram slice counts / trials
        sh = read_csv_columns(wd / "sweep_hist.csv")
        lo, hi = SWEEP_HIST_RANGE
        want = counts.sum(axis=(1, 2, 3))[lo: hi + 1] / counts.sum()
        ok_rows = list(sh["selector"].astype(int)) == list(range(lo, hi + 1))
        out.append(ck.Check("sweep_hist.rows", ok_rows,
                            f"selectors {[int(x) for x in sh['selector']]}"))
        if ok_rows:
            out.append(ck.relative_close("sweep_hist.slice_masses", list(sh["slice_mass"]),
                                         list(want), 1e-9))
        # ncc: tau in (0, 1) and a sign change there on the series route
        res = json.loads((wd / "ncc.json").read_text())
        tau = res["tau"]
        out.append(ck.Check("ncc.tau_open_interval", tau is not None and 0.0 < tau < 1.0,
                            f"tau {tau}, criterion {res['value']:.3e}"))
        field = JointDistribution(cond / cond.sum(), ("i1", "i2", "i3"), normalized=True)

        def series(s):
            t = nonclassical.quasi_probabilities(field, s, NC_MODES, 2, method="series")
            return ck.probability_criterion(t.values, "cs")

        if tau is not None:
            out.append(ck.sign_change_at_depth(series, tau, "ncc.series_sign_change"))
        return out


def jittered_params(base, seed: int):
    """PAPER_TABLE_2 with each pair's M and B scaled by exp(u), |u| <= 0.02."""
    from tripletwb.gaussian import MandelRiceComponent, TripleTwbParams
    rng = np.random.default_rng([seed, 2])
    data = {k: getattr(base, k) for k in ("pair_1", "pair_2", "pair_3", "noise_s",
                                          "noise_i1", "noise_i2", "noise_i3")}
    for k in ("pair_1", "pair_2", "pair_3"):
        u = rng.uniform(-0.02, 0.02, size=2)
        data[k] = MandelRiceComponent(data[k].M * math.exp(u[0]), data[k].B * math.exp(u[1]))
    return TripleTwbParams(**data)


class NcLattice(Workload):
    """Nonclassicality on exact model fields: no EM, no CSV I/O."""

    name = "nc-lattice"

    def make_inputs(self) -> None:
        from tripletwb.fock import condition
        from tripletwb.gaussian import GaussianFieldModel
        postselect = importlib.import_module("tripletwb.postselect")
        self.nc_params = jittered_params(self.params, self.seed)
        model = GaussianFieldModel(self.nc_params, tail_tol=MODEL_TAIL_TOL).distribution()
        self.fields = {
            "ideal": condition(model, "s", 10),
            "real": postselect.conditioned_field(model, "c_s", 5, self.mats["s"])[1],
        }

    def ops(self, tracer) -> list:
        nonclassical = importlib.import_module("tripletwb.nonclassical")
        self.intensity, self.ncd, self.quasi_min = {}, {}, {}
        out = []
        for fname, field in self.fields.items():
            for crit in ("cs", "matrix"):
                out.append(functools.partial(
                    self.call, self.intensity, (fname, crit), nonclassical.intensity_ncd,
                    field, crit, NC_MODES, tail_tol=INTENSITY_TAIL_TOL))
            for crit in ("cs", "matrix"):
                out.append(functools.partial(
                    self.call, self.ncd, (fname, crit), nonclassical.ncd_field,
                    field, crit, NC_MODES, NC_BOXES[fname]))
            out.append(functools.partial(self.quasi, nonclassical, fname, field))
        return out

    def quasi(self, nonclassical, fname: str, field) -> None:
        """quasi_distribution_W and a plane cut; two 400^3 grids never coexist."""
        grids: dict = {}
        self.call(grids, fname, nonclassical.quasi_distribution_W, field, NC_QUASI[fname],
                  NC_MODES, points=QUASI_POINTS)
        q = grids.pop(fname)
        if q is not None:
            self.quasi_min[fname] = float(q.values.min())
            self.call(grids, fname, nonclassical.plane_cut, q, "diagonal")

    def checks(self) -> list[ck.Check]:
        nonclassical = importlib.import_module("tripletwb.nonclassical")
        from tripletwb.fock import JointDistribution
        out = []
        rng = np.random.default_rng([self.seed, 3])
        # ordering: a Mandel-Rice table (M, B) goes to (M, B + theta)
        M, B, s = rng.uniform(0.5, 3.0), rng.uniform(0.2, 2.0), rng.uniform(-0.8, 0.8)
        mr = ck.mandel_rice(ck.tail_cutoff(M, B), M, B)
        table = JointDistribution(mr / mr.sum(), ("i1",), normalized=True)
        got = nonclassical.quasi_probabilities(table, s, (M,), 12).values
        out.append(ck.ordering_maps_mandel_rice(got, M, B, s))
        # a one-mode thermal field's quasi-distribution is exponential; the
        # Laguerre synthesis is only accurate for s <= 0 on long tables
        Bt, st = rng.uniform(0.3, 1.5), rng.uniform(-0.5, 0.0)
        th = ck.mandel_rice(ck.tail_cutoff(1.0, Bt), 1.0, Bt)
        thermal = JointDistribution(th / th.sum(), ("i1",), normalized=True)
        q = nonclassical.quasi_distribution_W(thermal, st, (1.0,), points=QUASI_POINTS)
        out.append(ck.thermal_W_matches(q.grid(0), q.values, Bt, st))
        for (fname, crit), res in self.ncd.items():
            if res is None:
                continue
            vals = res.values
            out.append(ck.taus_in_unit_interval(vals, f"nc.{fname}_{crit}_field_range"))
            inner = [o for o in np.ndindex(vals.shape) if 0.0 < vals[o] < 1.0 and any(o)]
            field = self.fields[fname]
            for k in rng.permutation(len(inner))[:2]:
                off = tuple(int(x) for x in inner[k])

                def series(s, off=off, field=field, crit=crit):
                    box = tuple(o + 2 for o in off)
                    t = nonclassical.quasi_probabilities(field, s, NC_MODES, box,
                                                         method="series")
                    return ck.probability_criterion(t.values, crit, off)

                out.append(ck.sign_change_at_depth(
                    series, float(vals[off]), f"nc.{fname}_{crit}_field_sign_change{off}"))
        for (fname, crit), res in self.intensity.items():
            if res is None:
                continue
            table = self.fields[fname].values

            def moments(s, table=table, crit=crit):
                return ck.intensity_criterion(ck.ordered_moments(table, NC_MODES, s), crit)

            out.append(ck.sign_change_at_depth(moments, res.ncd.tau,
                                               f"nc.{fname}_{crit}_intensity_depth"))
        if "ideal" in self.quasi_min:
            out.append(ck.negative_minimum(self.quasi_min["ideal"], "nc.ideal_W_negative"))
        return out


class Fit(Workload):
    """The fit objective's forward work on fresh tables, at a fixed budget.

    Every candidate parameter set gets a new 4D model table, its forward map
    through the detection matrices, the click moments and the declination
    against a simulated histogram, as inside each evaluation of
    ``tripletwb.fit.fit``. ``fit.fit`` itself is not run: on this input it
    fails on some seeds (see CHANGES.md).
    """

    name = "fit"

    def make_inputs(self) -> None:
        from tripletwb.fock import Histogram
        gaussian = importlib.import_module("tripletwb.gaussian")
        detector = importlib.import_module("tripletwb.detector")
        photons = gaussian.sample_photon_numbers(self.params, FRAMES, 2000 + 7 * self.seed)
        clicks = detector.sample_counts(photons, self.cfgs, 2001 + 7 * self.seed)
        keep = np.all(clicks <= np.asarray(CLICK_BOX), axis=1)
        counts = np.zeros([c + 1 for c in CLICK_BOX], dtype=np.int64)
        np.add.at(counts, tuple(clicks[keep].T), 1)
        self.hist = Histogram(counts, int(keep.sum()))
        # the pair components move, the heavy-tailed noise stays: every
        # candidate keeps its discarded tail below the model's tolerance
        self.candidates = [jittered_params(self.params, self.seed * 1000 + k)
                           for k in range(FIT_CANDIDATES)]

    def evaluate(self, k: int):
        from tripletwb.gaussian import GaussianFieldModel
        detector = importlib.import_module("tripletwb.detector")
        fitmod = importlib.import_module("tripletwb.fit")  # the module, not the function
        model = GaussianFieldModel(self.candidates[k], SIGNAL_CUTOFF, (IDLER_CUTOFF,) * 3,
                                   tail_tol=MODEL_TAIL_TOL).distribution()
        clicks = detector.forward_counts(model, self.mats)
        moments = fitmod.table_moments(clicks.values, clicks.axis_labels)
        return model, clicks, moments, fitmod.declination(self.hist, clicks)

    def evaluate_block(self, block: range) -> None:
        for k in block:
            self.call(self.results, k, lambda k=k: self.evaluate(k)[2:])

    def ops(self, tracer) -> list:
        self.results: dict[int, tuple | None] = {}
        size = FIT_CANDIDATES // FIT_BLOCKS
        return [functools.partial(self.evaluate_block, range(b, b + size))
                for b in range(0, FIT_CANDIDATES, size)]

    def checks(self) -> list[ck.Check]:
        decl = [r[1] for r in self.results.values() if r is not None]
        out = [ck.Check("fit.declinations", len(decl) == FIT_CANDIDATES
                        and all(math.isfinite(d) and d >= 0.0 for d in decl),
                        f"{len(decl)} finite nonnegative of {FIT_CANDIDATES}")]
        rng = np.random.default_rng([self.seed, 4])
        rel = self.hist.counts / self.hist.trials
        for k in rng.choice(FIT_CANDIDATES, size=FIT_CHECKED, replace=False):
            model, clicks, moments, d = self.evaluate(int(k))
            same = self.results.get(int(k)) is not None and self.results[int(k)][1] == d
            out.append(ck.Check(f"fit.repeatable[{k}]", same, f"declination {d:.6e}"))
            out.append(ck.is_distribution(model.values, f"fit.model_table[{k}]"))
            out.append(ck.relative_close(
                f"fit.model_axis_means[{k}]", ck.axis_means(model.values),
                [self.candidates[k].axis_mean(a) for a in AXES], AXIS_MEAN_TOL))
            out.append(ck.click_moments_match(
                model.values, [self.cfgs[a] for a in AXES], moments, MOMENT_REL_TOL,
                f"fit.click_moments[{k}]"))
            want = float(np.sum((rel - clicks.values) ** 2 / np.maximum(clicks.values, 1e-10)))
            out.append(ck.relative_close(f"fit.declination[{k}]", [d], [want], 1e-9))
        return out


WORKLOADS = {w.name: w for w in (CliChain, NcLattice, Fit)}


def span_cost(calls: int = 100_000) -> float:
    """Seconds a traced call costs beyond an untraced one."""
    class Owner:
        @staticmethod
        def noop():
            return None

    def loop():
        fn = Owner.noop  # looked up once, as a caller holding a reference would
        t0 = _now()
        for _ in range(calls):
            fn()
        return _now() - t0

    bare = loop()
    tracer = Tracer()
    tracer.wrap(Owner, "noop", "noop")
    return (loop() - bare) / calls


def run_checks(wl: Workload) -> list[ck.Check]:
    """The workload's checks; a check that cannot even run is a failed check."""
    try:
        return wl.checks()
    except Exception as exc:  # a missing or malformed output file
        return [ck.Check("checks.completed", False, f"{type(exc).__name__}: {exc}")]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    wl.setup()
    setup_s = _now() - T_START
    result = {"setup_s": setup_s}

    probe = SpeedProbe()
    probe()  # the first call pays for page faults and BLAS start-up
    probes = [probe(), probe()]
    result["setup_ref_s"] = setup_s * PROBE_REF_S / statistics.mean(probes)
    if args.setup_only:
        print(json.dumps(result))
        return 0

    rounds, rounds_ref = [], []
    all_checks: list[ck.Check] = []
    if args.trace:
        # one untraced round, then the set-up and one round again with tracing
        _, untraced = run_round(wl, None, probe)
        all_checks += run_checks(wl)
        tracer, counters = install_tracer()
        with tracer.span("bench.setup"):
            wl.setup()
        with tracer.span("bench.round"):
            raw, ref = run_round(wl, tracer, probe)
        rounds.append(raw)
        rounds_ref.append(ref)
        tracer.uninstall()
        layers = layer_metrics(tracer, counters)
        layers["trace.untraced_round_ref_s"] = (untraced, "s")
        layers["trace.traced_round_ref_s"] = (ref, "s")
        layers["trace.overhead_pct"] = (100.0 * (ref - untraced) / untraced, "%")
        layers["trace.span_cost_us"] = (1e6 * span_cost(), "us")
        tracer.dump(Path(args.workdir) / "spans.json")
        result["layers"] = layers
        result["peak_rss_mb"] = peak_rss_mb()
        all_checks += run_checks(wl)
    else:
        start = _now()
        while True:
            raw, ref = run_round(wl, None, probe)
            rounds.append(raw)
            rounds_ref.append(ref)
            if _now() - start >= args.seconds:
                break
        result["peak_rss_mb"] = peak_rss_mb()
        all_checks += run_checks(wl)  # every round computes the same outputs
    print(f"env: python {sys.version.split()[0]}, numpy {np.__version__}, scipy {scipy.__version__}, "
          f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}, nproc {os.cpu_count()}",
          file=sys.stderr)
    bad = [c for c in all_checks if not c.ok]
    for c in all_checks:
        print(f"{'ok  ' if c.ok else 'FAIL'} {c.name}: {c.detail}", file=sys.stderr)
    for msg in wl.unexpected_failures:
        print(f"FAIL unexpected operation failure: {msg}", file=sys.stderr)
    result.update({
        "round_s": rounds,
        "round_ref_s": rounds_ref,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "checks": len(all_checks),
        "correct": not bad and not wl.unexpected_failures and bool(all_checks),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
