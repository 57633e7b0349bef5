"""Command-line surface composing the library modules into pipelines.

Exit codes: 0 success, 2 data/parameter/cutoff error or out of memory,
3 numerical error.
"""
from __future__ import annotations

import functools
import inspect
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import emrec, io, nonclassical, postselect
from .detector import (DetectorConfig, PAPER_TABLE_1, default_c_max,
                       detection_matrix, sample_counts)
from .errors import CutoffError, DataError, NumericalError, ParameterError
from .fit import fit
from .fock import AXIS_ORDER, Histogram, JointDistribution, check_tail
from .gaussian import (DEFAULT_IDLER_CUTOFF, DEFAULT_SIGNAL_CUTOFF, PAPER_TABLE_2,
                       sample_photon_numbers)

EXIT_DATA = 2
EXIT_NUMERICAL = 3


def handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (DataError, ParameterError, CutoffError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_DATA)
        except NumericalError as exc:
            click.echo(f"numerical error: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL)
        except MemoryError as exc:
            click.echo(f"error: out of memory ({exc}); lower a size option "
                       "(--frames, --points, --box or the cutoffs)", err=True)
            sys.exit(EXIT_DATA)
    return wrapper


def _matrices(cfgs: dict[str, DetectorConfig], labels, photon_cutoffs,
              click_cutoffs) -> dict:
    """Detection matrices keyed by label, one per photon and click cutoff."""
    return {l: detection_matrix(cfgs[l], n_max, c_max)
            for l, n_max, c_max in zip(labels, photon_cutoffs, click_cutoffs)}


def _finite_positive(ctx, param, value):
    """Click callback: a float option that must be finite and > 0."""
    if not (math.isfinite(value) and value > 0):
        raise click.UsageError(f"{param.opts[0]} must be finite and > 0, got {value}", ctx)
    return value


def _default(fn, name: str):
    """The library's default of ``fn``'s parameter ``name``, for the option that sets it."""
    return inspect.signature(fn).parameters[name].default


#: integer option types; click exits 2 on a value outside the range
NONNEGATIVE = click.IntRange(min=0)
POSITIVE = click.IntRange(min=1)


def _selector_range(sel_range: str | None, top: int) -> range:
    """Inclusive ``lo:hi`` selector range; without one, the full axis 0..top."""
    if sel_range is None:
        return range(top + 1)
    try:
        lo, hi = (int(x) for x in sel_range.split(":"))
    except ValueError:
        raise DataError(f"--range needs lo:hi, got {sel_range!r}") from None
    if not 0 <= lo <= hi:
        raise DataError(f"--range needs 0 <= lo <= hi, got {sel_range!r}")
    return range(lo, hi + 1)


def _triple(kind=float):
    """Click callback: three comma-separated values of ``kind``, as a tuple;
    anything else is a DataError."""
    def parse(ctx, param, text):
        try:
            parts = tuple(kind(x) for x in text.split(","))
        except ValueError:
            parts = ()
        if len(parts) != 3:
            raise DataError(f"{param.opts[0]} needs three comma-separated "
                            f"{kind.__name__} values, got {text!r}")
        return parts
    return parse


def _photon_table(path) -> JointDistribution:
    """A saved photon-number distribution. A table saved unnormalized, as
    ``ncd-field`` saves its depths, is a DataError naming the file."""
    d = io.load_distribution(path)
    if not d.normalized:
        raise DataError(f"{path}: not a photon-number distribution (its sidecar "
                        "reads \"normalized\": false, as ncd-field outputs do)")
    return d


class _Recorded(click.Command):
    """A command whose callback returns a dict of what it computed.

    With ``--out`` set, ``<out>.manifest.json`` records every other option,
    keyed by its first flag (``--max-iterations`` as ``max_iterations``)
    with the value click parsed, then that dict, which wins a clash. Runs
    that differ only in ``--out`` write the same manifest.
    """

    def invoke(self, ctx):
        record = super().invoke(ctx) or {}
        out = ctx.params.get("out")
        if out:
            options = {p.opts[0].lstrip("-").replace("-", "_"): ctx.params[p.name]
                       for p in self.params if p.name != "out"}
            io.write_manifest(out, ctx.info_name, {**options, **record})
        return record


class _Commands(click.Group):
    """Every command runs inside :func:`handle_errors`, the one exit-code
    boundary, and records its manifest through :class:`_Recorded`."""

    command_class = _Recorded

    @handle_errors
    def invoke(self, ctx):
        return super().invoke(ctx)


@click.group(cls=_Commands)
def main():
    """Triple twin-beam modeling, reconstruction and nonclassicality."""


@main.command()
@click.option("--params-file", type=click.Path(exists=True),
              help="Parameter JSON; defaults to the built-in fitted preset.")
@click.option("--detector-file", type=click.Path(exists=True),
              help="Detector JSON; defaults to the built-in PAPER_TABLE_1 constants.")
@click.option("--frames", type=POSITIVE, required=True)
@click.option("--seed", type=NONNEGATIVE, required=True)
@click.option("--out", type=click.Path(), required=True,
              help="Histogram CSV output path.")
@click.option("--frames-out", type=click.Path(), help="Also write raw frames CSV.")
@click.option("--signal-cutoff", type=NONNEGATIVE, default=DEFAULT_SIGNAL_CUTOFF, show_default=True)
@click.option("--idler-cutoff", type=NONNEGATIVE, default=DEFAULT_IDLER_CUTOFF, show_default=True)
@click.option("--tail-tol", type=float, default=1e-3, show_default=True,
              callback=_finite_positive,
              help="Largest share of frames that may fall outside the click box.")
def simulate(params_file, detector_file, frames, seed, out, frames_out,
             signal_cutoff, idler_cutoff, tail_tol):
    """Sample synthetic photocount frames from the field + detector model."""
    params = io.load_params(params_file) if params_file else PAPER_TABLE_2
    cfgs = io.load_detectors(detector_file) if detector_file else PAPER_TABLE_1
    photons = sample_photon_numbers(params, frames, seed)
    # the clicks overwrite the photon table: one frame-sized table in all
    counts = sample_counts(photons, cfgs, seed + 1, out=photons)
    c_cut = tuple(default_c_max(cfgs[l], signal_cutoff if l == "s" else idler_cutoff)
                  for l in AXIS_ORDER)
    # the dropped share is checked before binning, which needs one kept frame
    dropped = int(np.count_nonzero(np.any(counts > np.asarray(c_cut), axis=1)))
    check_tail(dropped / frames, tail_tol,
               f"{dropped} of {frames} simulated frames beyond the click box 0..{c_cut}")
    h = Histogram.binned(counts, c_cut)
    io.save_histogram(h, out, cfgs)
    if frames_out:
        io.save_frames(counts, frames_out)
    click.echo(f"wrote {out} ({frames - dropped} frames, {dropped} dropped)")
    return {"detectors": io.detector_entries(cfgs), "dropped_frames": dropped,
            "params": params.to_dict()}


@main.command()
@click.option("--frames", "frames_file", type=click.Path(exists=True), required=True)
@click.option("--detector-file", type=click.Path(exists=True),
              help="Detector JSON; defaults to the built-in PAPER_TABLE_1 constants.")
@click.option("--out", type=click.Path(), required=True)
def ingest(frames_file, detector_file, out):
    """Accumulate a frame CSV into a histogram."""
    cfgs = io.load_detectors(detector_file) if detector_file else PAPER_TABLE_1
    h = io.ingest_frames(frames_file, cfgs)
    io.save_histogram(h, out, cfgs)
    click.echo(f"wrote {out} (trials {h.trials})")
    return {"detectors": io.detector_entries(cfgs)}


@main.command("fit")
@click.option("--histogram", "hist_file", type=click.Path(exists=True), required=True)
@click.option("--free-efficiencies", is_flag=True, default=False)
@click.option("--out", type=click.Path(), required=True)
@click.option("--max-evals", type=POSITIVE, default=_default(fit, "max_evals"), show_default=True)
def fit_cmd(hist_file, free_efficiencies, out, max_evals):
    """Fit the 14 field parameters to a photocount histogram."""
    cfgs = io.recorded_detectors(hist_file)
    h = io.load_histogram(hist_file)
    report = fit(h, cfgs, fix_efficiencies=not free_efficiencies,
                 max_evals=max_evals)
    Path(out).write_text(report.to_json() + "\n")
    click.echo(f"declination {report.declination:.6g}; wrote {out}")
    return {"detectors": io.detector_entries(cfgs)}


@main.command()
@click.option("--histogram", "hist_file", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--conditional", type=NONNEGATIVE, default=None,
              help="Reconstruct only the 3D idler field at this c_s slice.")
@click.option("--signal-cutoff", type=NONNEGATIVE, default=DEFAULT_SIGNAL_CUTOFF, show_default=True)
@click.option("--idler-cutoff", type=NONNEGATIVE, default=DEFAULT_IDLER_CUTOFF, show_default=True)
@click.option("--max-iterations", type=POSITIVE, default=emrec.EmSettings.max_iterations,
              show_default=True, help="EM budget: a run that reaches it has not converged.")
@click.option("--tol", type=float, default=emrec.EmSettings.stop_tolerance, show_default=True,
              callback=_finite_positive,
              help="Stop once no cell changes by more than this in one EM map. "
                   "EM also stops once a map gains less than "
                   f"{emrec.STOP_GAIN_NATS} nats of whole-data log-likelihood.")
@click.option("--trace-out", type=click.Path(), default=None)
def reconstruct(hist_file, out, conditional,
                signal_cutoff, idler_cutoff, max_iterations, tol, trace_out):
    """Invert a photocount histogram into a photon-number distribution."""
    cfgs = io.recorded_detectors(hist_file)
    h = io.load_histogram(hist_file)
    if conditional is not None:
        h = h.slice("s", conditional)
    settings = emrec.EmSettings(max_iterations=max_iterations, stop_tolerance=tol)
    cutoffs = [signal_cutoff if l == "s" else idler_cutoff for l in h.axis_labels]
    mats = _matrices(cfgs, h.axis_labels, cutoffs, h.cutoffs)
    result = emrec.em_reconstruct(h, mats, settings)
    io.save_distribution(result.distribution, out, cfgs)
    if trace_out:
        io.save_columns(result.trace_columns(), trace_out)
    click.echo(f"EM stopped ({result.stop}) after {result.iterations} iterations "
               f"(residual {result.residual:.3e}); wrote {out}")
    return {"detectors": io.detector_entries(cfgs), "trials": h.trials,
            "stop_gain_nats": emrec.STOP_GAIN_NATS, **result.record()}


@main.command("postselect")
@click.option("--dist", "dist_file", type=click.Path(exists=True), required=True,
              help="4D photon distribution CSV.")
@click.option("--selector", type=click.Choice(["n_s", "c_s"]), required=True)
@click.option("--value", type=int, required=True)
@click.option("--out", type=click.Path(), required=True)
def postselect_cmd(dist_file, selector, value, out):
    """Condition the 4D photon field on a signal outcome.

    A c_s selection reads the signal detector from the table's record.
    """
    d = _photon_table(dist_file)
    record, t_s = {}, None
    if selector == "c_s":
        cfgs = io.recorded_detectors(dist_file)
        t_s = detection_matrix(cfgs["s"], d.values.shape[0] - 1)
        record["detectors"] = io.detector_entries(cfgs)
    mass, cond = postselect.conditioned_field(d, selector, value, t_s)
    io.save_distribution(cond, out)
    click.echo(f"slice mass {mass:.6g}; wrote {out}")
    return {**record, "slice_mass": mass}


@main.command()
@click.option("--source", type=click.Choice(["dist", "histogram"]), required=True)
@click.option("--input", "input_file", type=click.Path(exists=True), required=True)
@click.option("--selector", type=click.Choice(["n_s", "c_s"]), required=True)
@click.option("--range", "sel_range", default=None,
              help="Inclusive selector range lo:hi; defaults to the full axis.")
@click.option("--idler-cutoff", type=NONNEGATIVE, default=DEFAULT_IDLER_CUTOFF, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def sweep(source, input_file, selector, sel_range, idler_cutoff, out):
    """Post-selection sweep: means, Fano factors, correlations per selector.

    A c_s sweep reads its detectors from the input's record.
    """
    if source == "histogram" and selector == "n_s":
        raise DataError("histogram sweeps post-select on c_s")
    record = {}
    if selector == "c_s":
        cfgs = io.recorded_detectors(input_file)
        record["detectors"] = io.detector_entries(cfgs)
    if source == "dist":
        d = _photon_table(input_file)
        n_max = d.values.shape[0] - 1
        top, t_s = n_max, None
        if selector == "c_s":
            t_s = detection_matrix(cfgs["s"], n_max)
            top = t_s.c_max
        result = postselect.sweep_distribution(
            d, selector, _selector_range(sel_range, top), t_s)
    else:
        h = io.load_histogram(input_file)
        mats = _matrices(cfgs, ("i1", "i2", "i3"), (idler_cutoff,) * 3, h.cutoffs[1:])
        result = postselect.sweep_histogram(
            h, mats, _selector_range(sel_range, h.counts.shape[0] - 1))
        record["stop_gain_nats"] = emrec.STOP_GAIN_NATS
    io.save_columns(result.columns(), out)
    click.echo(f"wrote {out} ({len(result.rows)} rows, {len(result.gaps)} gaps)")
    return {**record, "em": list(result.em)}


@main.command()
@click.option("--dist", "dist_file", type=click.Path(exists=True), required=True,
              help="3D idler distribution CSV.")
@click.option("--criterion", type=click.Choice(["cs", "matrix"]), required=True)
@click.option("--kind", type=click.Choice(["intensity", "probability"]),
              default="probability", show_default=True)
@click.option("--modes", default="1,1,1", show_default=True, callback=_triple(),
              help="Per-beam mode numbers M1,M2,M3.")
@click.option("--with-ncd/--no-ncd", default=True, show_default=True)
@click.option("--tail-tol", type=float,
              default=_default(nonclassical.intensity_ncd, "tail_tol"), show_default=True,
              callback=_finite_positive,
              help="Largest share of the order-2 intensity moment the outer "
                   "occupation shell may carry (--kind intensity).")
@click.option("--out", type=click.Path(), default=None)
def ncc(dist_file, criterion, kind, modes, with_ncd, tail_tol, out):
    """Evaluate a nonclassicality criterion (and its depth) on a 3D field."""
    d = _photon_table(dist_file)
    intensity = kind == "intensity"
    if with_ncd:
        res = (nonclassical.intensity_ncd(d, criterion, modes, tail_tol=tail_tol) if intensity
               else nonclassical.probability_ncd(d, criterion, modes))
    else:
        value = (nonclassical.intensity_criterion(d, criterion, modes, tail_tol) if intensity
                 else nonclassical.probability_criterion(d, criterion, modes))(1.0)
        res = nonclassical.NccResult(f"{criterion}_{kind}", value, value < 0.0)
    payload = {
        "criterion": res.criterion,
        "value": res.value,
        "nonclassical": res.nonclassical,
        "tau": None if res.ncd is None else res.ncd.tau,
        "saturated": bool(res.ncd.saturated) if res.ncd else False,
        "ambiguous": bool(res.ncd.ambiguous) if res.ncd else False,
        "modes": list(modes),
    }
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    click.echo(text.rstrip())
    return payload


@main.command("ncd-field")
@click.option("--dist", "dist_file", type=click.Path(exists=True), required=True)
@click.option("--criterion", type=click.Choice(["cs", "matrix"]), required=True)
@click.option("--modes", default="1,1,1", show_default=True, callback=_triple())
@click.option("--box", default="6,6,6", show_default=True, callback=_triple(int),
              help="Lattice box b1,b2,b3 of criterion offsets.")
@click.option("--out", type=click.Path(), required=True)
def ncd_field_cmd(dist_file, criterion, modes, box, out):
    """Lattice field of Lee depths of the offset probability criteria."""
    d = _photon_table(dist_file)
    field = nonclassical.ncd_field(d, criterion, modes, box)
    io.save_distribution(JointDistribution(field.values, d.axis_labels), out)
    click.echo(f"max tau {field.max():.4f}; wrote {out}")
    return {"criterion_family": field.family, "max_tau": field.max()}


@main.command()
@click.option("--dist", "dist_file", type=click.Path(exists=True), required=True)
@click.option("--s", "s_value", type=float, required=True)
@click.option("--modes", default="1,1,1", show_default=True, callback=_triple())
@click.option("--points", type=click.IntRange(min=2),
              default=_default(nonclassical.quasi_distribution_W, "points"), show_default=True)
@click.option("--cut", "cut_kind", type=click.Choice(["diagonal", "triangular"]),
              default="diagonal", show_default=True)
@click.option("--level", type=float, default=None)
@click.option("--out", type=click.Path(), required=True)
def quasi(dist_file, s_value, modes, points, cut_kind, level, out):
    """Quasi-distribution of integrated intensities; exports one plane cut."""
    nonclassical.check_cut(cut_kind, level)  # before the grid, not after it
    d = _photon_table(dist_file)
    try:
        nonclassical.check_grid(d.values.shape, points)
    except DataError as exc:
        raise DataError(f"--points {points}: {exc}") from None
    q = nonclassical.quasi_distribution_W(d, s_value, modes, points=points)
    io.save_columns(nonclassical.plane_cut(q, cut_kind, level).columns(), out)
    record = {"min_value": float(np.nanmin(q.values)), "integral": q.integral(),
              "steps": list(q.steps)}
    click.echo(f"min value {record['min_value']:.4g}, "
               f"integral {record['integral']:.6f}; wrote {out}")
    return record


@main.command()
@click.option("--input", "input_file", type=click.Path(exists=True), required=True,
              help="Saved 3D table: a photon distribution or an ncd-field output.")
@click.option("--kind", type=click.Choice(["diagonal", "triangular"]), required=True)
@click.option("--level", type=int, default=None)
@click.option("--out", type=click.Path(), required=True)
def cut(input_file, kind, level, out):
    """Plane cut of a saved 3D table."""
    pc = nonclassical.plane_cut(io.load_distribution(input_file).values, kind, level)
    io.save_columns(pc.columns(), out)
    click.echo(f"wrote {out}")


if __name__ == "__main__":
    main()
