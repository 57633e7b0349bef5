"""Command-line surface composing the library modules into pipelines.

Exit codes: 0 success, 2 data/parameter/cutoff error, 3 numerical error.
"""
from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import emrec, io, nonclassical, postselect
from .detector import (DetectorConfig, PRESETS, default_c_max,
                       detection_matrix, forward_counts, sample_counts)
from .errors import CutoffError, DataError, NumericalError, ParameterError
from .fit import fit
from .fock import (AXIS_ORDER, Histogram, JointDistribution, check_tail,
                   condition, normalize)
from .gaussian import (GaussianFieldModel, PAPER_TABLE_2, TripleTwbParams,
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
    return wrapper


def _load_params(params_file: str | None) -> TripleTwbParams:
    if params_file is None:
        return PAPER_TABLE_2
    return TripleTwbParams.from_json(params_file)


def _detectors(preset: str, config_file: str | None) -> dict[str, DetectorConfig]:
    if config_file is not None:
        return io.load_detectors(config_file)
    if preset not in PRESETS:
        raise DataError(f"unknown detector preset {preset!r}")
    return dict(PRESETS[preset])


def _matrices(cfgs: dict[str, DetectorConfig], photon_cutoffs,
              click_cutoffs=None) -> dict:
    mats = {}
    for axis, l in enumerate(AXIS_ORDER):
        n_max = photon_cutoffs[axis]
        c_max = (click_cutoffs[axis] if click_cutoffs is not None
                 else default_c_max(cfgs[l], n_max))
        mats[l] = detection_matrix(cfgs[l], n_max, c_max)
    return mats


def _selector_range(sel_range: str | None, top: int) -> range:
    """Inclusive ``lo:hi`` selector range; without one, the full axis 0..top."""
    if sel_range is None:
        return range(top + 1)
    try:
        lo, hi = (int(x) for x in sel_range.split(":"))
    except ValueError:
        raise DataError(f"--range needs lo:hi, got {sel_range!r}") from None
    return range(lo, hi + 1)


def _parse_modes(modes: str) -> tuple[float, float, float]:
    parts = [float(x) for x in modes.split(",")]
    if len(parts) != 3:
        raise DataError("--modes needs three comma-separated values")
    return tuple(parts)


@click.group()
def main():
    """Triple twin-beam modeling, reconstruction and nonclassicality."""


@main.command()
@click.option("--params-file", type=click.Path(exists=True),
              help="Parameter JSON; defaults to the built-in fitted preset.")
@click.option("--detectors", "preset", default="paper-table-1", show_default=True)
@click.option("--detector-file", type=click.Path(exists=True))
@click.option("--frames", type=int, required=True)
@click.option("--seed", type=int, required=True)
@click.option("--out", type=click.Path(), required=True,
              help="Histogram CSV output path.")
@click.option("--frames-out", type=click.Path(), help="Also write raw frames CSV.")
@click.option("--signal-cutoff", type=int, default=32, show_default=True)
@click.option("--idler-cutoff", type=int, default=20, show_default=True)
@click.option("--tail-tol", type=float, default=1e-3, show_default=True)
@handle_errors
def simulate(params_file, preset, detector_file, frames, seed, out, frames_out,
             signal_cutoff, idler_cutoff, tail_tol):
    """Sample synthetic photocount frames from the field + detector model."""
    params = _load_params(params_file)
    cfgs = _detectors(preset, detector_file)
    counts = sample_counts(sample_photon_numbers(params, frames, seed), cfgs, seed + 1)
    c_cut = [default_c_max(cfgs[l],
                           signal_cutoff if l == "s" else idler_cutoff)
             for l in AXIS_ORDER]
    keep = np.all(counts <= np.asarray(c_cut), axis=1)
    dropped = int(frames - keep.sum())
    check_tail(dropped / frames, tail_tol, "simulated frames beyond the click box")
    kept = counts[keep]
    hist = np.zeros([c + 1 for c in c_cut], dtype=np.int64)
    np.add.at(hist, tuple(kept.T), 1)
    h = Histogram(hist, frames - dropped)
    io.save_histogram(h, out, detector_presets={"preset": preset})
    if frames_out:
        io.save_frames(counts, frames_out)
    io.write_manifest(Path(out), "simulate", {
        "frames": frames, "seed": seed, "preset": preset,
        "dropped_frames": dropped, "params": params.to_dict(),
        "signal_cutoff": signal_cutoff, "idler_cutoff": idler_cutoff})
    click.echo(f"wrote {out} ({frames - dropped} frames, {dropped} dropped)")


@main.command()
@click.option("--frames", "frames_file", type=click.Path(exists=True), required=True)
@click.option("--detectors", "preset", default="paper-table-1", show_default=True)
@click.option("--detector-file", type=click.Path(exists=True))
@click.option("--out", type=click.Path(), required=True)
@handle_errors
def ingest(frames_file, preset, detector_file, out):
    """Accumulate a frame CSV into a histogram."""
    cfgs = _detectors(preset, detector_file)
    h = io.ingest_frames(frames_file, cfgs)
    io.save_histogram(h, out, detector_presets={"preset": preset})
    io.write_manifest(Path(out), "ingest", {"frames": str(frames_file)})
    click.echo(f"wrote {out} (trials {h.trials})")


@main.command("fit")
@click.option("--histogram", "hist_file", type=click.Path(exists=True), required=True)
@click.option("--detectors", "preset", default="paper-table-1", show_default=True)
@click.option("--detector-file", type=click.Path(exists=True))
@click.option("--free-efficiencies", is_flag=True, default=False)
@click.option("--out", type=click.Path(), required=True)
@click.option("--max-evals", type=int, default=200, show_default=True)
@handle_errors
def fit_cmd(hist_file, preset, detector_file, free_efficiencies, out, max_evals):
    """Fit the 14 field parameters to a photocount histogram."""
    h = io.load_histogram(hist_file)
    cfgs = _detectors(preset, detector_file)
    report = fit(h, cfgs, fix_efficiencies=not free_efficiencies,
                 max_evals=max_evals)
    Path(out).write_text(report.to_json() + "\n")
    io.write_manifest(Path(out), "fit", {
        "histogram": str(hist_file), "free_efficiencies": free_efficiencies})
    click.echo(f"declination {report.declination:.6g}; wrote {out}")


@main.command()
@click.option("--histogram", "hist_file", type=click.Path(exists=True), required=True)
@click.option("--detectors", "preset", default="paper-table-1", show_default=True)
@click.option("--detector-file", type=click.Path(exists=True))
@click.option("--out", type=click.Path(), required=True)
@click.option("--conditional", type=int, default=None,
              help="Reconstruct only the 3D idler field at this c_s slice.")
@click.option("--signal-cutoff", type=int, default=32, show_default=True)
@click.option("--idler-cutoff", type=int, default=20, show_default=True)
@click.option("--max-iterations", type=int, default=100_000, show_default=True)
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.option("--trace-out", type=click.Path(), default=None)
@handle_errors
def reconstruct(hist_file, preset, detector_file, out, conditional,
                signal_cutoff, idler_cutoff, max_iterations, tol, trace_out):
    """Invert a photocount histogram into a photon-number distribution."""
    h = io.load_histogram(hist_file)
    cfgs = _detectors(preset, detector_file)
    f = normalize(h)
    settings = emrec.EmSettings(max_iterations=max_iterations, stop_tolerance=tol)
    if conditional is None:
        cutoffs = (signal_cutoff, idler_cutoff, idler_cutoff, idler_cutoff)
        mats = _matrices(cfgs, cutoffs, [c for c in h.cutoffs])
        result = emrec.em_reconstruct(f, mats, settings)
    else:
        f3 = condition(f, "s", conditional)
        cutoffs3 = (idler_cutoff,) * 3
        mats = {l: detection_matrix(cfgs[l], idler_cutoff, f3.values.shape[i] - 1)
                for i, l in enumerate(("i1", "i2", "i3"))}
        result = emrec.em_reconstruct_conditional(f3, mats, settings)
    io.save_distribution(result.distribution, out)
    if trace_out:
        Path(trace_out).write_text(result.trace_csv())
    io.write_manifest(Path(out), "reconstruct", {
        "histogram": str(hist_file), "conditional": conditional,
        "iterations": result.iterations, "residual": result.residual,
        "converged": result.converged})
    click.echo(f"EM finished after {result.iterations} iterations "
               f"(residual {result.residual:.3e}); wrote {out}")


@main.command("postselect")
@click.option("--dist", "dist_file", type=click.Path(exists=True), required=True,
              help="4D photon distribution CSV.")
@click.option("--selector", type=click.Choice(["n_s", "c_s"]), required=True)
@click.option("--value", type=int, required=True)
@click.option("--detectors", "preset", default="paper-table-1", show_default=True)
@click.option("--out", type=click.Path(), required=True)
@handle_errors
def postselect_cmd(dist_file, selector, value, preset, out):
    """Condition the 4D photon field on a signal outcome."""
    d = io.load_distribution(dist_file)
    t_s = None
    if selector == "c_s":
        cfgs = _detectors(preset, None)
        t_s = detection_matrix(cfgs["s"], d.values.shape[0] - 1,
                               default_c_max(cfgs["s"], d.values.shape[0] - 1))
    mass, cond = postselect.conditioned_field(d, selector, value, t_s)
    io.save_distribution(cond, out)
    io.write_manifest(Path(out), "postselect",
                      {"selector": selector, "value": value, "slice_mass": mass})
    click.echo(f"slice mass {mass:.6g}; wrote {out}")


@main.command()
@click.option("--source", type=click.Choice(["dist", "histogram"]), required=True)
@click.option("--input", "input_file", type=click.Path(exists=True), required=True)
@click.option("--selector", type=click.Choice(["n_s", "c_s"]), required=True)
@click.option("--range", "sel_range", default=None,
              help="Inclusive selector range lo:hi; defaults to the full axis.")
@click.option("--detectors", "preset", default="paper-table-1", show_default=True)
@click.option("--idler-cutoff", type=int, default=20, show_default=True)
@click.option("--out", type=click.Path(), required=True)
@handle_errors
def sweep(source, input_file, selector, sel_range, preset, idler_cutoff, out):
    """Post-selection sweep: means, Fano factors, correlations per selector."""
    cfgs = _detectors(preset, None)
    if source == "dist":
        d = io.load_distribution(input_file)
        n_max = d.values.shape[0] - 1
        top, t_s = n_max, None
        if selector == "c_s":
            top = default_c_max(cfgs["s"], n_max)
            t_s = detection_matrix(cfgs["s"], n_max, top)
        result = postselect.sweep_distribution(
            d, selector, _selector_range(sel_range, top), t_s)
    else:
        h = io.load_histogram(input_file)
        if selector == "n_s":
            raise DataError("histogram sweeps post-select on c_s")
        mats = {l: detection_matrix(cfgs[l], idler_cutoff,
                                    h.counts.shape[i + 1] - 1)
                for i, l in enumerate(("i1", "i2", "i3"))}
        result = postselect.sweep_histogram(
            h, mats, _selector_range(sel_range, h.counts.shape[0] - 1))
    Path(out).write_text(result.to_csv())
    io.write_manifest(Path(out), "sweep", {
        "source": source, "selector": selector, "range": sel_range,
        "em": list(result.em)})
    click.echo(f"wrote {out} ({len(result.rows)} rows, {len(result.gaps)} gaps)")


@main.command()
@click.option("--dist", "dist_file", type=click.Path(exists=True), required=True,
              help="3D idler distribution CSV.")
@click.option("--criterion", type=click.Choice(["cs", "matrix"]), required=True)
@click.option("--kind", type=click.Choice(["intensity", "probability"]),
              default="probability", show_default=True)
@click.option("--modes", default="1,1,1", show_default=True,
              help="Per-beam mode numbers M1,M2,M3.")
@click.option("--with-ncd/--no-ncd", default=True, show_default=True)
@click.option("--out", type=click.Path(), default=None)
@handle_errors
def ncc(dist_file, criterion, kind, modes, with_ncd, out):
    """Evaluate a nonclassicality criterion (and its depth) on a 3D field."""
    d = io.load_distribution(dist_file)
    m = _parse_modes(modes)
    if kind == "intensity":
        if with_ncd:
            res = nonclassical.intensity_ncd(d, criterion, m)
        else:
            base = nonclassical.intensity_moments(d, 2)
            fn = {"cs": nonclassical.ncc_cs_intensity,
                  "matrix": nonclassical.ncc_matrix_intensity}[criterion]
            res = fn(nonclassical.s_transform_moments(base, 1.0, m))
    else:
        if with_ncd:
            res = nonclassical.probability_ncd(d, criterion, m)
        else:
            table = nonclassical.quasi_probabilities(d, 1.0, m, 2)
            res = nonclassical.ncc_probability(table, criterion)
    payload = {
        "criterion": res.criterion,
        "value": res.value,
        "nonclassical": res.nonclassical,
        "tau": None if res.ncd is None else res.ncd.tau,
        "saturated": bool(res.ncd.saturated) if res.ncd else False,
        "ambiguous": bool(res.ncd.ambiguous) if res.ncd else False,
        "modes": list(m),
    }
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
        io.write_manifest(Path(out), "ncc", payload)
    click.echo(text.rstrip())


@main.command("ncd-field")
@click.option("--dist", "dist_file", type=click.Path(exists=True), required=True)
@click.option("--criterion", type=click.Choice(["cs", "matrix"]), required=True)
@click.option("--modes", default="1,1,1", show_default=True)
@click.option("--box", default="6,6,6", show_default=True,
              help="Lattice box b1,b2,b3 of criterion offsets.")
@click.option("--out", type=click.Path(), required=True)
@handle_errors
def ncd_field_cmd(dist_file, criterion, modes, box, out):
    """Lattice field of Lee depths of the offset probability criteria."""
    d = io.load_distribution(dist_file)
    m = _parse_modes(modes)
    b = tuple(int(x) for x in box.split(","))
    field = nonclassical.ncd_field(d, criterion, m, b)
    lines = ["n_i1,n_i2,n_i3,tau"]
    for idx in np.ndindex(field.values.shape):
        lines.append(",".join(str(i) for i in idx)
                     + f",{field.values[idx]:.6g}")
    Path(out).write_text("\n".join(lines) + "\n")
    meta = {"criterion_family": field.family, "modes": list(m),
            "box": list(b), "max_tau": field.max()}
    Path(str(out) + ".meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    io.write_manifest(Path(out), "ncd-field", meta)
    click.echo(f"max tau {field.max():.4f}; wrote {out}")


@main.command()
@click.option("--dist", "dist_file", type=click.Path(exists=True), required=True)
@click.option("--s", "s_value", type=float, required=True)
@click.option("--modes", default="1,1,1", show_default=True)
@click.option("--points", type=int, default=400, show_default=True)
@click.option("--cut", "cut_kind", type=click.Choice(["diagonal", "triangular"]),
              default="diagonal", show_default=True)
@click.option("--level", type=float, default=None)
@click.option("--out", type=click.Path(), required=True)
@handle_errors
def quasi(dist_file, s_value, modes, points, cut_kind, level, out):
    """Quasi-distribution of integrated intensities; exports one plane cut."""
    d = io.load_distribution(dist_file)
    m = _parse_modes(modes)
    q = nonclassical.quasi_distribution_W(d, s_value, m, points=points)
    cut = nonclassical.plane_cut(q, cut_kind, level)
    Path(out).write_text(cut.to_csv())
    meta = {"s": s_value, "modes": list(m), "kind": cut_kind, "level": level,
            "min_value": float(np.nanmin(q.values)),
            "integral": q.integral(),
            "steps": list(q.steps)}
    Path(str(out) + ".meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    io.write_manifest(Path(out), "quasi", meta)
    click.echo(f"min value {meta['min_value']:.4g}, "
               f"integral {meta['integral']:.6f}; wrote {out}")


@main.command()
@click.option("--input", "input_file", type=click.Path(exists=True), required=True,
              help="3D distribution CSV or ncd-field CSV.")
@click.option("--kind", type=click.Choice(["diagonal", "triangular"]), required=True)
@click.option("--level", type=int, default=None)
@click.option("--out", type=click.Path(), required=True)
@handle_errors
def cut(input_file, kind, level, out):
    """Plane cut of a 3D lattice field."""
    field = io.load_lattice(input_file)
    pc = nonclassical.plane_cut(field, kind, level)
    Path(out).write_text(pc.to_csv())
    io.write_manifest(Path(out), "cut", {"kind": kind, "level": level})
    click.echo(f"wrote {out}")


if __name__ == "__main__":
    main()
