"""File formats: frame streams, sparse histograms, sparse distributions,
run manifests. All tables are CSV with a JSON sidecar carrying shape and
normalization metadata, so every artifact is diff-able and language-neutral.
"""
from __future__ import annotations

import csv
import itertools
import json
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .detector import DetectorConfig
from .errors import DataError
from .fock import AXIS_ORDER, Histogram, JointDistribution

FRAME_HEADER = ["frame_id", "c_s", "c_i1", "c_i2", "c_i3"]


def _sidecar(path: Path) -> Path:
    return path.with_suffix(path.suffix + ".meta.json")


def _read_json(path: Path, keys: tuple[str, ...]) -> dict:
    """A JSON object holding ``keys``; anything else is a DataError naming the file."""
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise DataError(f"{path}: cannot read JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise DataError(f"{path}: expected a JSON object")
    missing = [k for k in keys if k not in data]
    if missing:
        raise DataError(f"{path}: missing keys {missing}")
    return data


def load_detectors(path: str | Path) -> dict[str, DetectorConfig]:
    """Detector configs from a JSON object keyed by axis label.

    Each entry holds ``pixels``, ``efficiency`` and ``dark_rate``.
    """
    path = Path(path)
    data = _read_json(path, AXIS_ORDER)
    try:
        return {l: DetectorConfig(**data[l]) for l in AXIS_ORDER}
    except TypeError as exc:
        raise DataError(f"{path}: malformed detector entry ({exc})") from exc


def ingest_frames(path: str | Path,
                  cfgs: dict[str, DetectorConfig] | None = None,
                  cutoffs: tuple[int, int, int, int] | None = None) -> Histogram:
    """Accumulate a frame CSV into a Histogram.

    Rejects duplicate frame ids and counts above the detector pixel budget;
    malformed rows are reported with their line number.
    """
    path = Path(path)
    seen: set[int] = set()
    rows: list[tuple[int, int, int, int]] = []
    maxima = [0, 0, 0, 0]
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != FRAME_HEADER:
            raise DataError(f"{path}:1: expected header {','.join(FRAME_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 5:
                raise DataError(f"{path}:{lineno}: expected 5 fields, got {len(row)}")
            try:
                vals = [int(x) for x in row]
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            fid, counts = vals[0], vals[1:]
            if fid in seen:
                raise DataError(f"{path}:{lineno}: duplicate frame_id {fid}")
            seen.add(fid)
            if any(c < 0 for c in counts):
                raise DataError(f"{path}:{lineno}: negative count")
            if cfgs is not None:
                for label, c in zip(AXIS_ORDER, counts):
                    if c > cfgs[label].pixels:
                        raise DataError(
                            f"{path}:{lineno}: count {c} exceeds the "
                            f"{cfgs[label].pixels} pixels of region {label}")
            rows.append(tuple(counts))
            maxima = [max(m, c) for m, c in zip(maxima, counts)]
    if not rows:
        raise DataError(f"{path}: no frames")
    shape = tuple((max(m, c) if cutoffs else m) + 1
                  for m, c in zip(maxima, cutoffs or maxima))
    counts = np.zeros(shape, dtype=np.int64)
    for cell in rows:
        counts[cell] += 1
    return Histogram(counts, len(rows))


def _table_shape(meta: dict, path: Path) -> tuple[int, ...]:
    """Table shape from a sidecar's cutoffs, one per axis label."""
    try:
        shape = tuple(int(c) + 1 for c in meta["cutoffs"])
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed cutoffs ({exc})") from exc
    if len(shape) != len(meta["axis_labels"]) or min(shape, default=0) < 1:
        raise DataError(f"{path}: cutoffs {meta['cutoffs']} do not match "
                        f"axis labels {meta['axis_labels']}")
    return shape


def _data_lines(path: Path):
    """(line number, text) of every nonblank line after the header."""
    with path.open() as fh:
        next(fh, None)
        for lineno, line in enumerate(fh, start=2):
            if line.strip():
                yield lineno, line


def _parse_error(path: Path, width: int) -> str:
    """Line and reason of the first row that is not ``width`` numbers."""
    for lineno, line in _data_lines(path):
        fields = line.split(",")
        if len(fields) != width:
            return f"{path}:{lineno}: expected {width} fields, got {len(fields)}"
        try:
            [float(x) for x in fields]
        except ValueError as exc:
            return f"{path}:{lineno}: {exc}"
    return f"{path}: unreadable table"


def _read_cells(path: Path, header: list[str] | None = None,
                shape: tuple[int, ...] | None = None,
                counts: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Cell indices (rows x rank, int64) and values of a ``cell..., value`` CSV.

    The first line must equal ``header``; without one, any header of at
    least two names sets the rank. Every index must be a nonnegative
    integer, below ``shape`` when given; every value finite, and a
    nonnegative integer for ``counts``. A violation is a DataError naming
    the file and line.
    """
    try:
        fh = path.open()
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc})") from exc
    with fh:
        names = [h.strip() for h in fh.readline().split(",")]
        if header is not None and names != header:
            raise DataError(f"{path}:1: expected header {','.join(header)}")
        if len(names) < 2:
            raise DataError(f"{path}:1: expected a header of cell names and a value")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a table with no rows
            try:
                data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
            except ValueError:
                raise DataError(_parse_error(path, len(names))) from None
    if len(data) and data.shape[1] != len(names):
        raise DataError(f"{path}:{next(_data_lines(path))[0]}: wrong cell rank: "
                        f"{data.shape[1] - 1} indices, header has {len(names) - 1}")
    data = data.reshape(-1, len(names))
    cells, values = data[:, :-1], data[:, -1]
    checks = [("non-finite value", ~np.isfinite(values)),
              ("cell index is not an integer", np.any(cells != np.floor(cells), axis=1)),
              ("negative cell index", np.any(cells < 0, axis=1))]
    if shape is not None:
        checks.append((f"cell outside cutoffs {[n - 1 for n in shape]}",
                       np.any(cells >= np.asarray(shape), axis=1)))
    if counts:
        checks.append(("count is not a nonnegative integer",
                       (values != np.floor(values)) | (values < 0)))
    for reason, bad in checks:
        if bad.any():
            row = int(np.argmax(bad))
            lineno = next(itertools.islice(_data_lines(path), row, None))[0]
            cell = ",".join(f"{x:g}" for x in data[row])
            raise DataError(f"{path}:{lineno}: {reason} ({cell})")
    return cells.astype(np.int64), values


def _histogram_header(labels) -> list[str]:
    return [*(f"c_{l}" for l in labels), "count"]


def save_histogram(h: Histogram, path: str | Path,
                   detector_presets: dict | None = None) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_histogram_header(h.axis_labels))
        for idx in np.argwhere(h.counts > 0):
            writer.writerow([*idx.tolist(), int(h.counts[tuple(idx)])])
    meta = {
        "trials": h.trials,
        "cutoffs": list(h.cutoffs),
        "axis_labels": list(h.axis_labels),
        "detector_presets": detector_presets,
    }
    _sidecar(path).write_text(json.dumps(meta, indent=2) + "\n")


def load_histogram(path: str | Path) -> Histogram:
    path = Path(path)
    meta = _read_json(_sidecar(path), ("cutoffs", "trials", "axis_labels"))
    shape = _table_shape(meta, path)
    cells, counts = _read_cells(path, _histogram_header(meta["axis_labels"]), shape,
                                counts=True)
    table = np.zeros(shape, dtype=np.int64)
    np.add.at(table, tuple(cells.T), counts.astype(np.int64))
    return Histogram(table, int(meta["trials"]), tuple(meta["axis_labels"]))


def _distribution_header(labels) -> list[str]:
    return [*(f"n_{l}" for l in labels), "value"]


def save_distribution(d: JointDistribution, path: str | Path,
                      value_floor: float = 0.0) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_distribution_header(d.axis_labels))
        for idx in np.argwhere(np.abs(d.values) > value_floor):
            writer.writerow([*idx.tolist(), f"{d.values[tuple(idx)]:.17g}"])
    meta = {
        "cutoffs": list(d.cutoffs),
        "axis_labels": list(d.axis_labels),
        "normalized": d.normalized,
    }
    _sidecar(path).write_text(json.dumps(meta, indent=2) + "\n")


def load_distribution(path: str | Path) -> JointDistribution:
    path = Path(path)
    meta = _read_json(_sidecar(path), ("cutoffs", "axis_labels", "normalized"))
    shape = _table_shape(meta, path)
    cells, vals = _read_cells(path, _distribution_header(meta["axis_labels"]), shape)
    values = np.zeros(shape)
    values[tuple(cells.T)] = vals
    return JointDistribution(values, tuple(meta["axis_labels"]),
                             normalized=bool(meta["normalized"]))


def load_lattice(path: str | Path) -> np.ndarray:
    """Dense field of a cell CSV: a saved distribution, or a lattice export
    without table metadata (``ncd-field``) sized by its largest indices."""
    path = Path(path)
    try:
        meta = json.loads(_sidecar(path).read_text())
    except (OSError, ValueError):
        meta = None
    if isinstance(meta, dict) and "cutoffs" in meta:
        return load_distribution(path).values
    cells, vals = _read_cells(path)
    if not len(vals):
        raise DataError(f"{path}: empty lattice file")
    field = np.zeros(tuple(cells.max(axis=0) + 1))
    field[tuple(cells.T)] = vals
    return field


def save_frames(samples: np.ndarray, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FRAME_HEADER)
        for i, row in enumerate(samples):
            writer.writerow([i, *[int(x) for x in row]])


def write_manifest(out_path: str | Path, command: str, settings: dict) -> None:
    out_path = Path(out_path)
    manifest = {"command": command, "version": __version__, "settings": settings}
    manifest_path = out_path.with_suffix(out_path.suffix + ".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
