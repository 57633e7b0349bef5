"""File formats: frame streams, sparse histograms, sparse distributions,
run manifests. All tables are CSV with a JSON sidecar carrying shape and
normalization metadata, so every artifact is diff-able and language-neutral.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from . import __version__
from .detector import DetectorConfig
from .errors import DataError
from .fock import AXIS_ORDER, Histogram, JointDistribution

FRAME_HEADER = ["frame_id", "c_s", "c_i1", "c_i2", "c_i3"]
HIST_HEADER = ["c_s", "c_i1", "c_i2", "c_i3", "count"]


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


def save_histogram(h: Histogram, path: str | Path,
                   detector_presets: dict | None = None) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HIST_HEADER)
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
    shape = tuple(c + 1 for c in meta["cutoffs"])
    counts = np.zeros(shape, dtype=np.int64)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != HIST_HEADER:
            raise DataError(f"{path}:1: expected header {','.join(HIST_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                *cell, count = (int(x) for x in row)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            if len(cell) != counts.ndim:
                raise DataError(f"{path}:{lineno}: wrong cell rank")
            if any(i < 0 or i >= s for i, s in zip(cell, shape)):
                raise DataError(f"{path}:{lineno}: cell {cell} outside cutoffs")
            counts[tuple(cell)] += count
    return Histogram(counts, int(meta["trials"]),
                     tuple(meta["axis_labels"]))


def save_distribution(d: JointDistribution, path: str | Path,
                      value_floor: float = 0.0) -> None:
    path = Path(path)
    labels = [f"n_{l}" for l in d.axis_labels]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*labels, "value"])
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
    shape = tuple(c + 1 for c in meta["cutoffs"])
    values = np.zeros(shape)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                cell = tuple(int(x) for x in row[:-1])
                values[cell] = float(row[-1])
            except (ValueError, IndexError) as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
    return JointDistribution(values, tuple(meta["axis_labels"]),
                             normalized=bool(meta["normalized"]))


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
