"""File formats: frame streams, sparse histograms, sparse distributions,
run manifests. All tables are CSV with a JSON sidecar carrying shape and
normalization metadata, so every artifact is diff-able and language-neutral.
Photon tables and the depth lattices of ``ncd-field`` are both saved
distributions; a table CSV without its sidecar, or with a sidecar that
does not describe it, is a DataError naming the sidecar.

A histogram's sidecar, and that of a photon table reconstructed from it,
records the detectors by value under ``"detectors"``: the object a
detector file holds. One parser reads it from either place; a sidecar
without it is a DataError naming the sidecar, never a preset's detectors.

A saved distribution also gets a binary copy of its table, ``<out>.npy``,
and its sidecar records the SHA-256 of the CSV and of the copy. The loader
reads the copy, skipping the CSV parse, only while both digests match the
files; otherwise (a hand-edited CSV, a missing or stale copy) it parses the
CSV. The CSV is the canonical artifact, and deleting a ``.npy`` is safe.

Every CSV row is the ``%d`` text of its integer fields and the ``%.17g``
text of its other fields, with ``\r\n`` line ends: the bytes the ``csv``
module writes row by row, whose 17 digits read back to the same double.
One numpy renderer, :func:`save_columns`, makes them for histograms,
tables, frame streams, sweeps, plane cuts and EM traces, in blocks of
2**15 rows, and hashes each block as it is written.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import json
import math
import warnings
from fractions import Fraction
from io import BytesIO, StringIO
from pathlib import Path

import numpy as np

from . import __version__
from .detector import DetectorConfig
from .errors import DataError, ParameterError
from .fock import AXIS_ORDER, Histogram, JointDistribution
from .gaussian import PARAM_KEYS, TripleTwbParams

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


def _detector_configs(data, path: Path) -> dict[str, DetectorConfig]:
    """Detector configs from a JSON object keyed by axis label, read from
    ``path``; anything else is a DataError or ParameterError naming it."""
    if not isinstance(data, dict):
        raise DataError(f"{path}: expected a JSON object of detector entries")
    missing = [l for l in AXIS_ORDER if l not in data]
    if missing:
        raise DataError(f"{path}: missing detector entries {missing}")
    try:
        return {l: DetectorConfig(**data[l]) for l in AXIS_ORDER}
    except TypeError as exc:
        raise DataError(f"{path}: malformed detector entry ({exc})") from exc
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from exc


def detector_entries(cfgs: dict[str, DetectorConfig]) -> dict:
    """The JSON object of detector configs: what a detector file holds and
    what sidecars and manifests record under ``"detectors"``."""
    return {l: {"pixels": int(cfgs[l].pixels), "efficiency": float(cfgs[l].efficiency),
                "dark_rate": float(cfgs[l].dark_rate)} for l in AXIS_ORDER}


def load_detectors(path: str | Path) -> dict[str, DetectorConfig]:
    """Detector configs from a JSON object keyed by axis label.

    Each entry holds ``pixels``, ``efficiency`` and ``dark_rate``.
    """
    path = Path(path)
    return _detector_configs(_read_json(path, ()), path)


def recorded_detectors(path: str | Path) -> dict[str, DetectorConfig]:
    """The detector configs recorded in the sidecar of a saved table."""
    sidecar = _sidecar(Path(path))
    meta = _read_json(sidecar, ())
    if "detectors" not in meta:
        raise DataError(f"{sidecar}: no detector record (simulate, ingest and "
                        "reconstruct write one)")
    return _detector_configs(meta["detectors"], sidecar)


def load_params(path: str | Path) -> TripleTwbParams:
    """Field parameters from a JSON object keyed by ``PARAM_KEYS``.

    Each entry holds the component's mode number ``M`` and mean photons
    per mode ``B``.
    """
    path = Path(path)
    data = _read_json(path, PARAM_KEYS)
    try:
        return TripleTwbParams.from_dict(data)
    except (TypeError, ValueError, KeyError) as exc:
        raise DataError(f"{path}: malformed parameter entry; each needs numbers "
                        f"M and B ({exc!r})") from exc
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from exc


def ingest_frames(path: str | Path, cfgs: dict[str, DetectorConfig]) -> Histogram:
    """Accumulate a frame CSV into a Histogram over the observed click box.

    Every field must be a nonnegative integer. Rejects duplicate frame ids
    and counts above the pixel budget of the detectors ``cfgs``; a
    malformed row is reported with its line number.
    """
    path = Path(path)
    # read as cells (frame_id, c_s, c_i1, c_i2) with the value c_i3; the
    # clicks are a view of the one int64 table
    rows = _read_cells(path, FRAME_HEADER, counts=True)
    if not len(rows):
        raise DataError(f"{path}: no frames")
    frame_ids, clicks = rows[:, 0], rows[:, 1:]
    repeat = _repeats(frame_ids)
    if repeat.any():
        row = int(np.argmax(repeat))
        raise DataError(f"{path}:{_line_of(path, row)}: duplicate frame_id {frame_ids[row]}")
    pixels = np.array([cfgs[l].pixels for l in AXIS_ORDER])
    over = np.argwhere(clicks > pixels)
    if len(over):
        row, axis = over[0]
        raise DataError(
            f"{path}:{_line_of(path, row)}: count {clicks[row, axis]} exceeds the "
            f"{pixels[axis]} pixels of region {AXIS_ORDER[axis]}")
    return Histogram.binned(clicks, clicks.max(axis=0))


def _table_meta(path: Path, keys: tuple[str, ...]) -> tuple[Path, dict, tuple[int, ...]]:
    """The sidecar of the table at ``path``, its JSON holding ``keys``, and the
    table shape from its cutoffs, one per axis label; a malformed record is a
    DataError naming the sidecar."""
    sidecar = _sidecar(path)
    meta = _read_json(sidecar, ("cutoffs", "axis_labels", *keys))
    labels, cutoffs = meta["axis_labels"], meta["cutoffs"]
    if not (isinstance(labels, list) and labels and all(isinstance(l, str) for l in labels)):
        raise DataError(f"{sidecar}: axis_labels must be a list of names, got {labels!r}")
    if not (isinstance(cutoffs, list) and len(cutoffs) == len(labels)
            and all(type(c) is int and c >= 0 for c in cutoffs)):
        raise DataError(f"{sidecar}: cutoffs {cutoffs!r} must be one integer >= 0 "
                        f"per axis label {labels}")
    shape = tuple(c + 1 for c in cutoffs)
    if math.prod(shape) > np.iinfo(np.intp).max // 8:
        raise DataError(f"{sidecar}: cutoffs {cutoffs} give a table too large to hold")
    return sidecar, meta, shape


def _data_lines(path: Path):
    """(line number, text) of every nonblank line after the header; a byte
    that is not UTF-8 reads as U+FFFD, which no number parses."""
    with path.open(errors="replace") as fh:
        next(fh, None)
        for lineno, line in enumerate(fh, start=2):
            if line.strip():
                yield lineno, line


def _line_of(path: Path, row: int) -> int:
    """File line number of data row ``row`` (0-based)."""
    return next(itertools.islice(_data_lines(path), row, None))[0]


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


def _repeats(keys: np.ndarray) -> np.ndarray:
    """True at each key that an earlier row already holds."""
    repeat = np.ones(len(keys), dtype=bool)
    repeat[np.unique(keys, return_index=True)[1]] = False
    return repeat


def _read_cells(path: Path, header: list[str],
                shape: tuple[int, ...] | None = None,
                counts: bool = False) -> np.ndarray:
    """The rows (cell index..., value) of a CSV table, one column per field:
    float64, or int64 for ``counts``.

    The first line must equal ``header``, whose length sets the rank.
    Every index must be a nonnegative integer below 2**53, which a double
    holds exactly, and below ``shape`` when given, where no cell may come
    twice; every value finite, and for ``counts`` a nonnegative integer
    below 2**53 too. A violation is a DataError naming the file and line.
    The parsed float64 rows are dropped once ``counts`` has converted them.
    """
    try:
        fh = path.open(errors="replace")  # as _data_lines reads it
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc})") from exc
    with fh:
        names = [h.strip() for h in fh.readline().split(",")]
        if names != header:
            raise DataError(f"{path}:1: expected header {','.join(header)}")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a table with no rows
            try:
                data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
            except ValueError:
                raise DataError(_parse_error(path, len(names))) from None
    if len(data) and data.shape[1] != len(names):
        raise DataError(f"{path}:{_line_of(path, 0)}: wrong cell rank: "
                        f"expected {len(names)} fields, got {data.shape[1]}")
    data = data.reshape(-1, len(names))
    cells, values = data[:, :-1], data[:, -1]
    checks = [("non-finite value", ~np.isfinite(values)),
              ("cell index is not an integer below 2**53",
               np.any((cells != np.floor(cells)) | (cells >= 2.0**53), axis=1)),
              ("negative cell index", np.any(cells < 0, axis=1))]
    if shape is not None:
        checks.append((f"cell outside cutoffs {[n - 1 for n in shape]}",
                       np.any(cells >= np.asarray(shape), axis=1)))
    if counts:
        checks += [("count is not a nonnegative integer",
                    (values != np.floor(values)) | (values < 0)),
                   ("count is not below 2**53", values >= 2.0**53)]
    if shape is not None and not any(bad.any() for _, bad in checks):
        # a histogram would add the rows of a repeated cell, a table keep the last
        flat = np.ravel_multi_index(tuple(cells.T.astype(np.int64)), shape)
        checks.append(("repeated cell", _repeats(flat)))
    for reason, bad in checks:
        if bad.any():
            row = int(np.argmax(bad))
            cell = ",".join(f"{x:g}" for x in data[row])
            raise DataError(f"{path}:{_line_of(path, row)}: {reason} ({cell})")
    return data.astype(np.int64) if counts else data


#: rows rendered and written at once: bounds the byte arrays of a block
_BLOCK_ROWS = 1 << 15
#: the pad byte of the fixed row layouts: no CSV line holds a NUL, and the
#: renderer drops every pad before a block is written
_PAD = b"\0"
#: bytes of a rendered float: sign, "0.000" prefix, 17 digits with a dot
#: slot after each of the first 16, "e+308" suffix
_FLOAT_BYTES = 1 + 5 + 33 + 5


@functools.cache
def _digit_quads() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of each of 0..9999 as one uint32 of memory,
    zero-filled and with its leading zeros as pads (the last digit kept)."""
    v = np.arange(10_000)
    digits = (v[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    padded = np.where(v[:, None] < np.array([1000, 100, 10, 0]), 0, digits).astype(np.uint8)
    return digits.view(np.uint32).ravel(), padded.view(np.uint32).ravel()


@functools.cache
def _power10(p: int) -> tuple[float, float]:
    """10**p as a double-double hi + lo: hi the nearest double, lo the
    nearest double to the rest, from the exact rational. Cached: the fast
    route asks for at most the 542 exponents of |v| in [1e-270, 1e270]."""
    exact = Fraction(10) ** p
    hi = float(exact)
    return hi, float(exact - Fraction(hi))


def _exponent_text(k: int) -> bytes:
    """What follows the digits of a ``%.17g`` number of decimal exponent k:
    nothing in fixed form (-4 <= k < 17), else ``e`` and a signed exponent
    of at least two digits, padded to five bytes."""
    return (b"" if -4 <= k < 17 else b"e%+03d" % k).ljust(5, _PAD)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of doubles into high and low halves whose pairwise
    products are exact."""
    t = a * 134217729.0  # 2**27 + 1
    hi = t - (t - a)
    return hi, a - hi


def _int_text(out: np.ndarray, column: np.ndarray) -> None:
    """Write ``'%d' % v`` of each v of the int64 ``column`` down the columns
    of ``out`` (width x rows bytes), right-aligned after pad bytes."""
    width, rows = out.shape
    quads, padded = _digit_quads()
    negative = column < 0
    rest = np.where(negative, -column, column).view(np.uint64)  # -(-2**63) wraps to 2**63
    for end in range(width, 0, -4):
        group = rest % 10_000
        rest = rest // 10_000
        # the value's leading group has pads for its leading zeros; a group
        # left of it is all pads
        lead = padded[group] if end == width else np.where(group > 0, padded[group], 0)
        text = np.where(rest > 0, quads[group], lead).view(np.uint8).reshape(rows, 4).T
        out[max(end - 4, 0): end] = text[max(4 - end, 0):]
    if negative.any():
        cols = np.flatnonzero(negative)
        out[np.argmax(out[:, cols] != 0, axis=0) - 1, cols] = ord("-")


def _float_text(out: np.ndarray, x: np.ndarray) -> None:
    """Write ``'%.17g' % v`` of each v of the float64 ``x`` down the columns
    of ``out`` (_FLOAT_BYTES x rows bytes), with pad bytes among them.

    With k = floor(log10|v|), m = |v| 10^(16 - k) is summed as Dekker's exact
    product of |v| and a double-double 10^(16 - k), good to ~1e-14, and
    rounded half-even to the 17 digits of |v|. Where that rounding is in
    doubt (a fraction within 1e-9 of one half), where k was one off (m
    outside [10^16, 10^17), before or after rounding), beyond |v| in
    [1e-270, 1e270], whose powers of ten would leave the normal doubles,
    and for zeros, infinities and nans, the value is formatted by
    ``'%.17g'`` itself. The digits then take the layout of Python's ``g``
    rules: fixed form for -4 <= k < 17, else ``d.ddde+XX``, trailing zeros
    and a bare dot dropped.
    """
    rows = len(x)
    ax = np.abs(x)
    fast = (ax >= 1e-270) & (ax <= 1e270)
    ax[~fast] = 1.0
    k = np.floor(np.log10(ax)).astype(np.int64)
    lo = int(k.min())
    hi, low = np.array([_power10(16 - e) for e in range(lo, int(k.max()) + 1)]).T[:, k - lo]
    prod = ax * hi
    ah, al = _split(ax)
    bh, bl = _split(hi)
    # ax * 10^(16-k) = prod + rest, prod an integer (it is above 2**53) and
    # rest the exact error of prod plus the rounded ax * low
    rest = (((ah * bh - prod) + ah * bl + al * bh) + al * bl) + ax * low
    whole = np.floor(rest)
    frac = rest - whole
    m = prod.astype(np.int64) + whole.astype(np.int64)
    up = frac > 0.5
    fast &= (m >= 10**16) & (m + up < 10**17) & (np.abs(frac - 0.5) > 1e-9)
    m += up
    # the 17 ASCII digits: one, then four groups of four
    quads, _ = _digit_quads()
    digits = np.empty((rows, 20), np.uint8)
    words = digits.view(np.uint32)
    left = m % 10**16
    for g in range(4, 0, -1):
        words[:, g] = quads[left % 10_000]
        left //= 10_000
    digits[:, 3] = m // 10**16 + ord("0")
    digits = digits[:, 3:]
    # digits left of the dot: k + 1 in fixed form (none below 1), one in e form
    fixed = (k >= -4) & (k < 17)
    whole_digits = np.where(fixed, np.maximum(k + 1, 0), 1)
    significant = np.full(rows, 17)
    zeros = np.flatnonzero(digits[:, 16] == ord("0"))
    significant[zeros] = 17 - np.argmax(digits[zeros, ::-1] != ord("0"), axis=1)
    digits[zeros] *= np.arange(17) < np.maximum(significant, whole_digits)[zeros, None]
    out[0] = np.where(np.signbit(x), ord("-"), 0)
    prefix = np.frombuffer(b"\0\0\0\0\0" b"0.\0\0\0" b"0.0\0\0" b"0.00\0" b"0.000",
                           np.uint8).reshape(5, 5)
    out[1:6] = prefix[np.where(fixed & (k < 0), -k, 0)].T
    out[6:39:2] = digits.T
    out[7:38:2] = 0
    dotted = np.flatnonzero((significant > whole_digits) & (whole_digits > 0))
    out[5 + 2 * whole_digits[dotted], dotted] = ord(".")
    suffix = np.frombuffer(b"".join(map(_exponent_text, range(lo, int(k.max()) + 1))),
                           np.uint8).reshape(-1, 5)
    out[39:44] = suffix[k - lo].T
    for i in np.flatnonzero(~fast).tolist():
        text = b"%.17g" % x[i]
        out[:, i] = 0
        out[: len(text), i] = np.frombuffer(text, np.uint8)


def _render_rows(columns: list[np.ndarray]) -> bytes:
    """The CSV lines of a block of rows, ``%d`` fields of the int64 columns
    and ``%.17g`` ones of the float64 columns, each line ending in ``\r\n``."""
    widths = [_FLOAT_BYTES if c.dtype.kind == "f"
              else max(len(str(int(c.min()))), len(str(int(c.max())))) for c in columns]
    lines = np.empty((sum(widths) + len(columns) + 1, len(columns[0])), np.uint8)
    at = 0
    for column, width in zip(columns, widths):
        (_float_text if column.dtype.kind == "f" else _int_text)(lines[at: at + width], column)
        lines[at + width] = ord(",")
        at += width + 1
    lines[at - 1] = ord("\r")
    lines[at] = ord("\n")
    return lines.T.tobytes().translate(None, _PAD)


def save_columns(columns: dict[str, np.ndarray | range], path: str | Path) -> str:
    """Every CSV of the package: a header of the column names, then one line
    per row, an integer column's fields with ``%d``, any other's as float64
    with ``%.17g``. The bytes of the ``%``-formatted lines are rendered and
    written in blocks of rows; returns the SHA-256 of the file, fed as it
    is written. A column is an array or a ``range``; each is converted to
    int64 or float64 one block at a time, so an int32 column or a range of
    row numbers costs one block's copy, not a whole column's."""
    head = StringIO()
    csv.writer(head).writerow(columns)
    cols = list(columns.values())
    digest = hashlib.sha256()
    with Path(path).open("wb") as fh:
        def write(block: bytes) -> None:
            fh.write(block)
            digest.update(block)
        write(head.getvalue().encode())
        for start in range(0, len(cols[0]), _BLOCK_ROWS):
            write(_render_rows([_block(c, start) for c in cols]))
    return digest.hexdigest()


def _block(column: np.ndarray | range, start: int) -> np.ndarray:
    """Rows ``start`` to ``start + _BLOCK_ROWS`` of a column as the int64 or
    float64 the renderer takes: a view of an int64 or float64 column, a
    copy of any other, and a range numbered by ``np.arange``."""
    part = column[start: start + _BLOCK_ROWS]
    if isinstance(part, range):
        return np.arange(part.start, part.stop, part.step, dtype=np.int64)
    return np.asarray(part, np.int64 if part.dtype.kind in "iu" else np.float64)


def _write_cells(path: Path, header: list[str], table: np.ndarray, keep: np.ndarray) -> str:
    """A ``cell..., value`` CSV with one row per kept cell, in C order;
    returns its SHA-256."""
    cells = np.nonzero(keep)
    return save_columns(dict(zip(header, [*cells, table[cells]])), path)


def _histogram_header(labels) -> list[str]:
    return [*(f"c_{l}" for l in labels), "count"]


def save_histogram(h: Histogram, path: str | Path,
                   detectors: dict[str, DetectorConfig]) -> None:
    """The counts as a ``cell..., count`` CSV, then the sidecar with the
    detectors that produced them."""
    path = Path(path)
    _write_cells(path, _histogram_header(h.axis_labels), h.counts, h.counts > 0)
    meta = {
        "trials": h.trials,
        "cutoffs": list(h.cutoffs),
        "axis_labels": list(h.axis_labels),
        "detectors": detector_entries(detectors),
    }
    _sidecar(path).write_text(json.dumps(meta, indent=2) + "\n")


def load_histogram(path: str | Path) -> Histogram:
    """A saved histogram; a sidecar that does not describe its counts is a
    DataError naming the sidecar."""
    path = Path(path)
    sidecar, meta, shape = _table_meta(path, ("trials",))
    rows = _read_cells(path, _histogram_header(meta["axis_labels"]), shape, counts=True)
    table = np.zeros(shape, dtype=np.int64)
    table[tuple(rows[:, :-1].T)] = rows[:, -1]
    try:
        return Histogram(table, meta["trials"], tuple(meta["axis_labels"]))
    except DataError as exc:
        raise DataError(f"{sidecar}: {exc}") from exc


def _distribution_header(labels) -> list[str]:
    return [*(f"n_{l}" for l in labels), "value"]


def _payload(path: Path) -> Path:
    return path.with_suffix(path.suffix + ".npy")


#: bytes read per step when hashing a file
_HASH_CHUNK = 1 << 20


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(_HASH_CHUNK), b""):
            digest.update(chunk)
    return digest.hexdigest()


def save_distribution(d: JointDistribution, path: str | Path,
                      detectors: dict[str, DetectorConfig] | None = None) -> None:
    """The table as a ``cell..., value`` CSV, its ``.npy`` payload, then the sidecar.

    The sidecar comes last and records the SHA-256 of both files, so a
    save cut short leaves no record that matches them. Given ``detectors``,
    it also records them, as a histogram's sidecar does.
    """
    path = Path(path)
    csv_sha256 = _write_cells(path, _distribution_header(d.axis_labels), d.values,
                              np.abs(d.values) > 0)
    buf = BytesIO()
    # + 0.0 turns -0.0 into +0.0: the CSV skips zero cells, which load as +0.0
    np.save(buf, d.values + 0.0, allow_pickle=False)
    payload = buf.getvalue()
    _payload(path).write_bytes(payload)
    meta = {
        "cutoffs": list(d.cutoffs),
        "axis_labels": list(d.axis_labels),
        "normalized": d.normalized,
        "payload": {"csv_sha256": csv_sha256,
                    "npy_sha256": hashlib.sha256(payload).hexdigest()},
    }
    if detectors is not None:
        meta["detectors"] = detector_entries(detectors)
    _sidecar(path).write_text(json.dumps(meta, indent=2) + "\n")


def _read_payload(path: Path, meta: dict, shape: tuple[int, ...]) -> np.ndarray | None:
    """The ``.npy`` table of a saved CSV, or None unless the sidecar's digests
    match both files and the table is finite float64 of ``shape``."""
    record = meta.get("payload")
    if not isinstance(record, dict):
        return None
    try:
        data = _payload(path).read_bytes()
        if (hashlib.sha256(data).hexdigest() != record.get("npy_sha256")
                or _sha256(path) != record.get("csv_sha256")):
            return None
        values = np.load(BytesIO(data), allow_pickle=False)
    except Exception:  # any bytes np.load cannot read, a mangled header too: use the CSV
        return None
    if values.dtype != np.float64 or values.shape != shape or not np.isfinite(values).all():
        return None
    return values


def load_distribution(path: str | Path) -> JointDistribution:
    """A saved table: its ``.npy`` payload while the sidecar's digests match,
    else the parsed CSV. A sidecar that does not describe the table is a
    DataError naming the sidecar."""
    path = Path(path)
    sidecar, meta, shape = _table_meta(path, ("normalized",))
    if not isinstance(meta["normalized"], bool):
        raise DataError(f"{sidecar}: normalized must be true or false, "
                        f"got {meta['normalized']!r}")
    values = _read_payload(path, meta, shape)
    if values is None:
        rows = _read_cells(path, _distribution_header(meta["axis_labels"]), shape)
        values = np.zeros(shape)
        values[tuple(rows[:, :-1].T.astype(np.int64))] = rows[:, -1]
    try:
        return JointDistribution(values, tuple(meta["axis_labels"]),
                                 normalized=meta["normalized"])
    except DataError as exc:
        raise DataError(f"{sidecar}: {exc}") from exc


def save_frames(samples: np.ndarray, path: str | Path) -> None:
    """One ``frame_id, c_s, c_i1, c_i2, c_i3`` row per frame, numbered from 0."""
    save_columns(dict(zip(FRAME_HEADER, [range(len(samples)), *samples.T])), path)


def write_manifest(out_path: str | Path, command: str, settings: dict) -> None:
    out_path = Path(out_path)
    manifest = {"command": command, "version": __version__, "settings": settings}
    manifest_path = out_path.with_suffix(out_path.suffix + ".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
