"""CSV and JSON serialization for scans, curves, and fit reports.

All CSV files are comma separated with one header line; metadata rides in
leading comment lines of the form '# key = value' so that ground truth and
provenance survive a round trip through the file system.  A writer writes a
record's field over any `meta` key of its name.  Every table goes through
write_table and every reader through _read_table, so the format is defined
once.  Readers return lists of floats, which the fits and `RawScan` take
in through `errors._samples`; the module imports no numpy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    from .pipeline import NormalizedScan, RawScan


@dataclass
class DecayCurve:
    """Fluorescence decay record: count rate versus time under constant
    drive, in any 1-D columns of numbers (the trap fit checks them)."""

    time_s: Sequence[float]
    counts_per_s: Sequence[float]
    power_w: Optional[float] = None
    meta: dict = field(default_factory=dict)


def _column(path, name, col):
    """One 1-D column as a list of Python scalars (numpy ones via tolist)."""
    if hasattr(col, "tolist"):
        if col.ndim != 1:
            raise ValueError(f"{path}: column {name!r} is not 1-D")
        return col.tolist()
    cells = [v.tolist() if hasattr(v, "tolist") else v for v in col]
    if any(isinstance(v, (list, tuple)) for v in cells):
        raise ValueError(f"{path}: column {name!r} is not 1-D")
    return cells


def write_table(path, header, columns, meta=None):
    """Write '# key = value' metadata lines, the header, one row per sample.

    Each column is a 1-D numpy array or a sequence of numbers; cells are
    written with repr, so float64 values round-trip exactly and an integer
    column stays integer; None becomes an empty cell.  Raises ValueError
    when the column count differs from the header, when column lengths
    differ, or when a column is not 1-D.
    """
    if len(columns) != len(header):
        raise ValueError(f"{path}: {len(columns)} columns for the "
                         f"{len(header)} names of the header")
    cells = [_column(path, name, col) for name, col in zip(header, columns)]
    lengths = {len(col) for col in cells}
    if len(lengths) > 1:
        raise ValueError(f"{path}: columns differ in length: "
                         f"{[len(col) for col in cells]}")
    lines = [f"# {key} = {value}" for key, value in (meta or {}).items()]
    lines.append(",".join(header))
    for row in zip(*cells):
        lines.append(",".join("" if v is None else repr(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_table(path, required):
    """Read a table; return (meta, {name: float list}) for required columns.

    A UTF-8 byte-order mark is skipped.  Raises ValueError naming the file
    for a missing header, a required column that is missing or named twice,
    a non-numeric cell in a required column, or a row whose length differs
    from the header.
    """
    meta = {}
    header = None
    rows = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, sep, value = line.lstrip("#").partition("=")
                if sep:
                    meta[key.strip()] = value.strip()
                continue
            cells = line.split(",")
            if header is None:
                header = [c.strip() for c in cells]
                missing = [c for c in required if c not in header]
                if missing:
                    raise ValueError(f"{path}: missing columns {missing}; "
                                     f"found {header}")
                repeated = [c for c in required if header.count(c) > 1]
                if repeated:
                    raise ValueError(f"{path}: the header names column "
                                     f"{repeated[0]!r} more than once")
                index = [header.index(c) for c in required]
                continue
            if len(cells) != len(header):
                raise ValueError(f"{path}, line {number}: {len(cells)} cells "
                                 f"but the header has {len(header)}")
            try:
                rows.append([float(cells[i]) for i in index])
            except ValueError as exc:
                raise ValueError(f"{path}, line {number}: {exc}") from None
    if header is None:
        raise ValueError(f"{path}: no header line found")
    return meta, {name: [row[k] for row in rows]
                  for k, name in enumerate(required)}


def _meta_number(path, meta, key, integer=False):
    """meta[key] as a finite float (int if `integer`); KeyError if absent."""
    try:
        value = float(meta[key])
    except ValueError:
        value = float("nan")
    if not math.isfinite(value) or (integer and not value.is_integer()):
        kind = "an integer" if integer else "a finite number"
        raise ValueError(f"{path}: metadata {key} = {meta[key]!r} is not "
                         f"{kind}")
    return int(value) if integer else value


def write_signal_csv(path, times, model_values, scaled_values):
    """Emit the S(t) table with the standard three columns and no metadata."""
    write_table(path, ["time_s", "model_signal", "scaled_counts_per_s"],
                [times, model_values, scaled_values])


def write_decay_curve(path, curve: DecayCurve):
    power = {} if curve.power_w is None else {"power_w": curve.power_w}
    write_table(path, ["time_s", "counts_per_s"],
                [curve.time_s, curve.counts_per_s], {**curve.meta, **power})


def read_decay_curve(path) -> DecayCurve:
    meta, cols = _read_table(path, ["time_s", "counts_per_s"])
    power = _meta_number(path, meta, "power_w") if "power_w" in meta else None
    return DecayCurve(cols["time_s"], cols["counts_per_s"], power, meta)


def _scan_meta(scan: RawScan) -> dict:
    """The scan's metadata, its AOM-off range written over any recorded."""
    a, b = scan.aom_off_range
    return {**scan.meta, "aom_off_start": a, "aom_off_stop": b}


def write_raw_scan(path, scan: RawScan):
    write_table(path, ["freq_hz", "fluor_counts", "power_counts"],
                [scan.freq, scan.fluor_counts, scan.power_monitor],
                _scan_meta(scan))


def read_raw_scan(path, aom_off_range=None) -> RawScan:
    """The scan in `path`, its modulator-off range `aom_off_range`: by
    default the one its metadata records, and for "auto" the one
    `pipeline.detect_aom_off_range` finds in its power column."""
    from .pipeline import RawScan, detect_aom_off_range
    meta, cols = _read_table(path, ["freq_hz", "fluor_counts", "power_counts"])
    if aom_off_range is None:
        try:
            aom_off_range = tuple(
                _meta_number(path, meta, key, integer=True)
                for key in ("aom_off_start", "aom_off_stop"))
        except KeyError:
            raise ValueError(f"{path}: no aom_off_range in metadata; "
                             "pass one explicitly") from None
    try:
        if aom_off_range == "auto":
            aom_off_range = detect_aom_off_range(cols["power_counts"])
        return RawScan(freq=cols["freq_hz"],
                       fluor_counts=cols["fluor_counts"],
                       power_monitor=cols["power_counts"],
                       aom_off_range=tuple(aom_off_range), meta=meta)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_treated_scan(path, scan: RawScan, normalized: NormalizedScan):
    """The treatment's output, not a raw scan (`read_raw_scan` refuses it).

    fluor_counts holds the power-normalized signal, nan on excluded rows,
    and power_counts the background-subtracted power trace; the metadata
    is `scan`'s, with the AOM-off range its backgrounds were averaged over.
    """
    write_table(path, ["freq_hz", "fluor_counts", "power_counts", "excluded"],
                [normalized.freq, normalized.signal, scan.power_monitor,
                 normalized.excluded.astype(int)], _scan_meta(scan))


def read_xy(path, x_name, y_name):
    """(x, y, meta) of a two-column table; x and y are lists of floats."""
    meta, cols = _read_table(path, [x_name, y_name])
    return cols[x_name], cols[y_name], meta


def write_report(path, report: dict):
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=False) + "\n",
                          encoding="utf-8")
