"""CSV and JSON serialization for scans, curves, and fit reports.

All CSV files are comma separated with one header line; metadata rides in
leading comment lines of the form '# key = value' so that ground truth and
provenance survive a round trip through the file system.  Every table goes
through write_table and every reader through _read_table, so the format is
defined once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    from .pipeline import NormalizedScan, RawScan


@dataclass
class DecayCurve:
    """Fluorescence decay record: count rate versus time under constant drive."""

    time_s: np.ndarray
    counts_per_s: np.ndarray
    power_w: Optional[float] = None
    meta: dict = field(default_factory=dict)


def write_table(path, header, columns, meta=None):
    """Write '# key = value' metadata lines, the header, one row per sample.

    Cells are written with repr, so float64 values round-trip exactly and an
    integer column stays integer; None becomes an empty cell.
    """
    lines = [f"# {key} = {value}" for key, value in (meta or {}).items()]
    lines.append(",".join(header))
    cells = [np.asarray(col).tolist() for col in columns]
    for row in zip(*cells):
        lines.append(",".join("" if v is None else repr(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_table(path, required):
    """Read a table; return (meta, {name: float array}) for required columns.

    Raises ValueError naming the file for a missing header or column, a
    non-numeric cell in a required column, or a row whose length differs
    from the header.
    """
    meta = {}
    header = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
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
    data = np.array(rows, dtype=float).reshape(len(rows), len(required))
    return meta, dict(zip(required, data.T))


def _meta_number(path, meta, key, integer=False):
    """meta[key] as a finite float (int if `integer`); KeyError if absent."""
    try:
        value = float(meta[key])
    except ValueError:
        value = float("nan")
    if not np.isfinite(value) or (integer and not value.is_integer()):
        kind = "an integer" if integer else "a finite number"
        raise ValueError(f"{path}: metadata {key} = {meta[key]!r} is not "
                         f"{kind}")
    return int(value) if integer else value


def write_signal_csv(path, times, model_values, scaled_values):
    """Emit the S(t) table with the standard three columns and no metadata."""
    write_table(path, ["time_s", "model_signal", "scaled_counts_per_s"],
                [times, model_values, scaled_values])


def write_decay_curve(path, curve: DecayCurve):
    meta = dict(curve.meta)
    if curve.power_w is not None:
        meta.setdefault("power_w", curve.power_w)
    write_table(path, ["time_s", "counts_per_s"],
                [curve.time_s, curve.counts_per_s], meta)


def read_decay_curve(path) -> DecayCurve:
    meta, cols = _read_table(path, ["time_s", "counts_per_s"])
    power = _meta_number(path, meta, "power_w") if "power_w" in meta else None
    return DecayCurve(time_s=cols["time_s"], counts_per_s=cols["counts_per_s"],
                      power_w=power, meta=meta)


def write_raw_scan(path, scan: RawScan):
    meta = dict(scan.meta)
    meta.setdefault("aom_off_start", scan.aom_off_range[0])
    meta.setdefault("aom_off_stop", scan.aom_off_range[1])
    write_table(path, ["freq_hz", "fluor_counts", "power_counts"],
                [scan.freq, scan.fluor_counts, scan.power_monitor], meta)


def read_raw_scan(path, aom_off_range=None) -> RawScan:
    from .pipeline import RawScan
    meta, cols = _read_table(path, ["freq_hz", "fluor_counts", "power_counts"])
    if aom_off_range is None:
        try:
            aom_off_range = tuple(
                _meta_number(path, meta, key, integer=True)
                for key in ("aom_off_start", "aom_off_stop"))
        except KeyError:
            raise ValueError(f"{path}: no aom_off_range in metadata; "
                             "pass one explicitly") from None
    return RawScan(freq=cols["freq_hz"], fluor_counts=cols["fluor_counts"],
                   power_monitor=cols["power_counts"],
                   aom_off_range=tuple(aom_off_range), meta=meta)


def write_treated_scan(path, scan: RawScan, normalized: NormalizedScan):
    """Treated scan in the raw schema plus the excluded flag column.

    fluor_counts holds the power-normalized signal and power_counts the
    background-subtracted power trace.
    """
    write_table(path, ["freq_hz", "fluor_counts", "power_counts", "excluded"],
                [normalized.freq, normalized.signal, scan.power_monitor,
                 normalized.excluded.astype(int)], normalized.meta)


def read_xy(path, x_name, y_name):
    meta, cols = _read_table(path, [x_name, y_name])
    return cols[x_name], cols[y_name], meta


def write_report(path, report: dict):
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=False) + "\n",
                          encoding="utf-8")
