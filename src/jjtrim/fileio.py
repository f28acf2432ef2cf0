"""File formats and run manifests.

CSV for numeric point inputs and reports (mandatory header, UTF-8, '.'
decimal, fixed per-column formatting), JSON for designs, calibrations,
campaigns, and manifests. Parsing is strict: one schema walker checks
every JSON input and names the offending field's path, every bad CSV
line is reported, and nothing is silently skipped.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import reprlib
import sys
from dataclasses import astuple, fields
from itertools import repeat
from pathlib import Path
from typing import NamedTuple, get_type_hints

from . import __version__
from .controller import CampaignConfig, QubitTuneRecord, TuningTarget
from .errors import SchemaError
from .freqmodel import PowerLawModel
from .lattice import QubitLattice
from .yieldmc import UnitCellDesign


class _Nullable(NamedTuple):
    schema: object  # schema marker: ``schema`` or JSON null; an absent key reads as null


class _Mismatch(Exception):
    """Args (problem, path): a value does not match its schema; the path grows innermost first."""


_EXPECTED = {float: "a finite number", int: "an integer", bool: "true or false",
             str: "a string", dict: "an object", list: "a list"}


def _walk(value, schema):
    """``value`` checked against ``schema``, with numbers made float.

    A schema is ``float`` (a finite number; an int is accepted, a bool is
    not), ``int``, ``bool`` or ``str`` (exactly that JSON type), ``[schema]``
    (a list), ``{key: schema}`` (an object with exactly those keys) or
    ``_Nullable(schema)``. Containers are converted in place; members that
    already have their scalar type are not visited, which keeps a
    2000-record campaign cheap.
    """
    kind = type(value)
    if schema is float:
        # A comparison, not math.isfinite: an int too large for a float fails it.
        if (kind is float or kind is int) and abs(value) <= sys.float_info.max:
            return float(value)
    elif kind is schema:
        return value
    elif kind is type(schema):  # a list or an object
        if kind is list:
            members = zip(range(len(value)), repeat(schema[0]))
        else:
            if value.keys() != schema.keys():
                for key in [k for k in schema if k not in value]:
                    if type(schema[key]) is not _Nullable:
                        raise _Mismatch("missing", [key])
                    value[key] = None
                unknown = [k for k in value if k not in schema]
                if unknown:
                    raise _Mismatch("unknown key", unknown[:1])
            members = schema.items()
        for key, sub in members:
            item = value[key]
            if type(item) is sub and (sub is not float or math.isfinite(item)):
                continue
            try:
                new = _walk(item, sub)
            except _Mismatch as exc:
                exc.args[1].append(key)
                raise
            if new is not item:
                value[key] = new
        return value
    elif type(schema) is _Nullable:
        return None if value is None else _walk(value, schema.schema)
    expected = _EXPECTED[schema if isinstance(schema, type) else type(schema)]
    raise _Mismatch(f"expected {expected}, got {reprlib.repr(value)}", [])


def _load(path, schema):
    """A JSON file checked against ``schema`` (see ``_walk``); a mismatch names its field."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not valid UTF-8") from exc
    try:
        return _walk(data, schema)
    except _Mismatch as exc:
        problem, keys = exc.args
        fields = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in reversed(keys))
        where = f"{fields.removeprefix('.')}: " if fields else ""
        raise SchemaError(f"{path}: {where}{problem}") from None


def _grid(path, data, key, what) -> tuple:
    """``data[key]``, a rows x cols grid or null, flattened; a null cell names its node."""
    rows, cols, grid = data["rows"], data["cols"], data[key]
    if grid is None:
        return None
    if len(grid) != rows or any(len(row) != cols for row in grid):
        raise SchemaError(f"{path}: {key} must be a {rows}x{cols} grid")
    missing = [f"({r},{c})" for r, row in enumerate(grid) for c, v in enumerate(row) if v is None]
    if missing:
        raise SchemaError(f"{path}: missing {what} at nodes {', '.join(missing)}")
    return tuple(v for row in grid for v in row)


_GRID = [[_Nullable(float)]]
_DESIGN = {"rows": int, "cols": int, "base_frequency_mhz": float, "offsets_mhz": _GRID,
           "design_window_mhz": [float], "measured_mhz": _Nullable(_GRID)}


def load_design(path) -> tuple[QubitLattice, tuple[float, float]]:
    """Design JSON (``_DESIGN``) -> (lattice, design window)."""
    data = _load(path, _DESIGN)
    base = data["base_frequency_mhz"]
    design = tuple(base + f for f in _grid(path, data, "offsets_mhz", "frequency offset"))
    measured = _grid(path, data, "measured_mhz", "measured frequency")
    window = tuple(data["design_window_mhz"])
    if len(window) != 2:
        raise SchemaError(f"{path}: design_window_mhz must be [lo, hi]")
    return QubitLattice(data["rows"], data["cols"], design, measured), window


def save_design(path, cell: UnitCellDesign) -> None:
    data = {
        "rows": 3,
        "cols": 3,
        "base_frequency_mhz": cell.base_frequency_mhz,
        "offsets_mhz": [list(row) for row in cell.offsets_mhz],
        "design_window_mhz": list(cell.design_window_mhz),
    }
    dump_json(path, data)


# The JSON keys in PowerLawModel's field order.
_CALIBRATION = dict.fromkeys(("beta", "alpha", "residual_sigma_mhz", "r_min", "r_max"), float)


def load_calibration(path) -> PowerLawModel:
    data = _load(path, _CALIBRATION)
    return PowerLawModel(*(data[key] for key in _CALIBRATION))


def save_calibration(path, model: PowerLawModel) -> None:
    dump_json(path, dict(zip(_CALIBRATION, astuple(model))))


def _schema_of(cls) -> dict:
    """A flat dataclass's fields as a schema (see ``_walk``): name -> annotated type."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


_CAMPAIGN = {"config": _schema_of(CampaignConfig), "targets": [_schema_of(TuningTarget)],
             "records": [_schema_of(QubitTuneRecord)]}


def save_campaign(path, records, targets, config: CampaignConfig) -> None:
    # The dataclasses are flat, so their __dict__ is asdict's result without
    # its deep copy, which costs about 10 us per object.
    dump_json(path, {"config": vars(config), "targets": [vars(t) for t in targets],
                     "records": [vars(r) for r in records]})


def load_campaign(path) -> tuple[tuple[QubitTuneRecord, ...], list[TuningTarget], CampaignConfig]:
    """Campaign JSON (``_CAMPAIGN``) -> (records, targets, config)."""
    data = _load(path, _CAMPAIGN)
    config = CampaignConfig(**data["config"])
    targets = [TuningTarget(**t) for t in data["targets"]]
    return tuple(QubitTuneRecord(**r) for r in data["records"]), targets, config


def read_points_csv(path, col_x, col_y) -> list[tuple[float, float]]:
    """(x, y) pairs from two named columns of a headed UTF-8 CSV.

    Every row needs the header's field count and finite numbers in both
    columns; all bad lines are reported at once. Undecodable bytes read
    as U+FFFD, so a line holding them fails as not numeric.
    """
    points, problems = [], []
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if col_x not in header or col_y not in header:
            raise SchemaError(f"{path}: expected columns {col_x!r} and {col_y!r}, got {header}")
        ix, iy = header.index(col_x), header.index(col_y)
        for rec in reader:
            if not rec:
                continue  # a blank line
            if len(rec) != len(header):
                problems.append(f"line {reader.line_num}: {len(rec)} fields, want {len(header)}")
                continue
            try:
                point = float(rec[ix]), float(rec[iy])
            except ValueError:
                point = (math.nan,)
            if all(map(math.isfinite, point)):
                points.append(point)
            else:
                problems.append(f"line {reader.line_num}: {col_x}/{col_y} "
                                f"{rec[ix]!r}, {rec[iy]!r} are not finite numbers")
    if problems:
        raise SchemaError(f"{path}: {len(problems)} invalid rows", details=problems)
    return points


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, command: str, config: dict, master_seed, inputs=()) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "config": config,
        "master_seed": master_seed,
        "input_digests": {str(p): sha256_file(p) for p in inputs},
        "tool_version": __version__,
    }
    path = out_dir / "manifest.json"
    dump_json(path, manifest)
    return path


def write_csv(path, header, rows, formats=None) -> None:
    """Fixed-format CSV emission; ``formats`` maps column -> format spec."""
    formats = formats or {}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            out = []
            for col, val in zip(header, row):
                if col in formats and val is not None:
                    out.append(format(val, formats[col]))
                else:
                    out.append(val)
            writer.writerow(out)


def dump_json(path, data) -> None:
    Path(path).write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
