"""File formats and run manifests.

CSV for numeric point inputs and reports (mandatory header, UTF-8, '.'
decimal, fixed per-column formatting), JSON for designs, calibrations,
campaigns, and manifests. ``read_input`` is the one reader: it reads a file
once and returns its strict UTF-8 text with the SHA-256 of the same bytes;
the loaders parse that text, and the path only names the file in their
messages. Parsing is strict: one schema walker checks every JSON input and
names the offending field's path, every bad CSV line is reported, and
nothing is silently skipped.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import reprlib
import sys
from contextlib import contextmanager
from itertools import repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from . import __version__
from .controller import (
    RECORD_BOUNDS, RECORD_FIELDS, TARGET_BOUNDS, TARGET_FIELDS, CampaignConfig,
)
from .errors import ValidationError, check_rows, is_real
from .freqmodel import PowerLawModel
from .lattice import QubitLattice
from .yieldmc import UnitCellDesign


class _Nullable(NamedTuple):
    schema: object  # schema marker: ``schema`` or JSON null; an absent key reads as null


class _Table(NamedTuple):
    fields: dict  # schema marker: a list of objects with these scalar fields; a str is an id


class _Mismatch(Exception):
    """Args (problem, path): a value does not match its schema; the path grows innermost first."""


_EXPECTED = {float: "a finite number", int: "an integer", bool: "true or false",
             str: "a string", dict: "an object", list: "a list", _Table: "a list"}


def _walk(value, schema):
    """``value`` checked against ``schema``, with numbers made float.

    A schema is ``float`` (a finite number; an int is accepted, a bool is
    not), ``int``, ``bool`` or ``str`` (exactly that JSON type), ``[schema]``
    (a list), ``{key: schema}`` (an object with exactly those keys),
    ``_Nullable(schema)`` or ``_Table(fields)``: a list of ``fields`` objects,
    each int in 64 bits and no id (str) repeated, returned as columns.
    Containers are converted in place.
    """
    kind = type(value)
    if schema is float:
        if (kind is float or kind is int) and is_real(value):
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
    elif type(schema) is _Table and kind is list:
        columns, seen = _columns(value, schema), {}
        for i, row in enumerate(value if columns is None else ()):  # name the first fault
            try:
                _walk(row, schema.fields)
                for k, t in schema.fields.items():
                    if t is str and seen.setdefault((k, row[k]), i) != i:
                        raise _Mismatch(f"duplicate {reprlib.repr(row[k])}", [k])
                    if t is int and not -2**63 <= row[k] < 2**63:
                        raise _Mismatch("an integer does not fit in 64 bits", [k])
            except _Mismatch as exc:
                exc.args[1].append(i)
                raise
        return columns or _columns(value, schema)  # the walk made each int a float
    expected = _EXPECTED[schema if isinstance(schema, type) else type(schema)]
    raise _Mismatch(f"expected {expected}, got {reprlib.repr(value)}", [])


def _columns(rows, table):
    """``rows`` as columns (ids a list of str, others float64, int64 or bool
    arrays), or None if a column breaks the rule or holds an int for a float."""
    if not (set(map(type, rows)) <= {dict} and set(map(len, rows)) <= {len(table.fields)}):
        return None  # a row of the right size that misses a key has an unknown one
    columns = {}
    for key, kind in table.fields.items():
        cells = [row.get(key) for row in rows]
        if (set(map(type, cells)) - {kind} or kind is str and len(set(cells)) < len(cells)
                or kind is int and cells and not -2**63 <= min(cells) <= max(cells) < 2**63):
            return None
        columns[key] = cells if kind is str else np.array(cells, kind)
        if kind is float and not np.isfinite(columns[key]).all():
            return None
    return columns


@contextmanager
def _named(path, where=""):
    """Prefix a ``ValidationError`` raised inside with the file (and field) it came from."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{path}: {where}{exc}") from None


def read_input(path) -> tuple[str, str]:
    """(SHA-256 hex digest, text) of the file at ``path``, read once, so a run
    records the digest of the bytes it parses. The text is strict UTF-8; the
    bytes are dropped once decoded."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return hashlib.sha256(data).hexdigest(), data.decode("utf-8")
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: not valid UTF-8") from None


class _RepeatedKey(Exception):
    """Args (key,): a JSON object gives ``key`` twice; not a ``ValueError``,
    which ``_load`` reads as the digit limit."""


def _unique_keys(pairs) -> dict:
    """``json``'s object hook: the object, refused if a key repeats (``json``
    alone keeps the last value, which no schema check would see)."""
    data = dict(pairs)
    if len(data) != len(pairs):
        seen = set()
        raise _RepeatedKey(next(k for k, _ in pairs if k in seen or seen.add(k)))
    return data


def _keys(data) -> int:
    """The keys of object ``data``, of the objects among its values and of
    the objects in lists of objects among its values: at most the keys of
    all its objects, and so at most the ``:`` of its text."""
    if type(data) is not dict:
        return 0
    count = len(data)
    for value in data.values():
        if type(value) is dict:
            count += len(value)
        elif type(value) is list and set(map(type, value)) == {dict}:
            count += sum(map(len, value))
    return count


def _load(path, text, schema):
    """JSON ``text`` checked against ``schema`` (see ``_walk``); ``path`` names
    the file in every message, and a mismatch names its field.

    A text whose ``:`` are all keys that ``_keys`` counts repeats no key in
    any object, and is parsed once, by ``json`` alone; any other text, or
    one that fails to parse or to match, is parsed again with
    ``_unique_keys``, which names a repeated key before any later fault."""
    try:
        data = json.loads(text)
        unique = _keys(data) == text.count(":")
    except (ValueError, RecursionError):
        unique = False
    if unique:
        try:
            return _walk(data, schema)
        except _Mismatch:
            pass
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except _RepeatedKey as exc:
        key = reprlib.repr(exc.args[0])
        raise ValidationError(f"{path}: invalid JSON: repeated key {key}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError:  # an int past the interpreter's digit limit
        raise ValidationError(f"{path}: invalid JSON: an integer of more than "
                              f"{sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise ValidationError(f"{path}: invalid JSON: nested too deeply") from None
    try:
        return _walk(data, schema)
    except _Mismatch as exc:
        problem, keys = exc.args
        fields = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in reversed(keys))
        where = f"{fields.removeprefix('.')}: " if fields else ""
        raise ValidationError(f"{path}: {where}{problem}") from None


_DESIGN = {"rows": int, "cols": int, "base_frequency_mhz": float, "offsets_mhz": [[float]],
           "design_window_mhz": [float], "measured_mhz": _Nullable([[float]])}


def _load_design(path, text) -> dict:
    """Design JSON (``_DESIGN``), each grid rows x cols (or null) and the window a pair."""
    data = _load(path, text, _DESIGN)
    rows, cols = data["rows"], data["cols"]
    for key in ("offsets_mhz", "measured_mhz"):
        grid = data[key]
        if grid is not None and (len(grid) != rows or any(len(row) != cols for row in grid)):
            raise ValidationError(f"{path}: {key} must be a {rows}x{cols} grid")
    if len(data["design_window_mhz"]) != 2:
        raise ValidationError(f"{path}: design_window_mhz must be [lo, hi]")
    return data


def load_design(path, text) -> QubitLattice:
    """Design JSON (``_DESIGN``) -> its lattice."""
    data = _load_design(path, text)
    base, measured = data["base_frequency_mhz"], data["measured_mhz"]
    design = tuple(base + f for row in data["offsets_mhz"] for f in row)
    if measured is not None:
        measured = tuple(f for row in measured for f in row)
    with _named(path):
        return QubitLattice(data["rows"], data["cols"], design, measured)


def load_unit_cell(path, text) -> UnitCellDesign:
    """A 3x3 design JSON (``_DESIGN``) -> its unit cell: the base frequency,
    offsets and design window as written, so ``save_design`` writes them back."""
    data = _load_design(path, text)
    with _named(path):
        return UnitCellDesign(data["offsets_mhz"], data["base_frequency_mhz"],
                              tuple(data["design_window_mhz"]))


def save_design(path, cell: UnitCellDesign) -> None:
    data = {
        "rows": 3,
        "cols": 3,
        "base_frequency_mhz": cell.base_frequency_mhz,
        "offsets_mhz": [list(row) for row in cell.offsets_mhz],
        "design_window_mhz": list(cell.design_window_mhz),
    }
    dump_json(path, data)


def load_calibration(path, text) -> PowerLawModel:
    data = _load(path, text, _CALIBRATION)
    with _named(path):
        return PowerLawModel(**data)


def save_calibration(path, model: PowerLawModel) -> None:
    dump_json(path, vars(model))


_CALIBRATION = get_type_hints(PowerLawModel)
_CAMPAIGN = {"config": get_type_hints(CampaignConfig),
             "targets": _Table(TARGET_FIELDS), "records": _Table(RECORD_FIELDS)}


def save_campaign(path, records, targets, config: CampaignConfig) -> None:
    """The bytes ``json.dumps`` writes for the config and one object per target and
    record, encoded a column at a time and each distinct number (by its bits) once."""
    text = f'{{"config": {json.dumps(vars(config))}'
    for name, columns, fields in (("targets", targets, TARGET_FIELDS),
                                  ("records", records, RECORD_FIELDS)):
        cells = []
        for key, kind in fields.items():
            if kind is str:
                cells.append(list(map(encode_basestring_ascii, columns[key])))
                continue
            column = np.asarray(columns[key], kind)
            bits, inverse = np.unique(column.view(f"u{column.itemsize}"), return_inverse=True)
            values = json.dumps(bits.view(column.dtype).tolist())[1:-1].split(", ")
            cells.append(np.array(values, object)[inverse].tolist())
        row = "{" + ", ".join(f"{json.dumps(key)}: %s" for key in fields) + "}"
        text += f', "{name}": [' + ", ".join(map(row.__mod__, zip(*cells))) + "]"
    Path(path).write_text(text + "}\n", encoding="utf-8")


def load_campaign(path, text) -> tuple[dict, dict, CampaignConfig]:
    """Campaign JSON (``_CAMPAIGN``) -> (record columns, target columns, config).

    A qubit id may appear once among the targets and once among the records:
    statistics look targets up by id and count records, so a repeat would
    silently change them. A row out of ``TARGET_BOUNDS`` or ``RECORD_BOUNDS``,
    or whose already-above flag is not ``pulses == 0``, is named by row and field.
    """
    data = _load(path, text, _CAMPAIGN)
    with _named(path, "config."):
        config = CampaignConfig(**data["config"])
    targets, records = data["targets"], data["records"]
    check_rows(f"{path}: targets", targets, TARGET_BOUNDS)
    check_rows(f"{path}: records", records, RECORD_BOUNDS)
    above, pulses = records["already_above_target"], records["pulses"]
    if np.any(above != (pulses == 0)):
        i = int(np.argmax(above != (pulses == 0)))
        raise ValidationError(f"{path}: records[{i}].already_above_target must be true "
                              f"exactly when pulses is 0, got {str(above[i]).lower()} "
                              f"with pulses {pulses[i]}")
    return records, targets, config


def read_points_csv(path, text, col_x, col_y) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) float columns from two named columns of a headed CSV ``text``;
    ``path`` names the file in every message.

    The header names each column once. Every row needs the header's field
    count and finite numbers in both columns; all bad lines are reported at
    once, numbered as in the file.
    """
    points, problems = [], []
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, [])
    if col_x not in header or col_y not in header:
        raise ValidationError(f"{path}: expected columns {col_x!r} and {col_y!r}, got {header}")
    for col in header:
        if header.count(col) > 1:
            raise ValidationError(f"{path}: header repeats column {col!r}: {header}")
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
        raise ValidationError(f"{path}: {len(problems)} invalid rows", details=problems)
    return np.array(points).reshape(-1, 2).T


def write_manifest(out_dir, command: str, config: dict, master_seed, input_digests: dict) -> None:
    """``out_dir/manifest.json``; ``input_digests`` maps each input path to the
    digest ``read_input`` returned for it."""
    manifest = {"command": command, "config": config, "master_seed": master_seed,
                "input_digests": input_digests, "tool_version": __version__}
    dump_json(Path(out_dir) / "manifest.json", manifest)


def write_csv(path, header, rows, formats=None) -> None:
    """Fixed-format CSV emission; ``formats`` maps column -> format spec."""
    formats = formats or {}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(val, formats[col]) if col in formats else val
                             for col, val in zip(header, row)])


def dump_json(path, data) -> None:
    """Compact JSON: an indent would select ``json``'s slower pure-Python encoder."""
    Path(path).write_text(json.dumps(data) + "\n", encoding="utf-8")
