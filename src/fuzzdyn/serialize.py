"""JSON schemas for systems, grade distortions, verdicts, and reports.

Rationals cross the interface as "p/q" strings everywhere; emission uses
canonical key order so identical inputs give byte-identical output.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction

from .errors import InputError
from .fuzzy import GFunction, LevelGrid
from .spaces import (MetricSpace, SystemMap, _check_metric_size,
                     as_fraction, make_grid_interval_map, make_multiply,
                     make_rotation, validate_metric)
from .symbolic import ShiftSystem
from .theorems import EquivalenceReport


def format_fraction(x: Fraction) -> str:
    x = as_fraction(x)
    return f"{x.numerator}/{x.denominator}"


def point_key(p) -> str:
    j = _jsonable_scalar(p)
    return j if isinstance(j, str) else json.dumps(j, sort_keys=True)


def system_to_jsonable(system) -> dict:
    """Emit the ingestible description: parametric when provenance is
    known, an explicit finite table otherwise."""
    if isinstance(system, ShiftSystem):
        edges = sorted((a, b) for a in system.alphabet
                       for b in system.alphabet if system.follows(a, b))
        return {"kind": "sft", "alphabet": list(system.alphabet),
                "edges": [[a, b] for a, b in edges],
                "resolution": system.resolution}
    if not isinstance(system, SystemMap):
        raise InputError(f"cannot serialize {system!r}")
    prov = system.provenance
    if prov and prov.get("kind") in ("rotation", "multiply", "grid_map"):
        return dict(sorted(prov.items()))
    if prov and prov.get("kind") in ("hyperspace_lift", "fuzzy_lift"):
        out = dict(prov)
        return out
    space = system.space
    pts = [point_key(p) for p in space.points]
    dist = [[format_fraction(space.d_by_index(i, j))
             for j in range(len(pts))] for i in range(len(pts))]
    mapping = {pts[i]: pts[system.table[i]] for i in range(len(pts))}
    return {"kind": "finite", "points": pts, "dist": dist, "map": mapping,
            "label": system.label}


def _integer(obj: dict, key: str) -> int:
    """The JSON integer ``obj[key]``; a float, string or boolean is an
    input error, not a value to coerce."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{key!r} must be an integer, "
                         f"not {json.dumps(value)}")
    return value


def _list(value, what: str) -> list:
    """A JSON list; a string or any other value is an input error, not a
    sequence to split."""
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list, not {json.dumps(value)}")
    return value


def _edge(value) -> tuple:
    if len(_list(value, "an edge")) != 2:
        raise InputError(f"an edge must be a list of two symbols, "
                         f"not {json.dumps(value)}")
    return tuple(value)


def _distances(row) -> list:
    """A row of a ``finite`` document's distance table, handed to
    :class:`MetricSpace` as written: a list, and no entry a boolean."""
    if bool in map(type, _list(row, "a row of 'dist'")):
        value = next(v for v in row if isinstance(v, bool))
        raise InputError(f"a distance in 'dist' must be a \"p/q\" string "
                         f"or an integer, not {json.dumps(value)}")
    return row


def _map_table(mapping, pts: list) -> list[int]:
    """The index table of a ``finite`` document's map: an object whose keys
    are exactly the points, each sent to a point."""
    if not isinstance(mapping, dict):
        raise InputError(f"'map' must be an object, not "
                         f"{json.dumps(mapping)}")
    index = {p: i for i, p in enumerate(pts)}
    table = []
    for p in pts:
        if p not in mapping:
            raise InputError(f"'map' has no key for point {json.dumps(p)}")
        image = mapping[p]
        try:
            table.append(index[image])
        except (KeyError, TypeError):
            raise InputError(f"'map' sends point {json.dumps(p)} to "
                             f"{json.dumps(image)}, which is no point") \
                from None
    for key in mapping:
        if key not in index:
            raise InputError(f"'map' key {json.dumps(key)} names no point")
    return table


def system_from_jsonable(obj: dict):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("system description needs a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "rotation":
            return make_rotation(_integer(obj, "n"), _integer(obj, "step"))
        if kind == "multiply":
            return make_multiply(_integer(obj, "n"), _integer(obj, "a"))
        if kind == "grid_map":
            shape = obj["shape"]
            if isinstance(shape, list):
                shape = [(as_fraction(a), as_fraction(b))
                         for a, b in shape]
            return make_grid_interval_map(shape, _integer(obj, "m"),
                                          obj.get("snap", "down"))
        if kind == "sft":
            edges = obj.get("edges")
            pairs = None if edges in (None, "full") else \
                list(map(_edge, _list(edges, "'edges'")))
            return ShiftSystem(obj["alphabet"], pairs,
                               _integer(obj, "resolution"))
        if kind == "finite":
            pts = _list(obj["points"], "'points'")
            # the metric is validated below: its bound fires before parsing
            _check_metric_size(len(pts))
            dist = [_distances(row) for row in _list(obj["dist"], "'dist'")]
            space = MetricSpace(pts, matrix=dist,
                                label=obj.get("label", "finite"))
            violations = validate_metric(space)
            if violations:
                raise InputError(f"distance table is not a metric: "
                                 f"{violations[0]}")
            return SystemMap(space, _map_table(obj["map"], pts),
                             label=obj.get("label", "finite"))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad system description: {exc}") from exc
    raise InputError(f"unknown system kind {kind!r}")


def gfunction_from_jsonable(obj: dict) -> GFunction:
    try:
        grid = LevelGrid(_integer(obj, "m"))
        table = {as_fraction(k): as_fraction(v)
                 for k, v in obj["table"].items()}
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"bad grade distortion document: {exc!r}") from exc
    return GFunction(grid, table)


def _jsonable_scalar(v):
    if isinstance(v, Fraction):
        return format_fraction(v)
    if isinstance(v, (list, tuple)):
        return [_jsonable_scalar(x) for x in v]
    if isinstance(v, frozenset):
        return sorted((_jsonable_scalar(x) for x in v), key=json.dumps)
    if isinstance(v, dict):
        return {str(k): _jsonable_scalar(x) for k, x in v.items()}
    return v


def verdict_to_jsonable(v) -> dict:
    return {"status": v.status, "exact": v.exact,
            "horizon": v.horizon,
            "witnesses": _jsonable_scalar(v.witnesses),
            "counterexample": _jsonable_scalar(v.counterexample),
            "note": v.note}


def report_to_jsonable(report: EquivalenceReport) -> dict:
    return {
        "theorem": report.theorem,
        "system": report.system,
        "config": _jsonable_scalar(report.config),
        "items": [{
            "id": it.item_id, "property": it.prop, "level": it.level,
            "status": it.status, "exact": it.exact,
            "witnesses": _jsonable_scalar(it.witnesses),
            "note": it.note, "in_matrix": it.in_matrix,
        } for it in report.items],
        "consistent": report.consistent,
        "red_alert": report.red_alert,
        "replay": report.replay,
        "note": report.note,
    }


def report_csv_rows(report: EquivalenceReport) -> list[list[str]]:
    rows = [["theorem", "item", "property", "level", "status", "exact",
             "in_matrix", "note"]]
    for it in report.items:
        rows.append([report.theorem, it.item_id, it.prop, it.level,
                     it.status, str(it.exact), str(it.in_matrix), it.note])
    return rows


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_atomic(path: str, text: str) -> None:
    """Write via a temp file and rename, so readers never see partials."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
