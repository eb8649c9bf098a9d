"""Experiment specs, results, and deterministic CSV / JSON / SVG emitters.

Output files are a pure function of (spec, tool version): floats are
written in shortest round-trip form and the measured wall time is kept
out of the files (it is echoed to the console instead), so reruns of the
same spec are byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from itertools import repeat
from operator import is_, itemgetter

import numpy as np

SCHEMA_COLUMNS = {
    ("exact", 1): ["i", "p", "k", "prob", "method"],
    ("exact", 2): ["i", "j", "p", "k", "prob", "method"],
    ("simulate", 1): ["site", "freqUnderCovered", "ciLow", "ciHigh"],
    ("simulate", 2): ["site", "freqUnderCovered", "ciLow", "ciHigh"],
    ("scan", 1): ["param", "statistic", "ciLow", "ciHigh"],
    ("scan", 2): ["param", "statistic", "ciLow", "ciHigh"],
    ("diagnose", 1): ["n", "partialSum", "growthRatio", "decayExponent"],
    ("continuum", 1): ["trial", "statistic", "witness"],
    ("continuum", 2): ["trial", "statistic", "witness"],
}


@dataclass(frozen=True)
class ExperimentSpec:
    """Every flag that shapes the result; round-trips losslessly through JSON.

    workers is carried for execution but kept out of serialization and
    equality: results are guaranteed independent of parallelism, so two
    runs differing only in --workers share one spec echo.
    """

    subcommand: str
    seed: int
    dim: int = 1
    model: str = "firework"
    dist: str | None = None
    p: float | None = None
    k: int = 2
    n: int | None = None
    cushion: int = 10
    trials: int = 100
    sites: str | None = None
    workers: int = field(default=1, compare=False)
    methods: tuple[str, ...] = ("dp",)
    p_grid: tuple[float, ...] | None = None
    lambda_grid: tuple[float, ...] | None = None
    beta_grid: tuple[float, ...] | None = None
    i_min: int = 1
    i_max: int = 1000
    lam: float | None = None
    window_t: float | None = None
    resolution: float = 1.0
    initiators: bool = False
    allow_paper_formula_divergence: bool = False
    strict: bool = False

    def to_json_dict(self) -> dict:
        d = asdict(self)
        del d["workers"]
        for key in ("methods", "p_grid", "lambda_grid", "beta_grid"):
            if d[key] is not None:
                d[key] = list(d[key])
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentSpec":
        kwargs = dict(d)
        kwargs.pop("workers", None)
        for key in ("methods", "p_grid", "lambda_grid", "beta_grid"):
            if kwargs.get(key) is not None:
                kwargs[key] = tuple(kwargs[key])
        known = {f.name for f in fields(cls)}
        unknown = set(kwargs) - known
        if unknown:
            raise ValueError(f"unknown spec fields: {sorted(unknown)}")
        return cls(**kwargs)


@dataclass
class ExperimentResult:
    """Rows plus provenance.  rows is a list of rows or a Columns table.
    wall_time_ms is measured, never serialized, and excluded from equality so
    parse(emit(result)) == result."""

    spec: ExperimentSpec
    version: str
    columns: list[str]
    rows: list[list] | Columns
    clamp_count: int = 0
    wall_time_ms: float | None = field(default=None, compare=False)


def clean_value(v):
    """Coerce row cells to plain Python scalars with deterministic repr."""
    if v is None:
        return None
    if isinstance(v, np.bool_):
        return bool(v)
    if isinstance(v, (np.floating,)):
        v = float(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, float):
        return None if math.isnan(v) else v
    return v


def clean_row(row) -> list:
    return [clean_value(v) for v in row]


def result_to_json_doc(result: ExperimentResult) -> dict:
    return {
        "spec": result.spec.to_json_dict(),
        "version": result.version,
        "columns": result.columns,
        "rows": result.rows,
        "clampCount": result.clamp_count,
        "wallTimeMs": None,
    }


# stands in for the rows while the rest of the document is encoded; "rows"
# is a key only at the top level, and a key's quotes are never spelled inside
# a string (there they are escaped), so the split below finds the one place
_ROWS = "\0rows\0"


def _json_cell(v) -> str:
    if isinstance(v, (list, tuple, dict)):
        # laid out as json.dumps(..., indent=2) lays out the whole document
        return json.dumps(v, indent=2, sort_keys=True).replace("\n", "\n      ")
    return json.dumps(v)


def parse_result_json(text: str) -> ExperimentResult:
    doc = json.loads(text)
    return ExperimentResult(
        spec=ExperimentSpec.from_json_dict(doc["spec"]),
        version=doc["version"],
        columns=doc["columns"],
        rows=doc["rows"],
        clamp_count=doc["clampCount"],
        wall_time_ms=doc["wallTimeMs"],
    )


# rows the writer spells and writes at a time: one block's cells and text are
# all of the output that it holds at once
BLOCK_ROWS = 1 << 14


class Columns:
    """A result's rows held a column at a time, read in blocks of BLOCK_ROWS rows.

    Each of values is a 1-D int64 or float64 array with one cell per row (NaN
    for an empty cell) or one plain cell that every row holds; the first is
    an array.  (A plain class: a dataclass costs ~0.5 ms at import.)
    """

    def __init__(self, values: tuple):
        self.values = values

    def __len__(self) -> int:
        return len(self.values[0])

    def blocks(self):
        for a in range(0, len(self), BLOCK_ROWS):
            rows = min(BLOCK_ROWS, len(self) - a)
            yield [_cells(v[a:a + rows]) if isinstance(v, np.ndarray) else [v] * rows
                   for v in self.values]


def _cells(a: np.ndarray) -> list:
    """clean_value in bulk: tolist() gives plain ints and floats; NaN -> None."""
    cells = a.tolist()
    if a.dtype.kind == "f" and np.isnan(a).any():
        cells = [None if v != v else v for v in cells]
    return cells


def blocks_of(rows) -> list:
    """The writer's blocks of a result's rows, each a list of equal-length
    columns: a Columns table's blocks, or a list of rows as one block."""
    if isinstance(rows, Columns):
        return rows.blocks()
    widths = set(map(len, rows))
    if len(widths) > 1 or 0 in widths:
        raise ValueError(f"rows must all have the same number of cells, at least one; "
                         f"got {sorted(widths)}")
    # one list per column: zip(*rows) would make an iterator per row to get there
    return [[list(map(itemgetter(j), rows)) for j in range(len(rows[0]))]] if rows else []


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _column(cells: list, spells: list) -> list:
    """One column's cell strings as each of spells would give them, each in one
    pass; an int or finite float column is spelled once for all of them, as
    str and json.dumps spell those alike."""
    first = cells[0]
    # identity, not equality: -0.0 == 0.0 and 1 == True, but neither spells alike
    if all(map(is_, cells, repeat(first))):
        return [repeat(spell(first), len(cells)) for spell in spells]
    # exact types: a bool, a numpy scalar or an int subclass spells its own way
    kinds = set(map(type, cells))
    if kinds == {float} and all(map(math.isfinite, cells)):
        text = list(map(float.__repr__, cells))
    elif kinds == {int}:
        text = list(map(int.__repr__, cells))
    else:
        return [map(spell, cells) for spell in spells]
    return [text] * len(spells)


def write_text(result: ExperimentResult, blocks, csv_out=None, json_out=None) -> None:
    """Write result's CSV and JSON text a block of rows at a time.

    blocks hold result's rows, as blocks_of(result.rows) gives them: lists
    of equal-length columns, a list of cells each.  csv_out and json_out are
    write functions, or None where that format is not wanted.  Each column
    of a block is spelled once for both formats, and the block's text is
    written before the next block is read.
    """
    spells = [spell for spell, out in ((_cell, csv_out), (_json_cell, json_out)) if out]
    if csv_out:
        csv_out(",".join(result.columns) + "\n")
    if json_out:
        doc = {**result_to_json_doc(result), "rows": _ROWS}
        head, _, tail = json.dumps(doc, indent=2, sort_keys=True).partition(
            f'"rows": {json.dumps(_ROWS)}')
        json_out(f'{head}"rows": ')
    between = "\n    ],\n    [\n      "  # two JSON rows, as json.dumps(indent=2) lays them out
    any_rows = False
    for block in blocks:
        spelled = zip(*(_column(cells, spells) for cells in block))  # CSV's, then JSON's
        if csv_out:
            csv_out("\n".join(map(",".join, zip(*next(spelled)))) + "\n")
        if json_out:
            rows = between.join(map(",\n      ".join, zip(*next(spelled))))
            json_out((between if any_rows else "[\n    [\n      ") + rows)
        any_rows = True
    if json_out:
        json_out(("\n    ]\n  ]" if any_rows else "[]") + tail + "\n")


def render_csv(result: ExperimentResult) -> str:
    parts = []
    write_text(result, blocks_of(result.rows), csv_out=parts.append)
    return "".join(parts)


def render_json(result: ExperimentResult) -> str:
    parts = []
    write_text(result, blocks_of(result.rows), json_out=parts.append)
    return "".join(parts)


def _svg_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _widened(lo: float, hi: float) -> tuple[float, float]:
    """(lo, hi), an empty range widened by 1.0, or by |lo| where lo + 1.0 rounds
    back to a finite lo (|lo| >= 2^53)."""
    if hi == lo:
        hi = lo + 1.0 if lo + 1.0 != lo or not math.isfinite(lo) else lo + abs(lo)
    return lo, hi


def _extreme(a: np.ndarray, pick) -> float:
    """min or max of a as the builtin gives it on a list, for pick np.fmin or
    np.fmax: a NaN first value is kept, and a later NaN loses every comparison."""
    return float(a[0] if a[0] != a[0] else pick.reduce(a))


def write_svg(out, xs, ys, xlabel: str, ylabel: str, caption: str) -> None:
    """Write a single-series line plot through the write function out: fixed
    geometry, no external dependencies, the polyline a block of points at a time."""
    width, height = 640, 420
    ml, mr, mt, mb = 70, 20, 40, 50
    pw, ph = width - ml - mr, height - mt - mb
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if not xs.size:
        xs, ys = np.zeros(1), np.zeros(1)
    xlo, xhi = _widened(_extreme(xs, np.fmin), _extreme(xs, np.fmax))
    ylo, yhi = _widened(_extreme(ys, np.fmin), _extreme(ys, np.fmax))

    def px(x):
        return ml + (x - xlo) / (xhi - xlo) * pw

    def py(y):
        return mt + ph - (y - ylo) / (yhi - ylo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.0f}" y="22" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{caption}</text>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
    ]
    for tx in _svg_ticks(xlo, xhi):
        parts.append(
            f'<line x1="{px(tx):.2f}" y1="{mt + ph}" x2="{px(tx):.2f}" y2="{mt + ph + 5}" '
            f'stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(tx):.2f}" y="{mt + ph + 18}" text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">{tx:.4g}</text>'
        )
    for ty in _svg_ticks(ylo, yhi):
        parts.append(
            f'<line x1="{ml - 5}" y1="{py(ty):.2f}" x2="{ml}" y2="{py(ty):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{py(ty):.2f}" text-anchor="end" dominant-baseline="middle" '
            f'font-size="11" font-family="sans-serif">{ty:.4g}</text>'
        )
    parts.append(
        f'<text x="{ml + pw/2:.0f}" y="{height - 12}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{mt + ph/2:.0f}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 18 {mt + ph/2:.0f})">{ylabel}</text>'
    )
    out("\n".join(parts) + '\n<polyline points="')
    # px and py on float64 arrays: the same operations in the same order, so
    # the same doubles (inf - inf is nan here as in Python floats, unwarned)
    for a in range(0, xs.size, BLOCK_ROWS):
        with np.errstate(all="ignore"):
            X, Y = px(xs[a:a + BLOCK_ROWS]), py(ys[a:a + BLOCK_ROWS])
        out((" " if a else "") + " ".join(map("{:.2f},{:.2f}".format, X.tolist(), Y.tolist())))
    out('" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>\n</svg>\n')


def render_svg(xs, ys, xlabel: str, ylabel: str, caption: str) -> str:
    parts = []
    write_svg(parts.append, xs, ys, xlabel, ylabel, caption)
    return "".join(parts)
