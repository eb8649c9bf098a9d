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
    """Rows plus provenance.  wall_time_ms is measured, never serialized,
    and excluded from equality so parse(emit(result)) == result."""

    spec: ExperimentSpec
    version: str
    columns: list[str]
    rows: list[list]
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


def render_json(result: ExperimentResult) -> str:
    rows = "\n    ],\n    [\n      ".join(map(",\n      ".join, _table(result.rows, _json_cell)))
    rows = f"[\n    [\n      {rows}\n    ]\n  ]" if result.rows else "[]"
    doc = {**result_to_json_doc(result), "rows": _ROWS}
    head, _, tail = json.dumps(doc, indent=2, sort_keys=True).partition(
        f'"rows": {json.dumps(_ROWS)}')
    return f'{head}"rows": {rows}{tail}\n'


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


def _column(cells: list, spell):
    """One column's cell strings, as spell(v) would give them, in one pass."""
    first = cells[0]
    # identity, not equality: -0.0 == 0.0 and 1 == True, but neither spells alike
    if all(map(is_, cells, repeat(first))):
        return repeat(spell(first), len(cells))
    # exact types: a bool, a numpy scalar or an int subclass spells its own way
    kinds = set(map(type, cells))
    if kinds == {float} and all(map(math.isfinite, cells)):
        return map(float.__repr__, cells)
    if kinds == {int}:
        return map(int.__repr__, cells)
    return map(spell, cells)


def _table(rows: list, spell):
    """Each row's cell strings, encoded a column at a time."""
    widths = set(map(len, rows))
    if len(widths) > 1 or 0 in widths:
        raise ValueError(f"rows must all have the same number of cells, at least one; "
                         f"got {sorted(widths)}")
    # one list per column: zip(*rows) would make an iterator per row to get there
    columns = (list(map(itemgetter(j), rows)) for j in range(max(widths, default=0)))
    return zip(*(_column(cells, spell) for cells in columns))


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def render_csv(result: ExperimentResult) -> str:
    lines = map(",".join, _table(result.rows, _cell))
    return "\n".join([",".join(result.columns), *lines]) + "\n"


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


def render_svg(xs, ys, xlabel: str, ylabel: str, caption: str) -> str:
    """Single-series line plot; fixed geometry, no external dependencies."""
    width, height = 640, 420
    ml, mr, mt, mb = 70, 20, 40, 50
    pw, ph = width - ml - mr, height - mt - mb
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if not xs:
        xs, ys = [0.0], [0.0]
    xlo, xhi = _widened(min(xs), max(xs))
    ylo, yhi = _widened(min(ys), max(ys))

    def px(x):
        return ml + (x - xlo) / (xhi - xlo) * pw

    def py(y):
        return mt + ph - (y - ylo) / (yhi - ylo) * ph

    # px and py on float64 arrays: the same operations in the same order, so
    # the same doubles (inf - inf is nan here as in Python floats, unwarned)
    with np.errstate(all="ignore"):
        X, Y = px(np.array(xs)), py(np.array(ys))
    pts = " ".join(map("{:.2f},{:.2f}".format, X.tolist(), Y.tolist()))
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
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
