"""Command-line frontend: reproducible experiments with CSV/JSON/SVG output.

Exit codes: 0 success, 2 parse/validation error or a request past the
memory budget, 3 numeric divergence between requested exact methods, 4 I/O
failure.

A subcommand imports only what it runs: exact and continuum are imported
by the runners that use them, and secrets (which loads OpenSSL) only when a
seed has to be generated.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import ExitStack
from dataclasses import fields
from itertools import compress, repeat

import numpy as np

import rumourlab
from rumourlab import lattice
from rumourlab.distributions import DistParseError, PowerTail, parse_distribution
# render_* are unused here but stay importable: perfbench/tracing.py wraps them
from rumourlab.reporting import (  # noqa: F401
    SCHEMA_COLUMNS,
    Columns,
    ExperimentResult,
    ExperimentSpec,
    blocks_of,
    clean_row,
    clean_value,
    render_csv,
    render_json,
    render_svg,
    write_svg,
    write_text,
)
from rumourlab.stats import mean_interval

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4

DIVERGENCE_TOL = 1e-9


class CliError(Exception):
    """Validation problem mapped to exit code 2."""


def _float_list(raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in raw.split(",") if tok != "")
    except ValueError:
        raise CliError(f"bad numeric list: {raw!r}") from None


def _parse_sites(raw: str, dim: int):
    if raw is None:
        return None
    try:
        if dim == 1:
            return [int(tok) for tok in raw.split(",") if tok != ""]
        sites = []
        for tok in raw.split(";"):
            if tok == "":
                continue
            a, b = tok.split(",")
            sites.append((int(a), int(b)))
        return sites
    except ValueError:
        raise CliError(f"bad --sites value {raw!r} for dim {dim}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rumourlab",
        description="sceptic rumour propagation: exact analysis, simulation, and scans",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--workers", type=int, default=1)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--csv", action="store_true")
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--svg", action="store_true")
        sp.add_argument("--strict", action="store_true")

    sp = sub.add_parser("exact", help="closed-form / DP / oracle under-coverage probabilities")
    sp.add_argument("--dim", type=int, choices=(1, 2), default=1)
    sp.add_argument("--dist", type=str, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--sites", type=str, required=True)
    sp.add_argument("--method", dest="methods", metavar="METHOD", type=str, default="dp",
                    help="comma list from closedForm,dp,paperEq11,oracle")
    sp.add_argument("--initiators", action="store_true")
    sp.add_argument("--allow-paper-formula-divergence", action="store_true")
    common(sp)

    sp = sub.add_parser("simulate", help="seeded Monte Carlo under-coverage estimates")
    sp.add_argument("--dim", type=int, choices=(1, 2), default=1)
    sp.add_argument("--model", type=str, choices=("firework", "reverse"), default="firework")
    sp.add_argument("--dist", type=str, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--cushion", type=int, default=10)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--sites", type=str, default=None)
    sp.add_argument("--initiators", action="store_true")
    common(sp)

    sp = sub.add_parser("scan", help="phase scans over p, beta, or lambda grids")
    sp.add_argument("--dim", type=int, choices=(1, 2), default=1)
    sp.add_argument("--model", type=str, choices=("firework", "reverse"), default="firework")
    sp.add_argument("--dist", type=str, default=None)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--cushion", type=int, default=10)
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--initiators", action="store_true")
    sp.add_argument("--p-grid", type=str, default=None)
    sp.add_argument("--beta-grid", type=str, default=None)
    sp.add_argument("--lambda-grid", type=str, default=None)
    sp.add_argument("--T", dest="window_t", type=float, default=None)
    sp.add_argument("--resolution", type=float, default=1.0)
    common(sp)

    sp = sub.add_parser("diagnose", help="summability diagnostics of the 1D series")
    sp.add_argument("--dist", type=str, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--imin", dest="i_min", metavar="IMIN", type=int, default=1)
    sp.add_argument("--imax", dest="i_max", metavar="IMAX", type=int, default=1000)
    common(sp)

    sp = sub.add_parser("continuum", help="Poisson Boolean coverage trials at one intensity")
    sp.add_argument("--dim", type=int, choices=(1, 2), default=1)
    sp.add_argument("--dist", type=str, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--T", dest="window_t", type=float, required=True)
    sp.add_argument("--resolution", type=float, default=1.0)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--trials", type=int, default=20)
    common(sp)

    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("RUMOURLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(f"RUMOURLAB_SEED is not an integer: {env!r}") from None
    if args.strict:
        raise CliError("--strict requires --seed (or RUMOURLAB_SEED)")
    import secrets

    seed = secrets.randbits(63)
    print(f"seed: {seed} (generated; pass --seed to reproduce)", file=sys.stderr)
    return seed


def _spec_from_args(args) -> ExperimentSpec:
    """The spec holds every parsed flag it has a field for; the rest keep their defaults."""
    if args.workers < 1:
        raise CliError(f"--workers must be >= 1, got {args.workers}")
    parsed = vars(args)
    values = {f.name: parsed[f.name] for f in fields(ExperimentSpec) if f.name in parsed}
    values["seed"] = _resolve_seed(args)
    if values.get("model") == "reverse":
        values["model"] = "reverseFirework"
    if "methods" in values:
        values["methods"] = tuple(values["methods"].split(","))
    for grid in ("p_grid", "beta_grid", "lambda_grid"):
        if grid in values:
            values[grid] = _float_list(values[grid]) if values[grid] else None
    return ExperimentSpec(**values)


def run_exact(spec: ExperimentSpec):
    from rumourlab import exact

    dist = parse_distribution(spec.dist)
    sites = _parse_sites(spec.sites, spec.dim)
    if not sites:
        raise CliError("exact needs at least one site")
    for m in spec.methods:
        if m not in exact.METHODS:
            raise CliError(f"unknown method {m!r} (want one of {','.join(exact.METHODS)})")
    rows = []
    divergences = []
    for site in sites:
        q = exact.ExactQuery(spec.dim, site, spec.p, spec.k, dist, spec.initiators)
        reference = exact.METHODS["dp"](q)
        for method in spec.methods:
            value = reference if method == "dp" else exact.METHODS[method](q)
            if abs(value - reference) > DIVERGENCE_TOL:
                divergences.append((site, method, value, reference))
            coords = (site,) if spec.dim == 1 else site
            rows.append(clean_row([*coords, spec.p, spec.k, value, method]))
    for site, method, value, reference in divergences:
        print(
            f"divergence at site {site}: {method}={value!r} vs dp={reference!r} "
            f"(tolerance {DIVERGENCE_TOL})",
            file=sys.stderr,
        )
    hard = [d for d in divergences if d[1] != "paperEq11" or not spec.allow_paper_formula_divergence]
    code = EXIT_OK
    if hard:
        print(
            f"error: {len(hard)} method disagreement(s) beyond {DIVERGENCE_TOL}; "
            "use --allow-paper-formula-divergence if only paperEq11 differs",
            file=sys.stderr,
        )
        code = EXIT_DIVERGENCE
    return rows, 0, code


def _lattice_config(spec: ExperimentSpec, p=None, law=None) -> lattice.LatticeConfig:
    if spec.n is None:
        raise CliError("this subcommand needs --n")
    return lattice.LatticeConfig(
        dimension=spec.dim,
        model=spec.model,
        p=spec.p if p is None else p,
        k=spec.k,
        n=spec.n,
        dist=parse_distribution(spec.dist) if law is None else law,
        seed=spec.seed,
        cushion=spec.cushion,
        include_initiators=spec.initiators,
    )


def run_simulate(spec: ExperimentSpec):
    config = _lattice_config(spec)
    rows = []
    sites = _parse_sites(spec.sites, spec.dim)
    stats = lattice.simulate_window(config, spec.trials, spec.workers, sites=sites or None)
    for est in stats.sites or ():
        label = str(est.site) if spec.dim == 1 else f"{est.site[0]}:{est.site[1]}"
        rows.append(clean_row([label, est.freq, est.ci_low, est.ci_high]))
    mean, lo, hi = mean_interval(stats.fractions)
    rows.append(clean_row(["window", mean, lo, hi]))
    mean, lo, hi = mean_interval(stats.last_normalized)
    rows.append(clean_row(["lastUnderCovered", mean, lo, hi]))
    return rows, stats.clamp_count, EXIT_OK


def run_scan(spec: ExperimentSpec):
    grids = {"p": spec.p_grid, "beta": spec.beta_grid, "lambda": spec.lambda_grid}
    kinds = [kind for kind, grid in grids.items() if grid]
    if len(kinds) != 1:
        raise CliError("scan needs exactly one of --p-grid, --beta-grid, --lambda-grid")
    [kind] = kinds
    # a flag the grid does not read must keep its spec default; the ones it needs are given
    needs, unread = {
        "p": (["dist"], ["p", "window_t", "resolution"]),
        "beta": (["p"], ["dist", "window_t", "resolution"]),
        "lambda": (["dist", "window_t"], ["p", "n", "model", "cushion", "initiators"]),
    }[kind]
    defaults = {f.name: f.default for f in fields(ExperimentSpec)}
    flag = {"window_t": "--T"}
    for name in unread:
        if getattr(spec, name) != defaults[name]:
            raise CliError(f"a {kind} scan does not read {flag.get(name, '--' + name)}")
    for name in needs:
        if getattr(spec, name) is None:
            raise CliError(f"a {kind} scan needs {flag.get(name, '--' + name)}")

    clamp = 0
    if kind == "lambda":
        from rumourlab import continuum as cont

        law = parse_distribution(spec.dist, continuous=True)
        base = cont.ContinuumConfig(spec.dim, spec.lambda_grid[0], spec.window_t, law, spec.k,
                                    spec.seed, spec.resolution)
        summaries = cont.scan_lambda(base, list(spec.lambda_grid), spec.trials, spec.workers)
        series = [summary.values for summary in summaries]
    else:
        # every point's config is checked before any point runs a trial
        configs = ([_lattice_config(spec, p=p) for p in spec.p_grid] if kind == "p" else
                   [_lattice_config(spec, law=PowerTail(b)) for b in spec.beta_grid])
        stats = lattice.simulate_windows(configs, spec.trials, spec.workers)
        clamp = sum(s.clamp_count for s in stats)
        # firework scans track the rightmost failure; reverse scans the
        # under-covered fraction (the sceptic region's complement density)
        series = [s.last_normalized if spec.model == lattice.FIREWORK else s.fractions
                  for s in stats]
    rows = [clean_row([value, *mean_interval(v)]) for value, v in zip(grids[kind], series)]
    return rows, clamp, EXIT_OK


def run_diagnose(spec: ExperimentSpec):
    from rumourlab import exact

    # the rows stay columns, written a block at a time, so the series' own
    # byte check bounds the run: after the series only its arrays, the SVG's
    # float64 points and one block of cells and text are held
    diag = exact.series_diagnostics(spec.p, parse_distribution(spec.dist), spec.k,
                                    spec.i_min, spec.i_max)
    rows = Columns((diag.site_indices, diag.partial_sums,
                    clean_value(diag.growth_ratio), clean_value(diag.decay_exponent)))
    return rows, 0, EXIT_OK


def run_continuum(spec: ExperimentSpec):
    from rumourlab import continuum as cont

    law = parse_distribution(spec.dist, continuous=True)
    base = cont.ContinuumConfig(
        spec.dim, spec.lam, spec.window_t, law, spec.k, spec.seed, spec.resolution
    )
    [results] = lattice.run_trials(cont.trial_records, [(base, (), ())], spec.trials,
                                   spec.workers, cont.record_dtype(spec.dim))
    rows = []
    for t, (stat, witness) in enumerate(zip(results["statistic"].tolist(),
                                            results["witness"].tolist())):
        if spec.dim == 2 and witness[0] == witness[0]:  # NaN: covered, an empty cell
            witness = [f"{witness[0]:g}:{witness[1]:g}"]
        rows.append(clean_row([t, stat, witness[0]]))
    return rows, 0, EXIT_OK


_RUNNERS = {
    "exact": run_exact,
    "simulate": run_simulate,
    "scan": run_scan,
    "diagnose": run_diagnose,
    "continuum": run_continuum,
}

_SVG_AXES = {
    "exact": (0, "site", -2, "probability"),
    "simulate": (None, "row", 1, "freqUnderCovered"),
    "scan": (0, "param", 1, "statistic"),
    "diagnose": (0, "n", 1, "partialSum"),
    "continuum": (0, "trial", 1, "statistic"),
}


def _points(rows, xi, yi):
    """float64 x and y of the rows whose y cell is a number, filled a block at a
    time; x is the row's position when xi is None."""
    xs, ys = np.empty(len(rows)), np.empty(len(rows))
    kept = start = 0
    for block in blocks_of(rows):
        y = block[yi]
        x = range(start, start + len(y)) if xi is None else block[xi]
        start += len(y)
        # an empty cell (None) or a text cell is not a point
        keep = list(map(isinstance, y, repeat((int, float))))
        for out, cells in ((xs, x), (ys, y)):
            points = np.fromiter(map(float, compress(cells, keep)), np.float64)
            out[kept:kept + points.size] = points
        kept += points.size
    return xs[:kept], ys[:kept]


def _emit(result: ExperimentResult, spec: ExperimentSpec, out: str | None, formats) -> list[str]:
    if not any(formats.values()):
        write_text(result, blocks_of(result.rows), csv_out=sys.stdout.write)
        return []
    if out is None:
        raise CliError("--csv/--json/--svg need --out <basepath>")
    paths = {fmt: f"{out}.{fmt}" for fmt in ("csv", "json", "svg") if formats[fmt]}
    try:
        with ExitStack() as stack:
            files = {fmt: stack.enter_context(open(path, "w")) for fmt, path in paths.items()}
            # CSV and JSON are written together, a block of rows at a time
            write_text(result, blocks_of(result.rows),
                       *(files[fmt].write if fmt in files else None for fmt in ("csv", "json")))
            if "svg" in files:
                xi, xlabel, yi, ylabel = _SVG_AXES[spec.subcommand]
                caption = f"{spec.subcommand}: {ylabel} vs {xlabel} (seed {spec.seed})"
                write_svg(files["svg"].write, *_points(result.rows, xi, yi),
                          xlabel, ylabel, caption)
    except OSError as e:
        raise OSError(f"writing {getattr(e, 'filename', out)!r} failed: {e}") from e
    return list(paths.values())


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code in (0, None) else EXIT_USAGE

    try:
        spec = _spec_from_args(args)
        t0 = time.perf_counter()
        rows, clamp, code = _RUNNERS[spec.subcommand](spec)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        columns = SCHEMA_COLUMNS[(spec.subcommand, spec.dim)]
        result = ExperimentResult(spec, rumourlab.__version__, columns, rows, clamp, wall_ms)
        formats = {"csv": args.csv, "json": args.json, "svg": args.svg}
        written = _emit(result, spec, args.out, formats)
        print(
            f"{spec.subcommand}: {len(rows)} rows in {wall_ms:.1f} ms"
            + (f"; wrote {', '.join(written)}" if written else ""),
            file=sys.stderr,
        )
        return code
    except (CliError, DistParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
