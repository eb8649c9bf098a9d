"""Command-line frontend: reproducible experiments with CSV/JSON/SVG output.

Exit codes: 0 success, 2 parse/validation error, 3 numeric divergence
between requested exact methods, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import os
import secrets
import sys
import time

import rumourlab
from rumourlab import continuum as cont
from rumourlab import exact, lattice
from rumourlab.distributions import DistParseError, parse_distribution
from rumourlab.reporting import (
    SCHEMA_COLUMNS,
    ExperimentResult,
    ExperimentSpec,
    clean_row,
    render_csv,
    render_json,
    render_svg,
)
from rumourlab.stats import mean_interval, mix64

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4

DIVERGENCE_TOL = 1e-9
METHODS = ("closedForm", "dp", "paperEq11", "oracle")


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
    sp.add_argument("--method", type=str, default="dp",
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
    sp.add_argument("--imin", type=int, default=1)
    sp.add_argument("--imax", type=int, default=1000)
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
    seed = secrets.randbits(63)
    print(f"seed: {seed} (generated; pass --seed to reproduce)", file=sys.stderr)
    return seed


def _spec_from_args(args) -> ExperimentSpec:
    model = getattr(args, "model", "firework")
    return ExperimentSpec(
        subcommand=args.subcommand,
        seed=_resolve_seed(args),
        dim=getattr(args, "dim", 1),
        model="reverseFirework" if model == "reverse" else model,
        dist=getattr(args, "dist", None),
        p=getattr(args, "p", None),
        k=getattr(args, "k", 2),
        n=getattr(args, "n", None),
        cushion=getattr(args, "cushion", 10),
        trials=getattr(args, "trials", 100),
        sites=getattr(args, "sites", None),
        workers=args.workers,
        methods=tuple(getattr(args, "method", "dp").split(",")),
        p_grid=_float_list(args.p_grid) if getattr(args, "p_grid", None) else None,
        beta_grid=_float_list(args.beta_grid) if getattr(args, "beta_grid", None) else None,
        lambda_grid=_float_list(args.lambda_grid) if getattr(args, "lambda_grid", None) else None,
        i_min=getattr(args, "imin", 1),
        i_max=getattr(args, "imax", 1000),
        lam=getattr(args, "lam", None),
        window_t=getattr(args, "window_t", None),
        resolution=getattr(args, "resolution", 1.0),
        initiators=getattr(args, "initiators", False),
        allow_paper_formula_divergence=getattr(args, "allow_paper_formula_divergence", False),
        strict=args.strict,
    )


def _exact_method_value(method: str, q: exact.ExactQuery) -> float:
    if method == "dp":
        if q.dimension == 1:
            return exact.undercovered_prob_1d(q)
        return exact.undercovered_prob_2d_exact(q)
    if method == "closedForm":
        if q.dimension == 1:
            return exact.undercovered_prob_1d_closed_form(q)
        if q.k == 1:
            return exact.uncovered_prob_2d(q)
        raise CliError("closedForm in 2D exists for k=1 only (use paperEq11 or dp)")
    if method == "paperEq11":
        return exact.undercovered_prob_2d_paper(q)
    if method == "oracle":
        if q.dimension == 1:
            max_disp = q.site + 1 if q.include_initiators else q.site - 1
        else:
            max_disp = max(q.site) - 1
        return exact.enumeration_oracle(q, max(0, max_disp))
    raise CliError(f"unknown method {method!r} (want one of {','.join(METHODS)})")


def run_exact(spec: ExperimentSpec):
    dist = parse_distribution(spec.dist)
    sites = _parse_sites(spec.sites, spec.dim)
    if not sites:
        raise CliError("exact needs at least one site")
    for m in spec.methods:
        if m not in METHODS:
            raise CliError(f"unknown method {m!r} (want one of {','.join(METHODS)})")
    rows = []
    divergences = []
    for site in sites:
        q = exact.ExactQuery(spec.dim, site, spec.p, spec.k, dist, spec.initiators)
        reference = _exact_method_value("dp", q)
        for method in spec.methods:
            value = reference if method == "dp" else _exact_method_value(method, q)
            if abs(value - reference) > DIVERGENCE_TOL:
                divergences.append((site, method, value, reference))
            if spec.dim == 1:
                rows.append(clean_row([site, spec.p, spec.k, value, method]))
            else:
                rows.append(clean_row([site[0], site[1], spec.p, spec.k, value, method]))
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


def _lattice_config(spec: ExperimentSpec, p=None, dist_spec=None) -> lattice.LatticeConfig:
    if spec.n is None:
        raise CliError("this subcommand needs --n")
    dist = parse_distribution(dist_spec if dist_spec is not None else spec.dist)
    return lattice.LatticeConfig(
        dimension=spec.dim,
        model=spec.model,
        p=spec.p if p is None else p,
        k=spec.k,
        n=spec.n,
        dist=dist,
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
    grids = [g for g in (spec.p_grid, spec.beta_grid, spec.lambda_grid) if g]
    if len(grids) != 1:
        raise CliError("scan needs exactly one of --p-grid, --beta-grid, --lambda-grid")
    if spec.dist is None and not spec.beta_grid:
        raise CliError(f"a {'lambda' if spec.lambda_grid else 'p'} scan needs --dist")
    rows = []
    clamp = 0

    if spec.lambda_grid:
        if spec.window_t is None:
            raise CliError("a lambda scan needs --T")
        law = cont.parse_continuous_law(spec.dist)
        base = cont.ContinuumConfig(
            spec.dim, spec.lambda_grid[0], spec.window_t, law, spec.k, spec.seed, spec.resolution
        )
        for summary in cont.scan_lambda(base, list(spec.lambda_grid), spec.trials):
            rows.append(clean_row([summary.lam, summary.mean, summary.ci_low, summary.ci_high]))
        return rows, clamp, EXIT_OK

    if spec.p_grid:
        params = [(p, spec.dist) for p in spec.p_grid]
    else:
        params = [(spec.p, f"power:beta={b:g}") for b in spec.beta_grid]
        if spec.p is None:
            raise CliError("a beta scan needs --p")

    for value, (p, dist_spec) in zip(spec.p_grid or spec.beta_grid, params):
        config = _lattice_config(spec, p=p, dist_spec=dist_spec)
        stats = lattice.simulate_window(config, spec.trials, spec.workers)
        clamp += stats.clamp_count
        # firework scans track the rightmost failure; reverse scans the
        # under-covered fraction (the sceptic region's complement density)
        series = stats.last_normalized if config.model == lattice.FIREWORK else stats.fractions
        mean, lo, hi = mean_interval(series)
        rows.append(clean_row([value, mean, lo, hi]))
    return rows, clamp, EXIT_OK


def run_diagnose(spec: ExperimentSpec):
    dist = parse_distribution(spec.dist)
    diag = exact.series_diagnostics(spec.p, dist, spec.k, spec.i_min, spec.i_max)
    rows = []
    for pos, i in enumerate(diag.site_indices.tolist()):
        rows.append(
            clean_row([i, diag.partial_sums[pos], diag.growth_ratio, diag.decay_exponent])
        )
    return rows, 0, EXIT_OK


def run_continuum(spec: ExperimentSpec):
    law = cont.parse_continuous_law(spec.dist)
    rows = []
    for t in range(spec.trials):
        cfg = cont.ContinuumConfig(
            spec.dim, spec.lam, spec.window_t, law, spec.k,
            mix64(spec.seed, t), spec.resolution,
        )
        points = cont.sample_ppp(cfg)
        if spec.dim == 1:
            gap = cont.k_cover_last_gap_1d(points, spec.k, spec.window_t)
            stat = 0.0 if gap is None else gap / spec.window_t
            witness = None if gap is None else gap
        else:
            frac, wit = cont.k_cover_deficit_2d(points, spec.k, spec.window_t, spec.resolution)
            stat = frac
            witness = None if wit is None else f"{wit[0]:g}:{wit[1]:g}"
        rows.append(clean_row([t, stat, witness]))
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


def _emit(result: ExperimentResult, spec: ExperimentSpec, out: str | None, formats) -> list[str]:
    written = []
    if not any(formats.values()):
        sys.stdout.write(render_csv(result))
        return written
    if out is None:
        raise CliError("--csv/--json/--svg need --out <basepath>")
    try:
        if formats["csv"]:
            path = out + ".csv"
            with open(path, "w") as fh:
                fh.write(render_csv(result))
            written.append(path)
        if formats["json"]:
            path = out + ".json"
            with open(path, "w") as fh:
                fh.write(render_json(result))
            written.append(path)
        if formats["svg"]:
            xi, xlabel, yi, ylabel = _SVG_AXES[spec.subcommand]
            xs = [row[xi] for row in result.rows] if xi is not None else list(range(len(result.rows)))
            ys = [row[yi] for row in result.rows]
            pairs = [(x, y) for x, y in zip(xs, ys) if isinstance(y, (int, float)) and y is not None]
            caption = f"{spec.subcommand}: {ylabel} vs {xlabel} (seed {spec.seed})"
            path = out + ".svg"
            with open(path, "w") as fh:
                fh.write(render_svg([p[0] for p in pairs], [p[1] for p in pairs],
                                    xlabel, ylabel, caption))
            written.append(path)
    except OSError as e:
        raise OSError(f"writing {getattr(e, 'filename', out)!r} failed: {e}") from e
    return written


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
