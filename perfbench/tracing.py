"""Span tracing for one rumourlab CLI process, installed from outside the library.

`install(recorder, trace_dir)` replaces public functions with timing
wrappers on the module attributes where callers look them up (for example
`lattice.realize`, `lattice.make_rng`, `cli.render_csv` and the radius laws'
`quantile_from_uniform`).  Each wrapper records (id, parent, name, start,
end, counts).  Counts come from arguments and return values only; when
working them out takes long, that time is recorded as a `trace.bookkeeping`
span so it is not charged to the caller's self time.

Process-pool workers are forked with the wrappers in place.  The traced pool
runs every submitted task through `_in_worker`, which records the task's
spans under the pool span and appends them to a file in `trace_dir`; the
parent merges those files in `summarize`.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

_now = time.monotonic  # CLOCK_MONOTONIC: comparable across processes

# counting slower than this gets its own span; cheaper counting (a few
# attribute reads) stays in the caller's self time
BOOKKEEPING_MIN_S = 1e-4


class Recorder:
    """In-memory spans of one process; ids are unique across processes."""

    def __init__(self):
        self.spans = []
        self.stack = [None]
        self._next = 0

    def open(self) -> int:
        self._next += 1
        sid = os.getpid() * 1_000_000_000 + self._next
        self.stack.append(sid)
        return sid

    def close(self, sid, name, start, end, counts=None):
        popped = self.stack.pop()
        if popped != sid:
            raise RuntimeError(f"span stack out of order: closing {sid}, top {popped}")
        self.spans.append((sid, self.stack[-1], name, start, end, counts))

    def timed(self, name, fn, count=None):
        """Wrap fn in a span; count(args, kwargs, result) -> dict of numbers."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open()
            t0 = _now()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(sid, name, t0, _now())
                raise
            t1 = _now()
            if count is None:
                self.close(sid, name, t0, t1)
                return out
            counts = count(args, kwargs, out)
            self.close(sid, name, t0, t1, counts)
            t2 = _now()
            if t2 - t1 > BOOKKEEPING_MIN_S:
                self.close(self.open(), "trace.bookkeeping", t1, t2)
            return out

        return wrapper


# The recorder of this process; _in_worker reaches it after a fork, where
# nothing but module globals can be passed by reference.
_ACTIVE: Recorder | None = None
_TRACE_DIR: str | None = None


def _in_worker(parent, fn, *args, **kwargs):
    rec = _ACTIVE
    rec.spans = []
    rec.stack = [parent]
    try:
        return fn(*args, **kwargs)
    finally:
        path = Path(_TRACE_DIR) / f"worker-{os.getpid()}.jsonl"
        with open(path, "a") as fh:
            for span in rec.spans:
                fh.write(json.dumps(span) + "\n")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# ---- count functions: arguments and return values only ----------------------


def _realize_counts(args, kwargs, out):
    cfg = _arg(args, kwargs, 0, "config")
    cells = cfg.extent() ** cfg.dimension
    init = 0 if out.initiator_radii is None else out.initiator_radii.size
    # two float64 uniforms per cell, plus the arrays handed back
    computed = 16 * cells + out.activation.nbytes + out.radii.nbytes
    return {"cells": cells, "sources": int(out.radii.size) + init, "bytes_computed": computed}


def _reach_counts(args, kwargs, out):
    """Window sources whose listening block reaches sites [0, n-1]^d."""
    real = _arg(args, kwargs, 0, "realization")
    n, act, radii = real.config.n, real.activation, real.radii
    reach = 0
    if act.ndim == 1:
        sites = np.flatnonzero(act) + 1
        reach = int(np.count_nonzero(sites - radii <= n - 1))
    else:
        off = 0
        step = max(1, (1 << 22) // act.shape[1])
        for r0 in range(0, act.shape[0], step):
            rows, cols = np.nonzero(act[r0:r0 + step])
            rad = radii[off:off + rows.size]
            off += rows.size
            far = np.maximum(rows + r0 + 1, cols + 1)
            reach += int(np.count_nonzero(far - rad <= n - 1))
    return {"reach": reach, "drawn": int(radii.size), "clamp": int(out.clamp_count)}


def _firework_counts(args, kwargs, out):
    real = _arg(args, kwargs, 0, "realization")
    init = 0 if real.initiator_radii is None else real.initiator_radii.size
    return {"sources": int(real.radii.size) + init, "clamp": int(out.clamp_count)}


def _engine_counts(trials_pos):
    def count(args, kwargs, out):
        cfg = _arg(args, kwargs, 0, "config")
        return {"trials": int(_arg(args, kwargs, trials_pos, "trials")), "key": repr(cfg)}

    return count


def _quantile_counts(args, kwargs, out):
    return {"draws": int(np.size(_arg(args, kwargs, 1, "u")))}


def _ppp_counts(args, kwargs, out):
    return {"points": int(out.coordinates.shape[0])}


def _raster_counts(args, kwargs, out):
    window_t = _arg(args, kwargs, 2, "window_t")
    resolution = _arg(args, kwargs, 3, "resolution")
    return {"pixels": int(np.ceil(window_t / resolution)) ** 2}


def _scan_counts(args, kwargs, out):
    return {"trials": len(list(_arg(args, kwargs, 1, "lambdas"))) * _arg(args, kwargs, 2, "trials")}


def _series_counts(args, kwargs, out):
    return {"sites": int(out.site_indices.size)}


def _bytes_out(args, kwargs, out):
    return {"bytes": len(out.encode())}


def install(rec: Recorder, trace_dir: str) -> None:
    """Wrap the library's public functions where they are looked up."""
    global _ACTIVE, _TRACE_DIR
    _ACTIVE, _TRACE_DIR = rec, trace_dir

    from rumourlab import cli, continuum, distributions, exact, lattice, stats

    wrap = rec.timed
    mix = wrap("stats.mix64", stats.mix64)
    for mod in (stats, lattice, continuum, cli):
        mod.mix64 = mix
    rng = wrap("stats.make_rng", stats.make_rng)
    for mod in (stats, lattice, continuum):
        mod.make_rng = rng

    for cls in vars(distributions).values():
        if (isinstance(cls, type) and issubclass(cls, distributions.TailDistribution)
                and "quantile_from_uniform" in vars(cls)):
            cls.quantile_from_uniform = wrap(
                "distributions.quantile", cls.quantile_from_uniform, _quantile_counts)

    lattice.realize = wrap("lattice.realize", lattice.realize, _realize_counts)
    lattice.firework_counts = wrap("lattice.firework_counts", lattice.firework_counts,
                                   _firework_counts)
    lattice.reverse_membership = wrap("lattice.reverse_membership",
                                      lattice.reverse_membership, _reach_counts)
    lattice.last_under_covered = wrap("lattice.last_under_covered", lattice.last_under_covered)
    lattice.estimate_under_coverage = wrap(
        "lattice.trial_engine", lattice.estimate_under_coverage, _engine_counts(2))
    lattice.simulate_window = wrap(
        "lattice.trial_engine", lattice.simulate_window, _engine_counts(1))

    class TracedPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            self._max_workers_arg = max_workers
            self._sid = rec.open()
            self._t0 = _now()

        def submit(self, fn, /, *args, **kwargs):
            return super().submit(_in_worker, self._sid, fn, *args, **kwargs)

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            if self._sid is not None:
                sid, self._sid = self._sid, None
                rec.close(sid, "lattice.pool", self._t0, _now(),
                          {"max_workers": int(self._max_workers_arg or 0)})

    lattice.ProcessPoolExecutor = TracedPool

    continuum.sample_ppp = wrap("continuum.sample_ppp", continuum.sample_ppp, _ppp_counts)
    continuum.k_cover_last_gap_1d = wrap("continuum.sweep_1d", continuum.k_cover_last_gap_1d)
    continuum.k_cover_deficit_2d = wrap("continuum.raster_2d", continuum.k_cover_deficit_2d,
                                        _raster_counts)
    continuum.scan_lambda = wrap("continuum.trial_engine", continuum.scan_lambda, _scan_counts)

    exact.series_diagnostics = wrap("exact.series_diagnostics", exact.series_diagnostics,
                                    _series_counts)

    cli.clean_row = wrap("reporting.clean_row", cli.clean_row)
    for name in ("render_csv", "render_json", "render_svg"):
        setattr(cli, name, wrap(f"reporting.{name}", getattr(cli, name), _bytes_out))
    for sub, runner in list(cli._RUNNERS.items()):
        cli._RUNNERS[sub] = wrap("cli.runner", runner)


# ---- aggregation --------------------------------------------------------------


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals.

    Children may overlap each other (pool workers run in parallel) and are
    clipped to the parent's interval.
    """
    children = defaultdict(list)
    for sid, parent, _name, start, end, _counts in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, start, end, _counts in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out


# per-layer metric -> unit, in report order
PER_LAYER = {
    "stats.make_rng.calls": "count",
    "stats.make_rng.self_s": "s",
    "stats.mix64.calls": "count",
    "lattice.trial_engine.self_s": "s",
    "lattice.trials": "count",
    "lattice.realize.calls": "count",
    "lattice.realize.self_s": "s",
    "lattice.realize.cells": "count",
    "lattice.realize.sources": "count",
    "lattice.realize.bytes_computed": "B",
    "lattice.realize_per_trial": "ratio",
    "distributions.quantile.calls": "count",
    "distributions.quantile.draws": "count",
    "distributions.quantile.self_s": "s",
    "lattice.reverse_membership.calls": "count",
    "lattice.reverse_membership.self_s": "s",
    "lattice.reverse.reach_frac": "ratio",
    "lattice.firework_counts.calls": "count",
    "lattice.firework_counts.self_s": "s",
    "lattice.firework_counts.sources": "count",
    "lattice.last_under_covered.self_s": "s",
    "lattice.clamp_count": "count",
    "lattice.pool.count": "count",
    "lattice.pool.max_workers": "count",
    "lattice.pool.wall_s": "s",
    "continuum.sample_ppp.self_s": "s",
    "continuum.points": "count",
    "continuum.sweep_1d.self_s": "s",
    "continuum.raster_2d.self_s": "s",
    "continuum.raster_2d.pixels": "count",
    "continuum.trials": "count",
    "continuum.trial_engine.self_s": "s",
    "exact.series_diagnostics.self_s": "s",
    "exact.series.sites": "count",
    "reporting.clean_row.calls": "count",
    "reporting.clean_row.self_s": "s",
    "reporting.render_csv.self_s": "s",
    "reporting.render_json.self_s": "s",
    "reporting.bytes_out": "B",
    "cli.runner.self_s": "s",
    "trace.bookkeeping_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def layer_sums(spans) -> dict:
    """Additive per-process totals: `<span>.calls`, `.self_s`, `.wall_s` and
    `.<count>` for every counted key, plus `lattice.trials` (distinct trials:
    the largest trial count the engine ran per configuration)."""
    selfs = self_times(spans)
    sums = defaultdict(float)
    trials_by_config = {}
    for sid, _parent, name, start, end, counts in spans:
        sums[f"{name}.calls"] += 1
        sums[f"{name}.self_s"] += selfs[sid]
        sums[f"{name}.wall_s"] += end - start
        for key, value in (counts or {}).items():
            if key == "key":
                trials_by_config[value] = max(trials_by_config.get(value, 0), counts["trials"])
            elif key == "max_workers":
                sums["lattice.pool.max_workers"] = max(sums["lattice.pool.max_workers"], value)
            else:
                sums[f"{name}.{key}"] += value
    sums["lattice.trials"] = sum(trials_by_config.values())
    return dict(sums)


def combine(parts) -> dict:
    """PER_LAYER metrics (all but trace.wall_s/overhead_s) from layer_sums of
    several processes or invocations."""
    s = defaultdict(float)
    for part in parts:
        for key, value in part.items():
            if key == "lattice.pool.max_workers":
                s[key] = max(s[key], value)
            else:
                s[key] += value
    trials = s["lattice.trials"]
    drawn = s["lattice.reverse_membership.drawn"]
    renamed = {
        "lattice.trial_engine.self_s": s["lattice.trial_engine.self_s"],
        "lattice.realize_per_trial": s["lattice.realize.calls"] / trials if trials else 0.0,
        "lattice.reverse.reach_frac": s["lattice.reverse_membership.reach"] / drawn if drawn else 0.0,
        "lattice.clamp_count": (s["lattice.firework_counts.clamp"]
                                + s["lattice.reverse_membership.clamp"]),
        "lattice.pool.count": s["lattice.pool.calls"],
        "continuum.points": s["continuum.sample_ppp.points"],
        "continuum.trials": s["continuum.trial_engine.trials"],
        "exact.series.sites": s["exact.series_diagnostics.sites"],
        "reporting.bytes_out": (s["reporting.render_csv.bytes"] + s["reporting.render_json.bytes"]
                                + s["reporting.render_svg.bytes"]),
        "trace.bookkeeping_s": s["trace.bookkeeping.wall_s"],
    }
    return {name: renamed.get(name, s[name]) for name in PER_LAYER
            if name not in ("trace.wall_s", "trace.overhead_s")}


def summarize(rec: Recorder, trace_dir: str) -> dict:
    """layer_sums over this process's spans and those its pool workers wrote."""
    spans = list(rec.spans)
    for path in sorted(Path(trace_dir).glob("worker-*.jsonl")):
        with open(path) as fh:
            spans.extend(tuple(json.loads(line)) for line in fh)
    return layer_sums(spans)
