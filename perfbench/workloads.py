"""Benchmark workloads: the CLI argv each one runs and the checks on its outputs.

A workload is a list of invocations run one after another in a closed loop.
`invocations(seed, workers)` derives every CLI seed from the benchmark seed;
`check(outputs)` gets {label: (header, rows)} parsed from each invocation's
CSV and returns a list of problems.  No check compares output bytes, so a
change that alters bytes (a version bump) can still be measured.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Invocation:
    label: str
    argv: list
    need_mb: int  # memory the run needs; checked against MemAvailable first


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: Callable[[int, int], list]
    check: Callable[[dict], list]


def cli_seed(seed: int, workload: str, index: int) -> int:
    """63-bit CLI seed for one invocation, a pure function of the benchmark seed."""
    digest = hashlib.sha256(f"{seed}:{workload}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def column(header, rows, name, row_label=None):
    """Float values of one CSV column, optionally from the row whose first cell matches."""
    i = header.index(name)
    return [float(r[i]) for r in rows if row_label is None or r[0] == row_label]


def _window_mean(outputs, label):
    header, rows = outputs[label]
    (mean,) = column(header, rows, "freqUnderCovered", "window")
    return mean


# ---- tiny-trials --------------------------------------------------------------

# the acceptance-criterion-4 grid: (dim, dist, k, p, sites)
TINY_SPECS = [
    (1, "const:r=2", 2, 0.2, [2, 5, 8]),
    (1, "const:r=2", 2, 0.5, [2, 5, 8]),
    (1, "const:r=2", 2, 0.8, [2, 5, 8]),
    (1, "geom:q=0.5", 1, 0.6, [3, 7, 10]),
    (2, "const:r=1", 2, 0.3, [(2, 2), (3, 2), (4, 4)]),
    (2, "const:r=1", 2, 0.6, [(2, 2), (3, 2), (4, 4)]),
    (2, "geom:q=0.5", 2, 0.5, [(2, 3), (3, 3)]),
]
TINY_TRIALS = 10_000
# Acceptance criterion 4 asks for 19 of 20 at one fixed seed.  Across seeds,
# 20 exact 99% Wilson intervals leave two or more misses with probability
# ~1.7% (binomial coverage at these 20 values), so correct code would fail
# 19/20 on about one seed in sixty; with 18/20 that is ~0.1%, and a defect
# that biases the estimates still moves most of the 20 intervals.
TINY_MIN_COVERED = 18


def _site_label(dim, site):
    return str(site) if dim == 1 else f"{site[0]}:{site[1]}"


def _tiny_invocations(seed, workers):
    out = []
    for i, (dim, dist, k, p, sites) in enumerate(TINY_SPECS):
        n = max(max(s) if dim == 2 else s for s in sites)
        site_arg = ",".join(map(str, sites)) if dim == 1 else ";".join(f"{a},{b}" for a, b in sites)
        out.append(Invocation(f"tiny{i}", [
            "simulate", "--dim", str(dim), "--dist", dist, "--p", str(p), "--k", str(k),
            "--n", str(n), "--sites", site_arg, "--trials", str(TINY_TRIALS),
            "--workers", "1", "--seed", str(cli_seed(seed, "tiny-trials", i)),
        ], 200))
    return out


def exact_values() -> dict:
    """{(spec index, site label): exact count-DP under-coverage probability}."""
    from rumourlab.distributions import parse_distribution
    from rumourlab.exact import ExactQuery, undercovered_prob_1d, undercovered_prob_2d_exact

    values = {}
    for i, (dim, dist, k, p, sites) in enumerate(TINY_SPECS):
        law = parse_distribution(dist)
        for site in sites:
            q = ExactQuery(dim, site, p, k, law)
            exact = undercovered_prob_1d(q) if dim == 1 else undercovered_prob_2d_exact(q)
            values[(i, _site_label(dim, site))] = exact
    return values


def check_tiny(outputs, exact=None):
    exact = exact_values() if exact is None else exact
    problems = []
    covered = 0
    for (i, label), value in exact.items():
        header, rows = outputs[f"tiny{i}"]
        lo = column(header, rows, "ciLow", label)
        hi = column(header, rows, "ciHigh", label)
        if len(lo) != 1:
            problems.append(f"tiny{i}: expected one row for site {label}, got {len(lo)}")
        elif lo[0] <= value <= hi[0]:
            covered += 1
    if covered < TINY_MIN_COVERED:
        problems.append(f"only {covered}/{len(exact)} 99% Wilson intervals hold the exact value")
    return problems


# ---- reverse-2d ---------------------------------------------------------------

REVERSE_ARGS = ["simulate", "--model", "reverse", "--dist", "power:beta=1.5", "--p", "0.5",
                "--k", "2", "--n", "2000", "--cushion", "5", "--initiators", "--workers", "1"]


def _reverse_invocations(seed, workers):
    return [
        Invocation("reverse_d2", REVERSE_ARGS + [
            "--dim", "2", "--trials", "1", "--seed", str(cli_seed(seed, "reverse-2d", 0))], 2200),
        Invocation("reverse_d1", REVERSE_ARGS + [
            "--dim", "1", "--trials", "400", "--seed", str(cli_seed(seed, "reverse-2d", 1))], 200),
    ]


def check_reverse(outputs):
    problems = []
    d2, d1 = _window_mean(outputs, "reverse_d2"), _window_mean(outputs, "reverse_d1")
    if not d2 <= 0.01:
        problems.append(f"2D reverse window under-covered mean {d2} > 0.01")
    if not d1 >= 0.1:
        problems.append(f"1D reverse window under-covered mean {d1} < 0.1")
    return problems


# ---- phase-scans --------------------------------------------------------------

DIAGNOSE_IMAX = 300_000


def _phase_invocations(seed, workers):
    common = ["--workers", str(workers), "--svg"]

    def seed_arg(i):
        return ["--seed", str(cli_seed(seed, "phase-scans", i))]

    return [
        Invocation("pscan", ["scan", "--dim", "2", "--dist", "pareto:alpha=4",
                             "--p-grid", "0.02,0.05,0.1", "--n", "2000", "--trials", "20"]
                   + common + seed_arg(0), 600),
        Invocation("lscan1", ["scan", "--dim", "1", "--dist", "pareto:alpha=4",
                              "--lambda-grid", "0.05,0.1,0.25,0.5,1,2", "--T", "10000",
                              "--trials", "50"] + common + seed_arg(1), 200),
        Invocation("lscan2", ["scan", "--dim", "2", "--dist", "pareto:alpha=4",
                              "--lambda-grid", "0.1,0.5,2", "--T", "400", "--resolution", "0.5",
                              "--trials", "20"] + common + seed_arg(2), 300),
        Invocation("diagnose", ["diagnose", "--dist", "pareto:alpha=4", "--p", "0.5", "--k", "2",
                                "--imax", str(DIAGNOSE_IMAX)] + common + seed_arg(3), 600),
    ]


def check_phase(outputs):
    problems = []
    header, rows = outputs["pscan"]
    stat = column(header, rows, "statistic")
    if len(stat) != 3 or any(b > a for a, b in zip(stat, stat[1:])):
        problems.append(f"p-scan statistic not non-increasing in p: {stat}")
    header, rows = outputs["lscan1"]
    stat = column(header, rows, "statistic")
    if len(stat) != 6 or not (stat[0] >= 0.8 and stat[-1] <= 0.2):
        problems.append(f"1D lambda scan does not fall from >=0.8 to <=0.2: {stat}")
    header, rows = outputs["lscan2"]
    stat = column(header, rows, "statistic")
    if len(stat) != 3 or not stat[0] >= stat[-1]:
        problems.append(f"2D lambda scan first mean below last: {stat}")
    header, rows = outputs["diagnose"]
    if len(rows) != DIAGNOSE_IMAX:
        problems.append(f"diagnose emitted {len(rows)} rows, want {DIAGNOSE_IMAX}")
    ratios = set(column(header, rows, "growthRatio"))
    if len(ratios) != 1 or not ratios.pop() < 1.01:
        problems.append("diagnose growthRatio is not one value below 1.01")
    return problems


# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("tiny-trials", _tiny_invocations, check_tiny),
        Workload("reverse-2d", _reverse_invocations, check_reverse),
        Workload("phase-scans", _phase_invocations, check_phase),
    )
}
