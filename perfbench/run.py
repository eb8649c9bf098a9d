"""rumourlab benchmark: drive the CLI in a closed loop and report end-to-end metrics.

    python3 perfbench/run.py --workload tiny-trials|reverse-2d|phase-scans \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the CLI is run from ./src.  One
caller starts one fresh `python3 perfbench/child.py` subprocess per CLI
invocation and waits for it to exit before starting the next, so
workloads and invocations never overlap.  A pass runs every invocation of
the workload once; passes repeat with the same argv for about --seconds
(at least two passes, so output digests can be compared).

End-to-end metrics (--trace 0), each a median over passes:
  wall_s       sum over a pass's invocations of spawn-to-exit wall time
  cpu_s        user+sys CPU of those subprocesses and their pool workers
  peak_rss_mb  largest resident set of any process in a pass (VmHWM of the
               CLI process or ru_maxrss of a pool worker)
  setup_s      spawn until the call into rumourlab.cli.main: interpreter
               start plus `import rumourlab` (median over every invocation
               and an import-only start after each invocation)
fail_frac (failed / attempted invocations) is printed and carried by the
result's `failed` and `attempted`.  An invocation fails on a nonzero exit,
a failed check of its pass, an output digest that differs from the first
pass, or too little free memory to start it.

--trace 1 runs one untraced pass, then traced passes, and reports the
per-layer metrics of tracing.py (median over traced passes) plus the
tracing overhead: traced minus untraced pass wall time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 2
HARD_LIMIT_S = 150.0  # every invocation is killed by then; the run must end within 180 s

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def mem_available_mb() -> float:
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) / 1024.0
    return float("inf")


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    sha = dirty = None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        sha = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    tree = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        tree.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": tree.hexdigest(),
    }


class Runner:
    """Spawns child.py processes one at a time and measures each."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        # glibc moves its mmap threshold with allocation history, which made
        # reverse-2d peak RSS differ by ~8% between checkouts at different
        # paths; pin it (and the trim threshold) where it ends up when warm
        self.env.setdefault("MALLOC_MMAP_THRESHOLD_", str(32 << 20))
        self.env.setdefault("MALLOC_TRIM_THRESHOLD_", str(64 << 20))

    def spawn(self, label, mode, cli_argv, trace_dir=None) -> dict:
        """Run one child to exit; returns wall, cpu, peak RSS, setup and exit code."""
        stamp = self.work / f"{label}.stamp"
        stamp.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "child.py"), str(stamp),
                str(trace_dir) if trace_dir else "-", mode, *cli_argv]
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(self.work / f"{label}.log", "wb") as log:
            t0 = time.monotonic()
            # a session of its own, so a kill also reaches its pool workers
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=log, start_new_session=True)
            lock = threading.Lock()
            reaped = False

            def kill():
                with lock:
                    if not reaped:
                        os.killpg(proc.pid, signal.SIGKILL)

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                t1 = time.monotonic()
            except BaseException:
                kill()
                proc.wait()
                raise
            finally:
                with lock:
                    reaped = True
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = {
            "code": proc.returncode,
            "wall": t1 - t0,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": None,
            "setup": None,
            "problem": None,
        }
        try:
            when, imported, own_kib, child_kib = stamp.read_text().splitlines()
            result["setup"] = float(when) - t0
            result["rss_mb"] = max(int(own_kib), int(child_kib)) / 1024.0
            if not Path(imported).resolve().is_relative_to(SRC.resolve()):
                result["problem"] = f"rumourlab imported from {imported}, not {SRC}"
        except (OSError, ValueError):
            result["problem"] = "child wrote no start stamp or peak"
        if proc.returncode != 0:
            tail = (self.work / f"{label}.log").read_text(errors="replace")[-400:]
            result["problem"] = f"exit code {proc.returncode}: {tail.strip()}"
        return result


def read_outputs(base: Path):
    """(digest of CSV+JSON bytes, (header, rows)) or raises OSError/ValueError."""
    csv_bytes = base.with_suffix(".csv").read_bytes()
    json_bytes = base.with_suffix(".json").read_bytes()
    table = list(csv.reader(io.StringIO(csv_bytes.decode())))
    header, rows = table[0], table[1:]
    doc = json.loads(json_bytes)
    if doc["columns"] != header or len(doc["rows"]) != len(rows):
        raise ValueError("JSON columns/rows disagree with the CSV")
    return hashlib.sha256(csv_bytes + json_bytes).hexdigest(), (header, rows)


def run_pass(runner, workload, invocations, traced, digests, log):
    """One pass over the workload; returns per-invocation records and the
    set-up times of import-only probes started after each untraced invocation."""
    records = []
    outputs = {}
    probes = []
    for inv in invocations:
        rec = {"label": inv.label, "failed": False}
        records.append(rec)
        free = mem_available_mb()
        if free < inv.need_mb:
            rec.update(failed=True, problem=f"needs {inv.need_mb} MB, {free:.0f} MB available")
            continue
        base = runner.work / inv.label
        for suffix in (".csv", ".json", ".svg"):
            base.with_suffix(suffix).unlink(missing_ok=True)
        trace_dir = None
        if traced:
            trace_dir = runner.work / f"trace-{inv.label}"
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir()
        argv = inv.argv + ["--csv", "--json", "--out", str(base)]
        rec.update(runner.spawn(inv.label, "--run", argv, trace_dir))
        if not traced:
            probe = runner.spawn("probe", "--setup-only", [])
            if probe["problem"] is None:
                probes.append(probe["setup"])
        if rec["problem"]:
            rec["failed"] = True
            continue
        try:
            digest, outputs[inv.label] = read_outputs(base)
            if traced:
                rec["layers"] = json.loads((trace_dir / "summary.json").read_text())
        except (OSError, ValueError, KeyError, IndexError) as e:
            rec.update(failed=True, problem=f"unreadable output: {e}")
            continue
        rec["digest"] = digest
        first = digests.setdefault(inv.label, digest)
        if digest != first:
            rec.update(failed=True, problem="output digest differs from the first pass")
    try:
        problems = workload.check(outputs)
    except (KeyError, ValueError, IndexError) as e:
        problems = [f"check could not read the outputs: {e!r}"]
    for problem in problems:
        log(f"check failed: {problem}")
    for rec in records:
        if problems:
            rec["failed"] = True
        if rec.get("problem"):
            log(f"{rec['label']}: {rec['problem']}")
    return records, probes


def summary_stats(values):
    if not values:  # every invocation failed; `failed` in the result says so
        return {"median": 0.0, "min": 0.0, "max": 0.0, "n": 0}
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "n": len(values)}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    if not (SRC / "rumourlab" / "cli.py").is_file():
        log(f"error: no rumourlab sources under {SRC}; run from a source checkout")
        return 2
    sys.path.insert(0, str(SRC))

    start = time.monotonic()
    workload = WORKLOADS[args.workload]
    env = environment()
    workers = min(2, env["nproc"])
    invocations = workload.invocations(args.seed, workers)
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        runner = Runner(work, start + HARD_LIMIT_S)
        setups = []
        digests = {}
        passes = []
        untraced_wall = None
        while True:
            elapsed = time.monotonic() - start
            if passes:
                # stop at the pass boundary nearest to --seconds
                per_pass = elapsed / len(passes)
                if len(passes) >= MIN_PASSES and elapsed + per_pass / 2 >= args.seconds:
                    break
                if elapsed + 1.5 * per_pass > HARD_LIMIT_S:
                    log("stopping early: another pass would pass the time limit")
                    break
            traced = bool(args.trace) and untraced_wall is not None
            records, probes = run_pass(runner, workload, invocations, traced, digests, log)
            done = [r for r in records if "wall" in r]
            p = {
                "records": records,
                "traced": traced,
                "wall": sum(r["wall"] for r in done),
                "cpu": sum(r["cpu"] for r in done),
                "rss": max((r["rss_mb"] or 0.0 for r in done), default=0.0),
            }
            if args.trace and untraced_wall is None:
                untraced_wall = p["wall"]
            setups += probes + [r["setup"] for r in done if r.get("setup") is not None]
            passes.append(p)

        records = [r for p in passes for r in p["records"]]
        attempted = len(records)
        failed = sum(r["failed"] for r in records)
        walls = {}
        for r in records:
            if "wall" in r:
                walls.setdefault(r["label"], []).append(r["wall"])
        report = {"workload": workload.name, "seed": args.seed, "env": env,
                  "fail_frac": failed / attempted, "passes": len(passes),
                  "invocation_wall_s": {k: statistics.median(v) for k, v in walls.items()},
                  "pass_wall_s": [p["wall"] for p in passes],
                  "digests": {label: d for label, d in sorted(digests.items())}}
        if args.trace:
            from tracing import PER_LAYER, combine

            traced_passes = [p for p in passes if p["traced"]]
            per_pass = [combine(r["layers"] for r in p["records"] if "layers" in r)
                        for p in traced_passes]
            traced_wall = statistics.median([p["wall"] for p in traced_passes] or [0.0])
            values = {name: statistics.median([s[name] for s in per_pass] or [0.0])
                      for name in per_pass[0]} if per_pass else {}
            values["trace.wall_s"] = traced_wall
            values["trace.overhead_s"] = traced_wall - untraced_wall
            metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                       for name, unit in PER_LAYER.items()}
            report["samples"] = {"traced_passes": len(traced_passes), "untraced_passes": 1}
        else:
            stats = {
                "wall_s": summary_stats([p["wall"] for p in passes]),
                "cpu_s": summary_stats([p["cpu"] for p in passes]),
                "peak_rss_mb": summary_stats([p["rss"] for p in passes]),
                "setup_s": summary_stats(setups),
            }
            metrics = {k: {"value": s["median"], "unit": E2E_UNITS[k]} for k, s in stats.items()}
            report["samples"] = {k: s["n"] for k, s in stats.items()}
            report["spread"] = stats

        for name, m in metrics.items():
            print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}")
        print(f"{workload.name} fail_frac = {failed}/{attempted} = {failed / attempted:.4g}")
        print(json.dumps(report, sort_keys=True))
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
