"""Self-tests for the benchmark: checks, self-time arithmetic, wrapper installation.

    python3 perfbench/selftest.py

Scratch files go under .perfbench_work/ in the checkout and are removed.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def scratch_dir(name: str) -> Path:
    path = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def tearDownModule():
    shutil.rmtree(ROOT / ".perfbench_work" / f"selftest-{os.getpid()}", ignore_errors=True)
    try:
        (ROOT / ".perfbench_work").rmdir()
    except OSError:
        pass


def write_outputs(base: Path, header, rows):
    """CSV and JSON as the CLI writes them, then parsed back by the benchmark."""
    base.with_suffix(".csv").write_text(
        "\n".join(",".join(map(str, r)) for r in [header] + rows) + "\n")
    base.with_suffix(".json").write_text(json.dumps({"columns": header, "rows": rows}))
    return run.read_outputs(base)[1]


SIM = ["site", "freqUnderCovered", "ciLow", "ciHigh"]
SCAN = ["param", "statistic", "ciLow", "ciHigh"]


class TinyTrialsCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exact = workloads.exact_values()
        cls.dir = scratch_dir("tiny")

    def outputs(self, moved=()):
        outputs = {}
        for i, (dim, *_rest, sites) in enumerate(workloads.TINY_SPECS):
            rows = []
            for site in sites:
                label = workloads._site_label(dim, site)
                v = self.exact[(i, label)]
                if (i, label) in moved:
                    v += 0.05  # interval moved off the exact value
                rows.append([label, v, v - 0.01, v + 0.01])
            rows += [["window", 0.5, 0.4, 0.6], ["lastUnderCovered", 0.5, 0.4, 0.6]]
            outputs[f"tiny{i}"] = write_outputs(self.dir / f"tiny{i}", SIM, rows)
        return outputs

    def test_accepts_calibrated_intervals(self):
        self.assertEqual(workloads.check_tiny(self.outputs(), self.exact), [])

    def test_rejects_intervals_moved_off_exact(self):
        moved = list(self.exact)[:3]
        self.assertTrue(workloads.check_tiny(self.outputs(moved), self.exact))

    def test_rejects_missing_site_row(self):
        outputs = self.outputs()
        header, rows = outputs["tiny0"]
        outputs["tiny0"] = (header, rows[1:])
        self.assertTrue(workloads.check_tiny(outputs, self.exact))


class ReverseCheck(unittest.TestCase):
    def outputs(self, d2, d1):
        return {
            "reverse_d2": (SIM, [["window", str(d2), "0", "0"], ["lastUnderCovered", "0", "0", "0"]]),
            "reverse_d1": (SIM, [["window", str(d1), "0", "1"], ["lastUnderCovered", "1", "0", "1"]]),
        }

    def test_accepts_dimension_contrast(self):
        self.assertEqual(workloads.check_reverse(self.outputs(0.0, 0.42)), [])

    def test_rejects_unfilled_2d_or_filled_1d(self):
        self.assertTrue(workloads.check_reverse(self.outputs(0.2, 0.42)))
        self.assertTrue(workloads.check_reverse(self.outputs(0.0, 0.01)))


class PhaseCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.dir = scratch_dir("phase")

    def outputs(self, pscan=(0.014, 0.005, 0.003), lscan1=(0.96, 0.9, 0.4, 0.01, 0.0, 0.0),
                lscan2=(0.0065, 0.0027, 0.0025), diag_rows=workloads.DIAGNOSE_IMAX, ratio=1.00001):
        def scan(vals):
            return [[i, v, v, v] for i, v in enumerate(vals)]

        out = {
            "pscan": write_outputs(self.dir / "pscan", SCAN, scan(pscan)),
            "lscan1": write_outputs(self.dir / "lscan1", SCAN, scan(lscan1)),
            "lscan2": write_outputs(self.dir / "lscan2", SCAN, scan(lscan2)),
        }
        header = ["n", "partialSum", "growthRatio", "decayExponent"]
        out["diagnose"] = (header, [[str(i), "1.0", str(ratio), "-2"] for i in range(diag_rows)])
        return out

    def test_accepts_expected_scans(self):
        self.assertEqual(workloads.check_phase(self.outputs()), [])

    def test_rejects_non_monotone_p_scan(self):
        self.assertTrue(workloads.check_phase(self.outputs(pscan=(0.014, 0.02, 0.003))))

    def test_rejects_lambda_scans(self):
        self.assertTrue(workloads.check_phase(self.outputs(lscan1=(0.7, 0.5, 0.4, 0.1, 0.0, 0.0))))
        self.assertTrue(workloads.check_phase(self.outputs(lscan1=(0.9, 0.5, 0.4, 0.3, 0.3, 0.3))))
        self.assertTrue(workloads.check_phase(self.outputs(lscan2=(0.001, 0.002, 0.003))))

    def test_rejects_diagnose(self):
        self.assertTrue(workloads.check_phase(self.outputs(diag_rows=10)))
        self.assertTrue(workloads.check_phase(self.outputs(ratio=1.2)))

    def test_rejects_json_that_disagrees_with_csv(self):
        base = self.dir / "bad"
        write_outputs(base, SCAN, [[0, 1, 1, 1]])
        base.with_suffix(".json").write_text(json.dumps({"columns": SCAN, "rows": []}))
        with self.assertRaises(ValueError):
            run.read_outputs(base)


class SelfTime(unittest.TestCase):
    def test_synthetic_span_tree(self):
        spans = [
            (1, None, "cli.main", 0.0, 10.0, None),
            (2, 1, "lattice.pool", 1.0, 4.0, {"max_workers": 2}),
            (3, 1, "lattice.realize", 3.0, 6.0, {"cells": 5}),  # overlaps span 2
            (4, 2, "lattice.realize", 2.0, 3.0, {"cells": 7}),
            (5, 1, "lattice.firework_counts", 8.0, 12.0, None),  # clipped to its parent
            (6, 5, "stats.make_rng", 9.0, 9.5, None),
            (7, 5, "stats.make_rng", 9.25, 9.75, None),  # parallel siblings
        ]
        selfs = tracing.self_times(spans)
        self.assertAlmostEqual(selfs[1], 10.0 - 5.0 - 2.0)
        self.assertAlmostEqual(selfs[2], 3.0 - 1.0)
        self.assertAlmostEqual(selfs[3], 3.0)
        self.assertAlmostEqual(selfs[4], 1.0)
        self.assertAlmostEqual(selfs[5], 4.0 - 0.75)
        sums = tracing.layer_sums(spans)
        self.assertAlmostEqual(sums["lattice.realize.self_s"], 4.0)
        self.assertEqual(sums["lattice.realize.cells"], 12)
        self.assertEqual(sums["lattice.realize.calls"], 2)
        metrics = tracing.combine([sums, sums])
        self.assertEqual(metrics["lattice.pool.max_workers"], 2)
        self.assertEqual(metrics["lattice.pool.count"], 2)
        self.assertEqual(set(metrics) | {"trace.wall_s", "trace.overhead_s"},
                         set(tracing.PER_LAYER))


PROBE = """
import json, sys
sys.path[:0] = {paths!r}
import child
code = child.main({argv!r})
import rumourlab.cli as cli, rumourlab.lattice as lattice, rumourlab.distributions as d
wrapped = [name for mod in (cli, lattice, d) for name, obj in vars(mod).items()
           if hasattr(obj, "__wrapped__")]
if any(hasattr(f, "__wrapped__") for f in cli._RUNNERS.values()):
    wrapped.append("_RUNNERS")
if hasattr(d.Constant.quantile_from_uniform, "__wrapped__"):
    wrapped.append("Constant")
print(json.dumps({{"code": code, "wrapped": wrapped, "tracing": "tracing" in sys.modules}}))
"""


class Installation(unittest.TestCase):
    def probe(self, trace_dir):
        work = scratch_dir(f"probe-{trace_dir is not None}")
        cli_argv = ["simulate", "--dim", "1", "--dist", "const:r=2", "--p", "0.5", "--k", "2",
                    "--n", "8", "--sites", "2,5", "--trials", "30", "--workers", "2",
                    "--seed", "3", "--csv", "--json", "--out", str(work / "out")]
        argv = [str(work / "stamp"), str(trace_dir) if trace_dir else "-", "--run", *cli_argv]
        code = PROBE.format(paths=[str(HERE), str(SRC)], argv=argv)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, cwd=ROOT)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_untraced_run_installs_no_wrappers(self):
        result = self.probe(None)
        self.assertEqual(result, {"code": 0, "wrapped": [], "tracing": False})

    def test_traced_run_wraps_and_collects_worker_spans(self):
        trace_dir = scratch_dir("trace")
        result = self.probe(trace_dir)
        self.assertEqual(result["code"], 0)
        self.assertIn("realize", result["wrapped"])
        self.assertIn("_RUNNERS", result["wrapped"])
        self.assertIn("Constant", result["wrapped"])
        metrics = tracing.combine([json.loads((trace_dir / "summary.json").read_text())])
        # estimate and window each realize all 30 trials, in two pool workers
        self.assertEqual(metrics["lattice.trials"], 30)
        self.assertEqual(metrics["lattice.realize.calls"], 60)
        self.assertEqual(metrics["lattice.realize_per_trial"], 2.0)
        self.assertEqual(metrics["lattice.pool.count"], 2)
        self.assertEqual(metrics["lattice.pool.max_workers"], 2)
        self.assertEqual(metrics["stats.make_rng.calls"], 60)


class Refusals(unittest.TestCase):
    def test_overdue_invocation_is_killed_and_failed(self):
        runner = run.Runner(scratch_dir("kill"), time.monotonic() + 1.0)
        long_argv = ["simulate", "--dim", "1", "--dist", "const:r=2", "--p", "0.5", "--n", "8",
                     "--trials", "10000000", "--workers", "2", "--seed", "1"]
        result = runner.spawn("long", "--run", long_argv)
        self.assertEqual(result["code"], -signal.SIGKILL)
        self.assertIsNotNone(result["problem"])
        self.assertLess(result["wall"], 30)

    def test_invocation_that_cannot_fit_is_failed_unstarted(self):
        runner = run.Runner(scratch_dir("mem"), time.monotonic() + 60)
        huge = workloads.Workload("huge", None, lambda outputs: [])
        inv = workloads.Invocation("huge", ["simulate"], need_mb=1 << 40)
        records, probes = run.run_pass(runner, huge, [inv], False, {}, lambda msg: None)
        self.assertTrue(records[0]["failed"])
        self.assertNotIn("wall", records[0])
        self.assertEqual(probes, [])


class MissingSources(unittest.TestCase):
    def test_fails_without_a_checkout(self):
        bare = scratch_dir("bare")
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                               "tiny-trials", "--seconds", "1"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
