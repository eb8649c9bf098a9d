"""What a run imports, checked in fresh interpreters, and the lazy package API."""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import rumourlab
from rumourlab import lattice

SRC = str(Path(rumourlab.__file__).resolve().parent.parent)


def fresh(script: str, env_override=None):
    """Run script in a new interpreter that imports rumourlab from this tree,
    with no BLAS thread variable set unless env_override sets it; return the
    JSON value of its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [env.get("PYTHONPATH")])])
    for name in ["RUMOURLAB_SEED", "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"]:
        env.pop(name, None)
    env.update(env_override or {})
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# modules a seeded --workers 1 run never needs: the runners of other
# subcommands, the process pool, and what loads OpenSSL
UNUSED = ["rumourlab.exact", "rumourlab.continuum", "concurrent.futures.process",
          "multiprocessing", "secrets", "_hashlib", "numpy.random"]


def imported_by(argv, modules):
    """Which of modules a fresh process holds after cli.main(argv), and main's code."""
    return fresh(f"""
        import json, sys
        from rumourlab.cli import main
        code = main({argv!r})
        print(json.dumps([code, [m for m in {modules!r} if m in sys.modules]]))
    """)


class TestImportHygiene:
    def test_batched_simulate_imports_only_what_it_runs(self):
        argv = ["simulate", "--dim", "1", "--dist", "const:r=2", "--p", "0.2", "--k", "2",
                "--n", "8", "--sites", "2,5,8", "--trials", "50", "--workers", "1",
                "--seed", "1"]
        assert imported_by(argv, UNUSED) == [0, []]

    def test_exact_imports_no_process_pool(self):
        argv = ["exact", "--dist", "const:r=1", "--p", "0.5", "--sites", "3", "--seed", "1"]
        assert imported_by(argv, ["concurrent.futures.process", "rumourlab.continuum"]) == [0, []]

    def test_pool_workers_inherit_numpy_random(self):
        # the parent has not imported numpy.random; run_trials imports it
        # before it forks, so every worker finds it loaded at entry
        pids, parent = fresh("""
            import json, os, sys
            import numpy as np
            from rumourlab import lattice
            from rumourlab.distributions import Constant

            DTYPE = [("pid", np.int64), ("random", bool)]

            def task(config, seeds):
                out = np.empty(len(seeds), DTYPE)
                out["pid"], out["random"] = os.getpid(), "numpy.random" in sys.modules
                return out

            assert "numpy.random" not in sys.modules
            lattice.os.sched_getaffinity = lambda pid: {0, 1}
            config = lattice.LatticeConfig(1, lattice.FIREWORK, 0.5, 1, 4, Constant(1), 7)
            [out] = lattice.run_trials(task, [(config, (), ())], 4, 2, DTYPE)
            assert out["random"].all(), out
            print(json.dumps([sorted(set(out["pid"].tolist())), os.getpid()]))
        """)
        assert pids and parent not in pids


class TestBlasThreads:
    # the CLI sets OPENBLAS_NUM_THREADS=1 before numpy loads, unless numpy is
    # loaded already or the variable is set; a library import sets nothing
    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    def test_cli_process_has_one_thread(self):
        assert fresh("""
            import json, os
            import rumourlab.cli
            print(json.dumps([len(os.listdir("/proc/self/task")),
                              os.environ["OPENBLAS_NUM_THREADS"]]))
        """) == [1, "1"]

    def test_library_import_sets_nothing(self):
        assert fresh("""
            import json, os
            import rumourlab.lattice
            print(json.dumps(os.environ.get("OPENBLAS_NUM_THREADS")))
        """) is None

    def test_user_setting_is_kept(self):
        assert fresh("""
            import json, os
            import rumourlab.cli
            print(json.dumps(os.environ["OPENBLAS_NUM_THREADS"]))
        """, {"OPENBLAS_NUM_THREADS": "2"}) == "2"

    def test_numpy_loaded_first_leaves_environment(self):
        assert fresh("""
            import json, os
            import numpy
            before = dict(os.environ)
            import rumourlab.cli
            print(json.dumps(dict(os.environ) == before))
        """) is True

    def test_diagnose_bytes_hold_at_any_blas_thread_count(self, tmp_path):
        # np.polyfit in series_diagnostics is the one BLAS/LAPACK call on a
        # CLI path; its fit, and every byte, is the same on 1 and 2 threads
        outputs = []
        for threads in ["1", "2"]:
            base = str(tmp_path / f"d{threads}")
            assert fresh(f"""
                import json
                from rumourlab.cli import main
                print(json.dumps(main(["diagnose", "--dist", "pareto:alpha=4", "--p", "0.5",
                                       "--k", "2", "--imax", "200000", "--seed", "1",
                                       "--csv", "--json", "--out", {base!r}])))
            """, {"OPENBLAS_NUM_THREADS": threads}) == 0
            outputs.append([Path(base + ext).read_bytes() for ext in (".csv", ".json")])
        assert outputs[0] == outputs[1]


# every name the package exported when it imported all its modules eagerly
EXPORTED = {
    "distributions": [
        "Constant", "DistParseError", "Geometric", "ParetoTail", "PowerTail",
        "TailDistribution", "TailFunctionals", "Truncated", "TruncatedLawError",
        "parse_distribution"],
    "lattice": [
        "CoverageField", "LatticeConfig", "Realization", "SiteEstimate", "WindowOverflowError",
        "estimate_under_coverage", "firework_counts", "last_under_covered", "realize",
        "reverse_membership"],
    "exact": [
        "EnumerationBoundError", "ExactQuery", "LossyTruncationError",
        "PaperFormulaDivisionError", "SeriesDiagnostics", "enumeration_oracle",
        "poisson_binomial_fewer_than", "series_diagnostics", "shell_multiplicity_2d",
        "uncovered_prob_1d", "uncovered_prob_2d", "undercovered_prob_1d",
        "undercovered_prob_1d_closed_form", "undercovered_prob_2d_exact",
        "undercovered_prob_2d_paper"],
    "continuum": [
        "ContinuumConfig", "LambdaSummary", "PointSet", "k_cover_deficit_2d",
        "k_cover_last_gap_1d", "sample_ppp", "scan_lambda"],
}


class TestLazyPackage:
    @pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTED.items()
                                              for n in names])
    def test_export_resolves_to_its_module_object(self, module, name):
        namespace = {}
        exec(f"from rumourlab import {name}", namespace)
        assert namespace[name] is getattr(importlib.import_module(f"rumourlab.{module}"), name)
        assert name in dir(rumourlab)

    def test_modules_read_as_attributes(self):
        for module in [*EXPORTED, "stats"]:
            assert getattr(rumourlab, module) is importlib.import_module(f"rumourlab.{module}")
            assert module in dir(rumourlab)

    @pytest.mark.parametrize("owner", [rumourlab, lattice])
    def test_unknown_name_raises(self, owner):
        with pytest.raises(AttributeError, match="no_such_name"):
            owner.no_such_name
        with pytest.raises(ImportError):
            exec(f"from {owner.__name__} import no_such_name", {})

    def test_pool_is_patchable_before_it_is_imported(self):
        # the fixture in conftest.py and perfbench's tracer replace the pool
        # by monkeypatching; in a fresh process the real one is not loaded yet
        assert fresh("""
            import json, sys
            from rumourlab import lattice
            from rumourlab.distributions import Constant

            assert "concurrent.futures.process" not in sys.modules
            import pytest

            built = []

            class Pool:
                def __init__(self, max_workers, mp_context=None):
                    built.append(max_workers)

                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    return False

                def submit(self, fn, *args):
                    return Done(fn(*args))

            class Done:
                def __init__(self, value):
                    self.value = value

                def result(self):
                    return self.value

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lattice, "ProcessPoolExecutor", Pool)
                mp.setattr(lattice.os, "sched_getaffinity", lambda pid: {0, 1})
                config = lattice.LatticeConfig(1, lattice.FIREWORK, 0.5, 1, 4, Constant(1), 7)
                lattice.simulate_window(config, 4, workers=2)
            from concurrent.futures import ProcessPoolExecutor
            print(json.dumps([built, lattice.ProcessPoolExecutor is ProcessPoolExecutor]))
        """) == [[2], True]


class TestTracerHooks:
    def test_benchmark_tracer_installs(self, tmp_path):
        # perfbench's tracer wraps library names by attribute, so a rename or
        # deletion it looks up fails here; a lattice radius quantile is one
        # traced call, a real (continuum) one is not
        perfbench = str(Path(SRC).parent / "perfbench")
        assert fresh(f"""
            import json, sys
            sys.path.insert(0, {perfbench!r})
            import tracing
            from rumourlab.distributions import Constant, ParetoTail
            tracing.install(tracing.Recorder(), {str(tmp_path)!r})
            print(json.dumps([hasattr(f, "__wrapped__") for f in (
                ParetoTail(4).quantile_from_uniform, Constant(1).quantile_from_uniform,
                ParetoTail(4).real_quantile)]))
        """) == [True, True, False]
