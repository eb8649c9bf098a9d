"""Run one rumourlab CLI invocation for the benchmark.

    python3 child.py STAMP_FILE TRACE_DIR|- --run|--setup-only CLI_ARGV...

Writes to STAMP_FILE the CLOCK_MONOTONIC time at which `rumourlab.cli.main`
is about to be called (so the parent can compute interpreter start plus
`import rumourlab`) and the file rumourlab was imported from; on the way
out it appends the peak resident set of this process and of its largest
reaped child (pool workers), in KiB, and exits with main's return code.
The parent cannot take the peak from wait4: Linux carries the spawning
process's resident set across fork and exec into the child's ru_maxrss.

With a TRACE_DIR, the wrappers from tracing.py are installed first and the
per-layer sums are written to TRACE_DIR/summary.json; with "-", nothing is
wrapped.  `--setup-only` imports the CLI and returns before running it.
"""

import sys
import time

import rumourlab.cli


def peak_kib() -> tuple:
    """(VmHWM of this process, ru_maxrss of its largest reaped child) in KiB."""
    import resource

    with open("/proc/self/status") as fh:
        hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return hwm, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def main(argv):
    stamp = argv[0]
    try:
        return run(argv)
    finally:
        with open(stamp, "a") as fh:
            fh.write("%d\n%d\n" % peak_kib())


def run(argv):
    stamp, trace_dir, mode, cli_argv = argv[0], argv[1], argv[2], argv[3:]
    rec = None
    if trace_dir != "-":
        import tracing

        rec = tracing.Recorder()
        tracing.install(rec, trace_dir)
    with open(stamp, "w") as fh:
        fh.write(f"{time.monotonic()!r}\n{rumourlab.cli.__file__}\n")
    if mode == "--setup-only":
        return 0
    if rec is None:
        return rumourlab.cli.main(cli_argv)

    import json
    import os

    sid = rec.open()
    t0 = time.monotonic()
    try:
        return rumourlab.cli.main(cli_argv)
    finally:
        rec.close(sid, "cli.main", t0, time.monotonic())
        with open(os.path.join(trace_dir, "summary.json"), "w") as fh:
            json.dump(tracing.summarize(rec, trace_dir), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
