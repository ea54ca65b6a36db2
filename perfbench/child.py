"""One round of a workload in a fresh interpreter: import, then CLI commands.

Usage: python3 perfbench/child.py PLAN.json RESULT.json

PLAN holds {"commands": [argv, ...], "trace": bool}. The result records the
monotonic time at which the package was imported and the first command was
about to be called, each command's exit code, wall and CPU time and printed
output, the process's peak resident memory, and, when traced, the span
summary.
"""

import contextlib
import io
import json
import sys
import time
import traceback


def peak_rss_kb():
    """This process's own resident-memory high-water mark, in kB.

    VmHWM belongs to the memory map made at exec. ru_maxrss would not do:
    Linux carries the parent's peak over into the child's across exec.
    """
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main():
    plan_path, result_path = sys.argv[1:3]
    with open(plan_path, "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    import kgbreather.cli as cli

    ready = time.monotonic()
    tracer = None
    if plan["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    commands = []
    for argv in plan["commands"]:
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.span("cli." + argv[0], cli.main, argv)
        except Exception:  # an uncaught program fault is one failed operation
            code = None
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
        cpu_seconds = time.process_time() - cpu_start
        commands.append(
            {
                "argv": argv,
                "code": code,
                "seconds": seconds,
                "cpu_seconds": cpu_seconds,
                "stdout": out.getvalue(),
                "stderr": err.getvalue(),
                "error": error,
            }
        )
    result = {
        "ready": ready,
        "commands": commands,
        "peak_rss_kb": peak_rss_kb(),
        "trace": tracer.summary() if tracer else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
