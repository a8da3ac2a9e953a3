"""One workload process: set up, then run passes in a closed loop.

A single caller sends the workload's operations one at a time through
``rhoforge.cli.main`` in this process, and sends the next only after the
previous returned.  The process prints one JSON object with its raw
measurements; ``run.py`` starts it and turns those into metrics.

Modes: ``setup`` stops at the first timed operation and only reports
when it got there; ``run`` measures untraced passes; ``trace``
alternates untraced and traced passes, so the two can be compared in
the same process.  A run may be split into segments, one process each;
``--segment`` selects the segment's own input sequence.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"


def _run_op(cli, argv):
    """Call main once; returns (seconds, exit code or None, stdout, exception)."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejecting the arguments
        rc = exc.code
    except Exception as exc:
        error = exc
    return time.perf_counter() - t0, rc, out.getvalue(), error


def reference_s(reps: int = 3) -> float:
    """Fastest of ``reps`` runs of a fixed pure-Python loop.

    On a shared host the speed one process sees can drift by 1.5x within
    minutes, wall and CPU time alike.  Timing this loop (integer
    arithmetic and tuple keys in a dict, as in the library's hot paths)
    before and after every pass lets run.py express times as multiples
    of it, which cancels most of that drift and none of the program's
    own cost.
    """
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        total, seen = 0, {}
        for i in range(40_000):
            total += i * i % 7
            key = (i % 97, i % 89)
            seen[key] = seen.get(key, 0) + i
        best = min(best, time.perf_counter() - t0)
    return best


def _holds(op, report_text, inputs) -> bool:
    try:
        return bool(op.check(json.loads(report_text), inputs))
    except (ValueError, KeyError, IndexError, TypeError):
        return False


@dataclass
class Tally:
    """Outcomes over a run.  ``failed`` counts every operation that did
    not give the pinned answer; ``wrong`` counts those that are not the
    operation's known defect, and any of them makes the run incorrect."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    problems: Counter = field(default_factory=Counter)


def run_pass(cli, ops, inputs, tally: Tally) -> list[tuple[float, str]]:
    """Send each operation once, in order; returns (seconds, stdout) per op."""
    results = []
    for op in ops:
        dt, rc, text, error = _run_op(cli, op.args(inputs))
        tally.attempted += 1
        if error is not None:
            tally.failed += 1
            known = type(error).__name__ == op.known_error
            if not known:
                tally.wrong += 1
            label = "known defect" if known else "unexpected"
            tally.problems[f"{op.name}: {label} {type(error).__name__}: {error}"] += 1
        elif rc != op.exit_code or not _holds(op, text, inputs):
            tally.failed += 1
            tally.wrong += 1
            tally.problems[f"{op.name}: exit {rc}, wrong output"] += 1
        results.append((dt, text))
    return results


def _environment() -> dict:
    import numpy as np

    blas = None
    config = getattr(getattr(np, "__config__", None), "CONFIG", None)
    if config:
        blas = config.get("Build Dependencies", {}).get("blas", {}).get("version")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--segment", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import rhoforge  # noqa: F401  (numpy comes with it)
    from rhoforge import cli

    import workloads

    workload = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        # Each segment of a run draws its own input sequence.
        inputs = workload.inputs(f"{args.seed}/{args.segment}", Path(tmp))
        current = next(inputs)
        ready = time.monotonic()
        if args.mode == "setup":
            print(json.dumps({"ready": ready}))
            return 0

        tracer = None
        if args.mode == "trace":
            from spans import Tracer

            tracer = Tracer()
        min_passes = 2 if tracer else 1
        deadline = time.monotonic() + args.seconds
        # (traced, seconds, mean of the reference timed before and after)
        passes: list[tuple[bool, float, float]] = []
        latencies: dict[str, list[float]] = {op.name: [] for op in workload.ops}
        tally = Tally()
        before = reference_s()
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.install()
            try:
                results = run_pass(cli, workload.ops, current, tally)
            finally:
                if traced:
                    tracer.uninstall()
            after = reference_s()
            passes.append((traced, sum(dt for dt, _ in results), (before + after) / 2))
            before = after
            for op, (dt, text) in zip(workload.ops, results):
                if traced:
                    tracer.counts["cli.report_bytes"] += len(text)
                else:
                    latencies[op.name].append(dt)
            if time.monotonic() >= deadline and len(passes) >= min_passes:
                break
            current = next(inputs)
        end = time.monotonic()

    result = {
        "ready": ready,
        "passes": passes,
        "latencies": latencies,
        "end": end,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "problems": dict(tally.problems),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": _environment(),
    }
    if tracer is not None:
        traced = [s for t, s, _ in passes if t]
        result["layers"] = tracer.metrics(len(traced), sum(traced))
        tracer.dump(WORK / f"trace-{args.workload}-{args.seed}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
