"""Runs one workload in one process and prints its raw result as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.  A
run is closed loop with one client: whole passes over the workload's
invocations, one at a time, until ``--seconds`` have gone by and at least
``MIN_PASSES`` are done.  Every pass repeats the same argv list, so each
later pass must reproduce the first pass's stdout byte for byte; the first
pass's outputs get the full checks after the timed loop.
``cli-cold`` starts a fresh interpreter per invocation; the other
workloads call ``cli.main`` in this warm process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import inputs
import layertrace

ROOT = Path(__file__).resolve().parent.parent
COLD_TIMEOUT_S = 60
#: fewer passes would shrink the sample count, and move the tail
#: percentile, whenever a busy host slows a pass past a third of the run
MIN_PASSES = 3


class InProcess:
    """Calls ``cli.main(argv)`` with stdout and stderr captured."""

    def __init__(self):
        from curvadapt import cli

        src = (ROOT / "src").resolve()
        if src not in Path(cli.__file__).resolve().parents:
            raise SystemExit(f"worker: curvadapt imported from {cli.__file__}, not {src}")
        self.cli = cli

    def __call__(self, argv):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except Exception:
            code = "exception: " + traceback.format_exc(limit=3)
        return time.perf_counter() - start, code, out.getvalue()


class Cold:
    """Runs each invocation as a fresh ``python -m curvadapt.cli``; when
    traced, through ``tracecli.py``, which saves its spans to a file."""

    def __init__(self, spans_dir: Path | None):
        self.spans_dir = spans_dir
        self.span_files = []

    def __call__(self, argv):
        if self.spans_dir is None:
            cmd = [sys.executable, "-m", "curvadapt.cli", *argv]
        else:
            path = self.spans_dir / f"cold-{len(self.span_files)}.npz"
            self.span_files.append(path)
            cmd = [sys.executable, str(Path(__file__).with_name("tracecli.py")), str(path), *argv]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=COLD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, f"timeout after {COLD_TIMEOUT_S} s", ""
        return time.perf_counter() - start, proc.returncode, proc.stdout


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    invocations = inputs.WORKLOADS[workload](seed)
    out_dir = ROOT / "perfbench" / "out"
    tracer = None
    if workload == "cli-cold":
        spans_dir = None
        if traced:
            spans_dir = out_dir / "cold-spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
        invoke = Cold(spans_dir)
    else:
        invoke = InProcess()
        if traced:
            tracer = layertrace.Tracer()
            tracer.install()

    first = []  # (code, stdout) of pass 1, by invocation index
    times, differs = [], []
    passes = 0
    loop_start = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - loop_start < seconds:
        for i, (_, argv, _) in enumerate(invocations):
            elapsed, code, stdout = invoke(argv)
            times.append(elapsed)
            if passes == 0:
                first.append((code, stdout))
            elif (code, stdout) != first[i]:
                differs.append(i)
        passes += 1
    wall = time.perf_counter() - loop_start
    if tracer is not None:
        tracer.uninstall()
    # read before the output checks load jsonschema and its validators,
    # so the peak is the program's, not the checker's
    if workload == "cli-cold":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import checks

    checker = checks.Checker(ROOT / "src" / "curvadapt" / "schemas")
    problems = {}
    for i, ((kind, argv, expect), (code, stdout)) in enumerate(zip(invocations, first)):
        found = [code] if isinstance(code, str) else checker.problems(argv, code, stdout, expect)
        if found:
            problems[i] = found
    # a failed first output fails every identical repeat too; a repeat
    # that differs from the first output fails on its own
    failed = passes * len(problems) + sum(1 for i in differs if i not in problems)
    for i in differs:
        problems.setdefault(i, []).append("stdout differs from the first run of this argv")

    result = {
        "passes": passes,
        "wall_s": wall,
        "times": times,
        "kinds": [kind for kind, _, _ in invocations] * passes,
        "attempted": len(times),
        "failed": failed,
        "problems": {" ".join(invocations[i][1])[:120]: p for i, p in problems.items()},
        "peak_rss_mb": rss_kb / 1024.0,
        "stdout_bytes_per_pass": sum(len(stdout.encode()) for _, stdout in first),
    }
    if traced:
        result["layers"] = _layer_metrics(tracer, invoke, out_dir, workload, passes)
    return result


def _layer_metrics(tracer, invoke, out_dir: Path, workload: str, passes: int) -> dict:
    if tracer is not None:
        spans = tracer.spans()
    else:
        parts = []
        for path in invoke.span_files:
            with np.load(path) as saved:
                parts.append({key: saved[key] for key in saved.files})
            path.unlink()
        invoke.spans_dir.rmdir()
        spans = layertrace.concat_spans(parts)
    out_dir.mkdir(parents=True, exist_ok=True)
    np.savez(out_dir / f"trace-{workload}.npz", layers=np.array(layertrace.LAYERS), **spans)
    return layertrace.layer_metrics(spans, passes)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(inputs.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
