"""The curvadapt benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout.  Workloads (see NOTES.md):

- ``cli-cold``: the nine search-free README examples, each a fresh
  ``python -m curvadapt.cli``;
- ``verdicts``: theorem2, theorem3 in three constraint modes and selftest,
  in one warm interpreter;
- ``queries``: a seeded stream of light subcommands in one warm interpreter.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it wraps the package's public functions and reports
per-layer calls and self times instead.  ``--workload all`` runs every
workload untraced and traced and adds the tracing overhead.  The last
line of stdout is one JSON object; the lines before it say the same for
a reader.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-cold", "verdicts", "queries")
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
#: a run must end within 180 s of its start, whatever hangs
RUN_LIMIT_S = 175


def _env() -> dict:
    env = dict(os.environ)
    env.pop("CURVADAPT_FORMAT", None)  # would switch tabular payloads to csv/md
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def setup_seconds(env: dict) -> float:
    """Median time from launching a fresh interpreter until
    ``curvadapt.cli`` is imported and the interpreter says so."""
    code = "import curvadapt.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.close()
            if proc.wait(timeout=30) != 0 or line != "ready\n":
                raise RuntimeError("a fresh interpreter could not import curvadapt.cli")
        finally:
            proc.kill()
            proc.wait()
        samples.append(ready)
    return statistics.median(samples)


def _import_tree(stderr: str):
    """(name, self us, cumulative us, depth) per ``-X importtime`` line."""
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        yield name.strip(), int(self_us), int(cumulative_us), depth


def import_breakdown(env: dict) -> dict:
    """Median over fresh interpreters of the ``-X importtime`` cost of
    ``import curvadapt.cli``, and of the numpy and scipy imports in it
    (the cumulative time of each outermost numpy or scipy entry, so numpy
    modules that only scipy pulls in count as scipy's)."""
    runs = {"cli.import_s": [], "cli.import.scipy_s": [], "cli.import.numpy_s": []}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import curvadapt.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError("python -X importtime -c 'import curvadapt.cli' failed")
        totals = dict.fromkeys(runs, 0)
        ancestors = []
        # importtime prints children before their parent, so walk backwards
        for name, _, cumulative, depth in reversed(list(_import_tree(proc.stderr))):
            del ancestors[depth:]
            top = name.split(".")[0]
            if depth == 0 and name == "curvadapt.cli":
                totals["cli.import_s"] += cumulative
            if top in ("scipy", "numpy") and not {"scipy", "numpy"} & set(ancestors):
                totals[f"cli.import.{top}_s"] += cumulative
            ancestors.append(top)
        for key, us in totals.items():
            runs[key].append(us / 1e6)
    return {key: statistics.median(values) for key, values in runs.items()}


def run_worker(env: dict, workload: str, seed: int, seconds: float, trace: bool,
               deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    # a session of its own, so that a timeout also ends a cold child
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker for {workload} failed:\n{err[-2000:]}")
    return json.loads(out.splitlines()[-1])


def tail(times: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that has at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    ordered = sorted(times)
    rank = len(ordered) - 10 if len(ordered) > 10 else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(raw: dict, setup_s: float) -> dict:
    value, _ = tail(raw["times"])
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(raw["times"]), "s"),
        "op_tail_s": (value, "s"),
        "ops_per_s": (raw["attempted"] / raw["wall_s"], "1/s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "commit": commit,
    }


def measure(env: dict, workload: str, seed: int, seconds: float, trace: bool):
    """One run; returns (raw worker result, metrics as name -> (value, unit))."""
    deadline = time.monotonic() + RUN_LIMIT_S
    if trace:
        raw = run_worker(env, workload, seed, seconds, True, deadline)
        metrics = {name: (value, "s") for name, value in import_breakdown(env).items()}
        metrics["cli.stdout_bytes"] = (raw["stdout_bytes_per_pass"], "bytes")
        metrics.update({name: tuple(pair) for name, pair in raw["layers"].items()})
        metrics["trace.ops_per_s"] = (raw["attempted"] / raw["wall_s"], "1/s")
        return raw, metrics
    setup_s = setup_seconds(env)
    raw = run_worker(env, workload, seed, seconds, False, deadline)
    return raw, end_to_end(raw, setup_s)


def describe(workload: str, raw: dict, metrics: dict, trace: bool) -> list:
    n = raw["attempted"]
    lines = [f"{workload}: {raw['passes']} passes, {n} invocations, "
             f"{'traced' if trace else 'untraced'}, {raw['wall_s']:.2f} s measured"]
    if not trace:
        _, pct = tail(raw["times"])
        notes = {
            "setup_s": f"median of {SETUP_REPEATS} fresh interpreters importing curvadapt.cli",
            "op_p50_s": f"median of n={n}",
            "op_tail_s": f"p{pct:.1f} of n={n}: the highest percentile with >= 10 samples beyond it",
            "ops_per_s": "invocations completed per second of loop wall time",
            "peak_rss_mb": "largest child process" if workload == "cli-cold" else "worker process",
        }
        for name, (value, unit) in metrics.items():
            lines.append(f"  {name:<14} {value:>12.6g} {unit:<5} {notes[name]}")
        lines.append(f"  {'failed_ratio':<14} {raw['failed'] / n:>12.6g} {'ratio':<5} "
                     f"{raw['failed']} of {n} invocations failed their output check")
        by_kind = {}
        for kind, t in zip(raw["kinds"], raw["times"]):
            by_kind.setdefault(kind, []).append(t)
        for kind, times in by_kind.items():
            lines.append(f"    {kind:<22} p50 {statistics.median(times):.6f} s  "
                         f"n={len(times)}  share {sum(times) / sum(raw['times']):.3f}")
    else:
        for name, (value, unit) in metrics.items():
            reached = value > 0 or (value == 0 and name.endswith("_ratio"))
            lines.append(f"  {name:<56} {value:>14.6g} {unit:<5}"
                         + ("" if reached else " not reached"))
    for argv, problems in raw["problems"].items():
        lines.append(f"  FAILED {argv}: {'; '.join(problems)[:300]}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "curvadapt" / "cli.py").is_file():
        print(f"run.py: no curvadapt source tree under {ROOT}", file=sys.stderr)
        return 2
    wrong = checks.self_check(checks.Checker(ROOT / "src" / "curvadapt" / "schemas"))
    if wrong:
        print(f"run.py: the output checker accepted {', '.join(wrong)}", file=sys.stderr)
        return 3

    env = _env()
    record = environment()
    print("environment: " + ", ".join(f"{k} {v}" for k, v in record.items()))
    if args.workload != "all":
        trace = bool(args.trace)
        raw, metrics = measure(env, args.workload, args.seed, args.seconds, trace)
        print("\n".join(describe(args.workload, raw, metrics, trace)))
        result = {
            "correct": raw["failed"] == 0,
            "attempted": raw["attempted"],
            "failed": raw["failed"],
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }
    else:
        result = {"environment": record, "seed": args.seed, "seconds": args.seconds,
                  "workloads": {}}
        for workload in WORKLOADS:
            summary = {}
            for trace in (False, True):
                raw, metrics = measure(env, workload, args.seed, args.seconds, trace)
                print("\n".join(describe(workload, raw, metrics, trace)))
                summary["traced" if trace else "untraced"] = {
                    "attempted": raw["attempted"], "failed": raw["failed"],
                    "metrics": {name: v for name, (v, _) in metrics.items()},
                }
            plain = summary["untraced"]["metrics"]["ops_per_s"]
            traced = summary["traced"]["metrics"]["trace.ops_per_s"]
            summary["tracing_overhead"] = plain / traced - 1.0
            print(f"{workload}: tracing overhead {summary['tracing_overhead']:+.1%} "
                  f"(ops_per_s {plain:.4g} untraced, {traced:.4g} traced)")
            result["workloads"][workload] = summary
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
