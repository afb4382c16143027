"""Compare the CLI of two source trees byte for byte.

    python3 scripts/compare_cli.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a ``curvadapt`` package,
such as ``src`` of two checkouts.  Each tree runs in one subprocess that
calls ``curvadapt.cli.main`` in-process over a fixed corpus and records
the exit code (a ``SystemExit`` code, as ``--help`` raises, included),
stdout and stderr of every argv.  The corpus is the argv of the three
perfbench workloads at seeds 1, 11, 12 and 777, plus theorem-3,
grassmannian-check and tube-table edge cases, the bare command and the
help of the command and of each subcommand.  Prints each argv whose
results differ and exits 1 if there is one, else exits 0.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 11, 12, 777)
SUBCOMMANDS = ("octonion-table", "jacobi-spectrum", "sectional-range", "tube-table",
               "theorem2", "theorem3", "profile-match", "cascade",
               "grassmannian-check", "selftest")
GRIDS = ("0.25:1.30:24", "0.01:1.56:200", "0.001:0.05:9")
EDGES = [
    ["theorem3", "--alpha-grid", grid, "--constraint", mode, *fmt]
    for grid in GRIDS for mode in ("ajj", "azz", "ratio") for fmt in ([], ["--format", "csv"])
] + [
    ["theorem3", "--alpha-grid", "0.01:1.6:50"],
    ["theorem3", "--alpha-grid", "0.3:1.6:50", "--tol", "ratio=1e-20"],
    ["theorem3", "--alpha-grid", "0.2:0.6435011087932844:5", "--tol", "ratio=1e-20"],
    ["theorem3", "--alpha-grid", "0.3:1.6:50"],
    ["theorem3", "--alpha-grid", "0.2:0.6435011087932844:5"],
    ["theorem3", "--alpha-grid", "0:1:5"],
    ["theorem3", "--alpha-grid", "-0.1:0.5:4"],
    ["theorem3", "--alpha-grid", "1.5707963267948966:1.5707963267948966:1"],
] + [
    ["grassmannian-check", "--alpha", alpha, "--triples", "3", "--m", m]
    for alpha in ("0", "1e-8", "0.001", "0.01", "0.7", "1.5707963267948966", "2", "-0.1")
    for m in ("2", "5")
] + [
    ["tube-table", "--ambient", ambient, "--core", core, *radius]
    for ambient, core, radius in (
        ("op2", "horosphere", []),
        ("oh2", "horosphere", ["--radius", "1"]),
        ("op2", "point", []),
        ("op2", "point", ["--radius=-0.3"]),
        ("oh2", "line", ["--radius=-0.3"]),
        ("op2", "line", ["--radius", "0"]),
        ("oh2", "hp2", ["--radius", "0"]),
        ("op2", "hp2", ["--radius", "0.7853981633974483"]),
        ("op2", "line", ["--radius", "1.5707963267948966"]),
        ("oh2", "point", ["--radius", "1e-300"]),
        ("oh2", "point", ["--radius", "800"]),
        # within the branch kernel's 1e-12 pole proximity of a focal set
        ("oh2", "point", ["--radius", "1e-13"]),
        ("op2", "point", ["--radius", "1e-13"]),
        ("op2", "line", ["--radius", "1.5707963267948"]),
        ("op2", "hp2", ["--radius", "0.7853981633974"]),
    )
] + [
    ["tube-table", "--ambient", ambient, "--core", "hp2", "--radius", "0.3", "--format", fmt]
    for ambient in ("op2", "oh2") for fmt in ("csv", "md")
] + [[], ["--help"]] + [[name, "--help"] for name in SUBCOMMANDS]


def corpus() -> list[list[str]]:
    """The argv to compare, each once, in a fixed order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs

    seen = {}
    for seed in SEEDS:
        for make in inputs.WORKLOADS.values():
            for _, argv, _ in make(seed):
                seen.setdefault(tuple(argv), None)
    for argv in EDGES:
        seen.setdefault(tuple(argv), None)
    return [list(argv) for argv in seen]


def run_corpus() -> None:
    """Child side: run the argv list on stdin, write the results to stdout."""
    from curvadapt import cli

    results = []
    for argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse exits after printing help
                code = exc.code
        results.append([code, out.getvalue(), err.getvalue()])
    json.dump(results, sys.__stdout__)


def results_for(src: str, argvs: list[list[str]]) -> list:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    proc = subprocess.run(
        [sys.executable, __file__, "--run"], input=json.dumps(argvs),
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)


def main() -> int:
    if sys.argv[1:] == ["--run"]:
        run_corpus()
        return 0
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    argvs = corpus()
    old, new = (results_for(src, argvs) for src in sys.argv[1:])
    differing = [argv for argv, a, b in zip(argvs, old, new) if a != b]
    for argv in differing:
        print("differs:", json.dumps(argv))
    print(f"{len(argvs) - len(differing)} of {len(argvs)} argv identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
