"""Compare the CLI of two source trees byte for byte.

    python3 scripts/compare_cli.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a ``curvadapt`` package,
such as ``src`` of two checkouts.  Each tree runs in one subprocess that
calls ``curvadapt.cli.main`` in-process over a fixed corpus and records
the exit code (a ``SystemExit`` code, as ``--help`` raises, included),
stdout and stderr of every argv.  An uncaught exception is recorded as
that argv's result too: exit value "exception", with its type and message
appended to stderr.  The corpus is the argv of the three perfbench
workloads at seeds 1, 11, 12 and 777, plus theorem-3, grassmannian-check,
tube-table, profile-match, cascade and sectional-range edge cases (the
profile-match ones include tanh rows: the oh2 line and hp2 tubes at
r = 0.3 against their reversed order, and the hyperbolic doubling pair
2 coth 2u = coth u + tanh u with a nudged copy; an all-const system
whose default window overflows; a pole-weight witness; a slow branch,
whose closed-form denominator stays below 1e-12 far from its one pole,
against itself (equivalent); and one branch against itself at kappa 400
and 3e6, where the grid is entirely masked and no pole-free window
boundary is found), points that the branch kernel refuses as within
1e-12 of a pole in t (cascade on a kappa = 1e13 branch, whose poles lie
3e-13 apart, and on a flat lambda(0) = 1e6 branch 5e-13 past its pole,
and an op2 tube 7e-13 below its focal radius), cascade on a kappa = 1e300
branch at t = 1e10, where kappa t overflows a float, jacobi-spectrum
--space grassmannian at alpha 0.0001, 1.5707 and 1.5707963 with m = 2
and at 0.001 with m = 3, whose clusters lie closer than 1e-6 yet far
above eigh's rounding, three edges of the const regime, which holds only
when |lambda(0)| = kappa exactly (a kappa = 1e-13 branch with
lambda(0) = 5 kappa under cascade, tagged coth and tagged const, and the
oh2 tube about a point at r = 8, whose kappa = 2 row is 2 coth(16), just
above 2), malformed option values, the README examples outside the
workloads, each subcommand with each of --seed, --format and every --tol
name, the bare command and the help of the command and of each
subcommand.  All argv of a tree run in one process, so an identical
count also shows that the parser, built once per subcommand, carries
nothing from one call to the next.  Prints each argv whose results
differ with the channels that differ, then how many argv are identical
in each channel, and exits 1 if an argv differs, else exits 0.
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
SYSTEM = '[{"kappa":1,"theta":0.9,"mult":2}]'
#: one branch row of each non-compact regime, the flat one with and without a pole
ROWS = {
    "coth": '{"kappa":1,"theta":2,"mult":3,"regime":"coth"}',
    "coth-negative": '{"kappa":2,"theta":-3,"mult":1,"regime":"coth"}',
    "flat": '{"kappa":0,"theta":0.5,"mult":2,"regime":"flat"}',
    "flat-zero": '{"kappa":0,"theta":0,"mult":1,"regime":"flat"}',
    "const": '{"kappa":1,"theta":1,"mult":2,"regime":"const"}',
    "tanh": '{"kappa":1,"theta":0.5,"mult":1,"regime":"tanh"}',
}
COMPACT_ROW = '{"kappa":1,"theta":1,"mult":1}'
#: six kappa = 1 branches, 59,206 profile poles in --window=0,31000
SIX_BRANCHES = "[" + ",".join(f'{{"kappa":1,"theta":{theta},"mult":1}}'
                              for theta in (0.3, 0.8, 1.3, 1.9, 2.4, 2.9)) + "]"
#: a pole at t = 1.5, and poles at 1 and 1.5 that pole_merge=1 merges into one at 1
POLE_AT_1_5 = '[{"kappa":1,"theta":1.5,"mult":1}]'
MERGED_PAIR = '[{"kappa":1,"theta":1,"mult":1},{"kappa":1,"theta":1.5,"mult":1}]'
MERGED_PAIR_PERMUTED = '[{"kappa":1,"theta":1.5,"mult":1},{"kappa":1,"theta":1,"mult":1}]'
#: poles at 0.5, 1.4 and 2.3, all on the grid of --window=0,2.57: pole_merge=1
#: merges 1.4 into the cluster at 0.5, and 2.3 starts one of its own
POLE_CHAIN = "[" + ",".join(f'{{"kappa":1,"theta":{theta},"mult":1}}'
                            for theta in (0.5, 1.4, 2.3)) + "]"
CASCADE_SYSTEM = '[{"kappa":2,"theta":1.2,"mult":3}]'
#: the oh2 tubes about a line and an hp2 core at r = 0.3, as tube-table
#: prints them, in (kappa, value, mult, regime) rows: kappa tanh(kappa r) on
#: the directions tangent to the core, kappa coth(kappa r) on the normal ones
OH2_TUBES = (
    ((1, 0.2913126124515909, 8, "tanh"), (2, 3.7240510427733318, 7, "coth")),
    ((1, 3.4327384303217414, 4, "coth"), (1, 0.2913126124515909, 4, "tanh"),
     (2, 3.7240510427733318, 3, "coth"), (2, 1.0740991339960708, 4, "tanh")),
)


def _rows(rows) -> str:
    """Branch JSON of (kappa, value, mult, regime) rows."""
    return "[" + ",".join(f'{{"kappa":{k},"theta":{v!r},"mult":{m},"regime":"{g}"}}'
                          for k, v, m, g in rows) + "]"


#: 2 coth(2u) = coth(u) + tanh(u) at u = 0.8: one profile from a frequency-2
#: branch and a split pair, whose tanh row the nudged copy moves to 0.66
DOUBLED = '[{"kappa":2,"theta":2.1699774723115555,"mult":1,"regime":"coth"}]'
SPLIT = ('[{"kappa":1,"theta":1.5059407020437063,"mult":1,"regime":"coth"},'
         '{"kappa":1,"theta":0.6640367702678491,"mult":1,"regime":"tanh"}]')
SPLIT_NUDGED = SPLIT.replace("0.6640367702678491", "0.66")
#: a pole at 0.1 whose closed-form denominator sin(1e-12 - 1e-11 t) stays
#: below 1e-12 for t within 0.1 of it; the grid's points are 0.0039 and more
#: from the pole, so the branch against itself is equivalent
SLOW_BRANCH = '[{"kappa":1e-11,"theta":1e-12,"mult":1}]'
#: no compact branch and pi/kappa overflows a float: no default window
TINY_CONST = '[{"kappa":1e-310,"theta":1e-310,"mult":1,"regime":"const"}]'
#: a coth pole matched by both, and a const branch that changes the smooth part
WIDE_P = '[{"kappa":1,"theta":2,"mult":1,"regime":"coth"}]'
WIDE_Q = ('[{"kappa":2,"theta":2.5,"mult":1,"regime":"coth"},'
          '{"kappa":1,"theta":1,"mult":1,"regime":"const"}]')
#: a valid argv of each subcommand, to which each shared option is added
BASE_ARGV = {
    "octonion-table": [],
    "jacobi-spectrum": [],
    "sectional-range": ["--samples", "50"],
    "tube-table": ["--ambient", "op2", "--core", "line", "--radius", "0.3"],
    "theorem2": [],
    "theorem3": ["--alpha-grid", "0.5:1.1:3"],
    "profile-match": ["--p", SYSTEM, "--q", SYSTEM],
    "cascade": ["--system", SYSTEM, "--t", "0.1"],
    "grassmannian-check": ["--triples", "3"],
    "selftest": [],
}
TOLERANCES = ("spectrum_residual", "health", "profile_grid", "pole_merge", "cascade", "ratio")
CHANNELS = ("exit code", "stdout", "stderr")
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
        ("op2", "point", ["--radius", "1.5707963267941966"]),  # 7e-13 below pi/2
        # 2 coth(16) lies 5e-14 above 2: a coth row, not a const one
        ("oh2", "point", ["--radius", "8"]),
    )
] + [
    ["tube-table", "--ambient", ambient, "--core", "hp2", "--radius", "0.3", "--format", fmt]
    for ambient in ("op2", "oh2") for fmt in ("csv", "md")
] + [
    ["profile-match", "--p", "[", "--q", SYSTEM],
    ["profile-match", "--p", SYSTEM, "--q", SYSTEM, "--window", "2,1"],
    ["theorem3", "--alpha-grid", "nonsense"],
    ["octonion-table", "--tol", "bogus=1"],
    ["cascade", "--system", '[{"kappa":5,"theta":1,"mult":1,"regime":"flat"}]', "--t", "0.1"],
] + [
    ["profile-match", "--p", f"[{row},{COMPACT_ROW}]", "--q", q, *window]
    for row in ROWS.values()
    for q in (f"[{row},{COMPACT_ROW}]", f"[{COMPACT_ROW}]")
    for window in ([], ["--window=1,2"], ["--window=-1,3"])
] + [
    ["profile-match", "--p", f"[{p}]", "--q", f"[{COMPACT_ROW}]", *window]
    for p in ('{"kappa":1e-9,"theta":0.9,"mult":1}', '{"kappa":1e-310,"theta":1,"mult":1}')
    for window in ([], ["--window=0,1"])
] + [
    ["profile-match", "--p", '[{"kappa":1e-310,"theta":1,"mult":1}]',
     "--q", '[{"kappa":1e-310,"theta":1,"mult":1}]', "--window=0,1"],
] + [
    # the smooth-part grid: a crowded window that masks every point, one
    # system over coth, flat and const rows, a narrow window ending at a
    # pole, and grid points on branch poles that pole_merge=1 merges away
    ["profile-match", "--p", SIX_BRANCHES, "--q", SIX_BRANCHES, "--window=0,31000"],
    *(["profile-match", "--p", f"[{ROWS['coth']},{ROWS['flat']},{ROWS['const']},{COMPACT_ROW}]",
       "--q", f"[{ROWS['const']},{COMPACT_ROW},{ROWS['flat']},{ROWS['coth']}]", *window]
      for window in ([], ["--window=-1,3"])),
    ["profile-match", "--p", POLE_AT_1_5, "--q", POLE_AT_1_5, "--window=1.4,1.5"],
    *(["profile-match", "--p", p, "--q", q, "--window=0,2.57", "--tol", "pole_merge=1"]
      for p, q in ((MERGED_PAIR, MERGED_PAIR), (MERGED_PAIR, MERGED_PAIR_PERMUTED),
                   (POLE_CHAIN, POLE_CHAIN))),
] + [
    # tanh rows: each oh2 tube against its reversed order, the hyperbolic
    # doubling pair and its nudged copy; then the overflowing default window
    *(["profile-match", "--p", _rows(tube), "--q", _rows(tube[::-1])] for tube in OH2_TUBES),
    *(["profile-match", "--p", DOUBLED, "--q", q] for q in (SPLIT, SPLIT_NUDGED)),
    ["profile-match", "--p", TINY_CONST, "--q", TINY_CONST],
] + [
    # the pole-weight witness; a slow branch with its pole at 0.1, whose
    # grid keeps clear of the kernel's 1e-12 pole proximity (equivalent);
    # and one compact branch against itself at kappa 400, whose mask covers
    # the default window, and at kappa 3e6, whose window ends find no
    # pole-free point
    ["profile-match", "--p", f"[{COMPACT_ROW}]", "--q", '[{"kappa":1,"theta":1,"mult":2}]'],
    ["profile-match", "--p", SLOW_BRANCH, "--q", SLOW_BRANCH, "--window=0,1"],
    *(["profile-match", "--p", f'[{{"kappa":{k},"theta":1,"mult":1}}]',
       "--q", f'[{{"kappa":{k},"theta":1,"mult":1}}]'] for k in ("400", "3e6")),
] + [
    ["cascade", "--system", f"[{row},{COMPACT_ROW}]", "--t", t]
    for row in ROWS.values() for t in ("0.1", "-0.4")
] + [
    # the complex step far out, next to the coth pole at -0.4024 and at an
    # overflowing power
    *(["cascade", "--system", CASCADE_SYSTEM, f"--t={t}"] for t in ("1e6", "-1e6", "1e12")),
    ["cascade", "--system", f"[{ROWS['coth-negative']}]", "--t=-0.4"],
    ["cascade", "--system", CASCADE_SYSTEM, "--t", "0.1", "--kmax", "4000"],
] + [
    # within 1e-12 of a pole in t: every t of a branch whose poles lie
    # 3e-13 apart, and 5e-13 past the pole at 1e-6 of a flat branch
    ["cascade", "--system", '[{"kappa":1e13,"theta":1,"mult":1}]', "--t", "0.1"],
    ["cascade", "--system", '[{"kappa":0,"theta":1e6,"mult":1,"regime":"flat"}]',
     "--t", "1.0000005e-06"],
    # kappa t overflows a float, so the compact branch has no value
    ["cascade", "--system", '[{"kappa":1e300,"theta":1,"mult":1}]', "--t", "1e10"],
] + [
    # clusters closer than 1e-6 but far above eigh's rounding: 2 alpha^2
    # beside 0 at small angles, and pairs cos(alpha) apart near pi/2
    ["jacobi-spectrum", "--space", "grassmannian", "--alpha", alpha, "--m", m]
    for alpha, m in (("0.0001", "2"), ("1.5707", "2"), ("1.5707963", "2"), ("0.001", "3"))
] + [
    # lambda(0) = 5 kappa at kappa = 1e-13: a coth branch, not a const one
    ["cascade", "--system", f'[{{"kappa":1e-13,"theta":5e-13,"mult":1,"regime":"{regime}"}}]',
     "--t", "0.1"]
    for regime in ("coth", "const")
] + [
    # no sampled plane (a null range), one plane, and the hyperbolic dual
    ["sectional-range", "--samples", "0"],
    ["sectional-range", "--samples", "1"],
    ["sectional-range", "--samples", "2000", "--sign", "-1"],
] + [
    # README examples that no workload runs
    ["profile-match", "--p", SYSTEM, "--q", SYSTEM, "--window=-1,2"],
    ["jacobi-spectrum", "--tol", "spectrum_residual=1e-12"],
] + [
    # a window whose width overflows a float, and wide finite windows
    ["profile-match", "--p", WIDE_P, "--q", WIDE_Q, f"--window={window}"]
    for window in ("-1e308,1e308", "0,1000", "0,1e6")
] + [
    [name, *BASE_ARGV[name], *option]
    for name in SUBCOMMANDS
    for option in (["--seed", "1"], ["--format", "csv"],
                   *(["--tol", f"{tol}=1"] for tol in TOLERANCES))
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
            except Exception as exc:  # a crash is this argv's result, not the run's end
                code = "exception"
                print(f"{type(exc).__name__}: {exc}", file=err)
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
    differing = 0
    for argv, a, b in zip(argvs, old, new):
        if a != b:
            differing += 1
            channels = [name for name, x, y in zip(CHANNELS, a, b) if x != y]
            print("differs:", json.dumps(argv), "in", ", ".join(channels))
    print(f"{len(argvs) - differing} of {len(argvs)} argv identical")
    for i, name in enumerate(CHANNELS):
        same = sum(a[i] == b[i] for a, b in zip(old, new))
        print(f"{name}: {same} of {len(argvs)} argv identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
