"""The invocations each workload runs, with the answer each must give.

An invocation is ``(kind, argv, expect)``: ``kind`` groups invocations for
per-kind reporting, ``argv`` is what ``curvadapt`` receives, and
``expect`` holds the exit code and the payload facts the checker compares
against (see ``checks.py``).  Every expected answer here comes from the
geometry, not from running the code under test:

- the Cayley plane's sectional curvature is pinched in [1, 4] (sign -1
  mirrors it), with 4 on an octonion-line plane and 1 on a transverse one;
- its normal Jacobi operator has the three eigenvalues 0, 1, 4;
- every tube in the 16-dimensional planes has 15 principal curvatures;
- the theorem-2 survivors form exactly the families {hp2, sphere}, and the
  theorem-3 sweep certifies non-existence at every generic angle;
- profile pairs are equal or distinct by construction (below).

The query generator uses only ``random.Random(seed)`` and ``math``; it does
not call the package's own random-system helpers, so a defect in those
cannot hide a defect in the code they would be testing.

Left out on purpose: profile-match inputs with extreme frequency ratios
(a branch with kappa = 1e-9 beside kappa = 1).  At this commit such a
call walks about 1e9 poles and hangs; a hung call would stall a timed run,
and that defect belongs to its own regression test, not to a benchmark.
Here every kappa lies in [0.5, 2], a ratio of at most 4.
"""

from __future__ import annotations

import json
import math
import random

ALPHA_GRID = "0.25:1.30:24"


def _expect(exit_code: int, *facts) -> dict:
    """Expected exit code plus (dotted path, op, value) payload facts."""
    return {"exit": exit_code, "facts": list(facts)}


# --------------------------------------------------------------------------
# cli-cold: the README examples that run no search
# --------------------------------------------------------------------------

_README_P = '[{"kappa":1,"theta":0.9,"mult":2}]'
_README_SYSTEM = '[{"kappa":2,"theta":1.2,"mult":3}]'


def cli_cold() -> list:
    """The nine search-free README invocations, in README order.

    Each costs about one interpreter start plus the package import, so this
    workload measures start-up; the seed does not change it.
    """
    return [
        ("octonion-table", ["octonion-table"],
         _expect(0, ("dimension", "eq", 8), ("products", "len", 64))),
        ("jacobi-spectrum", ["jacobi-spectrum", "--seed", "3"],
         _expect(0, ("residual_ok", "eq", True), ("clusters", "len", 3))),
        ("jacobi-spectrum", ["jacobi-spectrum", "--space", "grassmannian", "--alpha", "0.7"],
         _expect(0, ("residual_ok", "eq", True))),
        ("sectional-range", ["sectional-range", "--samples", "2000"],
         _expect(0, *_pinching(1))),
        ("tube-table", ["tube-table", "--ambient", "op2", "--core", "line", "--radius", "0.3927"],
         _expect(0, ("total_multiplicity", "eq", 15))),
        ("tube-table", ["tube-table", "--ambient", "oh2", "--core", "horosphere"],
         _expect(0, ("total_multiplicity", "eq", 15), ("branches", "len", 2))),
        ("profile-match", ["profile-match", "--p", _README_P, "--q", _README_P],
         _expect(0, ("verdict", "eq", "equivalent"))),
        ("cascade", ["cascade", "--system", _README_SYSTEM, "--t", "0.1"],
         _expect(0, ("passed", "eq", True))),
        ("grassmannian-check", ["grassmannian-check", "--triples", "200"],
         _expect(0, ("passed", "eq", True))),
    ]


# --------------------------------------------------------------------------
# verdicts: the searches behind the three theorem-level certificates
# --------------------------------------------------------------------------


def verdicts() -> list:
    """theorem2 with validation, theorem3 in each constraint mode, selftest.

    Almost all of this time is the focal-configuration search and the
    per-angle proportional sweep; the seed does not change it.
    """
    out = [("theorem2", ["theorem2"],
            _expect(0, ("verdict", "eq", "equivalent"),
                    ("details.families", "eq", ["hp2", "sphere"])))]
    for mode in ("ajj", "azz", "ratio"):
        out.append((f"theorem3-{mode}",
                    ["theorem3", "--alpha-grid", ALPHA_GRID, "--constraint", mode],
                    _expect(2, ("verdict", "eq", "contradiction"))))
    out.append(("selftest", ["selftest"], _expect(0, ("all_passed", "eq", True))))
    return out


# --------------------------------------------------------------------------
# queries: a seeded stream of light subcommands
# --------------------------------------------------------------------------

#: invocations of each kind per pass.  Every call pays about 2 ms of
#: argument parsing and output, so the counts and the sizes below are set
#: for the package's kernels, not that fixed cost, to take most of a pass,
#: and no kind more than about a third of it at this commit (NOTES.md).
#: The counts are multiples of the ladders' periods below.
QUERY_COUNTS = {
    "jacobi-cayley": 16,
    "jacobi-grassmannian": 16,
    "sectional-range": 5,
    "grassmannian-check": 8,
    "tube-table": 14,
    "profile-match": 72,
    "cascade": 12,
}

#: sizes cycle through fixed ladders, so that the seed changes the inputs
#: but not the amount of work in a pass
_SECTIONAL_SAMPLES = (300, 400, 500, 600, 700)
_TRIPLES = (60, 90, 120, 150)


def _pinching(sign: int) -> list:
    lo, hi = (1.0, 4.0) if sign == 1 else (-4.0, -1.0)
    return [
        ("min", "ge", lo - 1e-9),
        ("max", "le", hi + 1e-9),
        ("structured_planes.line", "near", 4.0 * sign),
        ("structured_planes.transverse", "near", 1.0 * sign),
    ]


def _branch_rows(rng: random.Random, count: int) -> list:
    # phases clear of the pole lattice at t = 0, kappa ratio at most 4
    return [
        {"kappa": rng.uniform(0.5, 2.0), "theta": rng.uniform(0.08, math.pi - 0.08),
         "mult": rng.randint(1, 4)}
        for _ in range(count)
    ]


def _profile_pair(rng: random.Random, branches: int, equal: bool):
    """(p, q) with equal or distinct profiles by construction.

    Equal pairs permute the branches and shift some phases by the cot
    period pi, so both profiles have the same poles and the comparison
    reaches the 256-point smooth-part grid.  Distinct pairs nudge one
    phase by 1e-2..5e-2 (moving that branch's poles by at least 5e-3) or
    draw q independently, so the comparison exits while stripping poles.
    """
    p = _branch_rows(rng, branches)
    if equal:
        q = [dict(row) for row in p]
        if rng.random() < 0.5:
            for row in q:
                if rng.random() < 0.5:
                    row["theta"] += math.pi
        rng.shuffle(q)
    elif rng.random() < 0.5:
        q = [dict(row) for row in p]
        row = q[rng.randrange(branches)]
        nudge = rng.uniform(1e-2, 5e-2)
        row["theta"] += nudge if row["theta"] < math.pi / 2 else -nudge
    else:
        q = _branch_rows(rng, rng.randint(1, 6))
    return p, q


def _cascade_time(rows: list, rng: random.Random):
    """A t at which every branch value kappa*cot(theta - kappa*t) is at
    most 2 in magnitude, or None.  Finite-difference checks of high power
    sums lose accuracy near poles, so the cascade is evaluated away from
    them."""
    offset = rng.uniform(0.0, 1.0)
    for i in range(2000):
        t = round(-math.pi + 2 * math.pi * (i + offset) / 2000, 6)
        values = [r["kappa"] / math.tan(r["theta"] - r["kappa"] * t) for r in rows]
        if max(abs(v) for v in values) <= 2.0:
            return t
    return None


def queries(seed: int) -> list:
    """One pass of light subcommands, generated from ``seed``, shuffled.

    The kinds drive the kernels that the searches barely touch: the
    octonion product, the Jacobi operator builds, the spectrum, the
    Grassmannian tensor, the scalar closed-form branch evaluations and
    the profile comparator.
    """
    rng = random.Random(seed)
    out = []

    def seed_arg():
        return str(rng.randrange(2**31))

    # Cayley Jacobi operator: 160 octonion products, one 16x16 eigh
    for i in range(QUERY_COUNTS["jacobi-cayley"]):
        sign = 1 if i % 2 == 0 else -1
        out.append(("jacobi-cayley",
                    ["jacobi-spectrum", "--seed", seed_arg(), "--sign", str(sign)],
                    _expect(0, ("residual_ok", "eq", True), ("clusters", "len", 3))))
    # Grassmannian Jacobi operator: the 8- or 12-dim tensor, then eigh
    for i in range(QUERY_COUNTS["jacobi-grassmannian"]):
        sign = 1 if i % 2 == 0 else -1
        out.append(("jacobi-grassmannian",
                    ["jacobi-spectrum", "--space", "grassmannian",
                     "--alpha", repr(round(rng.uniform(0.05, 1.52), 6)),
                     "--m", str(2 + i // 2 % 2), "--sign", str(sign)],
                    _expect(0, ("residual_ok", "eq", True))))
    # sectional curvature: ten octonion products per sampled plane
    for i in range(QUERY_COUNTS["sectional-range"]):
        sign = 1 if i % 2 == 0 else -1
        samples = _SECTIONAL_SAMPLES[i % len(_SECTIONAL_SAMPLES)]
        out.append(("sectional-range",
                    ["sectional-range", "--samples", str(samples), "--sign", str(sign),
                     "--seed", seed_arg()],
                    _expect(0, *_pinching(sign))))
    # Grassmannian tensor health on random triples, plus the Hopf pair
    for i in range(QUERY_COUNTS["grassmannian-check"]):
        out.append(("grassmannian-check",
                    ["grassmannian-check", "--triples", str(_TRIPLES[i % len(_TRIPLES)]),
                     "--alpha", repr(round(rng.uniform(0.1, 1.45), 6)),
                     "--m", str(2 + i % 2), "--seed", seed_arg()],
                    _expect(0, ("passed", "eq", True))))
    # tube tables: scalar closed-form branch values, radii inside the
    # focal limit in op2 (pi/4 for an hp2 core, pi/2 otherwise); oh2
    # tubes never focalize, and radii there stay below 2
    tubes = [("op2", core) for core in ("point", "line", "hp2")]
    tubes += [("oh2", core) for core in ("point", "line", "hp2", "horosphere")]
    for i in range(QUERY_COUNTS["tube-table"]):
        ambient, core = tubes[i % len(tubes)]
        argv = ["tube-table", "--ambient", ambient, "--core", core]
        if core != "horosphere":
            limit = (math.pi / 4 if core == "hp2" else math.pi / 2) if ambient == "op2" else 2.0
            argv += ["--radius", repr(round(rng.uniform(0.05, 0.95 * limit), 6))]
        out.append(("tube-table", argv, _expect(0, ("total_multiplicity", "eq", 15))))
    # profile comparison: half equal (reach the grid), half distinct
    for i in range(QUERY_COUNTS["profile-match"]):
        equal = i % 2 == 0
        p, q = _profile_pair(rng, 1 + i // 2 % 6, equal)
        out.append(("profile-match",
                    ["profile-match", "--p", json.dumps(p), "--q", json.dumps(q)],
                    _expect(0 if equal else 2,
                            ("verdict", "eq", "equivalent" if equal else "distinct"))))
    # power-sum cascade at a well-conditioned t
    made = 0
    while made < QUERY_COUNTS["cascade"]:
        rows = _branch_rows(rng, 1 + made % 4)
        t = _cascade_time(rows, rng)
        if t is None:
            continue
        out.append(("cascade",
                    ["cascade", "--system", json.dumps(rows), "--t", repr(t),
                     "--kmax", str(3 + made % 3)],
                    _expect(0, ("passed", "eq", True))))
        made += 1
    rng.shuffle(out)
    return out


WORKLOADS = {
    "cli-cold": lambda seed: cli_cold(),
    "verdicts": lambda seed: verdicts(),
    "queries": queries,
}
