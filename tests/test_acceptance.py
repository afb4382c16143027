"""Acceptance gate: one test per criterion, one printed verdict line each.

Each test measures its own wall time, checks the stated tolerances, and
prints `[criterion N] name: PASS/FAIL (detail)` through the capture
bypass so the line is visible in any pytest invocation.
"""

import itertools
import math
import time

import numpy as np

from curvadapt import cayley_plane as cp
from curvadapt import grassmannian as gr
from curvadapt import isoparametric as iso
from curvadapt import octonion as oc
from curvadapt import octonion_table
from curvadapt import tube_flow as tf
from curvadapt.errors import FocalPointError
from helpers import associator, model_tube_table, seeded_normals, translated, values_at

RADII = (math.pi / 12, math.pi / 8, math.pi / 6)


def report(capsys, number, name, ok, detail):
    line = f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_octonion_suite(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    for _ in range(10_000):
        a = rng.standard_normal(8)
        b = rng.standard_normal(8)
        lhs = oc.norm(oc.multiply(a, b))
        rhs = oc.norm(a) * oc.norm(b)
        worst_rel = max(worst_rel, abs(lhs - rhs) / rhs)

    closed = all(
        row["sign"] in (1, -1) and 0 <= row["k"] < 8
        for row in octonion_table.multiplication_table()
    ) and len(octonion_table.multiplication_table()) == 64

    basis = np.eye(8)
    exact = True
    for i, j in itertools.product(range(8), repeat=2):
        a, b = basis[i], basis[j]
        exact = exact and not np.any(associator(a, a, b))
        exact = exact and not np.any(associator(b, a, a))
        exact = exact and not np.any(associator(a, oc.conjugate(a), b))
    for i, j, k in itertools.combinations(range(8), 3):
        a = basis[i] + basis[j]
        b = basis[k] - basis[i]
        exact = exact and not np.any(associator(a, a, b))
        exact = exact and not np.any(associator(a, oc.conjugate(a), b))

    elapsed = time.monotonic() - start
    ok = worst_rel <= 1e-12 and closed and exact and elapsed < 1.0
    report(capsys, 1, "octonion suite", ok,
           f"norm defect {worst_rel:.2e}, closure {closed}, "
           f"exact identities {exact}, {elapsed:.2f}s")


def test_criterion_2_cayley_spectrum(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(77)
    shape_ok = True
    worst_residual = 0.0
    for sign in (1, -1):
        for _ in range(100):
            xi = cp.random_unit_pair(rng)
            op = cp.jacobi_operator(xi, sign=sign)
            spec = op.spectrum()
            got = {round(c.value): c.multiplicity for c in spec}
            shape_ok = shape_ok and got == {4 * sign: 7, 1 * sign: 8, 0: 1}
            shape_ok = shape_ok and all(
                abs(c.value - round(c.value)) <= 1e-9 for c in spec
            )
            worst_residual = max(worst_residual, op.max_eigen_residual(spec))
    elapsed = time.monotonic() - start
    ok = shape_ok and worst_residual <= 1e-9 and elapsed < 5.0
    report(capsys, 2, "cayley-plane spectrum", ok,
           f"200 directions, shape {shape_ok}, residual {worst_residual:.2e}, "
           f"{elapsed:.2f}s")


def test_criterion_3_tensor_health(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(88)
    bundle = gr.StructureBundle.standard()

    worst = 0.0
    for evaluate, dim in ((cp.curvature, 16),
                          (lambda x, y, z: gr.curvature_g2(x, y, z, bundle), 8)):
        for _ in range(1000):
            x, y, z, w = [v / np.linalg.norm(v)
                          for v in rng.standard_normal((4, dim))]
            rxyz = evaluate(x, y, z)
            worst = max(worst, float(np.max(np.abs(rxyz + evaluate(y, x, z)))))
            worst = max(worst, abs(float(rxyz @ w) - float(evaluate(z, w, x) @ y)))
            bianchi = rxyz + evaluate(y, z, x) + evaluate(z, x, y)
            worst = max(worst, float(np.max(np.abs(bianchi))))

    verbatim_defect = 0.0
    for _ in range(100):
        x, y, z, w = [v / np.linalg.norm(v) for v in rng.standard_normal((4, 8))]
        lhs = float(gr.curvature_g2(x, y, z, bundle, verbatim=True) @ w)
        rhs = float(gr.curvature_g2(z, w, x, bundle, verbatim=True) @ y)
        verbatim_defect = max(verbatim_defect, abs(lhs - rhs))

    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and verbatim_defect > 1e-3 and elapsed < 5.0
    report(capsys, 3, "curvature-tensor health", ok,
           f"identity defect {worst:.2e}, verbatim control {verbatim_defect:.2e}, "
           f"{elapsed:.2f}s")


def test_criterion_4_tube_tables_vs_model(capsys):
    # each table against the one the Cayley-plane model gives at 5 seeded
    # unit normals of its core (model_tube_table, which never reads tube_flow)
    start = time.monotonic()
    rng = np.random.default_rng(4)
    cases = [(ambient, core, radius)
             for ambient in ("op2", "oh2")
             for core in ("point", "line", "hp2")
             for radius in RADII] + [("oh2", "horosphere", None)]
    worst = 0.0
    rows_ok = True
    for ambient, core, radius in cases:
        got = sorted(values_at(tf.tube_spectrum(ambient, core, radius), 0.0))
        rows_ok = rows_ok and sum(m for _, m in got) == 15
        for xi in seeded_normals(rng, core, 5):
            expected = model_tube_table(ambient, core, radius, xi)
            rows_ok = rows_ok and len(got) == len(expected)
            for (gv, gm), (ev, em) in zip(got, expected):
                worst = max(worst, abs(gv - ev))
                rows_ok = rows_ok and gm == em
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and rows_ok and elapsed < 1.0
    report(capsys, 4, "tube tables vs model", ok,
           f"{len(cases)} tables x 5 normals, max defect {worst:.2e}, "
           f"rows {rows_ok}, {elapsed:.2f}s")


def test_criterion_5_riccati_consistency(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(301)
    h = 1e-5
    worst_fd = 0.0
    checked = 0
    while checked < 1000:
        kappa = float(rng.choice([1.0, 2.0]))
        kind = int(rng.integers(0, 5))
        if kind == 0:
            branch = tf.CurvatureBranch.compact(
                kappa, float(rng.uniform(0.15, math.pi - 0.15)))
        elif kind == 1:
            branch = tf.CurvatureBranch.flat(float(rng.uniform(-3.0, 3.0)))
        elif kind == 2:
            branch = tf.CurvatureBranch.hyperbolic(
                kappa, float(rng.uniform(1.1, 4.0)) * kappa * float(rng.choice([-1, 1])))
        elif kind == 3:
            branch = tf.CurvatureBranch.hyperbolic(
                kappa, float(rng.uniform(-0.9, 0.9)) * kappa)
        else:
            branch = tf.CurvatureBranch.hyperbolic(kappa, kappa * float(rng.choice([-1, 1])))
        lo, hi = branch.regularity_interval()
        lo, hi = max(lo, -2.0) + 0.1, min(hi, 2.0) - 0.1
        if hi <= lo:
            continue
        t = float(rng.uniform(lo, hi))
        lam_m, lam_0, lam_p = (tf.evolve(branch, t + dt) for dt in (-h, 0.0, h))
        if max(abs(lam_m), abs(lam_p)) > 8.0:
            continue
        fd = (lam_p - lam_m) / (2.0 * h)
        rhs = lam_0**2 + branch.space_sign * branch.kappa**2
        worst_fd = max(worst_fd, abs(fd - rhs))
        checked += 1

    worst_semi = 0.0
    checked = 0
    while checked < 300:
        theta = float(rng.uniform(0.3, math.pi - 0.3))
        kappa = float(rng.choice([1.0, 2.0]))
        branch = tf.CurvatureBranch.compact(kappa, theta)
        lo, hi = branch.regularity_interval()
        s = float(rng.uniform(lo + 0.15, hi - 0.15))
        shifted = translated(branch, s)
        lo2, hi2 = shifted.regularity_interval()
        lo2, hi2 = max(lo2, s - hi) + 0.15, min(hi2, hi - s) - 0.15
        if hi2 <= lo2:
            continue
        t = float(rng.uniform(lo2, hi2))
        worst_semi = max(
            worst_semi, abs(tf.evolve(branch, s + t) - tf.evolve(shifted, t))
        )
        checked += 1

    elapsed = time.monotonic() - start
    ok = worst_fd <= 1e-6 and worst_semi <= 1e-10 and elapsed < 1.0
    report(capsys, 5, "riccati consistency", ok,
           f"FD defect {worst_fd:.2e}, semigroup defect {worst_semi:.2e}, "
           f"{elapsed:.2f}s")


def test_criterion_6_profile_comparators(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(2025)
    disagreements = 0
    mismatches = 0
    for _ in range(1000):
        p, q, expected_equal = iso.random_profile_pair(rng)
        stripping = iso.profiles_equivalent(p, q).verdict == "equivalent"
        multiset = iso.multisets_match(p, q)
        if stripping != expected_equal:
            disagreements += 1
        if stripping != multiset:
            mismatches += 1
    elapsed = time.monotonic() - start
    ok = disagreements == 0 and mismatches == 0 and elapsed < 10.0
    report(capsys, 6, "profile comparators", ok,
           f"1000 pairs, {disagreements} comparator disagreements, "
           f"{mismatches} stripping/multiset mismatches, {elapsed:.2f}s")


def test_criterion_7_focal_enumeration(capsys):
    start = time.monotonic()
    survivors = tf.admissible_focal_configurations()
    families = set()
    for cfg in survivors:
        names = set(cfg.matched_cores().values())
        if names <= {"point", "line"}:
            families.add("sphere")
        elif names == {"hp2"}:
            families.add("hp2")
        else:
            families.add("other")
    evolution_ok = all(
        check["interior_poles"] == 0
        and check["q1_focal_mult_ok"]
        and check["q2_focal_mult_ok"]
        and check["mean_curvature_finite"]
        for check in map(tf.verify_configuration_by_evolution, survivors)
    )
    elapsed = time.monotonic() - start
    ok = (len(survivors) == 4 and families == {"sphere", "hp2"}
          and evolution_ok and elapsed < 5.0)
    report(capsys, 7, "focal-configuration search", ok,
           f"{len(survivors)} survivors, families {sorted(families)}, "
           f"evolution {evolution_ok}, {elapsed:.2f}s")


def test_criterion_8_proportional_sweep(capsys):
    start = time.monotonic()
    cert = tf.theorem3_sweep(np.linspace(0.25, 1.30, 24), ratio_tol=1e-8)
    rows = cert.details["alphas"]
    ratio_ok = len(rows) == 24 and all(row["ratio_defect"] <= 1e-8 for row in rows)
    elapsed = time.monotonic() - start
    ok = cert.residual >= 1e-3 and ratio_ok and elapsed < 30.0
    report(capsys, 8, "proportional-eigenvalue sweep", ok,
           f"floor {cert.residual:.2f}, ratio ok {ratio_ok}, {elapsed:.2f}s")


def test_criterion_9_newton_cascade(capsys):
    start = time.monotonic()
    rng = np.random.default_rng(46)
    worst_roundtrip = 0.0
    for n in range(1, 9):
        for _ in range(40):
            values = np.sort(rng.uniform(-3.0, 3.0, size=n))
            sums = [float(np.sum(values**k)) for k in range(1, n + 1)]
            recovered = iso.newton_recover(sums)
            worst_roundtrip = max(
                worst_roundtrip, float(np.max(np.abs(np.array(recovered) - values)))
            )

    worst_cascade = 0.0
    evaluated = 0
    while evaluated < 100:
        sys_ = iso.random_profile_system(rng)
        t = float(rng.uniform(*iso.default_window(sys_)))
        try:
            worst_cascade = max(worst_cascade, max(iso.power_sum_cascade(sys_, 5, t)))
        except FocalPointError:
            continue
        evaluated += 1

    elapsed = time.monotonic() - start
    ok = worst_roundtrip <= 1e-8 and worst_cascade <= 1e-6 and elapsed < 5.0
    report(capsys, 9, "newton recovery and cascade", ok,
           f"round-trip {worst_roundtrip:.2e}, cascade {worst_cascade:.2e}, "
           f"{elapsed:.2f}s")
