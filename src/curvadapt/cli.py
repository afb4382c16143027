"""Command-line front end.

One executable, ten subcommands, deterministic output: reports go to
stdout as JSON (sorted keys) unless a tabular format is requested,
diagnostics go to stderr.  Exit code 0 means success or an affirming
verdict, 2 means a mathematically meaningful negative verdict (distinct
or contradiction), 1 means a usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import reprlib
import sys
from functools import cache, partial

from .errors import CurvAdaptError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2

#: every named tolerance's default; a subcommand's --tol takes the names it
#: reads.  profile_grid, pole_merge and ratio are the kernels' own defaults
#: (isoparametric.DEFAULT_GRID_TOL and DEFAULT_MERGE_TOL,
#: tube_flow.DEFAULT_RATIO_TOL), written out so that building the parser
#: imports no kernel; a test keeps them equal
DEFAULT_TOLERANCES = {
    "spectrum_residual": 1e-9,
    "health": 1e-10,
    "profile_grid": 1e-9,
    "pole_merge": 1e-9,
    "cascade": 1e-6,
    "ratio": 1e-8,
}

#: theorem3 --constraint: the shape-constraint mode each name writes into the
#: payload; the certified floor mu1 - mu2 bounds all three from below
_CONSTRAINT_ALIASES = {
    "ajj": "a_jj_const",
    "azz": "a_zz_const",
    "ratio": "ratio_const",
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract wants 1
        raise _UsageError(message)


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _count(minimum: int, maximum: int | None = None):
    """argparse type: an integer no smaller than minimum and, when maximum
    is given, no larger than it."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        return value

    return parse


#: largest --m: the Grassmannian model's matrices are 4m x 4m, and the
#: cost of a run grows about as m^3
MAX_SLOTS = 64

#: largest --alpha-grid count: the grid is measured in one batch, which
#: holds a Jacobi matrix and a few vectors per angle at once
MAX_ANGLES = 4096

#: largest cascade --kmax: time, memory and output all grow linearly in it
MAX_KMAX = 4096

#: argparse type for --m: a slot count in [2, MAX_SLOTS]
_slots = _count(2, MAX_SLOTS)

#: largest sectional-range --samples: time grows linearly in it
MAX_SAMPLES = 10**6

#: largest grassmannian-check --triples: time grows linearly in it, and
#: about as m^2 per triple
MAX_TRIPLES = 10**4

#: rows per kernel call in sectional-range and grassmannian-check: the
#: kernels broadcast over a batch, and a fixed block bounds their memory
BLOCK_ROWS = 256


#: largest branch multiplicity: every integer up to 2**53 is exact as a float
MAX_MULT = 2**53


def _tolerance(names: tuple[str, ...], text: str) -> tuple[str, float]:
    """argparse type, with names bound, for --tol NAME=VALUE: a name among
    names and a finite positive value."""
    name, sep, value = text.partition("=")
    if not sep or name not in names:
        known = ", ".join(sorted(names))
        raise argparse.ArgumentTypeError(
            f"unknown tolerance override {text!r}; use name=value with "
            f"name among: {known}"
        )
    try:
        number = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"tolerance {name!r} needs a numeric value, got {value!r}")
    if not (math.isfinite(number) and number > 0.0):
        raise argparse.ArgumentTypeError(
            f"tolerance {name!r} must be finite and positive, got {value!r}")
    return name, number


def _endpoints(text: str, form: str) -> tuple[float, float, list[str]]:
    """The fields of text, shaped as form ("a:b:n" or "a,b"): the first
    two as finite floats, then the rest as they are."""
    sep = form[1]
    parts = text.split(sep)
    if len(parts) != form.count(sep) + 1:
        raise argparse.ArgumentTypeError(f"expects {form}, got {text!r}")
    return _finite_float(parts[0]), _finite_float(parts[1]), parts[2:]


def _alpha_grid(text: str) -> list[float]:
    """argparse type for --alpha-grid A:B:N: N evenly spaced angles from A
    to B, with N in [1, MAX_ANGLES]."""
    from .tube_flow import linspace

    a, b, (n,) = _endpoints(text, "a:b:n")
    return linspace(a, b, _count(1, MAX_ANGLES)(n))


def _window(text: str) -> tuple[float, float]:
    """argparse type for --window A,B: a comparison window with A < B."""
    a, b, _ = _endpoints(text, "a,b")
    if not a < b:
        raise argparse.ArgumentTypeError(f"needs a < b, got {text!r}")
    if not math.isfinite(b - a):  # the grid over it would lie at infinity
        raise argparse.ArgumentTypeError(f"width of {text!r} overflows a float")
    return (a, b)


def _system(label: str, text: str) -> PCSystem:
    """argparse type, with label bound, for a branch system: a nonempty JSON
    array of branch rows.  label names the system in profile witnesses."""
    from .tube_flow import CurvatureBranch, PCSystem

    def parse(idx: int, row) -> CurvatureBranch:
        """Branch idx of a system from its JSON row."""
        if not isinstance(row, dict):
            raise argparse.ArgumentTypeError(f"branch {idx} is not an object")
        try:
            kappa = float(row["kappa"])
            theta = float(row["theta"])
            mult = row["mult"]
            regime = row.get("regime", "compact")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise argparse.ArgumentTypeError(f"branch {idx} malformed: {exc}")
        if not (math.isfinite(kappa) and math.isfinite(theta)):
            raise argparse.ArgumentTypeError(f"branch {idx} needs finite kappa and theta")
        if type(mult) is not int or not 1 <= mult <= MAX_MULT:  # type(): a bool is no count
            raise argparse.ArgumentTypeError(f"branch {idx} needs an integer mult in "
                                             f"[1, 2**53], got {reprlib.repr(mult)}")
        if regime == "flat" and kappa != 0.0:
            raise argparse.ArgumentTypeError(
                f"branch {idx} is flat, so its kappa must be 0, got {kappa!r}")
        try:
            if regime == "compact":
                return CurvatureBranch.compact(kappa, theta, mult)
            if regime == "flat":
                return CurvatureBranch.flat(theta, mult)
            if regime not in ("coth", "tanh", "const"):
                raise argparse.ArgumentTypeError(f"branch {idx} has unknown regime {regime!r}")
            branch = CurvatureBranch.hyperbolic(kappa, theta, mult)
        except CurvAdaptError as exc:
            raise argparse.ArgumentTypeError(f"branch {idx}: {exc}")
        if branch.regime != regime:
            raise argparse.ArgumentTypeError(
                f"branch {idx} tagged {regime!r} but lambda(0)={theta!r} vs kappa={kappa!r} "
                f"implies {branch.regime!r}")
        return branch

    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    except (ValueError, RecursionError) as exc:  # an over-long integer, deep nesting
        raise argparse.ArgumentTypeError(f"invalid JSON: {exc}")
    if not isinstance(payload, list) or not payload:
        raise argparse.ArgumentTypeError("expected a nonempty JSON array of branches")
    return PCSystem(tuple(parse(idx, row) for idx, row in enumerate(payload)), label=label)


# --------------------------------------------------------------------------
# Subcommand handlers: each takes the parsed args, with args.tolerances
# holding the named tolerances its --tol takes, and returns (payload,
# table_spec_or_None, exit_code).
# A handler imports the package modules it calls, and numpy with them, in
# its own body, as do the argparse types that build branches or grids; so
# importing this module loads only errors, and each subcommand loads only
# what it runs.
# --------------------------------------------------------------------------


def _cmd_octonion_table(args):
    from . import octonion_table

    rows = octonion_table.multiplication_table()
    payload = {"dimension": octonion_table.DIM, "products": rows}
    table = (rows, ["i", "j", "sign", "k"])
    return payload, table, EXIT_OK


def _cmd_jacobi_spectrum(args):
    if args.space == "cayley":
        import numpy as np

        from . import cayley_plane

        rng = np.random.default_rng(args.seed)
        xi = cayley_plane.random_unit_pair(rng)
        op = cayley_plane.jacobi_operator(xi, sign=args.sign)
        context = {"space": "cayley", "sign": args.sign, "seed": args.seed}
    else:
        from . import grassmannian

        bundle = grassmannian.StructureBundle.standard(args.m)
        xi = grassmannian.unit_with_angle(args.alpha, bundle)
        op = grassmannian.jacobi_operator_g2(xi, bundle)
        context = {"space": "grassmannian", "alpha": args.alpha, "m": args.m}
    spec = op.spectrum()
    residual = op.max_eigen_residual(spec)
    clusters = [
        {"value": c.value, "multiplicity": c.multiplicity} for c in spec
    ]
    ok = residual <= args.tolerances["spectrum_residual"]
    payload = dict(context, clusters=clusters, max_residual=residual, residual_ok=ok)
    table = (clusters, ["value", "multiplicity"])
    return payload, table, EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_sectional_range(args):
    import numpy as np

    from . import cayley_plane

    rng = np.random.default_rng(args.seed)
    lo, hi = math.inf, -math.inf
    for start in range(0, args.samples, BLOCK_ROWS):
        rows = min(BLOCK_ROWS, args.samples - start)
        pairs = cayley_plane.random_unit_pair(rng, (rows, 2))
        x, y = pairs[:, 0], pairs[:, 1]
        # orthonormalize y against x; a near-parallel draw is skipped, not
        # resampled.  The inner product is summed slot by slot: one 16-term
        # dot rounds differently and would change the sampled curvatures.
        overlap = np.vecdot(x[:, :8], y[:, :8]) + np.vecdot(x[:, 8:], y[:, 8:])
        y = y - overlap[:, None] * x
        norm = np.sqrt(np.vecdot(y, y))
        keep = ~(norm < 1e-8)
        k = cayley_plane.sectional_curvature(
            x[keep], y[keep] / norm[keep, None], sign=args.sign
        )
        lo = min(lo, float(k.min(initial=math.inf)))
        hi = max(hi, float(k.max(initial=-math.inf)))
    # structured extremal planes: an octonion-line plane and a transverse one
    e = np.eye(cayley_plane.DIM)
    line_plane = cayley_plane.sectional_curvature(e[0], e[1], sign=args.sign)
    cross_plane = cayley_plane.sectional_curvature(e[0], e[8], sign=args.sign)
    sampled = lo <= hi  # False when no plane was kept
    payload = {
        "sign": args.sign,
        "samples": args.samples,
        "seed": args.seed,
        "min": lo if sampled else None,
        "max": hi if sampled else None,
        "structured_planes": {"line": line_plane, "transverse": cross_plane},
    }
    return payload, None, EXIT_OK


def _cmd_tube_table(args):
    from . import tube_flow

    system = tube_flow.tube_spectrum(args.ambient, args.core, args.radius)
    rows = [
        {
            "value": tube_flow.branch_value(b, 0.0),
            "multiplicity": b.multiplicity,
            "kappa": b.kappa,
            "regime": b.regime,
        }
        for b in system.branches
    ]
    payload = {
        "ambient": args.ambient,
        "core": args.core,
        "radius": args.radius,
        "branches": rows,
        "total_multiplicity": system.total_multiplicity,
    }
    table = (rows, ["value", "multiplicity", "kappa", "regime"])
    return payload, table, EXIT_OK


def _cmd_theorem2(args):
    from . import tube_flow

    cert = tube_flow.theorem2_certificate()
    payload = cert.to_json_dict()
    return payload, None, EXIT_OK if cert.positive else EXIT_NEGATIVE


def _cmd_theorem3(args):
    from . import tube_flow

    cert = tube_flow.theorem3_sweep(args.alpha_grid, ratio_tol=args.tolerances["ratio"])
    payload = cert.to_json_dict()
    payload["details"]["constraint"] = _CONSTRAINT_ALIASES[args.constraint]
    return payload, None, EXIT_OK if cert.positive else EXIT_NEGATIVE


def _cmd_profile_match(args):
    from . import isoparametric

    cert = isoparametric.profiles_equivalent(
        args.p, args.q, window=args.window,
        grid_tol=args.tolerances["profile_grid"], merge_tol=args.tolerances["pole_merge"],
    )
    payload = cert.to_json_dict()
    return payload, None, EXIT_OK if cert.positive else EXIT_NEGATIVE


def _cmd_cascade(args):
    from . import isoparametric

    residuals = isoparametric.power_sum_cascade(args.system, args.kmax, args.t)
    payload = {
        "t": args.t,
        "k_max": args.kmax,
        "residuals": residuals,
        "max_residual": max(residuals),
        "passed": max(residuals) <= args.tolerances["cascade"],
    }
    return payload, None, EXIT_OK if payload["passed"] else EXIT_NEGATIVE


def _cmd_grassmannian_check(args):
    import numpy as np

    from . import grassmannian

    bundle = grassmannian.StructureBundle.standard(args.m)
    (hopf,) = grassmannian.hopf_eigenvectors([args.alpha], bundle)  # rejects a boundary alpha
    rng = np.random.default_rng(args.seed)
    dim = bundle.dim
    health = 0.0
    verbatim_defect = 0.0
    for start in range(0, args.triples, BLOCK_ROWS):
        x, y, z, w = rng.standard_normal(
            (min(BLOCK_ROWS, args.triples - start), 4, dim)
        ).transpose(1, 0, 2)
        rxyz = grassmannian.curvature_g2(x, y, z, bundle)
        ryxz = grassmannian.curvature_g2(y, x, z, bundle)
        antisym = np.max(np.abs(rxyz + ryxz), axis=-1) / np.maximum(
            1.0, np.sqrt(np.vecdot(rxyz, rxyz))
        )
        pair_lhs = np.vecdot(rxyz, w)
        pair_rhs = np.vecdot(grassmannian.curvature_g2(z, w, x, bundle), y)
        pair = np.abs(pair_lhs - pair_rhs) / np.maximum(1.0, np.abs(pair_lhs))
        health = max(health, float(antisym.max()), float(pair.max()))
        v_lhs = np.vecdot(grassmannian.curvature_g2(x, y, z, bundle, verbatim=True), w)
        v_rhs = np.vecdot(grassmannian.curvature_g2(z, w, x, bundle, verbatim=True), y)
        verbatim = np.abs(v_lhs - v_rhs) / np.maximum(1.0, np.abs(v_lhs))
        verbatim_defect = max(verbatim_defect, float(verbatim.max()))
    passed = (
        health <= args.tolerances["health"]
        and verbatim_defect > args.tolerances["health"]
        and hopf.residual <= args.tolerances["spectrum_residual"]
        and hopf.ratio_defect <= args.tolerances["ratio"]
    )
    payload = {
        "m": args.m,
        "alpha": args.alpha,
        "seed": args.seed,
        "triples": args.triples,
        "bundle_defect": bundle.defect,
        "tensor_health": health,
        "verbatim_pair_defect": verbatim_defect,
        "hopf_residual": hopf.residual,
        "hopf_eigenvalues": [hopf.lambda1, hopf.lambda2],
        "ratio_defect": hopf.ratio_defect,
        "passed": passed,
    }
    return payload, None, EXIT_OK if passed else EXIT_NEGATIVE


def _selftest_checks(seed: int):
    import numpy as np

    from . import cayley_plane, isoparametric, octonion, octonion_table, tube_flow
    from .operators import SelfAdjointOperator, jacobi_matrices

    rng = np.random.default_rng(seed)
    checks = []

    def record(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    table = octonion_table.multiplication_table()
    record("octonion_basis_closure", len(table) == 64, f"{len(table)} products")

    a, b = rng.standard_normal((500, 2, 8)).transpose(1, 0, 2)
    lhs = octonion.norm(octonion.multiply(a, b))
    rhs = octonion.norm(a) * octonion.norm(b)
    worst = float(np.max(np.abs(lhs - rhs) / np.maximum(rhs, 1e-300)))
    record("octonion_norm_multiplicative", worst <= 1e-12, f"max defect {worst:.2e}")

    ok = True
    for k in jacobi_matrices(cayley_plane.curvature, cayley_plane.random_unit_pair(rng, (5,))):
        spec = SelfAdjointOperator(k).spectrum()
        pairs = sorted((round(c.value), c.multiplicity) for c in spec)
        ok = ok and pairs == [(0, 1), (1, 8), (4, 7)]
    record("cayley_spectrum_shape", ok, "clusters {0:1, 1:8, 4:7}")

    sums_ok = True
    for ambient, core in (("op2", "line"), ("op2", "hp2"), ("oh2", "hp2")):
        system = tube_flow.tube_spectrum(ambient, core, 0.3)
        sums_ok = sums_ok and system.total_multiplicity == 15
    record("tube_multiplicity_sum", sums_ok, "all columns sum to 15")

    worst = 0.0
    for _ in range(50):
        branch = tube_flow.CurvatureBranch.compact(
            float(1 + rng.integers(2)), float(rng.uniform(0.3, math.pi - 0.3)), 1
        )
        t = float(rng.uniform(-0.05, 0.05))
        h = 1e-5
        fd = (tube_flow.evolve(branch, t + h) - tube_flow.evolve(branch, t - h)) / (2 * h)
        lam = tube_flow.evolve(branch, t)
        worst = max(worst, abs(fd - (lam**2 + branch.kappa**2)))
    record("riccati_flow_defect", worst <= 1e-6, f"max FD defect {worst:.2e}")

    cert = tube_flow.theorem2_certificate()
    record(
        "focal_configuration_search",
        cert.positive and sorted(cert.details["families"]) == ["hp2", "sphere"],
        f"families {cert.details['families']}",
    )

    one, two = isoparametric.doubling_identity_pair()
    cert = isoparametric.profiles_equivalent(one, two)
    record(
        "doubling_identity_documented",
        cert.positive and not cert.details["multiset_match"],
        "profile equal, multisets differ",
    )

    ok = True
    for _ in range(10):
        vals = sorted(rng.uniform(-2, 2, size=int(rng.integers(1, 7))))
        sums = [sum(v**k for v in vals) for k in range(1, len(vals) + 1)]
        rec = isoparametric.newton_recover(sums)
        ok = ok and max(abs(a - b) for a, b in zip(rec, vals)) < 1e-7
    record("newton_round_trip", ok, "multisets recovered")

    return checks


def _cmd_selftest(args):
    checks = _selftest_checks(args.seed)
    all_passed = all(c["passed"] for c in checks)
    payload = {"seed": args.seed, "checks": checks, "all_passed": all_passed}
    return payload, None, EXIT_OK if all_passed else EXIT_NEGATIVE


# --------------------------------------------------------------------------
# Parser assembly and entry point
# --------------------------------------------------------------------------


def _tol(*names: str) -> dict:
    """--tol over names: their (name, default) pairs, then each NAME=VALUE."""
    return {"--tol": dict(type=partial(_tolerance, names), action="append", metavar="NAME=VALUE",
                          default=[(name, DEFAULT_TOLERANCES[name]) for name in names],
                          help="override one of " + ", ".join(sorted(names)))}


_SEED = {"--seed": dict(type=_count(0), default=0)}
_FORMAT = {"--format": dict(choices=("json", "csv", "md"), default="json")}  # a table payload

#: subcommand -> (help, options), each with only the options its handler
#: reads; the handler of each is _cmd_<name, "-" read as "_">
_SUBCOMMANDS = {
    "octonion-table": ("all 64 basis products", _FORMAT),
    "jacobi-spectrum": ("normal Jacobi operator spectrum", {
        **_SEED, **_FORMAT, **_tol("spectrum_residual"),
        "--space": dict(choices=("cayley", "grassmannian"), default="cayley"),
        "--sign": dict(type=int, choices=(1, -1), default=1),
        "--alpha": dict(type=_finite_float, default=0.7),
        "--m": dict(type=_slots, default=2),
    }),
    "sectional-range": ("sampled sectional curvature range", {
        **_SEED,
        "--samples": dict(type=_count(0, MAX_SAMPLES), default=2000),
        "--sign": dict(type=int, choices=(1, -1), default=1),
    }),
    "tube-table": ("principal curvatures of a tube", {
        **_FORMAT,
        # tube_flow.AMBIENTS and CORES, written out as DEFAULT_TOLERANCES is
        "--ambient": dict(choices=("op2", "oh2"), required=True),
        "--core": dict(choices=("point", "line", "hp2", "horosphere"), required=True),
        "--radius": dict(type=_finite_float, default=None),
    }),
    "theorem2": ("finite search over focal configurations", {}),
    "theorem3": ("proportional-eigenvalue non-existence sweep", {
        **_tol("ratio"),
        "--alpha-grid": dict(type=_alpha_grid, required=True, metavar="A:B:N"),
        "--constraint": dict(choices=sorted(_CONSTRAINT_ALIASES), default="ajj"),
    }),
    "profile-match": ("compare two mean-curvature profiles", {
        **_tol("profile_grid", "pole_merge"),
        "--p": dict(type=partial(_system, "p"), required=True, metavar="JSON"),
        "--q": dict(type=partial(_system, "q"), required=True, metavar="JSON"),
        "--window": dict(type=_window, default=None, metavar="A,B",
                         help="comparison window; write --window=A,B when A is negative"),
    }),
    "cascade": ("power-sum derivative identities", {
        **_tol("cascade"),
        "--system": dict(type=partial(_system, "p"), required=True, metavar="JSON"),
        "--kmax": dict(type=_count(1, MAX_KMAX), default=5),
        "--t": dict(type=_finite_float, required=True,
                    help="flow parameter; write --t=T when T is negative in exponent form"),
    }),
    "grassmannian-check": ("structure bundle and tensor health", {
        **_SEED, **_tol("health", "spectrum_residual", "ratio"),
        "--m": dict(type=_slots, default=2),
        "--alpha": dict(type=_finite_float, default=0.7),
        "--triples": dict(type=_count(1, MAX_TRIPLES), default=50),
    }),
    "selftest": ("run the invariant suite", _SEED),
}


@cache
def _build_parser(subcommand: str | None) -> _Parser:
    """The parser for a call whose argv starts with subcommand: only that
    subparser, so a call pays for one; all ten for None, so that
    help and usage errors list every subcommand.  A parser is built once
    per subcommand per process and holds nothing from one call to the
    next: the handler is read in main."""
    parser = _Parser(prog="curvadapt", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    for name in _SUBCOMMANDS if subcommand is None else (subcommand,):
        help_text, options = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
    return parser


def _emit(payload, table, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
        return
    rows, columns = table
    if fmt == "csv":
        out.write(",".join(columns) + "\n")
        for row in rows:
            out.write(",".join(_cell(row[c]) for c in columns) + "\n")
        return
    out.write("| " + " | ".join(columns) + " |\n")
    out.write("|" + "|".join(" --- " for _ in columns) + "|\n")
    for row in rows:
        out.write("| " + " | ".join(_cell(row[c]) for c in columns) + " |\n")


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)
    try:
        args = parser.parse_args(argv)
        args.tolerances = dict(getattr(args, "tol", ()))
        # looked up per call, not when the parser is built once per
        # subcommand per process, so a replaced handler is the one called
        handler = globals()["_cmd_" + args.subcommand.replace("-", "_")]
        payload, table, code = handler(args)
    except (_UsageError, CurvAdaptError) as exc:
        print(f"curvadapt: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:  # a subcommand without --format prints JSON
        _emit(payload, table, getattr(args, "format", "json"), sys.stdout)
    except ValueError as exc:  # a non-finite number reached the JSON output
        print(f"curvadapt: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
