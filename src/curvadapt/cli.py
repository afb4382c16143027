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
import os
import reprlib
import sys

from . import isoparametric, octonion_table, tube_flow
from .errors import CurvAdaptError, FocalPointError
from .tube_flow import CurvatureBranch, PCSystem

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2

DEFAULT_SEED = 0
FORMAT_ENV = "CURVADAPT_FORMAT"

#: tolerance names accepted by --tol overrides
DEFAULT_TOLERANCES = {
    "spectrum_residual": 1e-9,
    "health": 1e-10,
    "profile_grid": 1e-9,
    "pole_merge": 1e-9,
    "cascade": 1e-6,
    "ratio": 1e-8,
}

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


def _parse_tolerances(pairs) -> dict:
    """DEFAULT_TOLERANCES with the --tol NAME=VALUE overrides applied."""
    out = dict(DEFAULT_TOLERANCES)
    for item in pairs or []:
        name, sep, value = item.partition("=")
        if not sep or name not in DEFAULT_TOLERANCES:
            known = ", ".join(sorted(DEFAULT_TOLERANCES))
            raise _UsageError(
                f"unknown tolerance override {item!r}; use name=value with "
                f"name among: {known}"
            )
        try:
            out[name] = float(value)
        except ValueError:
            raise _UsageError(f"tolerance {name!r} needs a numeric value, got {value!r}")
        if not (math.isfinite(out[name]) and out[name] > 0.0):
            raise _UsageError(f"tolerance {name!r} must be finite and positive, got {value!r}")
    return out


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


def _load_json_arg(text: str, flag: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _UsageError(
            f"{flag}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        )
    except (ValueError, RecursionError) as exc:  # an over-long integer, deep nesting
        raise _UsageError(f"{flag}: invalid JSON: {exc}")


def _parse_system_json(payload, flag: str, label: str) -> PCSystem:
    if not isinstance(payload, list) or not payload:
        raise _UsageError(f"{flag}: expected a nonempty JSON array of branches")
    branches = []
    for idx, row in enumerate(payload):
        if not isinstance(row, dict):
            raise _UsageError(f"{flag}: branch {idx} is not an object")
        try:
            kappa = float(row["kappa"])
            theta = float(row["theta"])
            mult = row["mult"]
            regime = row.get("regime", "compact")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise _UsageError(f"{flag}: branch {idx} malformed: {exc}")
        if not (math.isfinite(kappa) and math.isfinite(theta)):
            raise _UsageError(f"{flag}: branch {idx} needs finite kappa and theta")
        if type(mult) is not int or not 1 <= mult <= MAX_MULT:  # type(): a bool is no count
            raise _UsageError(f"{flag}: branch {idx} needs an integer mult in "
                              f"[1, 2**53], got {reprlib.repr(mult)}")
        try:
            if regime == "compact":
                branch = CurvatureBranch.compact(kappa, theta, mult)
            elif regime == "flat":
                branch = CurvatureBranch.flat(theta, mult)
            elif regime in ("coth", "tanh", "const"):
                branch = CurvatureBranch.hyperbolic(kappa, theta, mult)
                if branch.regime != regime:
                    raise _UsageError(
                        f"{flag}: branch {idx} tagged {regime!r} but "
                        f"lambda(0)={theta!r} vs kappa={kappa!r} implies "
                        f"{branch.regime!r}"
                    )
            else:
                raise _UsageError(f"{flag}: branch {idx} has unknown regime {regime!r}")
        except CurvAdaptError as exc:
            raise _UsageError(f"{flag}: branch {idx}: {exc}")
        branches.append(branch)
    return PCSystem(tuple(branches), label=label)


def _parse_alpha_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"--alpha-grid expects a:b:n, got {text!r}")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise _UsageError(f"--alpha-grid expects numeric a:b:n, got {text!r}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise _UsageError(f"--alpha-grid endpoints must be finite, got {text!r}")
    if not 1 <= n <= MAX_ANGLES:
        raise _UsageError(f"--alpha-grid needs 1 <= n <= {MAX_ANGLES}, got {n}")
    return tube_flow.linspace(a, b, n)


def _parse_window(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise _UsageError(f"--window expects a,b, got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError:
        raise _UsageError(f"--window expects numeric a,b, got {text!r}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise _UsageError(f"--window endpoints must be finite, got {text!r}")
    if not a < b:
        raise _UsageError("--window needs a < b")
    return (a, b)


# --------------------------------------------------------------------------
# Subcommand handlers: each takes the parsed args, with args.tolerances
# holding every named tolerance, and returns (payload, table_spec_or_None,
# exit_code).
# numpy and the modules built on it are imported inside the handlers that
# do linear algebra, so the other subcommands never load them.
# --------------------------------------------------------------------------


def _cmd_octonion_table(args):
    rows = octonion_table.multiplication_table()
    payload = {"dimension": octonion_table.DIM, "products": rows}
    table = (rows, ["i", "j", "sign", "k"])
    return payload, table, EXIT_OK


def _cmd_jacobi_spectrum(args):
    import numpy as np

    from . import cayley_plane, grassmannian

    if args.space == "cayley":
        rng = np.random.default_rng(args.seed)
        xi = cayley_plane.random_unit_pair(rng)
        op = cayley_plane.jacobi_operator(xi, sign=args.sign)
        context = {"space": "cayley", "sign": args.sign, "seed": args.seed}
    else:
        bundle = grassmannian.StructureBundle.standard(args.m)
        xi = grassmannian.unit_with_angle(args.alpha, bundle)
        op = grassmannian.jacobi_operator_g2(xi, bundle)
        context = {"space": "grassmannian", "alpha": args.alpha, "m": args.m}
    spec = op.spectrum()
    residual = op.max_eigen_residual(spec)
    clusters = [
        {"value": c.value, "multiplicity": c.multiplicity} for c in spec
    ]
    payload = dict(context, clusters=clusters, max_residual=residual)
    ok = residual <= args.tolerances["spectrum_residual"]
    payload["residual_ok"] = ok
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
    for k in (line_plane, cross_plane):
        lo, hi = min(lo, k), max(hi, k)
    payload = {
        "sign": args.sign,
        "samples": args.samples,
        "seed": args.seed,
        "min": lo,
        "max": hi,
        "structured_planes": {"line": line_plane, "transverse": cross_plane},
    }
    return payload, None, EXIT_OK


def _cmd_tube_table(args):
    if args.core == "horosphere":
        if args.radius is not None:
            raise _UsageError("--radius is meaningless for a horosphere")
    elif args.radius is None:
        raise _UsageError(f"--radius is required for core {args.core!r}")
    system = tube_flow.tube_spectrum(args.ambient, args.core, args.radius)
    try:
        rows = [
            {
                "value": tube_flow.evolve(b, 0.0),
                "multiplicity": b.multiplicity,
                "kappa": b.kappa,
                "regime": b.regime,
            }
            for b in system.branches
        ]
    except FocalPointError:  # the branch kernel's pole proximity
        raise _UsageError(
            f"the tube of radius {args.radius!r} lies within "
            f"{tube_flow.POLE_PROXIMITY!r} of a focal set of core {args.core!r}, "
            "so no finite table can be evaluated"
        ) from None
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
    cert = tube_flow.theorem2_certificate()
    payload = cert.to_json_dict()
    return payload, None, EXIT_OK if cert.positive else EXIT_NEGATIVE


def _cmd_theorem3(args):
    grid = _parse_alpha_grid(args.alpha_grid)
    constraint = _CONSTRAINT_ALIASES[args.constraint]
    cert = tube_flow.theorem3_sweep(
        grid, constraint=constraint, ratio_tol=args.tolerances["ratio"]
    )
    payload = cert.to_json_dict()
    return payload, None, EXIT_OK if cert.positive else EXIT_NEGATIVE


def _cmd_profile_match(args):
    p = _parse_system_json(_load_json_arg(args.p, "--p"), "--p", "p")
    q = _parse_system_json(_load_json_arg(args.q, "--q"), "--q", "q")
    window = _parse_window(args.window) if args.window else None
    cert = isoparametric.profiles_equivalent(
        p,
        q,
        window=window,
        grid_tol=args.tolerances["profile_grid"],
        merge_tol=args.tolerances["pole_merge"],
    )
    payload = cert.to_json_dict()
    return payload, None, EXIT_OK if cert.positive else EXIT_NEGATIVE


def _cmd_cascade(args):
    sys_ = _parse_system_json(_load_json_arg(args.system, "--system"), "--system", "p")
    residuals = isoparametric.power_sum_cascade(sys_, args.kmax, args.t)
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
    bundle_defect = bundle.verify()
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
    constant = grassmannian.eigenvalue_constant(bundle)
    passed = (
        bundle_defect <= 1e-10
        and health <= args.tolerances["health"]
        and verbatim_defect > args.tolerances["health"]
        and hopf.residual <= args.tolerances["spectrum_residual"]
        and hopf.ratio_defect <= args.tolerances["ratio"]
    )
    payload = {
        "m": args.m,
        "alpha": args.alpha,
        "seed": args.seed,
        "triples": args.triples,
        "bundle_defect": bundle_defect,
        "tensor_health": health,
        "verbatim_pair_defect": verbatim_defect,
        "hopf_residual": hopf.residual,
        "hopf_eigenvalues": [hopf.lambda1, hopf.lambda2],
        "ratio_defect": hopf.ratio_defect,
        "eigenvalue_constant": constant,
        "passed": passed,
    }
    return payload, None, EXIT_OK if passed else EXIT_NEGATIVE


def _selftest_checks(seed: int):
    import numpy as np

    from . import cayley_plane, octonion

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
    for _ in range(5):
        xi = cayley_plane.random_unit_pair(rng)
        spec = cayley_plane.jacobi_operator(xi).spectrum()
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
        branch = CurvatureBranch.compact(
            float(rng.choice([1.0, 2.0])), float(rng.uniform(0.3, math.pi - 0.3)), 1
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


#: subcommand -> (help, options after the common --seed, --format and
#: --tol); the handler of each is _cmd_<name, "-" read as "_">
_SUBCOMMANDS = {
    "octonion-table": ("all 64 basis products", {}),
    "jacobi-spectrum": ("normal Jacobi operator spectrum", {
        "--space": dict(choices=("cayley", "grassmannian"), default="cayley"),
        "--sign": dict(type=int, choices=(1, -1), default=1),
        "--alpha": dict(type=_finite_float, default=0.7),
        "--m": dict(type=_slots, default=2),
    }),
    "sectional-range": ("sampled sectional curvature range", {
        "--samples": dict(type=_count(0, MAX_SAMPLES), default=2000),
        "--sign": dict(type=int, choices=(1, -1), default=1),
    }),
    "tube-table": ("principal curvatures of a tube", {
        "--ambient": dict(choices=tube_flow.AMBIENTS, required=True),
        "--core": dict(choices=tube_flow.CORES, required=True),
        "--radius": dict(type=_finite_float, default=None),
    }),
    "theorem2": ("finite search over focal configurations", {}),
    "theorem3": ("proportional-eigenvalue non-existence sweep", {
        "--alpha-grid": dict(required=True, metavar="A:B:N"),
        "--constraint": dict(choices=sorted(_CONSTRAINT_ALIASES), default="ajj"),
    }),
    "profile-match": ("compare two mean-curvature profiles", {
        "--p": dict(required=True, metavar="JSON"),
        "--q": dict(required=True, metavar="JSON"),
        "--window": dict(default=None, metavar="A,B",
                         help="comparison window; write --window=A,B when A is negative"),
    }),
    "cascade": ("power-sum derivative identities", {
        "--system": dict(required=True, metavar="JSON"),
        "--kmax": dict(type=_count(1, MAX_KMAX), default=5),
        "--t": dict(type=_finite_float, required=True),
    }),
    "grassmannian-check": ("structure bundle and tensor health", {
        "--m": dict(type=_slots, default=2),
        "--alpha": dict(type=_finite_float, default=0.7),
        "--triples": dict(type=_count(1, MAX_TRIPLES), default=50),
    }),
    "selftest": ("run the invariant suite", {}),
}


def _build_parser(argv: list[str]) -> _Parser:
    """The parser for argv: only the subcommand that argv[0] names, so a
    call pays for one subparser; all ten when argv names none, so that
    help and usage errors list every subcommand."""
    parser = _Parser(prog="curvadapt", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    env_format = os.environ.get(FORMAT_ENV, "json")
    if env_format not in ("json", "csv", "md"):
        env_format = "json"

    names = argv[:1] if argv and argv[0] in _SUBCOMMANDS else _SUBCOMMANDS
    for name in names:
        help_text, options = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=_count(0), default=DEFAULT_SEED)
        p.add_argument("--format", choices=("json", "csv", "md"), default=env_format)
        p.add_argument(
            "--tol",
            action="append",
            metavar="NAME=VALUE",
            help="override a named tolerance",
        )
        for flag, kwargs in options.items():
            p.add_argument(flag, **kwargs)
        # looked up now, not at import, so a replaced handler is the one called
        p.set_defaults(handler=globals()["_cmd_" + name.replace("-", "_")])
    return parser


def _emit(payload, table, fmt: str, out) -> None:
    if fmt == "json" or table is None:
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
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
        args.tolerances = _parse_tolerances(args.tol)
        payload, table, code = args.handler(args)
    except (_UsageError, CurvAdaptError) as exc:
        print(f"curvadapt: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        _emit(payload, table, args.format, sys.stdout)
    except ValueError as exc:  # a non-finite number reached the JSON output
        print(f"curvadapt: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
