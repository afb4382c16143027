import json
import math
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from curvadapt import cli, tube_flow


SCHEMA_BY_COMMAND = {
    "octonion-table": "octonion-table.json",
    "jacobi-spectrum": "jacobi-spectrum.json",
    "sectional-range": "sectional-range.json",
    "tube-table": "tube-table.json",
    "theorem2": "certificate.json",
    "theorem3": "certificate.json",
    "profile-match": "certificate.json",
    "cascade": "cascade.json",
    "grassmannian-check": "grassmannian-check.json",
    "selftest": "selftest.json",
}

P_SYSTEM = json.dumps([
    {"kappa": 1.0, "theta": 0.9, "mult": 2},
    {"kappa": 2.0, "theta": 1.7, "mult": 3},
])
Q_SAME = json.dumps([
    {"kappa": 2.0, "theta": 1.7, "mult": 3},
    {"kappa": 1.0, "theta": 0.9, "mult": 2},
])
Q_DIFFERENT = json.dumps([
    {"kappa": 1.0, "theta": 0.93, "mult": 2},
    {"kappa": 2.0, "theta": 1.7, "mult": 3},
])
#: profile-match input whose certificate residual overflows to inf
NON_FINITE_CERTIFICATE_ARGV = [
    "profile-match",
    "--p", '[{"kappa":1e300,"theta":2e300,"mult":9007199254740992,"regime":"coth"}]',
    "--q", '[{"kappa":1,"theta":-2,"mult":1,"regime":"coth"}]',
]

#: profile-match input whose kappa has a cot period pi / kappa past the float range
OVERFLOWING_PERIOD_ARGV = [
    "profile-match", "--p", '[{"kappa":1e-310,"theta":1,"mult":1}]',
    "--q", '[{"kappa":1,"theta":1,"mult":1}]', "--window=0,1",
]


#: kappa 1e-11, theta 1e-12: a compact branch whose one pole in [0, 1] is at 0.1
SLOW_BRANCH = '[{"kappa":1e-11,"theta":1e-12,"mult":1}]'

#: a coth pole at 0.549 that both match, and a const branch in Q that
#: changes the smooth part within 8.4 of it
WIDE_P = '[{"kappa":1,"theta":2,"mult":1,"regime":"coth"}]'
WIDE_Q = ('[{"kappa":2,"theta":2.5,"mult":1,"regime":"coth"},'
          '{"kappa":1,"theta":1,"mult":1,"regime":"const"}]')


def load_schema(name):
    path = resources.files("curvadapt") / "schemas" / name
    return json.loads(path.read_text())


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


COMMAND_ARGV = {
    "octonion-table": ["octonion-table"],
    "jacobi-spectrum": ["jacobi-spectrum"],
    "sectional-range": ["sectional-range", "--samples", "50"],
    "tube-table": ["tube-table", "--ambient", "op2", "--core", "line",
                   "--radius", "0.3"],
    "theorem2": ["theorem2"],
    "theorem3": ["theorem3", "--alpha-grid", "0.5:1.1:3"],
    "profile-match": ["profile-match", "--p", P_SYSTEM, "--q", Q_SAME],
    "cascade": ["cascade", "--system", P_SYSTEM, "--t", "0.1", "--kmax", "3"],
    "grassmannian-check": ["grassmannian-check", "--triples", "20"],
    "selftest": ["selftest"],
}

#: the shared options each subcommand takes: (--seed, --format, --tol names)
SHARED_OPTIONS = {
    "octonion-table": (False, True, ()),
    "jacobi-spectrum": (True, True, ("spectrum_residual",)),
    "sectional-range": (True, False, ()),
    "tube-table": (False, True, ()),
    "theorem2": (False, False, ()),
    "theorem3": (False, False, ("ratio",)),
    "profile-match": (False, False, ("profile_grid", "pole_merge")),
    "cascade": (False, False, ("cascade",)),
    "grassmannian-check": (True, False, ("health", "spectrum_residual", "ratio")),
    "selftest": (True, False, ()),
}


class TestSchemas:
    @pytest.mark.parametrize("command", sorted(COMMAND_ARGV))
    def test_output_validates(self, capsys, command):
        code, payload, _ = run_json(capsys, *COMMAND_ARGV[command])
        assert code in (cli.EXIT_OK, cli.EXIT_NEGATIVE)
        jsonschema.validate(payload, load_schema(SCHEMA_BY_COMMAND[command]))


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            COMMAND_ARGV["octonion-table"],
            COMMAND_ARGV["jacobi-spectrum"],
            COMMAND_ARGV["sectional-range"],
            COMMAND_ARGV["theorem2"],
            COMMAND_ARGV["selftest"],
        ],
        ids=["octonion", "jacobi", "sectional", "theorem2", "selftest"],
    )
    def test_byte_identical_repeats(self, capsys, argv):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_seed_changes_sampled_output(self, capsys):
        _, a, _ = run_cli(capsys, "jacobi-spectrum", "--seed", "1")
        _, b, _ = run_cli(capsys, "jacobi-spectrum", "--seed", "2")
        # spectra agree, but the sampled direction context differs only in
        # seed, so the clusters stay put while the documents stay distinct
        assert json.loads(a)["seed"] == 1
        assert json.loads(b)["seed"] == 2


class TestExitCodes:
    def test_affirming_verdicts_exit_zero(self, capsys):
        code, payload, _ = run_json(capsys, *COMMAND_ARGV["theorem2"])
        assert code == cli.EXIT_OK
        assert payload["verdict"] == "equivalent"
        code, _, _ = run_cli(capsys, "profile-match", "--p", P_SYSTEM, "--q", Q_SAME)
        assert code == cli.EXIT_OK

    def test_negative_verdicts_exit_two(self, capsys):
        code, payload, _ = run_json(capsys, *COMMAND_ARGV["theorem3"])
        assert code == cli.EXIT_NEGATIVE
        assert payload["verdict"] == "contradiction"
        code, payload, _ = run_json(
            capsys, "profile-match", "--p", P_SYSTEM, "--q", Q_DIFFERENT
        )
        assert code == cli.EXIT_NEGATIVE
        assert payload["verdict"] == "distinct"

    def test_tightened_tolerance_flips_verdict(self, capsys):
        code, payload, _ = run_json(
            capsys, "jacobi-spectrum", "--tol", "spectrum_residual=1e-30"
        )
        assert code == cli.EXIT_NEGATIVE
        assert payload["residual_ok"] is False

    def test_cascade_failed_gate_exits_two(self, capsys):
        code, payload, _ = run_json(capsys, *COMMAND_ARGV["cascade"],
                                    "--tol", "cascade=1e-30")
        assert code == cli.EXIT_NEGATIVE
        assert payload["passed"] is False

    def test_cascade_passes_at_any_multiplicity(self, capsys):
        for mult in (1, 10**3, 10**6):
            system = '[{"kappa":2,"theta":1.2,"mult":%d}]' % mult
            code, payload, _ = run_json(capsys, "cascade", "--system", system, "--t", "0.1")
            assert code == cli.EXIT_OK, mult
            assert payload["passed"] is True

    @pytest.mark.parametrize("system, t", [
        ('[{"kappa":2,"theta":1.2,"mult":3}]', "1e6"),
        ('[{"kappa":2,"theta":1.2,"mult":3}]', "1e12"),
        ('[{"kappa":2,"theta":-3,"mult":1,"regime":"coth"}]', "-0.4"),  # pole at -0.4024
    ])
    def test_cascade_passes_far_out_and_near_a_pole(self, capsys, system, t):
        code, payload, _ = run_json(capsys, "cascade", "--system", system, f"--t={t}")
        assert code == cli.EXIT_OK
        assert payload["passed"] is True

    def test_overflowing_period_is_compared(self, capsys):
        code, out, _ = run_cli(capsys, *OVERFLOWING_PERIOD_ARGV)
        assert code == cli.EXIT_NEGATIVE
        assert json.loads(out, parse_constant=_reject_constant)["verdict"] == "distinct"
        p = OVERFLOWING_PERIOD_ARGV[2]
        code, payload, _ = run_json(capsys, "profile-match", "--p", p, "--q", p, "--window=0,1")
        assert code == cli.EXIT_OK and payload["verdict"] == "equivalent"

    def test_slow_branch_is_compared_clear_of_its_pole(self, capsys):
        # one pole, at 0.1, and sin(theta - kappa t) below 1e-12 on all of
        # [0, 0.2]; the kernel refuses only t within 1e-12 of the pole
        code, payload, _ = run_json(capsys, "profile-match", "--p", SLOW_BRANCH,
                                    "--q", SLOW_BRANCH, "--window=0,1")
        assert code == cli.EXIT_OK
        assert payload["verdict"] == "equivalent" and payload["residual"] == 0.0

    def test_malformed_json_reports_position(self, capsys):
        code, _, err = run_cli(capsys, "profile-match", "--p", "[{\"kappa\": }]",
                               "--q", Q_SAME)
        assert code == cli.EXIT_USAGE
        assert "line 1" in err and "column" in err

    def test_radius_at_focal_set_is_input_error(self, capsys):
        code, _, err = run_cli(
            capsys, "tube-table", "--ambient", "op2", "--core", "hp2",
            "--radius", str(math.pi / 4)
        )
        assert code == cli.EXIT_USAGE
        assert "focal" in err

    def test_unknown_tolerance_lists_known_names(self, capsys):
        code, _, err = run_cli(capsys, "cascade", "--system", P_SYSTEM,
                               "--t", "0.1", "--tol", "nope=3")
        assert code == cli.EXIT_USAGE
        assert err.endswith("name among: cascade\n")


class TestOpenGridDefects:
    """Defects of profile-match's smooth-part grid that are not mended yet.
    Each xfail is strict, so the change that mends one must flip it."""

    def test_narrow_window_sees_the_smooth_part(self, capsys):
        code, payload, _ = run_json(capsys, "profile-match", "--p", WIDE_P, "--q", WIDE_Q,
                                    "--window=0,20")
        assert code == cli.EXIT_NEGATIVE and payload["verdict"] == "distinct"

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the mask radius grows with the window and hides the "
                              "smooth part next to the matched pole")
    @pytest.mark.parametrize("window", ["0,1000", "0,1e6"])
    def test_wide_window_sees_the_smooth_part(self, capsys, window):
        code, payload, _ = run_json(capsys, "profile-match", "--p", WIDE_P, "--q", WIDE_Q,
                                    f"--window={window}")
        assert code == cli.EXIT_NEGATIVE and payload["verdict"] == "distinct"

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="at kappa 400 the 1e-2 mask floor covers the default window; "
                              "at 3e6 the absolute 1e-6 endpoint clearance finds no boundary")
    @pytest.mark.parametrize("kappa", ["400", "3e6"])
    def test_fast_branch_equals_itself(self, capsys, kappa):
        system = f'[{{"kappa":{kappa},"theta":1,"mult":1}}]'
        code, _, err = run_cli(capsys, "profile-match", "--p", system, "--q", system)
        assert code == cli.EXIT_OK, err


def _row(kappa, theta, regime="compact"):
    return json.dumps([{"kappa": kappa, "theta": theta, "mult": 1, "regime": regime}])


def _mult_row(mult):
    return '[{"kappa": 1, "theta": 0.9, "mult": %s}]' % mult


#: (argv, stderr fragment) of usage errors: each exits 1 with empty stdout
USAGE_ERRORS = [
    pytest.param(argv, fragment, id=name) for name, argv, fragment in [
        ("tube-missing-radius", ["tube-table", "--ambient", "op2", "--core", "line"],
         "error: core 'line' needs a radius\n"),
        ("tube-negative-radius",
         ["tube-table", "--ambient", "op2", "--core", "point", "--radius=-0.3"],
         "error: core 'point' needs a positive radius, got -0.3\n"),
        ("horosphere-radius",
         ["tube-table", "--ambient", "oh2", "--core", "horosphere", "--radius", "1.0"],
         "error: core 'horosphere' takes no radius, got 1.0\n"),
        ("alpha-grid-shape", ["theorem3", "--alpha-grid", "nonsense"],
         "error: argument --alpha-grid: expects a:b:n, got 'nonsense'\n"),
        ("alpha-grid-inf", ["theorem3", "--alpha-grid", "0.5:inf:3"],
         "error: argument --alpha-grid: must be finite, got 'inf'\n"),
        ("alpha-grid-nan", ["theorem3", "--alpha-grid", "nan:1.1:3"],
         "error: argument --alpha-grid: must be finite, got 'nan'\n"),
        ("alpha-grid-count", ["theorem3", "--alpha-grid", "0.5:1.1:0"],
         "error: argument --alpha-grid: must be >= 1, got 0\n"),
        ("constraint-choice", ["theorem3", "--alpha-grid", "0.5:1.1:3", "--constraint", "bogus"],
         "error: argument --constraint: invalid choice: 'bogus' "
         "(choose from 'ajj', 'azz', 'ratio')\n"),
        ("p-json", ["profile-match", "--p", "[", "--q", Q_SAME],
         "error: argument --p: invalid JSON at line 1 column 2"),
        ("window-order", ["profile-match", "--p", P_SYSTEM, "--q", Q_SAME, "--window", "2,1"],
         "error: argument --window: needs a < b, got '2,1'\n"),
        ("window-inf",
         ["profile-match", "--p", P_SYSTEM, "--q", Q_SAME, "--window", "0.05,inf"],
         "error: argument --window: must be finite, got 'inf'\n"),
        ("window-empty", ["profile-match", "--p", P_SYSTEM, "--q", Q_SAME, "--window="],
         "error: argument --window: expects a,b, got ''\n"),
        # b - a is inf, so every grid point would lie at t = inf, outside the window
        ("window-width-overflow",
         ["profile-match", "--p", '[{"kappa":1,"theta":2,"mult":1,"regime":"coth"}]',
          "--q", '[{"kappa":2,"theta":2.5,"mult":1,"regime":"coth"},'
                 '{"kappa":1,"theta":1,"mult":1,"regime":"const"}]', "--window=-1e308,1e308"],
         "error: argument --window: width of '-1e308,1e308' overflows a float\n"),
        ("missing-t", ["cascade", "--system", P_SYSTEM],
         "error: the following arguments are required: --t\n"),
        ("tol-name", ["cascade", "--system", P_SYSTEM, "--t", "0.1", "--tol", "bogus=1"],
         "error: argument --tol: unknown tolerance override 'bogus=1'"),
        ("tol-value", ["cascade", "--system", P_SYSTEM, "--t", "0.1", "--tol", "cascade=abc"],
         "error: argument --tol: tolerance 'cascade' needs a numeric value, got 'abc'\n"),
        ("tol-name-of-another-subcommand",
         ["profile-match", "--p", P_SYSTEM, "--q", Q_SAME, "--tol", "cascade=1"],
         "error: argument --tol: unknown tolerance override 'cascade=1'; use name=value "
         "with name among: pole_merge, profile_grid\n"),
        ("seed-unread", ["theorem2", "--seed", "1"], "error: unrecognized arguments: --seed 1\n"),
        ("unknown-command", ["no-such-command"], "invalid choice: 'no-such-command'"),
        ("flat-row-kappa", ["cascade", "--system", _row(5, 1, "flat"), "--t", "0.1"],
         "error: argument --system: branch 0 is flat, so its kappa must be 0, got 5.0\n"),
        ("curved-row-kappa-zero", ["cascade", "--system", _row(0, 1), "--t", "0.1"],
         "error: argument --system: branch 0: curved branches need kappa > 0; "
         "kappa 0 is the flat regime\n"),
        ("compact-row-pole", ["profile-match", "--p", _row(1, 0), "--q", Q_SAME],
         "error: argument --p: branch 0: compact phase must lie in (0, pi), got 0.0; "
         "a phase that is a multiple of pi is a pole\n"),
        ("tube-infinite-radius",
         ["tube-table", "--ambient", "oh2", "--core", "line", "--radius", "inf"],
         "error: argument --radius: must be finite, got 'inf'\n"),
        ("tol-nan", ["jacobi-spectrum", "--tol", "spectrum_residual=nan"],
         "error: argument --tol: tolerance 'spectrum_residual' must be finite and positive, "
         "got 'nan'\n"),
        ("boundary-alpha", ["grassmannian-check", "--alpha", "1e-8"],
         "error: hopf eigenvectors need 0 < alpha < pi/2 as measured back from xi; "
         "requested alpha=1e-08 measures alpha=0.0\n"),
        # kappa t overflows to inf, where cos has no value
        ("cascade-phase-overflow",
         ["cascade", "--system", '[{"kappa":1e300,"theta":1,"mult":1}]', "--t", "1e10"],
         "error: kappa=1e+300 times t=10000000000.0 overflows a float\n"),
        ("cascade-power-overflow",
         ["cascade", "--system", '[{"kappa":2,"theta":1.2,"mult":3}]', "--t", "0.1",
          "--kmax", "4000"],
         "error: power 4001 of the branch value 1.2841852318686615 at "
         "t=0.1 overflows a float; lower k_max\n"),
        ("json-long-integer",
         ["profile-match", "--p", '[{"kappa": 1%s, "theta": 0.9, "mult": 1}]' % ("0" * 5000),
          "--q", Q_SAME],
         "error: argument --p: invalid JSON: Exceeds the limit (4300 digits)"),
        ("t-nan", ["cascade", "--system", P_SYSTEM, "--t", "nan"],
         "error: argument --t: must be finite, got 'nan'\n"),
        ("alpha-inf", ["jacobi-spectrum", "--space", "grassmannian", "--alpha", "inf"],
         "error: argument --alpha: must be finite, got 'inf'\n"),
        ("alpha-nan", ["grassmannian-check", "--alpha", "nan"],
         "error: argument --alpha: must be finite, got 'nan'\n"),
        ("system-kappa-inf",
         ["cascade", "--system", '[{"kappa": Infinity, "theta": 1.2, "mult": 3}]', "--t", "0.1"],
         "error: argument --system: branch 0 needs finite kappa and theta\n"),
        ("p-kappa-nan",
         ["profile-match", "--p", '[{"kappa": NaN, "theta": 0.9, "mult": 1}]', "--q", Q_SAME],
         "error: argument --p: branch 0 needs finite kappa and theta\n"),
        ("system-mult-inf",
         ["cascade", "--system", '[{"kappa": 2, "theta": 1.2, "mult": Infinity}]', "--t", "0.1"],
         "error: argument --system: branch 0 needs an integer mult in [1, 2**53], got inf\n"),
        ("samples-negative", ["sectional-range", "--samples", "-5"],
         "error: argument --samples: must be >= 0, got -5\n"),
        ("seed-negative", ["sectional-range", "--seed=-1", "--samples", "0"],
         "error: argument --seed: must be >= 0, got -1\n"),
        ("triples-negative", ["grassmannian-check", "--triples", "-3"],
         "error: argument --triples: must be >= 1, got -3\n"),
        # no triples leave the negative control at 0, which cannot pass
        ("triples-0", ["grassmannian-check", "--triples", "0"],
         "error: argument --triples: must be >= 1, got 0\n"),
        ("json-deeply-nested", ["cascade", "--system", "[" * 100_000, "--t", "0.1"],
         "error: argument --system: invalid JSON: maximum recursion depth exceeded "
         "while decoding a JSON array from a unicode string\n"),
        ("certificate-non-finite", NON_FINITE_CERTIFICATE_ARGV,
         "error: Out of range float values are not JSON compliant: inf\n"),
        # the cost and the output of a cascade grow linearly in --kmax
        ("kmax-above-cap",
         ["cascade", "--system", '[{"kappa":0.5,"theta":1.5,"mult":1}]', "--t", "0.1",
          "--kmax", str(cli.MAX_KMAX + 1)],
         f"error: argument --kmax: must be <= {cli.MAX_KMAX}, got {cli.MAX_KMAX + 1}\n"),
        ("kmax-0", ["cascade", "--system", P_SYSTEM, "--t", "0.1", "--kmax", "0"],
         "error: argument --kmax: must be >= 1, got 0\n"),
        ("t-not-a-float", ["cascade", "--system", P_SYSTEM, "--t", "abc"],
         "error: argument --t: invalid float value: 'abc'\n"),
        ("branch-not-an-object", ["profile-match", "--p", "[1]", "--q", Q_SAME],
         "error: argument --p: branch 0 is not an object\n"),
        ("branch-missing-theta", ["profile-match", "--p", '[{"kappa":1,"mult":1}]', "--q", Q_SAME],
         "error: argument --p: branch 0 malformed: 'theta'\n"),
        # pi / kappa overflows, and no compact branch has poles to count
        ("default-window-overflow",
         ["profile-match", "--p", _row(1e-310, 1e-310, "const"),
          "--q", _row(1e-310, 1e-310, "const")],
         "error: the period pi/kappa of the slowest branch, kappa=1e-310, overflows a "
         "float, so there is no default window; pass --window A,B\n"),
    ] + [
        (f"{command}-mult-{name}", argv,
         f"error: argument {flag}: branch 0 needs an integer mult in [1, 2**53], got {got}\n")
        for name, mult, got in [
            ("huge", "1" + "0" * 400, "1" + "0" * 17 + "..." + "0" * 19),  # too large for a float
            ("fractional", "2.7", "2.7"),  # was truncated to 2
            ("boolean", "true", "True"),
            ("string", '"2"', "'2'"),
            ("2**53+1", str(2**53 + 1), str(2**53 + 1)),
        ]
        for command, flag, argv in [
            ("profile-match", "--p", ["profile-match", "--p", _mult_row(mult), "--q", Q_SAME]),
            ("cascade", "--system", ["cascade", "--system", _mult_row(mult), "--t", "0.1"]),
        ]
    ] + [
        # tube_spectrum refuses a radius within 1e-12 of a focal set, 0 or the
        # op2 focal radius, where the branch kernel would refuse t = 0
        (f"{ambient}-{core}-radius-{radius}-pole-proximity",
         ["tube-table", "--ambient", ambient, "--core", core, "--radius", radius],
         f"error: the tube of radius {radius} lies within 1e-12 of a focal set of core "
         f"{core!r}, so no finite table can be evaluated\n")
        for ambient, core, radius in (("oh2", "point", "1e-13"), ("op2", "point", "1e-13"),
                                      ("op2", "line", "1.5707963267948"),
                                      ("op2", "hp2", "0.7853981633974"))
    ] + [
        (f"tol-{value}", ["jacobi-spectrum", "--tol", f"spectrum_residual={value}"],
         "error: argument --tol: tolerance 'spectrum_residual' must be finite and positive, "
         f"got '{value}'\n")
        for value in ("0", "-1e-9", "inf")
    ]
]


class TestInputHardening:
    """Non-finite numbers, bad tolerances and negative counts exit 1."""

    def assert_usage_error(self, capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == cli.EXIT_USAGE, argv
        assert out == ""
        assert "curvadapt: error:" in err
        return err

    @pytest.mark.parametrize("argv, fragment", USAGE_ERRORS)
    def test_usage_error_names_the_input(self, capsys, argv, fragment):
        assert fragment in self.assert_usage_error(capsys, *argv)

    def test_flat_row_with_kappa_zero_passes(self, capsys):
        code, payload, _ = run_json(capsys, "cascade", "--system", _row(0, 1, "flat"),
                                    "--t", "0.1")
        assert code == cli.EXIT_OK and payload["passed"] is True

    def test_non_finite_output_fails_loudly(self, capsys, monkeypatch):
        def handler(args):
            return {"value": math.nan}, None, cli.EXIT_OK

        monkeypatch.setattr(cli, "_cmd_octonion_table", handler)
        self.assert_usage_error(capsys, "octonion-table")

    def test_slot_count_above_cap_is_usage_error(self, capsys):
        too_many = str(cli.MAX_SLOTS + 1)
        err = self.assert_usage_error(capsys, "grassmannian-check", "--m", too_many,
                                      "--triples", "1")
        assert str(cli.MAX_SLOTS) in err
        self.assert_usage_error(capsys, "jacobi-spectrum", "--space", "grassmannian",
                                "--m", too_many)
        assert cli._slots(str(cli.MAX_SLOTS)) == cli.MAX_SLOTS

    def test_mult_at_exact_float_limit_is_accepted(self, capsys):
        # 2**53 + 1 is a USAGE_ERRORS row; 2**53 itself is still exact
        row = _mult_row(2**53)
        code, _, _ = run_cli(capsys, "profile-match", "--p", row, "--q", row)
        assert code == cli.EXIT_OK

    def test_samples_above_cap_is_usage_error(self, capsys):
        err = self.assert_usage_error(capsys, "sectional-range", "--samples",
                                      str(cli.MAX_SAMPLES + 1))
        assert str(cli.MAX_SAMPLES) in err
        assert cli._count(0, cli.MAX_SAMPLES)(str(cli.MAX_SAMPLES)) == cli.MAX_SAMPLES

    def test_triples_above_cap_is_usage_error(self, capsys):
        err = self.assert_usage_error(capsys, "grassmannian-check", "--triples",
                                      str(cli.MAX_TRIPLES + 1))
        assert str(cli.MAX_TRIPLES) in err
        assert cli._count(1, cli.MAX_TRIPLES)(str(cli.MAX_TRIPLES)) == cli.MAX_TRIPLES

    def test_alpha_grid_count_above_cap_is_usage_error(self, capsys):
        err = self.assert_usage_error(capsys, "theorem3", "--alpha-grid",
                                      f"0.25:1.3:{cli.MAX_ANGLES + 1}")
        assert str(cli.MAX_ANGLES) in err
        assert len(cli._alpha_grid(f"0.25:1.3:{cli.MAX_ANGLES}")) == cli.MAX_ANGLES

    def assert_prompt_usage_error(self, *argv):
        """Run in a subprocess, so that a hang fails the test instead of the suite."""
        result = subprocess.run(
            [sys.executable, "-m", "curvadapt.cli", *argv],
            capture_output=True,
            text=True,
            timeout=15,
        )
        assert result.returncode == cli.EXIT_USAGE, result.stderr
        assert result.stdout == ""
        assert "poles" in result.stderr

    def test_tiny_kappa_beside_unit_kappa_is_usage_error(self):
        self.assert_prompt_usage_error(
            "profile-match", "--p", '[{"kappa":1e-9,"theta":0.9,"mult":1}]',
            "--q", '[{"kappa":1,"theta":0.9,"mult":1}]')

    def test_huge_kappa_is_usage_error(self):
        self.assert_prompt_usage_error(
            "profile-match", "--p", '[{"kappa":1e300,"theta":0.9,"mult":1}]',
            "--q", '[{"kappa":1,"theta":0.9,"mult":1}]')


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


#: edge-case argument text: non-finite, signed zero, extreme, negative, junk
_EDGE_TEXT = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "0", "-0", "0.0", "-0.0",
                     "1e300", "-1e300", "1e-300", "-1e-300", "1e400", "", "junk",
                     "0x1p3", "1,5"]),
    st.integers(-2, -1).map(str),
)
#: edge-case JSON values for the fields of a branch row
_EDGE_JSON = st.one_of(
    st.floats(),  # includes NaN and +-inf, which json.dumps writes as constants
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 1e-310, -1, None]),
    st.text(max_size=3),
)


def _mostly(good, edge):
    """good four times in five, so that most examples get past parsing."""
    return st.integers(0, 4).flatmap(lambda i: edge if i == 0 else good)


def _number(lo, hi):
    return _mostly(st.floats(lo, hi).map(repr), _EDGE_TEXT)


def _integer(lo, hi):
    return _mostly(st.integers(lo, hi).map(str), _EDGE_TEXT)


_GOOD_ROW = {"kappa": st.floats(0.1, 3.0), "theta": st.floats(0.05, 3.1),
             "mult": st.integers(1, 4)}
#: multiplicities past a float's exact range, fractional, boolean or text
_EDGE_MULT = st.one_of(
    _EDGE_JSON,
    st.integers(2**53 - 1, 2**53 + 1),
    st.integers(10**300, 10**400),
    st.floats(0.5, 4.5),
    st.booleans(),
    st.sampled_from(["1", "2"]),
)
_EDGE_ROW = st.fixed_dictionaries(
    {name: _mostly(good, _EDGE_MULT if name == "mult" else _EDGE_JSON)
     for name, good in _GOOD_ROW.items()},
    optional={"regime": st.sampled_from(["compact", "flat", "coth", "tanh",
                                         "const", "bogus"])},
)
_SYSTEM_JSON = _mostly(
    st.lists(st.fixed_dictionaries(_GOOD_ROW), min_size=1, max_size=3).map(json.dumps),
    st.one_of(
        st.lists(_EDGE_ROW, min_size=1, max_size=3).map(json.dumps),
        st.sampled_from(["[]", "{}", "[", "null", '[{"kappa": 1}]']),
    ),
)


def _option(flag, values):
    """An optional flag=value argument; the = form lets values start with -."""
    return st.one_of(st.just([]), values.map(lambda v: [f"{flag}={v}"]))


def _required(flag, values):
    return values.map(lambda v: [f"{flag}={v}"])


@st.composite
def _light_argv(draw):
    """argv for one of the light subcommands, or theorem3 on a small grid."""
    command = draw(st.sampled_from(["octonion-table", "jacobi-spectrum",
                                    "sectional-range", "tube-table",
                                    "profile-match", "cascade",
                                    "grassmannian-check", "theorem3"]))
    argv = [command]
    seeded, tabular, tolerances = SHARED_OPTIONS[command]
    if seeded:
        argv += draw(_option("--seed", _integer(0, 2**32)))
    if tabular:  # json only: the test parses stdout
        argv += draw(_option("--format", st.just("json")))
    if tolerances:
        argv += draw(_option("--tol", st.tuples(
            st.sampled_from(tolerances), _number(1e-12, 1.0)).map("=".join)))
    sign = st.sampled_from(["1", "-1", "0", "x"])
    slots = _integer(-3, cli.MAX_SLOTS + 8)
    if command == "jacobi-spectrum":
        argv += draw(_option("--space", st.sampled_from(["cayley", "grassmannian"])))
        argv += draw(_option("--sign", sign))
        argv += draw(_option("--alpha", _number(0.05, 3.1)))
        argv += draw(_option("--m", slots))
    elif command == "sectional-range":
        argv += draw(_required("--samples", _integer(0, 40)))
        argv += draw(_option("--sign", sign))
    elif command == "tube-table":
        argv += draw(_required("--ambient", st.sampled_from(tube_flow.AMBIENTS)))
        argv += draw(_required("--core", st.sampled_from(tube_flow.CORES)))
        argv += draw(_option("--radius", _number(0.01, 1.6)))
    elif command == "profile-match":
        argv += draw(_required("--p", _SYSTEM_JSON)) + draw(_required("--q", _SYSTEM_JSON))
        argv += draw(_option("--window", st.tuples(
            _number(-3.0, 3.0), _number(-3.0, 6.0)).map(",".join)))
    elif command == "cascade":
        argv += draw(_required("--system", _SYSTEM_JSON))
        argv += draw(_required("--t", _number(-2.0, 2.0)))
        # from about 2,900 up, a branch value above 1.3 overflows its power
        kmax = st.one_of(st.integers(-2, 40), st.integers(2900, 5000))
        argv += draw(_required("--kmax", _mostly(kmax.map(str), _EDGE_TEXT)))
    elif command == "grassmannian-check":
        argv += draw(_option("--m", slots))
        argv += draw(_option("--alpha", _number(0.05, 3.1)))
        argv += draw(_required("--triples", _integer(1, 4)))
    elif command == "theorem3":
        argv += draw(_required("--alpha-grid", st.tuples(
            _number(0.0, 1.6), _number(0.0, 1.6), _integer(0, 4)).map(":".join)))
        argv += draw(_option("--constraint", st.sampled_from(["ajj", "azz", "ratio", "x"])))
    return argv


class TestArgvFuzz:
    """Any argv keeps the exit-code contract and emits strict, schema-valid JSON."""

    @settings(max_examples=200, derandomize=True, deadline=5000,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=_light_argv())
    @example(argv=["cascade", "--system", '[{"kappa":2,"theta":1.2,"mult":3}]',
                   "--t", "0.1", "--kmax", "4000"])  # lambda^4000 overflows a float
    @example(argv=["profile-match", "--p", '[{"kappa":1,"theta":0.9,"mult":1%s}]' % ("0" * 400),
                   "--q", '[{"kappa":1,"theta":0.9,"mult":1}]'])  # mult overflows a float
    @example(argv=NON_FINITE_CERTIFICATE_ARGV)  # residual is inf
    @example(argv=OVERFLOWING_PERIOD_ARGV)  # pi / kappa is inf
    def test_exit_contract_holds(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_NEGATIVE)
        if code == cli.EXIT_USAGE:
            assert out == ""
        else:
            payload = json.loads(out, parse_constant=_reject_constant)
            jsonschema.validate(payload, load_schema(SCHEMA_BY_COMMAND[argv[0]]))


def _sectional_range_loop(samples, seed, sign):
    """The per-sample sectional-range handler, kept as the oracle of the
    batched one: every sectional curvature it evaluates, in order, the
    sampled planes first and the two structured planes last."""
    import numpy as np

    from curvadapt import cayley_plane

    rng = np.random.default_rng(seed)
    values = []
    for _ in range(samples):
        x = cayley_plane.random_unit_pair(rng)
        y = cayley_plane.random_unit_pair(rng)
        y = y - (float(x[:8] @ y[:8]) + float(x[8:] @ y[8:])) * x
        norm = float(np.linalg.norm(y))
        if norm < 1e-8:
            continue
        values.append(cayley_plane.sectional_curvature(x, y / norm, sign=sign))
    e = np.eye(cayley_plane.DIM)
    values.append(cayley_plane.sectional_curvature(e[0], e[1], sign=sign))
    values.append(cayley_plane.sectional_curvature(e[0], e[8], sign=sign))
    return values


def _grassmannian_loop(triples, seed, m):
    """The per-triple grassmannian-check loop, kept as the oracle of the
    batched one: (tensor_health, verbatim_pair_defect)."""
    import numpy as np

    from curvadapt import grassmannian

    bundle = grassmannian.StructureBundle.standard(m)
    rng = np.random.default_rng(seed)
    health = verbatim_defect = 0.0
    for _ in range(triples):
        x, y, z = (rng.standard_normal(bundle.dim) for _ in range(3))
        rxyz = grassmannian.curvature_g2(x, y, z, bundle)
        ryxz = grassmannian.curvature_g2(y, x, z, bundle)
        health = max(health, float(np.max(np.abs(rxyz + ryxz)))
                     / max(1.0, float(np.linalg.norm(rxyz))))
        w = rng.standard_normal(bundle.dim)
        pair_lhs = float(np.dot(rxyz, w))
        pair_rhs = float(np.dot(grassmannian.curvature_g2(z, w, x, bundle), y))
        health = max(health, abs(pair_lhs - pair_rhs) / max(1.0, abs(pair_lhs)))
        v_lhs = float(np.dot(grassmannian.curvature_g2(x, y, z, bundle, verbatim=True), w))
        v_rhs = float(np.dot(grassmannian.curvature_g2(z, w, x, bundle, verbatim=True), y))
        verbatim_defect = max(verbatim_defect, abs(v_lhs - v_rhs) / max(1.0, abs(v_lhs)))
    return health, verbatim_defect


class TestBatchedHandlers:
    """The handlers run blocks of rows through the batched kernels; the
    per-sample loops they replaced are the oracles, block edges included."""

    @pytest.mark.parametrize("samples", [0, 1, 255, 256, 257, 700])
    @pytest.mark.parametrize("seed,sign", [(0, 1), (5, -1)])
    def test_sectional_range_matches_per_sample_loop(self, capsys, monkeypatch,
                                                     samples, seed, sign):
        import numpy as np

        from curvadapt import cayley_plane

        want = _sectional_range_loop(samples, seed, sign)
        seen = []
        kernel = cayley_plane.sectional_curvature

        def recording(x, y, sign=1):
            k = kernel(x, y, sign=sign)
            seen.append(np.atleast_1d(k))
            return k

        monkeypatch.setattr(cayley_plane, "sectional_curvature", recording)
        code, payload, _ = run_json(capsys, "sectional-range", "--samples", str(samples),
                                    "--seed", str(seed), "--sign", str(sign))
        assert code == cli.EXIT_OK
        assert np.array_equal(np.concatenate(seen), want)
        sampled = want[:-2]  # the two structured planes are not folded in
        assert (payload["min"], payload["max"]) == (
            (min(sampled), max(sampled)) if sampled else (None, None))
        assert [payload["structured_planes"][k] for k in ("line", "transverse")] == want[-2:]
        jsonschema.validate(payload, load_schema("sectional-range.json"))

    @pytest.mark.parametrize("triples", [1, 257, 300])
    @pytest.mark.parametrize("m", [2, 3])
    def test_grassmannian_check_matches_per_triple_loop(self, capsys, triples, m):
        code, payload, _ = run_json(capsys, "grassmannian-check", "--triples", str(triples),
                                    "--m", str(m), "--seed", "4")
        health, verbatim_defect = _grassmannian_loop(triples, 4, m)
        for got, want in ((payload["tensor_health"], health),
                          (payload["verbatim_pair_defect"], verbatim_defect)):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        assert payload["bundle_defect"] <= 1e-12  # the most StructureBundle.standard allows
        tol = cli.DEFAULT_TOLERANCES
        passed = (
            health <= tol["health"]
            and verbatim_defect > tol["health"]
            and payload["hopf_residual"] <= tol["spectrum_residual"]
            and payload["ratio_defect"] <= tol["ratio"]
        )
        assert payload["passed"] is passed
        assert code == (cli.EXIT_OK if passed else cli.EXIT_NEGATIVE)


class TestInputOrder:
    """theorem3 measures its grid in one batch yet reports the first failing
    angle in grid order; grassmannian-check checks --alpha before its
    tensor loop."""

    @pytest.mark.parametrize("grid", ["0.01:1.6:50", "0.3:1.6:50",
                                      "0.2:0.6435011087932844:5"])
    def test_theorem3_reports_the_first_failing_angle(self, capsys, grid):
        # each grid ends past pi/2 or at the excluded cosine 4/5, which the
        # sweep checks before any model evaluation; the ratio check of the
        # first angle still comes first
        code, out, err = run_cli(capsys, "theorem3", "--alpha-grid", grid,
                                 "--tol", "ratio=1e-20")
        assert code == cli.EXIT_USAGE and out == ""
        assert err.startswith("curvadapt: error: eigenvalue ratio defect ")
        assert err.endswith(f" at alpha={float(grid.split(':')[0])!r}\n")

    def test_grassmannian_check_rejects_a_boundary_alpha_first(self, capsys, monkeypatch):
        from curvadapt import grassmannian

        calls = []
        kernel = grassmannian.curvature_g2

        def counting(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(grassmannian, "curvature_g2", counting)
        code, out, err = run_cli(capsys, "grassmannian-check", "--alpha", "0",
                                 "--triples", "5000")
        assert code == cli.EXIT_USAGE and out == ""
        assert "need 0 < alpha < pi/2" in err
        # neither the tensor loop nor the Jacobi build of the eigenpair ran
        assert calls == []


class TestTabularFormats:
    def test_csv_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "tube-table", "--ambient", "op2",
                               "--core", "point", "--radius", "0.3",
                               "--format", "csv")
        assert code == cli.EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "value,multiplicity,kappa,regime"
        assert len(lines) == 3
        values = {float(line.split(",")[0]) for line in lines[1:]}
        assert any(abs(v - 1.0 / math.tan(0.3)) <= 1e-12 for v in values)

    def test_markdown_table(self, capsys):
        code, out, _ = run_cli(capsys, "octonion-table", "--format", "md")
        assert code == cli.EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("| i | j | sign | k |")
        assert lines[1].startswith("|")
        assert len(lines) == 2 + 64


class TestPayloadContent:
    def test_octonion_table_is_complete(self, capsys):
        _, payload, _ = run_json(capsys, "octonion-table")
        assert payload["dimension"] == 8
        assert len(payload["products"]) == 64

    def test_jacobi_defaults_to_cayley(self, capsys):
        code, payload, _ = run_json(capsys, "jacobi-spectrum")
        assert code == cli.EXIT_OK
        mults = sorted(c["multiplicity"] for c in payload["clusters"])
        assert mults == [1, 7, 8]
        assert payload["max_residual"] <= 1e-9

    def test_jacobi_grassmannian_space(self, capsys):
        code, payload, _ = run_json(
            capsys, "jacobi-spectrum", "--space", "grassmannian", "--alpha", "0.7"
        )
        assert code == cli.EXIT_OK
        assert payload["space"] == "grassmannian"
        assert sum(c["multiplicity"] for c in payload["clusters"]) == 8

    @pytest.mark.parametrize("alpha", ["0.0001", "1.5707", "1.5707963"])
    def test_jacobi_grassmannian_extreme_angles(self, capsys, alpha):
        # 2 alpha^2 beside 0, or clusters cos(alpha) apart, are separate eigenvalues
        code, payload, _ = run_json(
            capsys, "jacobi-spectrum", "--space", "grassmannian", "--alpha", alpha
        )
        assert code == cli.EXIT_OK and payload["residual_ok"]
        assert sum(c["multiplicity"] for c in payload["clusters"]) == 8

    def test_sectional_range_brackets(self, capsys):
        _, payload, _ = run_json(capsys, "sectional-range", "--samples", "100")
        assert abs(payload["structured_planes"]["line"] - 4.0) <= 1e-12
        assert abs(payload["structured_planes"]["transverse"] - 1.0) <= 1e-12
        assert 1.0 - 1e-9 <= payload["min"] <= payload["max"] <= 4.0 + 1e-9

    def test_tube_table_sums_to_fifteen(self, capsys):
        _, payload, _ = run_json(capsys, *COMMAND_ARGV["tube-table"])
        assert payload["total_multiplicity"] == 15

    def test_theorem3_rows_carry_only_measured_keys(self, capsys):
        _, payload, _ = run_json(capsys, *COMMAND_ARGV["theorem3"])
        rows = payload["details"]["alphas"]
        assert len(rows) == 3
        for row in rows:
            assert row["min_residual"] >= 1e-3
            assert sorted(row) == ["alpha", "min_residual", "mu1", "mu2", "ratio_defect"]

    def test_theorem3_constraint_labels_one_floor(self, capsys):
        payloads = {}
        for mode, label in (("ajj", "a_jj_const"), ("azz", "a_zz_const"),
                            ("ratio", "ratio_const")):
            code, payload, _ = run_json(capsys, *COMMAND_ARGV["theorem3"], "--constraint", mode)
            assert code == cli.EXIT_NEGATIVE
            assert payload["details"].pop("constraint") == label
            payloads[mode] = payload
        assert payloads["ajj"] == payloads["azz"] == payloads["ratio"]

    def test_cascade_reports_pass_flag(self, capsys):
        code, payload, _ = run_json(capsys, *COMMAND_ARGV["cascade"])
        assert code == cli.EXIT_OK
        assert payload["passed"] is True
        assert payload["max_residual"] <= 1e-6

    def test_grassmannian_check_passes(self, capsys):
        code, payload, _ = run_json(capsys, *COMMAND_ARGV["grassmannian-check"])
        assert code == cli.EXIT_OK
        assert payload["passed"] is True
        assert payload["verbatim_pair_defect"] > 1e-3

    @pytest.mark.parametrize("alpha", ["0.01", "0.001"])
    def test_exact_model_passes_at_small_angles(self, capsys, alpha):
        code, sweep, _ = run_json(capsys, "theorem3", "--alpha-grid", f"{alpha}:{alpha}:1")
        assert code == cli.EXIT_NEGATIVE and sweep["verdict"] == "contradiction"
        code, check, _ = run_json(capsys, "grassmannian-check", "--alpha", alpha)
        assert code == cli.EXIT_OK and check["passed"] is True
        assert check["ratio_defect"] == sweep["details"]["alphas"][0]["ratio_defect"]

    def test_theorem3_row_and_grassmannian_check_share_the_ratio_defect(self, capsys):
        _, sweep, _ = run_json(capsys, "theorem3", "--alpha-grid", "0.7:0.7:1")
        _, check, _ = run_json(capsys, "grassmannian-check", "--alpha", "0.7")
        [row] = sweep["details"]["alphas"]
        assert row["ratio_defect"] == check["ratio_defect"]

    def test_selftest_all_green(self, capsys):
        code, payload, _ = run_json(capsys, "selftest")
        assert code == cli.EXIT_OK
        assert payload["all_passed"] is True
        assert len(payload["checks"]) == 8

    def test_profile_match_respects_window(self, capsys):
        code, payload, _ = run_json(
            capsys, "profile-match", "--p", P_SYSTEM, "--q", Q_SAME,
            "--window", "0.05,1.5"
        )
        assert code == cli.EXIT_OK
        assert payload["details"]["window"] == [0.05, 1.5]

    def test_negative_window_start_takes_the_equals_form(self, capsys):
        # argparse reads a separate "-1,2" as an option, so a window that
        # starts below zero is passed as --window=-1,2
        code, payload, _ = run_json(
            capsys, "profile-match", "--p", P_SYSTEM, "--q", Q_SAME, "--window=-1,2"
        )
        assert code == cli.EXIT_OK
        assert payload["details"]["window"] == [-1.0, 2.0]
        code, _, err = run_cli(
            capsys, "profile-match", "--p", P_SYSTEM, "--q", Q_SAME, "--window", "-1,2"
        )
        assert code == cli.EXIT_USAGE
        assert "expected one argument" in err

    def test_regime_tag_mismatch_is_usage_error(self, capsys):
        bad = json.dumps([{"kappa": 2.0, "theta": 0.5, "mult": 1, "regime": "coth"}])
        code, _, err = run_cli(capsys, "profile-match", "--p", bad, "--q", Q_SAME)
        assert code == cli.EXIT_USAGE
        assert "tanh" in err


def _call(argv):
    return f"import curvadapt.cli, sys\ncurvadapt.cli.main({argv!r})"


#: subcommands that do only scalar or integer math: README argv and the oh2
#: tube-table paths
LIGHT_CALLS = {
    "octonion-table": _call(["octonion-table"]),
    "tube-table": _call(["tube-table", "--ambient", "op2", "--core", "line",
                         "--radius", "0.3927"]),
    "tube-table-oh2": _call(["tube-table", "--ambient", "oh2", "--core", "hp2",
                             "--radius", "0.3"]),
    "horosphere": _call(["tube-table", "--ambient", "oh2", "--core", "horosphere"]),
    "theorem2": _call(["theorem2"]),
    "profile-match": _call(["profile-match", "--p", P_SYSTEM, "--q", Q_SAME]),
    "cascade": _call(["cascade", "--system", P_SYSTEM, "--t", "0.1"]),
}


class TestImportPath:
    """The package never loads scipy, and the light subcommands never load
    numpy: not on import, not in a call, each in a fresh interpreter."""

    @staticmethod
    def loaded(code, package, *flags):
        probe = f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
        result = subprocess.run(
            [sys.executable, *flags, "-c", f"{code}\n{probe}"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout.splitlines()[-1]

    @pytest.mark.parametrize("code", [
        "import curvadapt.cli, sys",
        LIGHT_CALLS["tube-table"],
        _call(["theorem3", "--alpha-grid", "0.5:1.1:3"]),
    ], ids=["import", "tube-table", "theorem3"])
    def test_scipy_is_not_loaded(self, code):
        assert self.loaded(code, "scipy") == "[]"

    @pytest.mark.parametrize("code", ["import curvadapt.cli, sys", *LIGHT_CALLS.values()],
                             ids=["import", *LIGHT_CALLS])
    def test_numpy_is_not_loaded(self, code):
        assert self.loaded(code, "numpy") == "[]"

    def test_typing_is_not_loaded(self):
        # -S keeps site, which may import typing itself, off the path; so
        # the package directory goes on sys.path by hand
        src = str(Path(cli.__file__).resolve().parents[1])
        code = f"import sys\nsys.path.insert(0, {src!r})\nimport curvadapt.cli"
        assert self.loaded(code, "typing", "-S") == "[]"

    def test_package_import_loads_no_submodule(self):
        # the package root re-exports nothing
        assert self.loaded("import curvadapt, sys", "curvadapt") == "['curvadapt']"


SUBCOMMANDS = ("octonion-table", "jacobi-spectrum", "sectional-range", "tube-table",
               "theorem2", "theorem3", "profile-match", "cascade",
               "grassmannian-check", "selftest")

TOP_HELP = """\
usage: curvadapt [-h]
                 {octonion-table,jacobi-spectrum,sectional-range,tube-table,theorem2,theorem3,profile-match,cascade,grassmannian-check,selftest}
                 ...

Command-line front end. One executable, ten subcommands, deterministic output:
reports go to stdout as JSON (sorted keys) unless a tabular format is
requested, diagnostics go to stderr. Exit code 0 means success or an affirming
verdict, 2 means a mathematically meaningful negative verdict (distinct or
contradiction), 1 means a usage or input error.

positional arguments:
  {octonion-table,jacobi-spectrum,sectional-range,tube-table,theorem2,theorem3,profile-match,cascade,grassmannian-check,selftest}
    octonion-table      all 64 basis products
    jacobi-spectrum     normal Jacobi operator spectrum
    sectional-range     sampled sectional curvature range
    tube-table          principal curvatures of a tube
    theorem2            finite search over focal configurations
    theorem3            proportional-eigenvalue non-existence sweep
    profile-match       compare two mean-curvature profiles
    cascade             power-sum derivative identities
    grassmannian-check  structure bundle and tensor health
    selftest            run the invariant suite

options:
  -h, --help            show this help message and exit
"""

TUBE_TABLE_HELP = """\
usage: curvadapt tube-table [-h] [--format {json,csv,md}] --ambient {op2,oh2}
                            --core {point,line,hp2,horosphere}
                            [--radius RADIUS]

options:
  -h, --help            show this help message and exit
  --format {json,csv,md}
  --ambient {op2,oh2}
  --core {point,line,hp2,horosphere}
  --radius RADIUS
"""

UNKNOWN_ERROR = (
    "curvadapt: error: argument subcommand: invalid choice: 'no-such-command' "
    "(choose from " + ", ".join(repr(name) for name in SUBCOMMANDS) + ")\n"
)


class TestParser:
    """A call builds only its own subparser; help and usage errors read
    as they did when every call built all ten."""

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal

    @staticmethod
    def run(capsys, *argv):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse exits after printing help
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def run_json(self, capsys, *argv):
        code, out, err = self.run(capsys, *argv)
        return code, json.loads(out), err

    @pytest.mark.parametrize("argv, expected", [
        ([], (1, "", "curvadapt: error: the following arguments are required: subcommand\n")),
        (["--help"], (0, TOP_HELP, "")),
        (["no-such-command"], (1, "", UNKNOWN_ERROR)),
        (["tube-table", "--help"], (0, TUBE_TABLE_HELP, "")),
        (["tube-table", "--bogus"],
         (1, "", "curvadapt: error: the following arguments are required: --ambient, --core\n")),
    ], ids=["no-arguments", "help", "unknown", "tube-table-help", "tube-table-bogus"])
    def test_help_and_usage_errors_are_unchanged(self, capsys, argv, expected):
        assert self.run(capsys, *argv) == expected

    def test_help_lists_every_subcommand(self, capsys):
        _, out, _ = self.run(capsys, "--help")
        listed = [line.split()[0] for line in out.splitlines()
                  if line.startswith("    ") and line[4] != " "]
        assert listed == list(SUBCOMMANDS)

    def test_a_call_builds_only_its_subcommand(self):
        assert "{cascade}" in cli._build_parser("cascade").format_usage()
        assert "{octonion-table,jacobi-spectrum," in cli._build_parser(None).format_usage()

    def test_parser_is_built_once_per_subcommand(self):
        assert cli._build_parser("cascade") is cli._build_parser("cascade")
        assert cli._build_parser(None) is cli._build_parser(None)

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_each_subcommand_takes_only_the_options_it_reads(self, capsys, command):
        seeded, tabular, tolerances = SHARED_OPTIONS[command]
        cases = [("--seed=1", seeded), ("--format=json", tabular)] + [
            (f"--tol={name}=1", name in tolerances) for name in cli.DEFAULT_TOLERANCES]
        for option, taken in cases:
            code, out, err = self.run(capsys, *COMMAND_ARGV[command], option)
            if taken:
                assert code in (cli.EXIT_OK, cli.EXIT_NEGATIVE), (option, err)
            elif option.startswith("--tol") and tolerances:
                assert (code, out) == (cli.EXIT_USAGE, ""), option
                assert "name among: " + ", ".join(sorted(tolerances)) + "\n" in err
            else:
                assert (code, out) == (cli.EXIT_USAGE, ""), option
                assert err == f"curvadapt: error: unrecognized arguments: {option}\n"

    # The parser is built once per subcommand per process.  Each case below
    # fills that cache with one call first, so a parser that kept a value
    # from its build or from the call before would fail it.

    def test_cached_parser_calls_a_replaced_handler(self, capsys, monkeypatch):
        assert self.run(capsys, "octonion-table")[0] == cli.EXIT_OK

        def handler(args):
            return {"value": math.nan}, None, cli.EXIT_OK

        monkeypatch.setattr(cli, "_cmd_octonion_table", handler)
        code, out, err = self.run(capsys, "octonion-table")
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert "not JSON compliant" in err

    def test_cached_parser_forgets_a_tolerance_override(self, capsys):
        argv = ("cascade", "--system", P_SYSTEM, "--t", "0.1")
        code, payload, _ = self.run_json(capsys, *argv, "--tol", "cascade=1e-30")
        assert (code, payload["passed"]) == (cli.EXIT_NEGATIVE, False)
        code, payload, _ = self.run_json(capsys, *argv)
        assert (code, payload["passed"]) == (cli.EXIT_OK, True)


class TestConsoleScript:
    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "curvadapt.cli", "octonion-table"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert len(payload["products"]) == 64

    def test_installed_script(self):
        result = subprocess.run(
            ["curvadapt", "selftest"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["all_passed"] is True
