"""Output checks: every invocation's exit code, JSON and verdict.

An invocation passes only if all of these hold:

- its exit code is the expected one;
- stdout parses as strict JSON (``NaN`` and ``Infinity`` are rejected);
- the payload validates against its schema in ``src/curvadapt/schemas/``;
- every expected fact about the payload holds (see ``inputs.py``).

``worker.py`` adds the last check: the same argv gave byte-identical
stdout every time within the run.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema

_CERTIFICATE_COMMANDS = ("theorem2", "theorem3", "profile-match")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_loads(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _lookup(payload, path: str):
    for key in path.split("."):
        payload = payload[key]
    return payload


def _fact_holds(value, op: str, want) -> bool:
    if op == "eq":
        return value == want
    if op == "len":
        return len(value) == want
    if op == "near":
        return math.isfinite(value) and abs(value - want) <= 1e-9
    if op == "ge":
        return value >= want
    if op == "le":
        return value <= want
    raise ValueError(f"unknown fact operator {op!r}")


class Checker:
    """Validates CLI outputs against the package's schemas and the expected
    answers; holds one compiled validator per schema file."""

    def __init__(self, schema_dir: Path):
        self._validators = {}
        for path in sorted(Path(schema_dir).glob("*.json")):
            schema = json.loads(path.read_text())
            self._validators[path.stem] = jsonschema.Draft7Validator(schema)

    def problems(self, argv, code: int, stdout: str, expect: dict) -> list:
        """Everything wrong with one invocation's result; empty means it passed."""
        found = []
        if code != expect["exit"]:
            found.append(f"exit code {code}, expected {expect['exit']}")
        try:
            payload = strict_loads(stdout)
        except ValueError as exc:
            return found + [f"stdout is not strict JSON: {exc}"]
        command = argv[0]
        schema = "certificate" if command in _CERTIFICATE_COMMANDS else command
        validator = self._validators.get(schema)
        if validator is None:
            found.append(f"no schema {schema}.json")
        else:
            found += [f"schema: {err.message}" for err in validator.iter_errors(payload)]
        for path, op, want in expect["facts"]:
            try:
                value = _lookup(payload, path)
                ok = _fact_holds(value, op, want)
            except (KeyError, TypeError, IndexError):
                ok, value = False, "<missing>"
            if not ok:
                found.append(f"{path} = {value!r}, expected {op} {want!r}")
        return found


def self_check(checker: Checker) -> list:
    """Feed the checker outputs it must refuse; return those it accepted.

    A checker that passes a wrong verdict or a NaN would let a broken
    program report ``failed_ratio`` 0, so every run starts with this.
    """
    good = json.dumps({"verdict": "equivalent", "residual": 0.0, "witness": None,
                       "details": {"families": ["hp2", "sphere"]}})
    nan = good.replace('"residual": 0.0', '"residual": NaN')
    right = {"exit": 0, "facts": [("verdict", "eq", "equivalent")]}
    wrong_verdict = {"exit": 0, "facts": [("verdict", "eq", "contradiction")]}
    cases = [
        ("the affirming payload", good, right, True),
        ("a wrong expected verdict", good, wrong_verdict, False),
        ("a payload containing NaN", nan, right, False),
    ]
    return [
        label
        for label, stdout, expect, should_pass in cases
        if (not checker.problems(["theorem2"], 0, stdout, expect)) != should_pass
    ]
