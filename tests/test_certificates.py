import json
import math

import numpy as np
import pytest

from curvadapt import isoparametric as iso
from curvadapt import tube_flow as tf
from curvadapt.certificates import Certificate


def test_verdict_validation():
    with pytest.raises(ValueError):
        Certificate(verdict="maybe", residual=0.0)


def test_positive_only_for_equivalent():
    assert Certificate("equivalent", 0.0).positive
    assert not Certificate("distinct", 1.0).positive
    assert not Certificate("contradiction", 1.0).positive


def test_non_finite_floats_pass_through():
    # strict serialization has to see them to reject them
    payload = Certificate("distinct", math.inf, details={"a": [-math.inf, 1.0]}).to_json_dict()
    assert payload["residual"] == math.inf
    assert payload["details"] == {"a": [-math.inf, 1.0]}
    assert math.isnan(Certificate("distinct", float("nan")).to_json_dict()["residual"])
    with pytest.raises(ValueError):
        json.dumps(payload, allow_nan=False)


PLAIN_TYPES = (dict, list, tuple, str, bool, int, float, type(None))


def assert_plain(value, path):
    """Every value is exactly a plain JSON type (no subclass such as a numpy
    float or bool), and every dict key is a str."""
    assert type(value) in PLAIN_TYPES, f"{path}: {type(value).__name__}"
    if type(value) is dict:
        for key, item in value.items():
            assert type(key) is str, f"{path}: key {key!r}"
            assert_plain(item, f"{path}[{key!r}]")
    elif type(value) in (list, tuple):
        for i, item in enumerate(value):
            assert_plain(item, f"{path}[{i}]")


def oracle_certificates():
    """(name, certificate) from every oracle, over each verdict it gives."""
    yield "theorem2", tf.theorem2_certificate()
    grid = tf.linspace(0.25, 1.30, 24)
    for mode in ("a_jj_const", "a_zz_const", "ratio_const"):
        yield f"theorem3 {mode}", tf.theorem3_sweep(grid, constraint=mode)
    yield "theorem3 boundary", tf.theorem3_boundary_case()
    single, split = iso.doubling_identity_pair()
    yield "doubling pair", iso.profiles_equivalent(single, split)
    for kappa_constant in (True, False):
        yield (f"doubling family kappa_constant={kappa_constant}",
               iso.isoparametric_verdict([single, split], kappa_constant=kappa_constant))
    rng = np.random.default_rng(11)
    for i in range(24):
        p, q, _ = iso.random_profile_pair(rng)
        yield f"seeded pair {i}", iso.profiles_equivalent(p, q)
        yield f"seeded family {i}", iso.isoparametric_verdict([p, q])


def test_oracle_payloads_hold_only_plain_json_types():
    # to_json_dict returns the fields as built, so the oracles must build
    # them from plain types for the dump to be standard JSON
    verdicts = set()
    for name, cert in oracle_certificates():
        assert_plain(cert.to_json_dict(), name)
        verdicts.add(cert.verdict)
    assert verdicts == {"equivalent", "distinct", "contradiction"}
