import json
import math

import numpy as np
import pytest

from curvadapt.certificates import Certificate, _json_safe


def test_verdict_validation():
    with pytest.raises(ValueError):
        Certificate(verdict="maybe", residual=0.0)


def test_positive_only_for_equivalent():
    assert Certificate("equivalent", 0.0).positive
    assert not Certificate("distinct", 1.0).positive
    assert not Certificate("contradiction", 1.0).positive


def test_json_dict_is_serializable():
    cert = Certificate(
        verdict="distinct",
        residual=np.float64(0.5),
        witness={"location": np.float64(1.25), "weights": np.array([2, 3])},
        details={"grid": (1.0, 2.0), "count": np.int64(7)},
    )
    payload = cert.to_json_dict()
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["witness"]["weights"] == [2, 3]
    assert back["details"]["count"] == 7


def test_non_finite_floats_pass_through():
    # strict serialization has to see them to reject them
    assert _json_safe(math.inf) == math.inf
    assert math.isnan(_json_safe(float("nan")))
    assert _json_safe({"a": [-math.inf, 1.0]}) == {"a": [-math.inf, 1.0]}
    with pytest.raises(ValueError):
        json.dumps(Certificate("distinct", math.inf).to_json_dict(), allow_nan=False)


def test_bools_survive():
    assert _json_safe({"ok": True}) == {"ok": True}
    assert _json_safe(False) is False
