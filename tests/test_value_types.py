"""The package's value types: read-only fields, equality and hashing by
field, and a repr that names each field."""

import numpy as np
import pytest

from curvadapt import grassmannian as g
from curvadapt import tube_flow as tf
from curvadapt.certificates import Certificate
from curvadapt.operators import SelfAdjointOperator

#: type name -> (fields in order, a builder of one instance)
VALUE_TYPES = {
    "Certificate": (("verdict", "residual", "witness", "details"),
                    lambda: Certificate("distinct", 0.5, {"t": 1.0}, {"n": [1, 2]})),
    "CurvatureBranch": (("kappa", "space_sign", "phase", "multiplicity"),
                        lambda: tf.CurvatureBranch.compact(2.0, 0.5, 3)),
    "PCSystem": (("branches", "label"),
                 lambda: tf.PCSystem((tf.CurvatureBranch.flat(0.5),), "q")),
    "FocalConfiguration": (("g", "m2", "m1"),
                           lambda: tf.admissible_focal_configurations()[0]),
    "SelfAdjointOperator": (("matrix",), lambda: SelfAdjointOperator(np.diag([1.0, 2.0]))),
    "EigenCluster": (("value", "multiplicity", "vectors"),
                     lambda: SelfAdjointOperator(np.diag([1.0, 2.0])).spectrum()[0]),
    "StructureBundle": (("m", "J", "J1", "J2", "J3"), lambda: g.StructureBundle.standard(2)),
    "HopfPair": (("lambda1", "lambda2", "residual", "ratio_defect"),
                 lambda: g.hopf_eigenvectors([0.5], g.StructureBundle.standard(2))[0]),
}


@pytest.mark.parametrize("fields, build", VALUE_TYPES.values(), ids=VALUE_TYPES)
def test_value_type_contract(fields, build):
    value = build()
    values = tuple(getattr(value, field) for field in fields)
    for field, item in zip(fields, values):
        with pytest.raises(AttributeError):
            setattr(value, field, item)
    twin = type(value)(*values)
    assert twin == value
    try:
        hash(values)
    except TypeError:  # an array or dict field: the value is unhashable too
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(twin) == hash(value)
    shown = ", ".join(f"{field}={item!r}" for field, item in zip(fields, values))
    assert repr(value) == f"{type(value).__name__}({shown})"


def test_focal_configurations_sort_in_enumeration_order():
    everything = tf.enumerate_focal_configurations()
    assert sorted(everything) == everything
