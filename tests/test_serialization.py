import os

import numpy as np
import pytest

from blochlab import serialize
from blochlab.arcs import ArcSet
from blochlab.expressions import Polynomial1D, PolynomialND
from blochlab.inner import InnerSpec, SingularMeasureSpec
from blochlab.universality import Certificate


def _round_trip(obj):
    doc = serialize.to_document(obj)
    text = serialize.dumps(doc)
    back = serialize.from_document(serialize.loads(text))
    return text, serialize.dumps(serialize.to_document(back))


def test_poly1d_round_trip_byte_identical():
    p = Polynomial1D(np.array([0.5, 0.0, 1j, -0.25 + 0.125j]))
    a, b = _round_trip(p)
    assert a == b


def test_polynd_round_trip():
    p = PolynomialND.from_terms({(2, 0): 1.0, (0, 1): -1j}, 2)
    a, b = _round_trip(p)
    assert a == b
    # one variable is a poly1d unless the writer names polynd; both read back alike
    q = Polynomial1D(np.array([0.5, 0.0, 1j]))
    doc = serialize.to_document(q, polynd=True)
    assert (doc["kind"], doc["dim"]) == ("polynd", 1)
    assert serialize.to_document(q)["kind"] == "poly1d"
    assert np.array_equal(serialize.from_document(doc).coeffs, q.coeffs)


def test_a_criterion_7_f_of_the_sparse_format_reserialises_byte_for_byte():
    # simul's f on Re z1 Re z2 as written when PolynomialND held a sparse
    # dict: it loads into the dense array and is written back unchanged
    path = os.path.join(os.path.dirname(__file__), "data", "criterion_07_f.json")
    with open(path) as fh:
        text = fh.read()
    f = serialize.from_document(serialize.loads(text))
    assert f.coeffs.shape == (9, 9) and len(f.terms) == 81
    assert serialize.dumps(serialize.to_document(f)) + "\n" == text


def test_inner_chain_round_trip():
    spec = InnerSpec.composition([
        InnerSpec.atomic([(1.0 + 0j, 0.4)]),
        InnerSpec.blaschke([0.3 - 0.2j]),
    ])
    a, b = _round_trip(spec)
    assert a == b


def test_cantor_measure_round_trip():
    spec = SingularMeasureSpec(kind="cantor")
    a, b = _round_trip(spec)
    assert a == b


@pytest.mark.parametrize("f", [
    Polynomial1D(np.array([1.0, 0.5j])),
    PolynomialND.from_terms({(1, 1): 2.0, (0, 3): -0.5j}, 2),
    InnerSpec.composition([InnerSpec.atomic([(1j, 0.2)]), InnerSpec.blaschke([0.3 - 0.2j])]),
], ids=["poly1d", "polynd", "inner"])
def test_expression_leaf_round_trip(f):
    # a function is written as its bare leaf document
    a, b = _round_trip(f)
    assert a == b
    leaf = serialize.loads(a)
    assert leaf["kind"] in ("poly1d", "polynd", "inner")
    # the expr envelope of older reports still reads as the same leaf
    key = "inner" if leaf["kind"] == "inner" else "poly"
    old = {"kind": "expr", "node": leaf["kind"], "dim": leaf.get("dim", 1), key: leaf}
    back = serialize.from_document(serialize.loads(serialize.dumps(old)))
    assert type(back) is type(f)
    assert serialize.dumps(serialize.to_document(back)) == a


def test_arcset_round_trip():
    F = ArcSet.from_arcs([(0.2, 1.1), (3.0, 4.0)])
    a, b = _round_trip(F)
    assert a == b


def test_certificate_round_trip():
    cert = Certificate("trig[k=1,c=1]", 3, 0.875, (0.0 + 0j, 0.3 + 0j),
                       0.05, 0.97, 1.5, 0, True)
    a, b = _round_trip(cert)
    assert a == b


def test_dumps_sorts_keys_and_adds_schema_version():
    text = serialize.dumps({"b": 1, "a": 2})
    assert text.index('"a"') < text.index('"b"')
    assert '"schema_version":1' in text


def test_save_load(tmp_path):
    p = tmp_path / "doc.json"
    doc = serialize.to_document(Polynomial1D(np.array([1.0, 2.0])))
    serialize.save(p, doc)
    assert serialize.dumps(serialize.load(p)) == serialize.dumps(doc)


def test_unknown_kind_raises():
    with pytest.raises(serialize.SerializationError):
        serialize.from_document({"kind": "nonsense"})
    leaf = serialize.to_document(Polynomial1D(np.array([0.0, 1.0])))
    for node in ("sum", "product", "compose", "dilate", "radialize"):
        with pytest.raises(serialize.SerializationError, match="unknown expression node"):
            serialize.from_document({"kind": "expr", "node": node, "dim": 1,
                                     "children": [leaf, leaf], "factor": 0.5})
    with pytest.raises(serialize.SerializationError):
        serialize.to_document(object())


def test_numpy_scalars_flattened():
    text = serialize.dumps({"v": np.float64(0.5), "n": np.int64(3),
                            "b": np.bool_(True)})
    assert '"v":0.5' in text and '"n":3' in text and '"b":true' in text
