"""JSON persistence for polynomials, inner functions, reports and certificates.

Conventions: complex scalars serialize as [re, im] pairs, keys are
sorted, floats go through repr (shortest round-trip form), and every
document carries a schema_version.  Round-trips are byte-identical;
timestamps, when present, live in a "timestamp" field.

A function is written as its bare ``poly1d``, ``polynd`` or ``inner``
document; the ``{"kind": "expr", "node": ...}`` envelope of older
reports is still read, as the leaf inside it.  Both polynomial kinds
read into one class, ``PolynomialND``; one variable is written as a
``poly1d`` (the coefficients), more as a ``polynd`` (terms and ``dim``).
Two writers name ``polynd`` in one variable too: simul's f, whose
readers take ``dim`` from it, and the ``bloch-norm`` and ``certify``
copy of a config function given as one.
"""

from __future__ import annotations

import json

import numpy as np

from .arcs import ArcSet
from .expressions import PolynomialND
from .inner import InnerSpec, SingularMeasureSpec
from .universality import Certificate, UniversalCandidate

__all__ = [
    "SCHEMA_VERSION",
    "SerializationError",
    "to_document",
    "from_document",
    "dumps",
    "loads",
    "save",
    "load",
]

SCHEMA_VERSION = 1


class SerializationError(ValueError):
    """Unknown node kind or malformed document."""


def _cpx(c) -> list:
    c = complex(c)
    return [c.real, c.imag]


def _uncpx(v) -> complex:
    return complex(v[0], v[1])


def _coeff_list(arr) -> list:
    return [_cpx(c) for c in np.asarray(arr, dtype=complex)]


def to_document(obj, polynd: bool = False) -> dict:
    """Encode a supported object as a JSON-ready dict; ``polynd`` asks for that kind in one variable."""
    if isinstance(obj, PolynomialND):
        if obj.dim == 1 and not polynd:
            return {"kind": "poly1d", "coeffs": _coeff_list(obj.coeffs)}
        terms = [[list(alpha), _cpx(c)] for alpha, c in obj.terms.items()]
        return {"kind": "polynd", "dim": obj.dim, "terms": terms}
    if isinstance(obj, SingularMeasureSpec):
        doc = {"kind": "measure", "measure_kind": obj.kind}
        if obj.kind == "atomic":
            doc["atoms"] = [[_cpx(z), float(m)] for z, m in obj.atoms]
        else:
            doc.update(center=_cpx(obj.center), arc_length=float(obj.arc_length),
                       ratio=float(obj.ratio), depth=int(obj.depth),
                       mass=float(obj.mass))
        return doc
    if isinstance(obj, InnerSpec):
        doc = {"kind": "inner", "inner_kind": obj.kind}
        if obj.kind == "singular":
            doc["measure"] = to_document(obj.measure)
        elif obj.kind == "blaschke":
            doc["zeros"] = [_cpx(a) for a in obj.zeros]
        else:
            doc["chain"] = [to_document(s) for s in obj.chain]
        return doc
    if isinstance(obj, ArcSet):
        return {"kind": "arcs", "arcs": obj.to_json()}
    if isinstance(obj, Certificate):
        return {"kind": "certificate", **obj.to_dict()}
    if isinstance(obj, UniversalCandidate):
        return {
            "kind": "candidate",
            "blocks": [to_document(b) for b in obj.blocks],
            "budgets": list(obj.budgets),
            "indices": list(obj.indices),
            "certificates": [to_document(c) for c in obj.certificates],
            "partial_norms": list(obj.partial_norms),
            "failed": list(obj.failed),
        }
    raise SerializationError(f"cannot serialize {type(obj).__name__}")


def from_document(doc):
    """Decode a document produced by to_document."""
    try:
        kind = doc["kind"]
    except (TypeError, KeyError) as exc:
        raise SerializationError("document has no kind") from exc
    if kind == "poly1d":
        return PolynomialND(np.array([_uncpx(c) for c in doc["coeffs"]], dtype=complex))
    if kind == "polynd":
        terms = {tuple(alpha): _uncpx(c) for alpha, c in doc["terms"]}
        return PolynomialND.from_terms(terms, doc["dim"])
    if kind == "measure":
        if doc["measure_kind"] == "atomic":
            atoms = tuple((_uncpx(z), m) for z, m in doc["atoms"])
            return SingularMeasureSpec(kind="atomic", atoms=atoms)
        return SingularMeasureSpec(kind=doc["measure_kind"], center=_uncpx(doc["center"]),
                                   arc_length=doc["arc_length"], ratio=doc["ratio"],
                                   depth=doc["depth"], mass=doc["mass"])
    if kind == "inner":
        ik = doc["inner_kind"]
        if ik == "singular":
            return InnerSpec.singular(from_document(doc["measure"]))
        if ik == "blaschke":
            return InnerSpec.blaschke([_uncpx(a) for a in doc["zeros"]])
        return InnerSpec.composition([from_document(s) for s in doc["chain"]])
    if kind == "expr":
        node = doc["node"]
        if node not in ("poly1d", "polynd", "inner"):
            raise SerializationError(f"unknown expression node {node!r}")
        return from_document(doc["inner" if node == "inner" else "poly"])
    if kind == "arcs":
        return ArcSet.from_json(doc["arcs"])
    if kind == "certificate":
        return Certificate(doc["target_id"], doc["n"], doc["radius"],
                           tuple(_uncpx(a) for a in doc["anchors"]),
                           doc["d_sup"], doc["good_measure"],
                           doc["block_norm"], doc["partial_index"], doc["verified"])
    if kind == "candidate":
        return UniversalCandidate(
            tuple(from_document(b) for b in doc["blocks"]),
            tuple(doc["budgets"]), tuple(doc["indices"]),
            tuple(from_document(c) for c in doc["certificates"]),
            tuple(doc["partial_norms"]), tuple(doc["failed"]))
    raise SerializationError(f"unknown document kind {kind!r}")


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return _cpx(obj)
    return obj


def dumps(doc: dict) -> str:
    """Deterministic JSON text: sorted keys, stable float formatting."""
    payload = dict(_plain(doc))
    payload.setdefault("schema_version", SCHEMA_VERSION)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def loads(text: str) -> dict:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise SerializationError("top-level document must be an object")
    return doc


def save(path, doc: dict) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(doc))
        fh.write("\n")


def load(path) -> dict:
    with open(path) as fh:
        return loads(fh.read())
