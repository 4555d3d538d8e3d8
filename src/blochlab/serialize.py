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
copy of a config function given as one.  The ``depth`` key of older
Cantor measures is ignored, like any key a reader does not read.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import replace

import numpy as np

from .arcs import ArcSet
from .expressions import PolynomialND, multi_index
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
    """Unknown node kind or malformed document; ``path`` is the dotted key at fault."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.message, self.path = message, path


def at(key: str, read, value):
    """read(value); a ValueError it raises is named by ``key`` (a name or "[i]") ahead of its path.

    Readers raise ValueError for bad input; any other error is a reader's own fault.
    """
    try:
        return read(value)
    except ValueError as exc:
        msg, path = (exc.message, exc.path) if isinstance(exc, SerializationError) else (exc, "")
        raise SerializationError(str(msg), key + ("." if path[:1] not in ("", "[") else "")
                                 + path) from exc


def field(doc, key: str, read=lambda v: v, default=inspect.Parameter.empty):
    """read(doc[key]) with errors named by ``key``; an absent key is ``default``, or an error."""
    if not isinstance(doc, dict):
        raise SerializationError(f"expected an object, got {doc!r}")
    if key not in doc and default is inspect.Parameter.empty:
        raise SerializationError(f"missing key {key!r}", key)
    return at(key, read, doc[key]) if key in doc else default


def each(read, empty: str = ""):
    """A reader of a JSON list that reads each item at its index; ``empty`` rejects []."""
    def read_list(items):
        if not isinstance(items, list) or (empty and not items):
            raise SerializationError(empty if items == [] else f"expected a list, got {items!r}")
        return [at(f"[{i}]", read, v) for i, v in enumerate(items)]
    return read_list


def _cpx(c) -> list:
    c = complex(c)
    return [c.real, c.imag]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _items(v, n: int, what: str, item=lambda x: True) -> list:
    """v, when it is a JSON list of n items that ``item`` accepts; else an error naming what."""
    if not (isinstance(v, list) and len(v) == n and all(map(item, v))):
        raise SerializationError(f"expected {what}, got {v!r}")
    return v


def _uncpx(v) -> complex:
    return complex(*_items(v, 2, "an [re, im] pair of numbers", _is_number))


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
                       ratio=float(obj.ratio), mass=float(obj.mass))
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
    """Decode a document produced by to_document; an error names its dotted key."""
    kind = field(doc, "kind")
    if kind == "poly1d":
        return PolynomialND(np.array(field(doc, "coeffs", each(_uncpx)), dtype=complex))
    if kind == "polynd":
        dim = field(doc, "dim", lambda d: PolynomialND.from_terms({}, d).dim)

        def term(t):
            alpha, c = _items(t, 2, "a term [multi-index, [re, im]]")
            alpha = _items(alpha, dim, f"a multi-index of length {dim}")
            return multi_index(alpha, dim), _uncpx(c)

        return field(doc, "terms", lambda ts: PolynomialND.from_terms(dict(each(term)(ts)), dim))
    if kind == "measure":
        mk = field(doc, "measure_kind")
        if mk == "atomic":
            return field(doc, "atoms", lambda atoms: SingularMeasureSpec(
                kind="atomic", atoms=tuple(each(lambda a: (
                    _uncpx(_items(a, 2, "an atom [[re, im], mass]")[0]), a[1]))(atoms))))
        # set field by field from valid defaults, so a field's error names it
        spec = SingularMeasureSpec(kind=mk)
        for k in ("center", "arc_length", "ratio", "mass"):
            spec = field(doc, k, lambda v: replace(spec, **{k: _uncpx(v) if k == "center" else v}))
        return spec
    if kind == "inner":
        ik = field(doc, "inner_kind")
        if ik == "singular":
            return InnerSpec.singular(field(doc, "measure", from_document))
        if ik == "blaschke":
            return field(doc, "zeros", lambda zs: InnerSpec.blaschke(each(_uncpx)(zs)))
        return field(doc, "chain", lambda ch: InnerSpec.composition(each(from_document)(ch)))
    if kind == "expr":
        node = field(doc, "node")
        if node not in ("poly1d", "polynd", "inner"):
            raise SerializationError(f"unknown expression node {node!r}", "node")
        return field(doc, "inner" if node == "inner" else "poly", from_document)
    if kind == "arcs":
        return field(doc, "arcs", lambda arcs: ArcSet.from_json(
            each(lambda a: _items(a, 2, "an [a, b] pair of numbers", _is_number))(arcs)))
    if kind == "certificate":
        return Certificate(*(field(doc, k) for k in ("target_id", "n", "radius")),
                           tuple(field(doc, "anchors", each(_uncpx))),
                           *(field(doc, k) for k in ("d_sup", "good_measure", "block_norm",
                                                     "partial_index", "verified")))
    if kind == "candidate":
        def items(key, read=lambda v: v):
            return tuple(field(doc, key, each(read)))

        return UniversalCandidate(items("blocks", from_document), items("budgets"),
                                  items("indices"), items("certificates", from_document),
                                  items("partial_norms"), items("failed"))
    raise SerializationError(f"unknown document kind {kind!r}", "kind")


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
