"""Command line front end: one subcommand per artifact, JSON in, JSON out.

Every run reads a JSON config, executes one scenario, and writes a
report document (plus CSV side files where a table is the natural
output) into the output directory.  Reports carry schema_version, the
config and seed actually used, and a timestamp; the timestamp is the
only field excluded from byte-level determinism, which is what lets
``verify`` re-run a report and compare.
"""

import argparse
import inspect
import json
import math
import os
import pathlib
import sys
import tempfile
import time

import numpy as np

from . import serialize
from .approximation import (ApproxError, decomposition_csv, jensen_gap_floor, product_decompose,
                            runge_pair)
from .arcs import TWO_PI, ArcSet
from .blochnorm import (WeightSpec, bloch_norm, little_bloch_profile, profile_to_csv,
                        weight_integral_test)
from .expressions import PathSpec, PolynomialND
from .inner import (InnerSpec, QuadratureError, ShrinkFailure, compose_shrink,
                    hyperbolic_quotient, loewner_transport_check)
from .numerics import dyadic_radii
from .pipeline import simul_approx_disc, simul_approx_polydisc
from .serialize import SerializationError, each, field
from .universality import (TargetEnumeration, certificates_csv, certify,
                           cluster_probe, default_radii, lacunary_baseline,
                           universal_build)


class ConfigError(Exception):
    """A config its subcommand's table rejects; the message starts with the key's dotted path."""


def _check_finite(v) -> None:
    """An error at the first number of a config, at any depth, that is not finite."""
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError(f"config number {v!r} is not finite")
    for k, x in v.items() if isinstance(v, dict) else enumerate(v) if isinstance(v, list) else ():
        serialize.at(k if isinstance(k, str) else f"[{k}]", _check_finite, x)


def _checked(read, ok, message: str):
    """A reader: read(v), which ``ok`` must accept; ``message`` may show the value as {v!r}."""
    def check(v):
        if not ok(w := read(v)):
            raise ValueError(message.format(v=v))
        return w
    return check


_number = _checked(lambda v: v, lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
                   "expected a number, got {v!r}")
_int = _checked(_number, lambda v: isinstance(v, int), "expected a whole number, got {v!r}")
_pair = _checked(lambda v: tuple(float(_number(x)) for x in v) if isinstance(v, list) else (),
                 lambda p: len(p) == 2, "expected an [a, b] pair, got {v!r}")


def _real(name, lo=-math.inf, hi=math.inf):
    return _checked(lambda v: float(_number(v)), lambda x: lo < x < hi,
                    f"{name} must lie in ({lo:g}, {hi:g}), got {{v!r}}")


def _whole(name, lo=-math.inf, hi=math.inf):
    return _checked(_int, lambda n: lo <= n <= hi, f"{name} must be >= {lo}, got {{v!r}}"
                    if hi == math.inf else f"{name} must lie in [{lo}, {hi}], got {{v!r}}")


def _seed(v) -> int:
    """A random seed: a whole number >= 0."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"seed must be a number, not {type(v).__name__}")
    return _whole("seed", 0)(v)


def _complex(v) -> complex:
    """A complex number from a config value: a real number or an [re, im] pair."""
    return complex(*map(_number, v if isinstance(v, list) and len(v) == 2 else [v]))


def _function_from_config(spec) -> tuple:
    """A PolynomialND or InnerSpec from a config function spec, and whether it is a ``polynd``."""
    kind = field(spec, "kind")
    if kind == "coeffs":
        f = PolynomialND(np.array(field(spec, "coeffs", each(_complex)), dtype=complex))
    elif kind == "monomial":
        f = PolynomialND.from_terms({(field(spec, "n", _whole("monomial degree n", 0)),): 1.0}, 1)
    elif kind == "lacunary":
        f = lacunary_baseline(field(spec, "K", _whole("K", 1)))
    elif kind not in ("poly1d", "polynd", "inner", "expr") or \
            not isinstance(f := serialize.from_document(spec), (PolynomialND, InnerSpec)):
        raise ValueError(f"cannot interpret function spec of kind {kind!r}")
    return f, "polynd" in (kind, spec.get("node"))


def _inner_from_config(spec) -> InnerSpec:
    kind = field(spec, "kind")
    if kind == "atomic":
        return field(spec, "atoms", lambda atoms: InnerSpec.atomic(
            (np.exp(1j * theta), mass) for theta, mass in each(_pair)(atoms)))
    if kind == "blaschke":
        return field(spec, "zeros", lambda zeros: InnerSpec.blaschke(each(_complex)(zeros)))
    if kind not in ("inner", "expr") or not isinstance(obj := serialize.from_document(spec), InnerSpec):
        raise ValueError("spec does not describe an inner function")
    return obj


def _arcs_from_config(spec) -> ArcSet:
    return ArcSet.from_arcs(each(_pair, "arcs must be a non-empty list of [a, b] pairs")(spec))


# a custom weight table: a row of t values, then a row of omega values
_table_row = _checked(each(lambda v: float(_number(v))), lambda r: len(r) >= 2,
                      "expected a row of at least two numbers, got {v!r}")
_table = _checked(each(_table_row), lambda t: len(t) == 2 and len(t[0]) == len(t[1]),
                  "expected two rows of equal length, t values then omega values, got {v!r}")


def _weight_from_config(spec) -> WeightSpec:
    return WeightSpec(field(spec, "kind"), float(field(spec, "parameter", _number, 1.0)),
                      tuple(map(tuple, field(spec, "table", _table, ()))))


def _target_from_config(spec):
    """Boundary target as a vectorized callable plus a stable id string."""
    kind = field(spec, "kind")
    if kind == "constant":
        c = field(spec, "value", _complex, 0j)
        return (lambda z: np.full(np.shape(z), c, dtype=complex)), \
            f"constant[{c.real:g}{c.imag:+g}j]"
    if kind == "re":
        return (lambda z: np.asarray(z, dtype=complex).real.astype(complex)), "re"
    if kind == "monomial":
        k, c = field(spec, "n", _int, 1), field(spec, "scale", _complex, 1 + 0j)
        return (lambda z: c * (np.asarray(z, dtype=complex) ** k if k >= 0 else
                               np.conj(np.asarray(z, dtype=complex)) ** -k)), f"monomial[{k}]"
    if kind == "step":
        jumps = np.array(field(spec, "jumps", _checked(
            each(lambda t: float(_number(t))), lambda t: t and 0.0 <= t[0] < TWO_PI
            and all(a < b for a, b in zip(t, t[1:] + [TWO_PI])),
            "step jumps must increase strictly inside [0, 2 pi), got {v!r}")))
        values = np.array(field(spec, "values", each(_complex)), dtype=complex)
        if len(values) != len(jumps):
            raise SerializationError("step target needs one value per jump", "values")
        return (lambda z: values[np.searchsorted(jumps, np.angle(np.asarray(z, dtype=complex))
                                                 % TWO_PI, side="right") % len(values)]), "step"
    if kind == "product_re":
        return (lambda p: (np.asarray(p, dtype=complex)[..., 0].real
                           * np.asarray(p, dtype=complex)[..., 1].real).astype(complex)), kind
    raise SerializationError(f"unknown target kind {kind!r}", "kind")


def _variables(n: tuple, message: str, domain=None) -> tuple:
    return ("function", lambda a: a.get("domain") != domain
            or getattr(a["function"][0], "dim", 1) in n, message)


_NO_TARGET = "universal build needs at least one target"
_ANCHOR = _checked(_complex, lambda w: abs(w) < 1.0, "anchor must be interior, got {v!r}")
_CIRCLE_TARGET = _checked(_target_from_config, lambda t: t[1] != "product_re",
                          "a target on the circle takes one variable, got {v!r}")
_DIM = ("dim", lambda a: (2 if a["target"][1] == "product_re" else 1) == a["dim"],
        "dim must equal the target's arity: 2 for product_re, 1 for every other kind")
# rules that span keys: (key to name, test of the typed keys, message)
_RULES = {
    "bloch-norm": [_variables((1,), "disc norm needs a one-variable function", "disc"),
                   _variables((1, 2), "ball norm needs at most two variables", "ball"),
                   _variables((2,), "polydisc norm needs a two-variable polynomial", "polydisc")],
    "little-bloch": [_variables((1,), "little-Bloch profiles take one-variable functions")],
    "weighted": [_variables((1, 2), "weighted norms take functions of one or two variables")],
    "certify": [_variables((1,), "certify takes one-variable functions")],
    "cluster": [_variables((1,), "cluster probes take one-variable functions")],
    "decompose": [_DIM], "simul": [_DIM],
    "universal": [("targets", lambda a: a["enumerate"] is not None or a["targets"], _NO_TARGET),
                  ("eps_schedule", lambda a: sum(a["eps_schedule"]) < a["total_budget"],
                   "eps schedule exceeds the total Bloch budget")],
}


# ---------------------------------------------------------------------------
# subcommand handlers: (seed, out, typed keys) -> (document, exit status),
# side files in out.  A handler exits 1 when its run breaks its report's contract.


def _cmd_bloch_norm(seed, out, *, function: _function_from_config, domain: _checked(
        str, ("disc", "ball", "polydisc").__contains__, "unknown domain {v!r}") = "disc"):
    return {"report": bloch_norm(function[0], domain=domain).to_dict(),
            "function": serialize.to_document(*function)}, 0


def _cmd_little_bloch(seed, out, *, function: _function_from_config,
                      j_max: _whole("j_max", 0, 53) = 16):
    radii = tuple(r for r in dyadic_radii(j_max, linear=32) if r > 0.0)
    prof = little_bloch_profile(function[0], radii)
    profile_to_csv(radii, prof, os.path.join(out, "little_bloch_profile.csv"))
    tail = prof[-5:]
    return {"profile_csv": "little_bloch_profile.csv", "outer_shell_sups": [float(v) for v in tail],
            "vanishing_trend": bool(np.all(np.diff(tail) <= 1e-3))}, 0


def _cmd_weighted(seed, out, *, function: _function_from_config, weight: _weight_from_config):
    domain = "disc" if getattr(function[0], "dim", 1) == 1 else "polydisc"
    return {"report": bloch_norm(function[0], domain, weight=weight).to_dict()}, 0


def _cmd_weight_test(seed, out, *, weight: _weight_from_config, x: _real("x", 0.0, 1.0) = 0.5,
                     tolerance: _real("tolerance", 0.0) = 2e-3):
    res = weight_integral_test(weight, x, tolerance=tolerance)
    partials = np.asarray(res.partials, dtype=float)
    monotone = bool(np.all(np.diff(partials) >= -1e-15))
    consistent = res.verdict != "diverges" or partials[-1] > partials[0]
    return {"report": res.to_dict()}, 0 if monotone and consistent else 1


def _cmd_inner_quotient(seed, out, *, inner: _inner_from_config,
                        samples: _whole("samples", 1) = 100_000):
    rng = np.random.default_rng(seed)
    z = np.sqrt(rng.uniform(0.0, 0.9999, samples)) * np.exp(1j * rng.uniform(0.0, TWO_PI, samples))
    q = hyperbolic_quotient(inner, z)
    q = q[np.isfinite(q)]
    # every sample boundary-saturated: nothing measured, so nothing shown
    top, mean = (float(np.max(q)), float(np.mean(q))) if q.size else (None, None)
    ok = top is not None and top <= 1.0 + 1e-9
    return {"samples": int(q.size), "max_quotient": top,
            "mean_quotient": mean, "schwarz_pick_ok": ok}, 0 if ok else 1


def _cmd_shrink(seed, out, *, inner: _inner_from_config, eta: _real("eta", 0.0, 1.0),
                max_chain: _whole("max_chain", 1) = 64):
    try:
        res = compose_shrink(inner, eta, max_chain=max_chain)
    except ShrinkFailure as exc:
        return {"error": str(exc), "stage": "shrink"}, 1
    return {"achieved_sup": res.achieved_sup, "target_met": res.target_met,
            "chain_length": res.chain_length, "spec": serialize.to_document(res.spec)}, 0


def _cmd_transport(seed, out, *, inner: _inner_from_config, arcs: _arcs_from_config,
                   samples: _whole("samples", 1) = 1_000_000):
    rep = loewner_transport_check(inner, arcs, samples, seed)
    ok = rep.deviation < 0.02 and not rep.inconclusive
    return {"arc_measure": rep.arc_measure, "preimage": rep.preimage.value,
            "preimage_ci": rep.preimage.half_width, "deviation": rep.deviation,
            "stabilized_fraction": rep.stabilized_fraction,
            "inconclusive": rep.inconclusive}, 0 if ok else 1


def _cmd_runge(seed, out, *, arcs: _arcs_from_config, delta: _real("delta", 0.0, 1.0),
               degree_cap: _whole("degree_cap", 8) = 4096):
    rep = runge_pair(arcs, delta, degree_cap=degree_cap)
    return {"poly": serialize.to_document(rep.poly), "margin_at_zero": float(abs(rep.poly(0.0))),
            "margin_on_set": rep.margin, "gap_floor_log10": jensen_gap_floor(arcs, rep.margin),
            "degree": rep.degree, "achieved": rep.achieved}, 0 if rep.achieved else 1


def _cmd_decompose(seed, out, *, target: _target_from_config, eps: _real("eps", 0.0),
                   dim: _whole("dim", 1, 2) = 2, m_cap: _whole("m_cap", 1) = 64):
    dec = product_decompose(target[0], dim, eps, m_cap=m_cap)
    pathlib.Path(out, "decomposition.csv").write_text(decomposition_csv(dec))
    achieved = dec.error < eps
    return {"target": target[1], "terms": len(dec.terms), "error": dec.error,
            "achieved": achieved, "csv": "decomposition.csv"}, 0 if achieved else 1


def _cmd_simul(seed, out, *, target: _target_from_config, eps: _real("eps", 0.0, 1.0),
               dim: _whole("dim", 1, 2) = 1):
    phi, tid = target
    res = simul_approx_disc(phi, eps) if dim == 1 else simul_approx_polydisc(phi, eps, dim)
    # a polydisc E is one arc set per axis
    E = serialize.to_document(res.E) if isinstance(res.E, ArcSet) \
        else [serialize.to_document(s) for s in res.E]
    return {"f": serialize.to_document(res.f, polynd=True), "E": E, "report": res.report,
            "target": tid}, 0


def _cmd_universal(seed, out, *, targets: each(_CIRCLE_TARGET, _NO_TARGET) = (),
                   enumerate: _checked(_int, lambda n: n >= 1, _NO_TARGET) = None,
                   n_max: _whole("n_max", 1, 53) = 20,
                   anchors: each(_ANCHOR, "universal build needs at least one anchor") = (0j,),
                   eps_schedule: each(_real("eps", 0.0), "eps schedule must not be empty") = (0.3,),
                   total_budget: _real("total_budget") = 16.0):
    cand = universal_build([(tid, fn) for fn, tid in targets] if enumerate is None
                           else TargetEnumeration(enumerate), default_radii(n_max), anchors,
                           eps_schedule, total_budget=total_budget)
    pathlib.Path(out, "certificates.csv").write_text(certificates_csv(cand))
    # failed certificates are data; the run itself succeeded
    return {**serialize.to_document(cand), "certificates_csv": "certificates.csv",
            "anchors": [[w.real, w.imag] for w in anchors], "failed_count": len(cand.failed),
            "verified_count": sum(c.verified for c in cand.certificates)}, 0


def _cmd_certify(seed, out, *, function: _function_from_config, target: _CIRCLE_TARGET,
                 n: _whole("n", 1, 20), tol: _real("tol", 0.0) = 0.25,
                 anchors: each(_ANCHOR, "certify needs at least one anchor") = (0j,)):
    return {**serialize.to_document(certify(function[0], target[0], n, anchors, tol=tol,
                                            target_id=target[1])),
            "function": serialize.to_document(*function)}, 0


def _cmd_cluster(seed, out, *, function: _function_from_config, values: each(_complex),
                 zeta: _checked(_complex, lambda z: abs(abs(z) - 1.0) <= 1e-12,
                                "path endpoint must lie on the circle, got {v!r}") = 1 + 0j,
                 n_max: _whole("n_max", 1, 39) = 16, tol: _real("tol", 0.0) = 0.25):
    # zeta lies within 1e-12 of the circle: r_n (1 + 1e-12) < 1 needs n <= 39
    hits = cluster_probe(function[0], PathSpec(zeta, 0.0, default_radii(n_max)), values, tol)
    return {"hits": [{"value": [h.value.real, h.value.imag], "hit": h.hit,
                      "distance": h.distance, "parameter": h.parameter} for h in hits],
            "hit_count": sum(h.hit for h in hits)}, 0


def _cmd_lacunary(seed, out, *, K: _whole("K", 1) = 8):
    f = lacunary_baseline(K)
    return {"K": K, "function": serialize.to_document(f), "report": bloch_norm(f).to_dict()}, 0


# ---------------------------------------------------------------------------
# verify: re-run the stored config and compare


def _differences(stored, fresh, key=""):
    """(dotted key, stored, recomputed) for each leaf where two JSON trees differ.

    Leaves are equal when their canonical text is, so infinities and NaN
    compare equal to themselves.
    """
    if isinstance(stored, dict) and isinstance(fresh, dict):
        for k in sorted(stored.keys() | fresh.keys()):
            sub = f"{key}.{k}" if key else k
            if k in stored and k in fresh:
                yield from _differences(stored[k], fresh[k], sub)
            else:
                yield sub, stored.get(k), fresh.get(k)
    elif isinstance(stored, list) and isinstance(fresh, list) and len(stored) == len(fresh):
        for i, (a, b) in enumerate(zip(stored, fresh)):
            yield from _differences(a, b, f"{key}[{i}]")
    elif serialize.dumps({"value": stored}) != serialize.dumps({"value": fresh}):
        yield key, stored, fresh


def _artifact(path) -> tuple:
    """(path, the stored report, its config's typed keys: None without a known command's)."""
    if not isinstance(path, str):  # an int would be read as a file descriptor
        raise ValueError(f"expected a path, got {path!r}")
    try:
        stored = serialize.load(path)
    except OSError as exc:
        raise ValueError(f"cannot read {path!r}: {exc.strerror}") from exc
    stored.pop("timestamp", None)
    if stored.get("command") not in _HANDLERS or "config" not in stored:
        return path, stored, None
    field(stored, "seed", _seed)
    return path, stored, field(stored, "config", lambda cfg: _parse(stored["command"], cfg, None))


def _cmd_verify(seed, out, *, artifact: _artifact):
    path, stored, keys = artifact
    command = stored.get("command")
    result = {"artifact": os.path.basename(path), "verified_command": command}
    if keys is None:
        check = {"check": "config", "passed": False,
                 "note": "the artifact stores no config of a known command"}
        return {**result, "checks": [check], "passed": False}, 1
    # a fresh directory: the artifact's own may hold the side files it names
    with tempfile.TemporaryDirectory() as tmp:
        fresh, status = _HANDLERS[command](stored["seed"], tmp, **keys)
        fresh = serialize.loads(serialize.dumps(
            _finish(fresh, command, stored["config"], stored["seed"])))
        checks = [{"check": "status", "passed": status == 0, "recomputed": status}]
        checks += [{"check": key, "passed": False, "stored": a, "recomputed": b}
                   for key, a, b in _differences(stored, fresh)]
        for name in sorted(os.listdir(tmp)):
            side = pathlib.Path(path).parent / name
            if not side.is_file() or side.read_bytes() != pathlib.Path(tmp, name).read_bytes():
                checks.append({"check": name, "passed": False})
    passed = all(c["passed"] for c in checks)
    return {**result, "checks": checks, "passed": passed}, 0 if passed else 1


# the subcommands: handler ``_cmd_<name>`` runs command <name>, its "_" read as "-"
_HANDLERS = {name[5:].replace("_", "-"): fn for name, fn in list(globals().items())
             if name.startswith("_cmd_")}


def _parse(command: str, cfg, error=ConfigError) -> dict:
    """The typed keyword arguments of ``command``'s handler, read from ``cfg`` once.

    The handler's keyword-only signature is the table: an annotation reads its
    key, a default stands for an absent key; ``_RULES`` span keys, other keys
    are ignored.  ``error`` (None: SerializationError) names a bad key's path.
    """
    try:
        if not isinstance(cfg, dict):
            raise SerializationError(f"config must be a JSON object, not {type(cfg).__name__}")
        _check_finite(cfg)
        keys = {name: field(cfg, name, p.annotation, p.default)
                for name, p in inspect.signature(_HANDLERS[command]).parameters.items()
                if p.kind is p.KEYWORD_ONLY}
        for key, ok, message in _RULES.get(command, ()):
            if not ok(keys):
                raise SerializationError(message, key)
    except SerializationError as exc:
        if error is None:
            raise
        raise error(str(exc)) from exc
    return keys


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="blochlab",
                                 description="Bloch function laboratory")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=name != "lacunary",
                       help="JSON scenario config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    return ap


def _finish(doc: dict, command: str, cfg: dict, seed: int) -> dict:
    """Stamp a handler's document with what re-runs it: command, seed, config."""
    return {**doc, "command": command, "seed": seed,
            "config": {k: v for k, v in cfg.items() if k != "out"}}


def _report(command: str, keys: dict, cfg: dict, out: str, seed: int) -> int:
    """Run ``command``'s handler on its typed keys, write the report; return the exit status."""
    doc, status = _HANDLERS[command](seed, out, **keys)
    doc = {**_finish(doc, command, cfg, seed), "timestamp": time.time()}
    path = os.path.join(out, f"{command.replace('-', '_')}_report.json")
    serialize.save(path, doc)
    print(f"{command}: wrote {path}" + ("" if status == 0 else " (FAILED)"))
    return status


def run_scenario(command: str, cfg: dict, out: str, seed: int) -> int:
    """Exit status of one subcommand run on ``cfg``; a config its table rejects is a ValueError."""
    return _report(command, _parse(command, cfg, ValueError), cfg, out, seed)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            cfg = json.loads(pathlib.Path(args.config).read_text()) if args.config else {}
        except (OSError, json.JSONDecodeError) as exc:  # the file itself: no key to name
            raise ConfigError(str(exc)) from exc
        keys = _parse(args.command, cfg)
        out = args.out or cfg.get("out") or os.environ.get("BLOCHLAB_OUT", ".")
        if not isinstance(out, str):
            raise ConfigError(f"out: out must be a directory path, not {type(out).__name__}")
        try:
            seed = serialize.at("seed", _seed,
                                args.seed if args.seed is not None else cfg.get("seed", 0))
        except SerializationError as exc:
            raise ConfigError(str(exc)) from exc
        os.makedirs(out, exist_ok=True)
        return _report(args.command, keys, cfg, out, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ApproxError, QuadratureError) as exc:
        print(f"stage failure [{args.command}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
