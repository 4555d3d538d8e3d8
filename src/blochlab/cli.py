"""Command line front end: one subcommand per artifact, JSON in, JSON out.

Every run reads a JSON config, executes one scenario, and writes a
report document (plus CSV side files where a table is the natural
output) into the output directory.  Reports carry schema_version, the
config and seed actually used, and a timestamp; the timestamp is the
only field excluded from byte-level determinism, which is what lets
``verify`` re-run a report and compare.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import sys
import tempfile
import time

import numpy as np

from . import serialize
from .approximation import ApproxError, runge_pair, product_decompose, decomposition_csv
from .arcs import ArcSet
from .blochnorm import (WeightSpec, bloch_norm, little_bloch_profile, profile_to_csv,
                        weight_integral_test, weighted_bloch_norm)
from .expressions import FunctionExpr, PathSpec, Polynomial1D, PolynomialND
from .inner import (InnerSpec, QuadratureError, ShrinkFailure, compose_shrink,
                    hyperbolic_quotient, loewner_transport_check)
from .numerics import dyadic_radii
from .pipeline import simul_approx_disc, simul_approx_polydisc
from .universality import (TargetEnumeration, certificates_csv, certify,
                           cluster_probe, default_radii, lacunary_baseline,
                           universal_build)

TWO_PI = 2.0 * np.pi


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config -> objects


def _check_finite(v) -> None:
    """ConfigError at the first number of a config, at any depth, that is not finite."""
    if isinstance(v, dict):
        v = list(v.values())
    if isinstance(v, list):
        for item in v:
            _check_finite(item)
    elif isinstance(v, float) and not math.isfinite(v):
        raise ConfigError(f"config number {v!r} is not finite")


def _complex(v) -> complex:
    """A complex number from a config value: [re, im] or a real number."""
    return complex(v[0], v[1]) if isinstance(v, list) else complex(v)


def _function_from_config(spec) -> FunctionExpr:
    if not isinstance(spec, dict):
        raise ConfigError("function spec must be an object")
    kind = spec.get("kind")
    if kind == "coeffs":
        coeffs = [_complex(c) for c in spec["coeffs"]]
        return FunctionExpr.poly1d(Polynomial1D(np.array(coeffs, dtype=complex)))
    if kind == "monomial":
        n = int(spec["n"])
        coeffs = np.zeros(n + 1, dtype=complex)
        coeffs[n] = 1.0
        return FunctionExpr.poly1d(Polynomial1D(coeffs))
    if kind == "lacunary":
        return lacunary_baseline(int(spec["K"]))
    obj = serialize.from_document(spec)
    if isinstance(obj, Polynomial1D):
        return FunctionExpr.poly1d(obj)
    if isinstance(obj, PolynomialND):
        return FunctionExpr.polynd(obj)
    if isinstance(obj, InnerSpec):
        return FunctionExpr.inner(obj)
    if isinstance(obj, FunctionExpr):
        return obj
    raise ConfigError(f"cannot interpret function spec of kind {kind!r}")


def _inner_from_config(spec) -> InnerSpec:
    if not isinstance(spec, dict):
        raise ConfigError("inner spec must be an object")
    kind = spec.get("kind")
    if kind == "atomic":
        atoms = [(np.exp(1j * float(theta)), float(mass))
                 for theta, mass in spec["atoms"]]
        return InnerSpec.atomic(atoms)
    if kind == "blaschke":
        return InnerSpec.blaschke([complex(z[0], z[1]) for z in spec["zeros"]])
    obj = serialize.from_document(spec)
    if not isinstance(obj, InnerSpec):
        raise ConfigError("spec does not describe an inner function")
    return obj


def _arcs_from_config(spec) -> ArcSet:
    if not isinstance(spec, list) or not spec:
        raise ConfigError("arcs must be a non-empty list of [a, b] pairs")
    return ArcSet.from_arcs([(float(a), float(b)) for a, b in spec])


def _weight_from_config(spec) -> WeightSpec:
    if not isinstance(spec, dict):
        raise ConfigError("weight spec must be an object")
    kw = {"kind": spec["kind"]}
    if "parameter" in spec:
        kw["parameter"] = float(spec["parameter"])
    if "table" in spec:
        kw["table"] = tuple((float(t), float(v)) for t, v in spec["table"])
    return WeightSpec(**kw)


def _target_from_config(spec):
    """Boundary target as a vectorized callable plus a stable id string."""
    if not isinstance(spec, dict):
        raise ConfigError("target spec must be an object")
    kind = spec.get("kind")
    if kind == "constant":
        c = _complex(spec.get("value", 0.0))

        def fn(z, c=c):
            return np.full(np.shape(z), c, dtype=complex)

        return fn, f"constant[{c.real:g}{c.imag:+g}j]"
    if kind == "re":
        return (lambda z: np.asarray(z, dtype=complex).real.astype(complex)), "re"
    if kind == "monomial":
        k = int(spec.get("n", 1))
        c = _complex(spec.get("scale", 1.0))

        def fn(z, k=k, c=c):
            z = np.asarray(z, dtype=complex)
            return c * (z ** k if k >= 0 else np.conj(z) ** (-k))

        return fn, f"monomial[{k}]"
    if kind == "step":
        jumps = [float(t) for t in spec["jumps"]]
        values = [_complex(v) for v in spec["values"]]
        if len(values) != len(jumps):
            raise ConfigError("step target needs one value per jump")

        def fn(z, jumps=np.asarray(jumps), values=np.asarray(values, dtype=complex)):
            th = np.angle(np.asarray(z, dtype=complex)) % TWO_PI
            idx = np.searchsorted(jumps, th, side="right") % len(values)
            return values[idx]

        return fn, "step"
    if kind == "product_re":
        def fn(pts):
            pts = np.asarray(pts, dtype=complex)
            return (pts[..., 0].real * pts[..., 1].real).astype(complex)

        return fn, "product_re"
    raise ConfigError(f"unknown target kind {kind!r}")


# ---------------------------------------------------------------------------
# subcommand handlers: (config, seed, out) -> (document, exit status), side
# files in out.  A handler exits 1 when its run breaks its report's contract.


def _cmd_bloch_norm(cfg, seed, out):
    f = _function_from_config(cfg["function"])
    rep = bloch_norm(f, domain=cfg.get("domain", "disc"))
    return {"report": rep.to_dict(),
            "function": serialize.to_document(_function_payload(f))}, 0


def _cmd_little_bloch(cfg, seed, out):
    f = _function_from_config(cfg["function"])
    radii = tuple(r for r in dyadic_radii(int(cfg.get("j_max", 16)), linear=32)
                  if r > 0.0)
    prof = little_bloch_profile(f, radii)
    path = os.path.join(out, "little_bloch_profile.csv")
    profile_to_csv(radii, prof, path)
    tail = prof[-5:]
    return {"profile_csv": os.path.basename(path),
            "outer_shell_sups": [float(v) for v in tail],
            "vanishing_trend": bool(np.all(np.diff(tail) <= 1e-3))}, 0


def _cmd_weighted(cfg, seed, out):
    f = _function_from_config(cfg["function"])
    w = _weight_from_config(cfg["weight"])
    rep = weighted_bloch_norm(f, w)
    return {"report": rep.to_dict()}, 0


def _cmd_weight_test(cfg, seed, out):
    w = _weight_from_config(cfg["weight"])
    res = weight_integral_test(w, float(cfg.get("x", 0.5)),
                               tolerance=float(cfg.get("tolerance", 2e-3)))
    partials = np.asarray(res.partials, dtype=float)
    monotone = bool(np.all(np.diff(partials) >= -1e-15))
    consistent = res.verdict != "diverges" or partials[-1] > partials[0]
    return {"report": res.to_dict()}, 0 if monotone and consistent else 1


def _cmd_inner_quotient(cfg, seed, out):
    spec = _inner_from_config(cfg["inner"])
    count = int(cfg.get("samples", 100_000))
    rng = np.random.default_rng(seed)
    z = np.sqrt(rng.uniform(0.0, 0.9999, count)) \
        * np.exp(1j * rng.uniform(0.0, TWO_PI, count))
    q = hyperbolic_quotient(spec, z)
    q = q[np.isfinite(q)]
    ok = bool(np.max(q) <= 1.0 + 1e-9)
    return {"samples": int(q.size), "max_quotient": float(np.max(q)),
            "mean_quotient": float(np.mean(q)),
            "schwarz_pick_ok": ok}, 0 if ok else 1


def _cmd_shrink(cfg, seed, out):
    spec = _inner_from_config(cfg["inner"])
    try:
        res = compose_shrink(spec, float(cfg["eta"]),
                             max_chain=int(cfg.get("max_chain", 64)))
    except ShrinkFailure as exc:
        return {"error": str(exc), "stage": "shrink"}, 1
    return {"achieved_sup": res.achieved_sup, "target_met": res.target_met,
            "chain_length": res.chain_length,
            "spec": serialize.to_document(res.spec)}, 0


def _cmd_transport(cfg, seed, out):
    spec = _inner_from_config(cfg["inner"])
    F = _arcs_from_config(cfg["arcs"])
    rep = loewner_transport_check(spec, F, int(cfg.get("samples", 1_000_000)), seed)
    ok = rep.deviation < 0.02 and not rep.inconclusive
    return {"arc_measure": rep.arc_measure,
            "preimage": rep.preimage.value,
            "preimage_ci": rep.preimage.half_width,
            "deviation": rep.deviation,
            "stabilized_fraction": rep.stabilized_fraction,
            "inconclusive": rep.inconclusive}, 0 if ok else 1


def _cmd_runge(cfg, seed, out):
    F = _arcs_from_config(cfg["arcs"])
    rep = runge_pair(F, float(cfg["delta"]),
                     degree_cap=int(cfg.get("degree_cap", 4096)))
    return {"poly": serialize.to_document(rep.poly),
            "margin_at_zero": float(abs(rep.poly(0.0))),
            "margin_on_set": rep.margin,
            "degree": rep.degree, "achieved": rep.achieved}, 0 if rep.achieved else 1


def _cmd_decompose(cfg, seed, out):
    phi, tid = _target_from_config(cfg["target"])
    dim = int(cfg.get("dim", 2))
    eps = float(cfg["eps"])
    dec = product_decompose(phi, dim, eps, m_cap=int(cfg.get("m_cap", 64)))
    path = os.path.join(out, "decomposition.csv")
    with open(path, "w") as fh:
        fh.write(decomposition_csv(dec))
    achieved = dec.error < eps
    return {"target": tid, "terms": len(dec.terms), "error": dec.error, "achieved": achieved,
            "csv": os.path.basename(path)}, 0 if achieved else 1


def _simul_document(res) -> dict:
    # a polydisc E is one arc set per axis
    E = serialize.to_document(res.E) if isinstance(res.E, ArcSet) \
        else [serialize.to_document(s) for s in res.E]
    return {"f": serialize.to_document(res.f), "E": E, "report": res.report}


def _cmd_simul(cfg, seed, out):
    phi, tid = _target_from_config(cfg["target"])
    eps = float(cfg["eps"])
    dim = int(cfg.get("dim", 1))
    res = simul_approx_disc(phi, eps) if dim == 1 else simul_approx_polydisc(phi, eps, dim)
    doc = _simul_document(res)
    doc["target"] = tid
    return doc, 0


def _targets_from_config(cfg) -> TargetEnumeration:
    if "enumerate" in cfg:
        return TargetEnumeration(int(cfg["enumerate"]))
    specs = cfg.get("targets", [])
    explicit = []
    for t in specs:
        fn, tid = _target_from_config(t)
        explicit.append((tid, fn))
    return TargetEnumeration(len(explicit), tuple(explicit))


def _cmd_universal(cfg, seed, out):
    targets = _targets_from_config(cfg)
    radii = default_radii(int(cfg.get("n_max", 20)))
    anchors = [_complex(w) for w in cfg.get("anchors", [0.0])]
    eps = [float(e) for e in cfg.get("eps_schedule", [0.3])]
    cand = universal_build(targets, radii, anchors, eps,
                           total_budget=float(cfg.get("total_budget", 16.0)))
    path = os.path.join(out, "certificates.csv")
    with open(path, "w") as fh:
        fh.write(certificates_csv(cand))
    doc = serialize.to_document(cand)
    doc["certificates_csv"] = os.path.basename(path)
    doc["anchors"] = [[w.real, w.imag] for w in anchors]
    doc["verified_count"] = sum(c.verified for c in cand.certificates)
    doc["failed_count"] = len(cand.failed)
    # failed certificates are data; the run itself succeeded
    return doc, 0


def _cmd_certify(cfg, seed, out):
    f = _function_from_config(cfg["function"])
    phi, tid = _target_from_config(cfg["target"])
    anchors = [_complex(w) for w in cfg.get("anchors", [0.0])]
    cert = certify(f, phi, int(cfg["n"]), anchors, tol=float(cfg.get("tol", 0.25)),
                   target_id=tid)
    doc = serialize.to_document(cert)
    doc["function"] = serialize.to_document(_function_payload(f))
    return doc, 0


def _function_payload(f: FunctionExpr):
    poly = f.as_poly1d()
    return poly if poly is not None else f


def _cmd_cluster(cfg, seed, out):
    f = _function_from_config(cfg["function"])
    zeta = _complex(cfg.get("zeta", [1.0, 0.0]))
    schedule = default_radii(int(cfg.get("n_max", 16)))
    path = PathSpec(zeta=zeta, anchor=0.0, schedule=schedule)
    values = [_complex(v) for v in cfg["values"]]
    hits = cluster_probe(f, path, values, float(cfg.get("tol", 0.25)))
    return {"hits": [{"value": [h.value.real, h.value.imag], "hit": h.hit,
                      "distance": h.distance, "parameter": h.parameter}
                     for h in hits],
            "hit_count": sum(h.hit for h in hits)}, 0


def _cmd_lacunary(cfg, seed, out):
    K = int(cfg.get("K", 8))
    f = lacunary_baseline(K)
    rep = bloch_norm(f)
    return {"K": K, "function": serialize.to_document(f),
            "report": rep.to_dict()}, 0


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


def _cmd_verify(cfg, seed, out):
    path = cfg["artifact"]
    stored = serialize.load(path)
    stored.pop("timestamp", None)
    command = stored.get("command")
    result = {"artifact": os.path.basename(path), "verified_command": command}
    if command not in _HANDLERS or "config" not in stored:
        check = {"check": "config", "passed": False,
                 "note": "the artifact stores no config of a known command"}
        return {**result, "checks": [check], "passed": False}, 1
    _check_finite(stored["config"])
    # a fresh directory: the artifact's own may hold the side files it names
    with tempfile.TemporaryDirectory() as tmp:
        fresh, status = _HANDLERS[command](stored["config"], stored["seed"], tmp)
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


_HANDLERS = {
    "bloch-norm": _cmd_bloch_norm,
    "little-bloch": _cmd_little_bloch,
    "weighted": _cmd_weighted,
    "weight-test": _cmd_weight_test,
    "inner-quotient": _cmd_inner_quotient,
    "shrink": _cmd_shrink,
    "transport": _cmd_transport,
    "runge": _cmd_runge,
    "decompose": _cmd_decompose,
    "simul": _cmd_simul,
    "universal": _cmd_universal,
    "certify": _cmd_certify,
    "cluster": _cmd_cluster,
    "lacunary": _cmd_lacunary,
    "verify": _cmd_verify,
}


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
    doc["command"] = command
    doc["seed"] = seed
    doc["config"] = {k: v for k, v in cfg.items() if k != "out"}
    return doc


def run_scenario(command: str, cfg: dict, out: str, seed: int) -> int:
    """Execute one subcommand; write the report document; return exit status."""
    _check_finite(cfg)
    doc, status = _HANDLERS[command](cfg, seed, out)
    doc = _finish(doc, command, cfg, seed)
    doc["timestamp"] = time.time()
    path = os.path.join(out, f"{command.replace('-', '_')}_report.json")
    serialize.save(path, doc)
    print(f"{command}: wrote {path}" + ("" if status == 0 else " (FAILED)"))
    return status


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    out = args.out or cfg.get("out") or os.environ.get("BLOCHLAB_OUT", ".")
    os.makedirs(out, exist_ok=True)
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    try:
        return run_scenario(args.command, cfg, out, seed)
    except (KeyError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ApproxError, QuadratureError) as exc:
        print(f"stage failure [{args.command}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
