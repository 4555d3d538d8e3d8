"""Command line front end: one subcommand per artifact, JSON in, JSON out.

Every run reads a JSON config, executes one scenario, and writes a
report document (plus CSV side files where a table is the natural
output) into the output directory.  Reports carry schema_version, the
seed actually used, and a timestamp; the timestamp is the only field
excluded from byte-level determinism.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import serialize
from .approximation import ApproxError, runge_pair, product_decompose, decomposition_csv
from .arcs import ArcSet
from .blochnorm import (BlochReport, WeightSpec, WeightError, bloch_norm,
                        little_bloch_profile, profile_to_csv,
                        weight_integral_test, weighted_bloch_norm)
from .expressions import FunctionExpr, PathSpec, Polynomial1D
from .inner import (InnerSpec, ShrinkFailure, compose_shrink, hyperbolic_quotient,
                    loewner_transport_check)
from .numerics import SampleGrid, dyadic_radii, measure_metric, metric_points
from .pipeline import PipelineError, simul_approx_disc, simul_approx_polydisc, sup_error
from .universality import (Certificate, TargetEnumeration, certificates_csv,
                           certify, cluster_probe, default_radii,
                           lacunary_baseline, universal_build)

TWO_PI = 2.0 * np.pi


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config -> objects


def _function_from_config(spec) -> FunctionExpr:
    if not isinstance(spec, dict):
        raise ConfigError("function spec must be an object")
    kind = spec.get("kind")
    if kind == "coeffs":
        coeffs = [complex(c[0], c[1]) if isinstance(c, list) else complex(c)
                  for c in spec["coeffs"]]
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
        c = spec.get("value", 0.0)
        c = complex(c[0], c[1]) if isinstance(c, list) else complex(c)

        def fn(z, c=c):
            return np.full(np.shape(z), c, dtype=complex)

        return fn, f"constant[{c.real:g}{c.imag:+g}j]"
    if kind == "re":
        return (lambda z: np.asarray(z, dtype=complex).real.astype(complex)), "re"
    if kind == "monomial":
        k = int(spec.get("n", 1))
        c = complex(spec.get("scale", 1.0))

        def fn(z, k=k, c=c):
            z = np.asarray(z, dtype=complex)
            return c * (z ** k if k >= 0 else np.conj(z) ** (-k))

        return fn, f"monomial[{k}]"
    if kind == "step":
        jumps = [float(t) for t in spec["jumps"]]
        values = [complex(v[0], v[1]) if isinstance(v, list) else complex(v)
                  for v in spec["values"]]
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
# subcommand handlers: config -> (document, extra files, exit status)


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
    return {"report": res.to_dict()}, 0


def _cmd_inner_quotient(cfg, seed, out):
    spec = _inner_from_config(cfg["inner"])
    count = int(cfg.get("samples", 100_000))
    rng = np.random.default_rng(seed)
    z = np.sqrt(rng.uniform(0.0, 0.9999, count)) \
        * np.exp(1j * rng.uniform(0.0, TWO_PI, count))
    q = hyperbolic_quotient(spec, z)
    q = q[np.isfinite(q)]
    return {"samples": int(q.size), "max_quotient": float(np.max(q)),
            "mean_quotient": float(np.mean(q)),
            "schwarz_pick_ok": bool(np.max(q) <= 1.0 + 1e-9)}, 0


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
    return {"arc_measure": rep.arc_measure,
            "preimage": rep.preimage.value,
            "preimage_ci": rep.preimage.half_width,
            "deviation": rep.deviation,
            "stabilized_fraction": rep.stabilized_fraction,
            "inconclusive": rep.inconclusive}, 0


def _cmd_runge(cfg, seed, out):
    F = _arcs_from_config(cfg["arcs"])
    rep = runge_pair(F, float(cfg["delta"]),
                     degree_cap=int(cfg.get("degree_cap", 4096)))
    return {"poly": serialize.to_document(rep.poly),
            "margin_at_zero": rep.margin_at_zero,
            "margin_on_set": rep.margin_on_set,
            "degree": rep.degree, "achieved": rep.achieved}, 0


def _cmd_decompose(cfg, seed, out):
    phi, tid = _target_from_config(cfg["target"])
    dim = int(cfg.get("dim", 2))
    try:
        dec = product_decompose(phi, dim, float(cfg["eps"]),
                                m_cap=int(cfg.get("m_cap", 64)))
    except ApproxError as exc:
        if exc.best is None:
            return {"error": str(exc), "stage": "decompose"}, 1
        dec = exc.best
    path = os.path.join(out, "decomposition.csv")
    with open(path, "w") as fh:
        fh.write(decomposition_csv(dec))
    return {"target": tid, "terms": len(dec.terms), "error": dec.error,
            "csv": os.path.basename(path)}, 0


def _simul_document(res) -> dict:
    rep = dict(res.report)
    rep.pop("norm_report", None)
    rep.pop("center_ladder", None)
    # a polydisc E is one arc set per axis
    E = serialize.to_document(res.E) if isinstance(res.E, ArcSet) \
        else [serialize.to_document(s) for s in res.E]
    return {"f": serialize.to_document(res.f), "E": E, "report": rep}


def _cmd_simul(cfg, seed, out):
    phi, tid = _target_from_config(cfg["target"])
    eps = float(cfg["eps"])
    dim = int(cfg.get("dim", 1))
    base = _inner_from_config(cfg.get("inner", {"kind": "atomic",
                                               "atoms": [[0.0, 0.02]]}))
    if dim == 1:
        res = simul_approx_disc(phi, eps, base,
                                degree_cap=int(cfg.get("degree_cap", 4096)))
    else:
        res = simul_approx_polydisc(phi, eps, dim, base)
    doc = _simul_document(res)
    doc["target"] = tid
    doc["target_spec"] = cfg["target"]
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
    anchors = [complex(w[0], w[1]) if isinstance(w, list) else complex(w)
               for w in cfg.get("anchors", [0.0])]
    eps = [float(e) for e in cfg.get("eps_schedule", [0.3])]
    cand = universal_build(targets, radii, anchors, eps,
                           total_budget=float(cfg.get("total_budget", 16.0)),
                           seed=seed)
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
    anchors = [complex(w[0], w[1]) if isinstance(w, list) else complex(w)
               for w in cfg.get("anchors", [0.0])]
    cert = certify(f, phi, int(cfg["n"]), anchors,
                   grid=SampleGrid(domain="circle",
                                   angular_count=int(cfg.get("angular_count", 1024))),
                   tol=float(cfg.get("tol", 0.25)),
                   target_id=tid, seed=seed)
    doc = serialize.to_document(cert)
    doc["function"] = serialize.to_document(_function_payload(f))
    doc["target_spec"] = cfg["target"]
    return doc, 0


def _function_payload(f: FunctionExpr):
    poly = f.as_poly1d()
    return poly if poly is not None else f


def _cmd_cluster(cfg, seed, out):
    f = _function_from_config(cfg["function"])
    zeta = cfg.get("zeta", [1.0, 0.0])
    zeta = complex(zeta[0], zeta[1]) if isinstance(zeta, list) else complex(zeta)
    schedule = default_radii(int(cfg.get("n_max", 16)))
    path = PathSpec(zeta=zeta, anchor=0.0, schedule=schedule)
    values = [complex(v[0], v[1]) if isinstance(v, list) else complex(v)
              for v in cfg["values"]]
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
# verify: re-run the measured checks of a stored artifact


def _verify_norm_doc(doc, tol):
    stored = doc["report"]
    if "function" not in doc:
        return [{"check": "norm", "passed": False,
                 "note": "missing function payload"}]
    rep = bloch_norm(serialize.from_document(doc["function"]), domain=stored["domain"])
    drift = abs(rep.norm - (stored["value_at_zero"] + stored["seminorm_sup"]))
    return [{"check": "norm", "passed": bool(drift < tol), "drift": drift}]


def _verify_certify_doc(doc, tol, seed):
    cert = serialize.from_document({k: v for k, v in doc.items()
                                    if k not in ("function", "target",
                                                 "schema_version", "timestamp",
                                                 "command", "seed")}
                                   | {"kind": "certificate"})
    checks = []
    payload = doc.get("function")
    target_spec = doc.get("target_spec")
    if payload is None or target_spec is None:
        return [{"check": "payload", "passed": False,
                 "note": "missing function or target payload"}]
    f = serialize.from_document(payload)
    if isinstance(f, Polynomial1D):
        f = FunctionExpr.poly1d(f)
    phi, _ = _target_from_config(target_spec)
    fresh = certify(f, phi, cert.n, list(cert.anchors),
                    grid=SampleGrid(domain="circle", angular_count=2048),
                    tol=0.25, seed=seed + 101)
    drift = abs(fresh.d_sup - cert.d_sup)
    checks.append({"check": "d_sup", "passed": bool(drift < tol),
                   "stored": cert.d_sup, "recomputed": fresh.d_sup,
                   "drift": drift})
    gm = abs(fresh.good_measure - cert.good_measure)
    checks.append({"check": "good_measure", "passed": bool(gm < 5 * tol),
                   "drift": gm})
    return checks


def _verify_universal_doc(doc, tol, seed):
    cand = serialize.from_document({k: v for k, v in doc.items()
                                    if k in ("kind", "blocks", "budgets",
                                             "indices", "certificates",
                                             "partial_norms", "failed")})
    grid = SampleGrid(domain="circle", angular_count=2048)
    zeta = metric_points(grid)
    checks = []
    for cert in cand.certificates:
        if not cert.verified:
            continue
        partial = cand.partial_sum(cert.partial_index)
        from .universality import apply_Tnw
        # the stored d_sup is against the target; re-measure the operator
        # side only: T_n^w(partial) against the partial's boundary values,
        # whose stability was the selection rule
        bv = partial(zeta)
        d = max(measure_metric(apply_Tnw(partial, cert.n, w, grid), bv, grid)
                for w in cert.anchors)
        budget = cand.budgets[cert.partial_index]
        checks.append({"check": f"stability[{cert.target_id}]",
                       "passed": bool(d < budget / 4.0 + tol),
                       "recomputed": d, "budget": budget})
        checks.append({"check": f"d_sup_range[{cert.target_id}]",
                       "passed": bool(0.0 <= cert.d_sup < budget),
                       "stored": cert.d_sup})
    return checks


def _cmd_verify(cfg, seed, out):
    path = cfg["artifact"]
    doc = serialize.load(path)
    tol = float(cfg.get("tolerance", 0.02))
    command = doc.get("command")
    if command in ("bloch-norm", "lacunary"):
        checks = _verify_norm_doc(doc, max(tol, 0.02))
    elif command == "certify":
        checks = _verify_certify_doc(doc, 0.05, seed)
    elif command == "universal":
        checks = _verify_universal_doc(doc, tol, seed)
    elif command == "simul":
        checks = _verify_simul_doc(doc)
    elif command == "weight-test":
        rep = doc["report"]
        partials = np.asarray(rep["partials"], dtype=float)
        monotone = bool(np.all(np.diff(partials) >= -1e-15))
        consistent = (rep["verdict"] != "diverges"
                      or partials[-1] > partials[0])
        checks = [{"check": "partials", "passed": monotone and consistent,
                   "stored": rep["verdict"]}]
    elif command == "transport":
        checks = [{"check": "deviation",
                   "passed": bool(doc["deviation"] < 0.02
                                  and not doc["inconclusive"]),
                   "stored": doc["deviation"]}]
    elif command in ("inner-quotient",):
        checks = [{"check": "schwarz_pick", "passed": bool(doc["schwarz_pick_ok"]),
                   "stored": doc["max_quotient"]}]
    else:
        return {"error": f"no verifier for command {command!r}",
                "stage": "verify"}, 1
    passed = all(c["passed"] for c in checks)
    return {"artifact": os.path.basename(path), "verified_command": command,
            "checks": checks, "passed": passed}, 0 if passed else 1


def _verify_simul_doc(doc):
    if "target_spec" not in doc:
        return [{"check": "payload", "passed": False, "note": "missing target payload"}]
    phi, _ = _target_from_config(doc["target_spec"])
    f = serialize.from_document(doc["f"])
    rep = doc["report"]
    if f.dim == 1:
        E = serialize.from_document(doc["E"])
        f = Polynomial1D(f.coefficient_array())
        norm = bloch_norm(f).norm
        measure = E.measure
    else:
        # E is the product of the per-axis arc sets
        E = tuple(serialize.from_document(d) for d in doc["E"])
        norm = bloch_norm(f, domain="polydisc").norm
        measure = float(np.prod([s.measure for s in E]))
    # the norm and the error are recomputed by the routines that produced
    # them, and E is a finite union of arcs: all three agree up to rounding
    # of the stored numbers
    checks = []
    for key, value in (("norm", norm), ("measure", measure),
                       ("sup_error", sup_error(f, E, phi))):
        # equal infinities (an empty E) agree too
        passed = value == rep[key] or abs(value - rep[key]) <= 1e-12
        checks.append({"check": key, "passed": bool(passed),
                       "stored": rep[key], "recomputed": value})
    return checks


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


def run_scenario(command: str, cfg: dict, out: str, seed: int) -> int:
    """Execute one subcommand; write the report document; return exit status."""
    handler = _HANDLERS[command]
    doc, status = handler(cfg, seed, out)
    doc["command"] = command
    doc["seed"] = seed
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
    except (ConfigError, KeyError, WeightError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PipelineError, ApproxError, serialize.SerializationError) as exc:
        print(f"stage failure [{args.command}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
