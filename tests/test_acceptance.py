"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Each test prints exactly one line "criterion N: PASS|FAIL - detail" before
asserting, so the verdicts are readable from the captured output of a
full run as well as from the pytest result list.
"""

import json
import os
import re
import time

import numpy as np
import pytest

from blochlab import serialize
from blochlab.arcs import ArcSet
from blochlab.blochnorm import WeightSpec, bloch_norm, weight_integral_test
from blochlab.cli import main as cli_main
from blochlab.expressions import FunctionExpr, Polynomial1D, PolynomialND
from blochlab.inner import (InnerSpec, SingularMeasureSpec, hyperbolic_quotient,
                            inner_eval, loewner_transport_check)
from blochlab.pipeline import simul_approx_disc, simul_approx_polydisc
from blochlab.universality import (TargetEnumeration, default_radii,
                                   lacunary_baseline, universal_build)

TWO_PI = 2.0 * np.pi
CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _report(n, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"criterion {n}: {verdict}{suffix}")
    assert ok, f"criterion {n} failed: {detail}"


def _disc_samples(count, seed, rmax=0.999):
    rng = np.random.default_rng(seed)
    return np.sqrt(rng.uniform(0.0, rmax ** 2, count)) \
        * np.exp(1j * rng.uniform(0.0, TWO_PI, count))


def _weak_base():
    return InnerSpec.atomic([(1.0 + 0j, 0.02)])


def test_criterion_01_schwarz_pick_suite():
    specs = [
        InnerSpec.atomic([(1.0 + 0j, 0.5)]),
        InnerSpec.atomic([(1j, 0.3), (-1j, 0.4)]),
        InnerSpec.atomic([(np.exp(0.7j), 1.2)]),
        InnerSpec.singular(SingularMeasureSpec(kind="cantor")),
        InnerSpec.blaschke([0.3 + 0.2j]),
        InnerSpec.blaschke([0.0 + 0j, 0.5 + 0j, -0.2j]),
        InnerSpec.composition([InnerSpec.atomic([(1.0 + 0j, 0.4)]),
                               InnerSpec.blaschke([0.2 + 0j])]),
        InnerSpec.composition([InnerSpec.blaschke([0.1 + 0.1j]),
                               InnerSpec.atomic([(-1.0 + 0j, 0.6)])]),
        InnerSpec.composition([InnerSpec.atomic([(1j, 0.2)]),
                               InnerSpec.atomic([(-1j, 0.2)])]),
        InnerSpec.blaschke([0.4 + 0.4j, -0.4 - 0.4j]),
    ]
    t0 = time.time()
    worst = 0.0
    for k, spec in enumerate(specs):
        z = _disc_samples(100_000, seed=100 + k)
        q = hyperbolic_quotient(spec, z)
        q = q[np.isfinite(q)]
        worst = max(worst, float(np.max(q)))
    elapsed = time.time() - t0
    ok = worst <= 1.0 + 1e-9 and elapsed < 60.0
    _report(1, ok, f"max quotient {worst:.12f}, {elapsed:.1f}s for 10 specs")


def test_criterion_02_composition_multiplicativity():
    pairs = [
        (InnerSpec.blaschke([0.4 + 0j]), InnerSpec.atomic([(1.0 + 0j, 0.3)])),
        (InnerSpec.atomic([(1j, 0.5)]), InnerSpec.blaschke([0.2 - 0.1j])),
        (InnerSpec.blaschke([0.0 + 0j]), InnerSpec.blaschke([0.3 + 0.3j])),
        (InnerSpec.atomic([(1.0 + 0j, 0.2)]), InnerSpec.atomic([(-1.0 + 0j, 0.4)])),
        (InnerSpec.blaschke([0.25 + 0j, -0.3j]), InnerSpec.atomic([(np.exp(2j), 0.7)])),
    ]
    worst = 0.0
    for k, (g, h) in enumerate(pairs):
        z = _disc_samples(1000, seed=200 + k, rmax=0.95)
        comp = InnerSpec.composition([g, h])  # applies g first: h o g
        gz, _ = inner_eval(g, z)
        lhs = hyperbolic_quotient(comp, z)
        rhs = hyperbolic_quotient(h, gz) * hyperbolic_quotient(g, z)
        mask = np.isfinite(lhs) & np.isfinite(rhs) & (np.abs(rhs) > 1e-300)
        rel = np.abs(lhs[mask] - rhs[mask]) / np.abs(rhs[mask])
        worst = max(worst, float(np.max(rel)))
    ok = worst < 1e-10
    _report(2, ok, f"max relative deviation {worst:.2e} over 5 pairs")


def test_criterion_03_loewner_transport():
    arc_sets = [
        ArcSet.from_arcs([(0.5, 2.0)]),
        ArcSet.from_arcs([(0.0, 1.0), (3.0, 4.5)]),
        ArcSet.from_arcs([(2.0, 2.2)]),
    ]
    worst = 0.0
    for k, F in enumerate(arc_sets):
        for spec in (InnerSpec.blaschke([0.0 + 0j]),        # I(z) = z, J = z^2
                     InnerSpec.atomic([(1.0 + 0j, 1.0)])):
            rep = loewner_transport_check(spec, F, 1_000_000, seed=300 + k)
            worst = max(worst, rep.deviation)
    ok = worst < 0.01
    _report(3, ok, f"max |m(J^-1 F) - m(F)| = {worst:.4f} at 1e6 samples")


def test_criterion_04_bloch_norm_oracles():
    worst_rel = 0.0
    r = np.linspace(0.0, 1.0, 400_001)[:-1]
    for n in (1, 2, 4, 8, 16, 32):
        c = np.zeros(n + 1, dtype=complex)
        c[n] = 1.0
        exact = float(np.max(n * r ** (n - 1) * (1.0 - r * r)))
        est = bloch_norm(Polynomial1D(c)).seminorm_sup
        worst_rel = max(worst_rel, abs(est - exact) / exact)
    norms = [bloch_norm(lacunary_baseline(K)).norm for K in range(6, 11)]
    spread = (max(norms) - min(norms)) / min(norms)
    ok = worst_rel <= 0.01 and spread <= 0.10
    _report(4, ok, f"monomial rel err {worst_rel:.4f}, lacunary spread {spread:.3f}")


def test_criterion_05_euler_identity():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        deg = int(rng.integers(1, 7))
        # random homogeneous polynomial of total degree deg
        terms = {}
        for _ in range(4):
            alpha = rng.multinomial(deg, np.ones(dim) / dim)
            terms[tuple(int(a) for a in alpha)] = complex(rng.normal(), rng.normal())
        p = PolynomialND(terms, dim)
        z = (rng.normal(size=(1000, dim)) + 1j * rng.normal(size=(1000, dim)))
        z *= 0.4 / np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-12)
        radial = np.zeros(1000, dtype=complex)
        for k in range(dim):
            radial += z[:, k] * p.partial(k)(z)
        fv = p(z)
        mask = np.abs(fv) > 1e-12
        rel = np.abs(radial[mask] - deg * fv[mask]) / np.abs(deg * fv[mask])
        if rel.size:
            worst = max(worst, float(np.max(rel)))
    ok = worst < 1e-10
    _report(5, ok, f"max relative deviation {worst:.2e} over 20 polynomials")


def _step_target(z):
    th = np.angle(np.asarray(z, dtype=complex)) % TWO_PI
    return ((0.37 <= th) & (th < 2.77)).astype(complex)


def test_criterion_06_simultaneous_approximation_disc():
    targets = {
        "const": lambda z: np.ones_like(np.asarray(z, dtype=complex)),
        "re": lambda z: np.asarray(z, dtype=complex).real.astype(complex),
        "step": _step_target,
    }
    rows = []
    all_ok = True
    for name, phi in targets.items():
        t0 = time.time()
        res = simul_approx_disc(phi, 0.5, _weak_base())
        elapsed = time.time() - t0
        rep = res.report
        norm_ok = rep["norm"] < 0.5
        err_ok = rep["sup_error"] < 0.5
        meas_ok = rep["measure"] >= 0.5
        ok = norm_ok and err_ok and meas_ok and elapsed < 300.0
        all_ok = all_ok and ok
        clauses = "".join(c if f else c.upper() for c, f in
                          (("n", norm_ok), ("e", err_ok), ("m", meas_ok)))
        rows.append(f"{name}: norm={rep['norm']:.3f} err={rep['sup_error']:.3f} "
                    f"m={rep['measure']:.3f} t={elapsed:.0f}s [{clauses}]")
    _report(6, all_ok, "; ".join(rows) + " (upper case marks the failing clause)")


def test_criterion_07_polydisc_tensor_assembly():
    def phi2(pts):
        pts = np.asarray(pts, dtype=complex)
        return (pts[..., 0].real * pts[..., 1].real).astype(complex)

    res2 = simul_approx_polydisc(phi2, 0.5, 2, _weak_base())
    rep = res2.report
    inequalities_ok = rep["norm_ok"] and rep["error_ok"] and rep["measure_ok"]

    phi1 = lambda z: np.asarray(z, dtype=complex).real.astype(complex)
    a = simul_approx_disc(phi1, 0.5, _weak_base())
    b = simul_approx_polydisc(phi1, 0.5, 1, _weak_base())
    agree = max(abs(a.report["norm"] - b.report["norm"]),
                abs(a.report["sup_error"] - b.report["sup_error"]),
                abs(a.report["measure"] - b.report["measure"]))
    ok = inequalities_ok and agree <= 0.05
    _report(7, ok, f"norm={rep['norm']:.2f} err={rep['sup_error']:.2f} "
                   f"m={rep['measure']:.2f} (inequalities "
                   f"{'ok' if inequalities_ok else 'fail'}); "
                   f"N=1 agreement drift {agree:.4f}")


def test_criterion_08_universality_certificates():
    targets = TargetEnumeration(3, (
        ("zero", lambda z: np.zeros_like(np.asarray(z, dtype=complex))),
        ("one", lambda z: np.ones_like(np.asarray(z, dtype=complex))),
        ("zeta", lambda z: np.asarray(z, dtype=complex)),
    ))
    eps = (0.4, 0.3, 0.25)
    anchors = [0.0 + 0j, 0.3 + 0j, -0.3j]
    radii = default_radii(20)
    # certificates are deterministic quadratures: two runs give identical ones
    runs = [universal_build(targets, radii, anchors, eps) for _ in range(2)]
    ok = True
    drift = 0.0
    for cand in runs:
        for l, cert in enumerate(cand.certificates):
            ok = ok and cert.verified and cert.d_sup < eps[l]
    for c1, c2 in zip(runs[0].certificates, runs[1].certificates):
        drift = max(drift, abs(c1.d_sup - c2.d_sup))
    ok = ok and runs[0].certificates == runs[1].certificates
    details = ", ".join(f"{c.target_id}: d={c.d_sup:.3f}<{e}"
                        for c, e in zip(runs[0].certificates, eps))
    _report(8, ok, f"{details}; run-to-run drift {drift:.4f}")


def test_criterion_09_weight_integral_test():
    verdicts = {
        "1/sqrt(log(e/t))": weight_integral_test(
            WeightSpec(kind="log-power", parameter=0.5), 0.5).verdict,
        "1/log(e/t)": weight_integral_test(
            WeightSpec(kind="log-power", parameter=1.0), 0.5).verdict,
        "t": weight_integral_test(
            WeightSpec(kind="power", parameter=1.0), 0.5).verdict,
    }
    expected = {"1/sqrt(log(e/t))": "diverges", "1/log(e/t)": "converges",
                "t": "converges"}
    ok = verdicts == expected
    _report(9, ok, "; ".join(f"{k} -> {v}" for k, v in verdicts.items()))


def test_criterion_10_determinism(tmp_path):
    strip = lambda s: re.sub(r'"timestamp":[0-9.e+-]+', '"timestamp":0', s)
    configs = sorted(f for f in os.listdir(CONFIG_DIR) if f.endswith(".json"))
    assert configs, "no shipped configs found"
    mismatched = []
    for name in configs:
        cfg_path = os.path.join(CONFIG_DIR, name)
        with open(cfg_path) as fh:
            command = json.load(fh)["command"]
        outputs = []
        for run in (1, 2):
            out = os.path.join(tmp_path, f"{name}-{run}")
            os.makedirs(out, exist_ok=True)
            status = cli_main([command, "--config", cfg_path,
                               "--out", out, "--seed", "7"])
            assert status == 0, f"{name} exited {status}"
            report = os.path.join(out, f"{command.replace('-', '_')}_report.json")
            with open(report) as fh:
                outputs.append(strip(fh.read()))
        if outputs[0] != outputs[1]:
            mismatched.append(name)
    ok = not mismatched
    _report(10, ok, f"{len(configs)} shipped configs byte-identical"
                    + (f"; mismatched: {mismatched}" if mismatched else ""))
