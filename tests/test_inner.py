import math

import numpy as np
import pytest

from blochlab import inner
from blochlab.inner import (InnerSpec, QuadratureError, ShrinkFailure,
                            SingularMeasureSpec, _cantor_integrals, _cantor_tree,
                            cantor_gauss_rule, compose_shrink,
                            hyperbolic_quotient, inner_eval,
                            loewner_transport_check)
from blochlab.arcs import ArcSet


def _disc_samples(n, seed=0, rmax=0.995):
    rng = np.random.default_rng(seed)
    return np.sqrt(rng.uniform(0, rmax ** 2, n)) \
        * np.exp(1j * rng.uniform(0, 2 * np.pi, n))


def test_atomic_modulus_below_one():
    spec = InnerSpec.atomic([(1.0 + 0j, 0.5)])
    z = _disc_samples(2000, seed=1)
    vals, _ = inner_eval(spec, z)
    assert np.all(np.abs(vals) < 1.0)


def test_atomic_value_at_zero():
    # exp(-mu(T)) at the origin for a singular inner function
    spec = InnerSpec.atomic([(1j, 0.7)])
    v, _ = inner_eval(spec, 0.0 + 0j)
    assert abs(v) == pytest.approx(np.exp(-0.7), rel=1e-9)


def test_blaschke_zero_located():
    a = 0.3 + 0.2j
    spec = InnerSpec.blaschke([a])
    v, _ = inner_eval(spec, a)
    assert abs(v) < 1e-12


def test_schwarz_pick_quotient_bounded():
    spec = InnerSpec.atomic([(1.0 + 0j, 0.4), (-1.0 + 0j, 0.3)])
    q = hyperbolic_quotient(spec, _disc_samples(5000, seed=2))
    q = q[np.isfinite(q)]
    assert np.max(q) <= 1.0 + 1e-9


def test_quotient_composition_multiplicative():
    g = InnerSpec.blaschke([0.4 + 0j])
    h = InnerSpec.atomic([(1.0 + 0j, 0.3)])
    comp = InnerSpec.composition([g, h])  # chain applies g first: h o g
    z = _disc_samples(500, seed=3, rmax=0.9)
    gz, _ = inner_eval(g, z)
    lhs = hyperbolic_quotient(comp, z)
    rhs = hyperbolic_quotient(h, gz) * hyperbolic_quotient(g, z)
    ok = np.isfinite(lhs) & np.isfinite(rhs)
    assert np.max(np.abs(lhs[ok] - rhs[ok]) / np.maximum(np.abs(rhs[ok]), 1e-30)) < 1e-8


def test_cantor_spec_constructs():
    spec = SingularMeasureSpec(kind="cantor")
    inner = InnerSpec.singular(spec)
    z = _disc_samples(200, seed=4, rmax=0.9)
    vals, _ = inner_eval(inner, z)
    assert np.all(np.abs(vals) < 1.0)


def _cantor_moments(ratio, count, sweeps=200):
    # fixed point of nu -> (S_left nu + S_right nu) / 2 on the moments,
    # S the two similarities x -> ratio x -+ (1 - ratio) / 2, from a point mass
    c = (1.0 - ratio) / 2.0
    binom = [[math.comb(n, j) for j in range(count)] for n in range(count)]
    mom = np.eye(count)[0]
    for _ in range(sweeps):
        mom = np.array([sum(binom[n][j] * ratio ** j * mom[j]
                            * (c ** (n - j) + (-c) ** (n - j)) / 2.0 for j in range(n + 1))
                        for n in range(count)])
    return mom


@pytest.mark.parametrize("ratio", [1e-6, 0.01, 1.0 / 3.0, 0.499])
def test_cantor_gauss_rule_matches_moments(ratio):
    x, omega = cantor_gauss_rule(ratio)
    assert x.size == omega.size == inner.GAUSS_POINTS
    assert np.all(omega > 0.0) and np.all(np.abs(x) <= 0.5)
    exact = _cantor_moments(ratio, 2 * inner.GAUSS_POINTS)
    rule = np.array([omega @ x ** n for n in range(exact.size)])
    assert np.max(np.abs(rule - exact)) <= 1e-14


def test_cantor_gauss_rule_cache_is_bounded():
    x, _ = cantor_gauss_rule(1.0 / 3.0)
    for k in range(2 * cantor_gauss_rule.cache_info().maxsize):
        cantor_gauss_rule(0.1 + 0.01 * k)
    info = cantor_gauss_rule.cache_info()
    assert info.currsize <= info.maxsize
    again, weights = cantor_gauss_rule(1.0 / 3.0)
    assert np.array_equal(again, x)
    assert not again.flags.writeable and not weights.flags.writeable


def test_cantor_certificate_covers_a_finer_rule(monkeypatch):
    # uniform draws plus points 3e-5..0.1 inside the circle over the arc;
    # the reference is an independent 8-point rule run to 1e-13
    spec = SingularMeasureSpec(kind="cantor")
    rng = np.random.default_rng(11)
    gap = np.exp(rng.uniform(np.log(3e-5), np.log(0.1), 3000))
    near = (1.0 - gap) * np.exp(1j * rng.uniform(-np.pi / 4 - 0.05, np.pi / 4 + 0.05, 3000))
    z = np.concatenate([_disc_samples(3000, seed=12, rmax=0.99995), near])
    A, Ap, cert = _cantor_tree(spec, z)
    monkeypatch.setattr(inner, "GAUSS_POINTS", 8)
    monkeypatch.setattr(inner, "QUAD_TOL", 1e-13)
    cantor_gauss_rule.cache_clear()
    try:
        A_ref, Ap_ref, cert_ref = _cantor_tree(spec, z)
    finally:
        cantor_gauss_rule.cache_clear()
    assert cert.max() <= 1e-8 and cert_ref.max() <= 1e-13
    # the relative term is floating-point rounding, which no certificate covers
    for value, ref in ((A, A_ref), (Ap, Ap_ref)):
        assert np.all(np.abs(value - ref) <= cert + cert_ref + 1e-11 * np.abs(ref))


def test_cantor_quadrature_error_at_the_depth_cap():
    # depth 0 caps the tree at depth 4, too shallow next to the arc's center
    spec = SingularMeasureSpec(kind="cantor", depth=0)
    with pytest.raises(QuadratureError):
        _cantor_integrals(spec, np.array([(1.0 - 1e-6) * spec.center]))


def test_cantor_points_beside_the_support_converge():
    # two benchmark draws that exhausted the old depth cap, and points
    # 5e-5 inside the circle around the support's end at angle pi/4
    spec = SingularMeasureSpec(kind="cantor")
    z = np.concatenate([
        [0.70856071493262 + 0.7055365807885077j, 0.7113062674260708 + 0.7024435627941479j],
        (1.0 - 5e-5) * np.exp(1j * (np.pi / 4 + np.array([-1e-3, -1e-4, 0.0, 1e-5, 1e-4]))),
    ])
    A, Ap, cert = _cantor_tree(spec, z)
    assert np.all(np.isfinite(A)) and np.all(np.isfinite(Ap))
    assert cert.max() <= 1e-8


def test_compose_shrink_reduces_quotient():
    base = InnerSpec.singular(SingularMeasureSpec(kind="cantor"))
    res = compose_shrink(base, 0.9, max_chain=8)
    assert res.achieved_sup < 0.9
    assert res.target_met


def test_compose_shrink_failure_on_rigid_base():
    # a rotation-like Blaschke factor with zero at the origin has
    # quotient identically 1; no chain can shrink it
    base = InnerSpec.blaschke([0.0 + 0j])
    with pytest.raises(ShrinkFailure):
        compose_shrink(base, 0.5, max_chain=4)


def test_transport_square_map():
    # I(z) = z gives J(z) = z^2, whose boundary map doubles angles and
    # preserves normalized arc measure exactly
    spec = InnerSpec.blaschke([0.0 + 0j])
    F = ArcSet.from_arcs([(0.5, 2.0)])
    rep = loewner_transport_check(spec, F, 200_000, seed=5)
    assert rep.deviation < 0.01
    assert rep.arc_measure == pytest.approx(1.5 / (2 * np.pi))


def test_transport_atomic_preserves_measure():
    spec = InnerSpec.atomic([(1.0 + 0j, 1.0)])
    F = ArcSet.from_arcs([(1.0, 2.5)])
    rep = loewner_transport_check(spec, F, 400_000, seed=6)
    assert rep.deviation < 0.01
    assert not rep.inconclusive
