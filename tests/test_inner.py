import math
import re

import numpy as np
import pytest

from blochlab import inner
from blochlab.inner import (InnerSpec, QuadratureError, ShrinkFailure,
                            SingularMeasureSpec, _cantor_tree, _eval_singular,
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


def test_calling_an_inner_function_needs_interior_points():
    spec = InnerSpec.composition([InnerSpec.atomic([(1.0 + 0j, 0.5)]), InnerSpec.blaschke([0.3])])
    z = np.array([0.2 + 0.1j, -0.5j])
    assert np.array_equal(spec(z), inner_eval(spec, z)[0])
    assert spec(0.25) == inner_eval(spec, 0.25)[0]
    for bad in (1.0, np.array([0.5, -1j]), np.array([0.1, 1.5])):
        with pytest.raises(ValueError, match="strictly inside the disc"):
            spec(bad)
        with pytest.raises(ValueError, match="strictly inside the disc"):
            hyperbolic_quotient(spec, bad)


@pytest.mark.parametrize("z", [0.0, 0.3 + 0.2j, -0.5j, 0.7])
def test_a_scalar_point_evaluates_as_a_one_point_array(z):
    spec = InnerSpec.composition([InnerSpec.atomic([(1.0 + 0j, 0.5)]),
                                  InnerSpec.blaschke([0.3 + 0.1j])])
    val, der = inner_eval(spec, z)
    vals, ders = inner_eval(spec, np.array([z]))
    assert (val, der) == (vals[0], ders[0])
    assert hyperbolic_quotient(spec, z) == hyperbolic_quotient(spec, np.array([z]))[0]


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
    # the tree stops at its last level, 27 at ratio 1/3 on the quarter arc,
    # whose intervals are ANGLE_FLOOR wide; the arc's end is a point of the
    # support, and 1e-12 inside the circle over it is closer than that
    spec = SingularMeasureSpec(kind="cantor")
    z = (1.0 - 1e-12) * np.exp(1j * np.pi / 4)
    with pytest.raises(QuadratureError) as info:
        _eval_singular(spec, np.array([z]))
    message = str(info.value)
    assert f"at z={complex(z)}" in message
    assert math.isfinite(float(re.search(r"distance to support (\S+)\)", message).group(1)))


def test_cantor_quadrature_error_reports_the_distance_to_the_last_level_arcs():
    # a point 1e-11 inside the circle over the support: the distance to the
    # nearest arc of the last level is radial, 1 - |z|, never negative
    spec = SingularMeasureSpec(kind="cantor", ratio=0.49, arc_length=6.0)
    z = (1.0 - 1e-11) * np.exp(1j * np.angle(0.42162 - 0.90677j))
    with pytest.raises(QuadratureError) as info:
        _cantor_tree(spec, np.array([z]))
    distance = float(re.search(r"distance to support (\S+)\)", str(info.value)).group(1))
    assert distance == pytest.approx(1.0 - abs(z), rel=1e-3)


def _per_pair_tree(spec, flat):
    """Reference for _cantor_tree: every (point, interval) pair evaluates its own exponentials."""
    n = flat.size
    x, omega = cantor_gauss_rule(spec.ratio)
    total = spec.total_mass
    cap = max(0, math.floor(math.log(inner.ANGLE_FLOOR / spec.arc_length) / math.log(spec.ratio)))
    power = 2 * inner.GAUSS_POINTS
    A = np.zeros(n, dtype=complex)
    Ap = np.zeros(n, dtype=complex)
    err = np.zeros(n)
    pt = np.arange(n)
    mid = np.full(n, np.angle(spec.center))
    width, mass = spec.arc_length, total
    for level in range(cap + 1):
        zp = flat[pt]
        absz = np.abs(zp)
        half_d = 0.5 * np.abs(zp - np.exp(1j * mid))
        R = np.minimum(1.0, np.log1p(half_d / np.maximum(absz, 1e-300)))
        t = 0.5 * width / R
        eR = np.exp(R)
        M = np.maximum((1.0 + absz * eR) / half_d, 2.0 * eR / half_d ** 2)
        bound = np.full(pt.shape, np.inf)
        ok = t < 1.0
        bound[ok] = 2.0 * mass * M[ok] * t[ok] ** power / (1.0 - t[ok])
        accept = bound <= inner.QUAD_TOL * mass / total
        if level == cap:
            accept[:] = True
        p = pt[accept]
        zeta_conj = np.exp(-1j * (mid[accept, None] + width * x))
        u = zp[accept, None] * zeta_conj
        den = 1.0 - u
        np.add.at(A, p, ((1.0 + u) / den) @ omega * mass)
        np.add.at(Ap, p, (2.0 * zeta_conj / (den * den)) @ omega * mass)
        np.add.at(err, p, bound[accept])
        split = ~accept
        if not np.any(split):
            break
        shift = 0.5 * (1.0 - spec.ratio) * width
        pt = np.concatenate([pt[split], pt[split]])
        mid = np.concatenate([mid[split] - shift, mid[split] + shift])
        width *= spec.ratio
        mass *= 0.5
    worst = int(np.argmax(err))
    if err[worst] > inner.QUAD_TOL:
        near = mid[pt == worst]
        near = near + np.clip(np.angle(flat[worst] * np.exp(-1j * near)), -width / 2.0, width / 2.0)
        min_dist = float(np.min(np.abs(flat[worst] - np.exp(1j * near)), initial=np.inf))
        raise QuadratureError(
            f"cantor quadrature error bound {err[worst]:.3e} exceeds {inner.QUAD_TOL}"
            f" at z={complex(flat[worst])} (distance to support {min_dist:.3e})")
    return A, Ap, err


def _near_the_circle(n, seed):
    """Uniform draws plus n points 1e-9..1e-7 inside the circle, over the support too."""
    rng = np.random.default_rng(seed)
    gap = np.exp(rng.uniform(np.log(1e-9), np.log(1e-7), n))
    angle = rng.uniform(0.0, 2 * np.pi, n)
    near = (1.0 - gap) * np.exp(1j * angle)
    return np.concatenate([_disc_samples(2000, seed=seed, rmax=0.99995), near])


@pytest.mark.parametrize("spec, z, points", [
    (SingularMeasureSpec(kind="cantor"), _near_the_circle(300, 21), 4),
    (SingularMeasureSpec(kind="cantor"), _near_the_circle(300, 22), 4),
    (SingularMeasureSpec(kind="cantor", ratio=1e-3), _disc_samples(2000, seed=23), 4),
    # draws 5e-5 inside: points 1e-9..1e-7 inside take seconds down the 44 levels at ratio 0.49
    (SingularMeasureSpec(kind="cantor", ratio=0.49, arc_length=6.0),
     _disc_samples(2000, seed=24, rmax=0.99995), 4),
    (SingularMeasureSpec(kind="cantor"), _near_the_circle(300, 25), 8),
], ids=["seed-21", "seed-22", "ratio-1e-3", "ratio-0.49-long-arc", "8-gauss-points"])
def test_cantor_tree_is_bit_identical_to_the_per_pair_traversal(monkeypatch, spec, z, points):
    monkeypatch.setattr(inner, "GAUSS_POINTS", points)
    cantor_gauss_rule.cache_clear()
    try:
        for value, ref in zip(_cantor_tree(spec, z), _per_pair_tree(spec, z)):
            assert np.array_equal(value, ref)
    finally:
        cantor_gauss_rule.cache_clear()


def test_cantor_tree_raises_the_per_pair_traversal_error():
    spec = SingularMeasureSpec(kind="cantor")
    z = np.concatenate([_disc_samples(50, seed=26), [(1.0 - 1e-12) * np.exp(1j * np.pi / 4)]])
    with pytest.raises(QuadratureError) as ref:
        _per_pair_tree(spec, z)
    with pytest.raises(QuadratureError) as info:
        _cantor_tree(spec, z)
    assert str(info.value) == str(ref.value)


def test_singular_evaluation_does_not_depend_on_the_chunking(monkeypatch):
    z = _disc_samples(500, seed=27, rmax=0.9999)
    for spec in (SingularMeasureSpec(kind="cantor"),
                 SingularMeasureSpec(kind="atomic", atoms=((1.0 + 0j, 0.5), (1j, 0.25)))):
        ref = _eval_singular(spec, z)
        with monkeypatch.context() as m:
            m.setattr(inner, "_Z_CHUNK", 7)
            for value, again in zip(ref, _eval_singular(spec, z)):
                assert np.array_equal(value, again)


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
