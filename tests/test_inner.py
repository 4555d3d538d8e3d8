import numpy as np
import pytest

from blochlab.inner import (InnerSpec, ShrinkFailure, SingularMeasureSpec,
                            _cantor_midpoints, boundary_map, cantor_nodes,
                            compose_shrink, hyperbolic_quotient, inner_eval,
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


def test_cantor_nodes_cache_is_bounded():
    spec = SingularMeasureSpec(kind="cantor", depth=6)
    mids, width, mass = cantor_nodes(spec, 6)
    # the two end pieces of every level: the first midpoint sits half the
    # final width from the arc's start, and the nodes share the mass
    assert mids.size == 64 and mass == pytest.approx(1.0 / 64)
    assert mids[0] == pytest.approx(-np.pi / 4 + width / 2.0, abs=1e-15)
    assert width == pytest.approx(np.pi / 2 * 3.0 ** -6, rel=1e-15)
    for k in range(2 * _cantor_midpoints.cache_info().maxsize):
        cantor_nodes(SingularMeasureSpec(kind="cantor", arc_length=0.1 + 0.01 * k), 4)
    info = _cantor_midpoints.cache_info()
    assert info.currsize <= info.maxsize
    again, _, _ = cantor_nodes(spec, 6)
    assert np.array_equal(again, mids) and not again.flags.writeable


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


def test_boundary_map_modulus():
    spec = InnerSpec.atomic([(1.0 + 0j, 0.5)])
    zeta = np.exp(1j * np.linspace(0.3, 5.9, 50))
    jb = boundary_map(spec, zeta)
    assert np.all(np.abs(jb) < 1.0)
    assert np.all(np.abs(jb) > 0.5)


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
