import numpy as np
import pytest

from blochlab import universality
from blochlab.expressions import PathSpec, Polynomial1D
from blochlab.numerics import measure_metric, metric_points
from blochlab.universality import (Certificate, TargetEnumeration, apply_Tnw,
                                   certificates_csv, certify, cluster_probe,
                                   default_radii, lacunary_baseline,
                                   universal_build)


def _poly(coeffs):
    return Polynomial1D(np.array(coeffs, dtype=complex))


def test_default_radii():
    r = default_radii(5)
    assert r == (0.5, 0.75, 0.875, 0.9375, 0.96875)


def test_enumeration_deterministic_and_deduped():
    ids_a = [tid for tid, _ in TargetEnumeration(12)]
    ids_b = [tid for tid, _ in TargetEnumeration(12)]
    assert ids_a == ids_b
    assert len(set(ids_a)) == 12


def test_apply_Tnw_linear_in_f():
    zeta = metric_points(256)
    f = _poly([0.2, 1.0])
    g = _poly([0.0, 0.0, 0.5])
    fg = _poly([0.2, 1.0, 0.5])
    a = apply_Tnw(f, 3, 0.1 + 0j, zeta) + apply_Tnw(g, 3, 0.1 + 0j, zeta)
    b = apply_Tnw(fg, 3, 0.1 + 0j, zeta)
    assert np.allclose(a, b)


def test_apply_Tnw_rejects_bad_anchor():
    with pytest.raises(ValueError):
        apply_Tnw(_poly([1.0]), 2, 1.0 + 0j, metric_points(64))


def test_certify_zero_against_one():
    cert = certify(_poly([0.0]), lambda z: np.ones_like(z), 3, [0.0 + 0j])
    assert cert.d_sup == pytest.approx(1.0)
    assert not cert.verified


def test_certify_exact_match():
    cert = certify(_poly([1.0]), lambda z: np.ones_like(z), 1, [0.0 + 0j])
    assert cert.d_sup == pytest.approx(0.0, abs=1e-12)
    assert cert.verified
    assert cert.good_measure == pytest.approx(1.0)


def test_certify_good_measure_is_grid_fraction():
    # f = 0 meets the target on the lower half circle only, which holds
    # exactly half of the equispaced points
    target = lambda z: (np.asarray(z).imag > 0).astype(complex)
    cert = certify(_poly([0.0]), target, 3, [0.0 + 0j])
    assert cert.good_measure == 0.5
    assert cert.d_sup == 0.5


def test_certify_needs_an_anchor():
    # with no anchor the sup over anchors would be 0 and every point good
    with pytest.raises(ValueError, match="anchor"):
        certify(_poly([0.0, 1.0]), lambda z: np.zeros_like(z), 3, [])


def test_certify_sup_dominates_single_anchors():
    f = _poly([0.0, 1.0, 0.3])
    target = lambda z: np.asarray(z, dtype=complex)
    L = [0.0 + 0j, 0.3 + 0j, -0.3j]
    full = certify(f, target, 4, L)
    for w in L:
        single = certify(f, target, 4, [w])
        assert full.d_sup >= single.d_sup - 1e-12


def test_polynomial_dilation_converges_to_boundary():
    # d(T_n^w P, P boundary values) decreases along the radius schedule
    zeta = metric_points(512)
    p = _poly([0.1, 0.5, 0.0, 0.4])
    bv = p(0.999999 * zeta)
    ds = [measure_metric(apply_Tnw(p, n, 0.0 + 0j, zeta), bv)
          for n in range(10, 16)]
    assert all(a >= b - 1e-3 for a, b in zip(ds, ds[1:]))
    assert ds[-1] < 1e-3


def test_universal_build_two_constants():
    targets = TargetEnumeration(2, (
        ("zero", lambda z: np.zeros_like(z)),
        ("one", lambda z: np.ones_like(np.asarray(z, dtype=complex))),
    ))
    cand = universal_build(targets, default_radii(20), [0.0 + 0j], (0.3, 0.2))
    assert len(cand.certificates) == 2
    assert all(c.verified for c in cand.certificates)
    assert cand.failed == ()


def test_universal_build_short_radii_soft_failure():
    targets = TargetEnumeration(1, (
        ("hard", lambda z: 3.0 * np.asarray(z, dtype=complex) ** 5),
    ))
    radii = (0.2, 0.3, 0.4)  # never approaches the boundary
    cand = universal_build(targets, radii, [0.0 + 0j], (0.05,))
    # failure is recorded as data, not raised
    assert len(cand.certificates) == 1


def test_universal_build_budget_precondition():
    targets = TargetEnumeration(1, (("zero", lambda z: np.zeros_like(z)),))
    with pytest.raises(ValueError):
        universal_build(targets, default_radii(5), [0.0 + 0j], (8.0, 9.0),
                        total_budget=16.0)


def test_universal_build_empty_targets():
    # a build that certifies nothing is refused, as one without anchors is
    with pytest.raises(ValueError, match="at least one target"):
        universal_build(TargetEnumeration(0), default_radii(5), [0.0 + 0j], (0.3,))


def test_certificates_csv_header():
    cert = Certificate("t", 1, 0.5, (0.0 + 0j,), 0.1, 0.9, 1.0, 0, True)
    cand_csv = certificates_csv(type("C", (), {"certificates": (cert,)})())
    lines = cand_csv.strip().splitlines()
    assert lines[0] == "target_id,n,r_n,d_sup,good_measure,block_norm"
    assert lines[1].startswith("t,1,0.5,")


def test_cluster_probe_identity_hits_interior_value():
    f = _poly([0.0, 1.0])
    path = PathSpec(zeta=1.0 + 0j, anchor=0.0, schedule=default_radii(10))
    hits = cluster_probe(f, path, [0.5 + 0j], tol=0.01)
    assert hits[0].hit
    assert hits[0].point == pytest.approx(0.5 + 0j)


def test_cluster_probe_zero_misses_one():
    f = _poly([0.0])
    path = PathSpec(zeta=1.0 + 0j, anchor=0.0, schedule=default_radii(10))
    hits = cluster_probe(f, path, [1.0 + 0j], tol=0.5)
    assert not hits[0].hit
    assert hits[0].distance == pytest.approx(1.0)


def test_lacunary_baseline_small_cases():
    f1 = lacunary_baseline(1)
    assert np.allclose(f1.coeffs, [0, 0, 1])
    f3 = lacunary_baseline(3)
    nz = np.nonzero(f3.coeffs)[0]
    assert list(nz) == [2, 4, 8]


def test_lacunary_norms_stable():
    from blochlab.blochnorm import bloch_norm
    norms = [bloch_norm(lacunary_baseline(K)).norm for K in (8, 9, 10)]
    spread = (max(norms) - min(norms)) / min(norms)
    assert spread < 0.10


@pytest.mark.parametrize("anchors, eps", [([], (0.3,)), ([0.0 + 0j], ())],
                         ids=["no-anchor", "no-eps"])
def test_universal_build_rejects_an_empty_anchor_list_or_schedule(anchors, eps):
    targets = TargetEnumeration(1, (("zero", lambda z: np.zeros_like(z)),))
    with pytest.raises(ValueError):
        universal_build(targets, default_radii(5), anchors, eps)


def test_a_failed_target_certifies_a_stable_last_radius_once(monkeypatch):
    # the two trig[k=-1, ...] targets fail, and the last radius is stable for both
    calls = []

    def counting(f, target, n, L, **kw):
        calls.append((kw["target_id"], n))
        return certify(f, target, n, L, **kw)

    monkeypatch.setattr(universality, "certify", counting)
    radii = default_radii(20)
    cand = universal_build(TargetEnumeration(8), radii, [0.0 + 0j], (0.3,))
    assert cand.failed == ("trig[k=-1,c=-1]", "trig[k=-1,c=1]")
    for tid in cand.failed:
        assert calls.count((tid, len(radii))) == 1
        assert [c.n for c in cand.certificates if c.target_id == tid] == [len(radii)]
