import numpy as np
import pytest

from blochlab.arcs import ArcSet


def test_measure_normalized():
    F = ArcSet.from_arcs([(0.0, np.pi)])
    assert F.measure == pytest.approx(0.5)


def test_full_and_empty():
    assert ArcSet.full_circle().measure == pytest.approx(1.0)
    assert ArcSet.empty().measure == 0.0
    assert ArcSet.full_circle().is_full()


def test_contains():
    F = ArcSet.from_arcs([(0.5, 1.5)])
    assert F.contains(np.array([1.0]))[0]
    assert not F.contains(np.array([2.0]))[0]


def test_contains_point_matches_contains():
    F = ArcSet.from_arcs([(0.3, 2.0), (4.0, 5.0)])
    th = np.linspace(0, 2 * np.pi, 100, endpoint=False)
    assert np.array_equal(F.contains(th), F.contains_point(np.exp(1j * th)))


def test_complement_measures_add_to_one():
    F = ArcSet.from_arcs([(0.2, 1.0), (3.0, 4.5)])
    assert F.measure + F.complement().measure == pytest.approx(1.0)


def test_complement_disjoint():
    F = ArcSet.from_arcs([(0.2, 1.0)])
    G = F.complement()
    th = np.linspace(0, 2 * np.pi, 400, endpoint=False)
    both = F.contains(th) & G.contains(th)
    assert not np.any(both)


def test_complement_across_angle_zero():
    two_pi = 2 * np.pi
    th = np.linspace(0, two_pi, 2000, endpoint=False)
    F = ArcSet.from_arcs([(-0.5, 0.7)])  # crosses angle 0
    np.testing.assert_allclose(F.arcs, [(two_pi - 0.5, two_pi + 0.7)])
    G = F.complement()
    np.testing.assert_allclose(G.arcs, [(0.7, two_pi - 0.5)])
    # no sample angle is an endpoint
    assert np.array_equal(G.contains(th), ~F.contains(th))
    np.testing.assert_allclose(G.complement().arcs, F.arcs)
    # the complement wraps past angle 0 and covers two of the gaps
    F = ArcSet.from_arcs([(0.3, 0.4), (0.5, 0.6), (0.8, 2.0)])
    G = F.complement()
    np.testing.assert_allclose(G.arcs, [(0.4, 0.5), (0.6, 0.8), (2.0, two_pi + 0.3)])
    assert np.array_equal(G.contains(th), ~F.contains(th))
    assert F.measure + G.measure == pytest.approx(1.0, abs=1e-15)
    # a union of arcs through angle 0 joins the wrapped tail to the head arcs
    U = ArcSet.from_arcs(G.arcs + ArcSet.from_arcs([(-0.5, 0.7)]).arcs)
    np.testing.assert_allclose(U.arcs, [(2.0, two_pi + 0.8)])


def test_from_arcs_wrap_absorbs_several_head_arcs():
    two_pi = 2 * np.pi
    F = ArcSet.from_arcs([(0.1, 0.2), (0.3, 0.4), (2.0, two_pi + 0.35)])
    assert len(F.arcs) == 1
    assert F.arcs[0] == pytest.approx((2.0, two_pi + 0.4))
    assert F.measure == pytest.approx((two_pi - 1.6) / two_pi)


def test_sample_lands_inside():
    F = ArcSet.from_arcs([(1.0, 2.0)])
    th = F.sample(256)
    assert np.all(F.contains(th))


def test_json_round_trip():
    F = ArcSet.from_arcs([(0.1, 0.9), (2.0, 3.0)])
    assert ArcSet.from_json(F.to_json()).arcs == F.arcs


@pytest.mark.parametrize("arc", [(0.0, float("nan")), (0.5, float("inf")),
                                 (float("-inf"), 0.5)], ids=["nan", "inf", "-inf"])
def test_from_arcs_rejects_an_endpoint_that_is_not_finite(arc):
    with pytest.raises(ValueError, match="not finite"):
        ArcSet.from_arcs([(0.2, 0.4), arc])


def test_full_circle_sample_has_distinct_angles():
    assert np.unique(ArcSet.full_circle().sample(512)).size == 512
