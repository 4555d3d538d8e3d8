import numpy as np
import pytest

from blochlab.arcs import ArcSet
from blochlab.expressions import PolynomialND
from blochlab.inner import InnerSpec
from blochlab.pipeline import (plateau_polynomial, simul_approx_disc,
                               simul_approx_polydisc, sup_error)

TWO_PI = 2.0 * np.pi


def _weak_base():
    # a weak atom keeps the exceptional boundary set tiny
    return InnerSpec.atomic([(1.0 + 0j, 0.02)])


def _two_arcs(measure=0.8):
    half_gap = (1.0 - measure) * np.pi / 2.0
    return ArcSet.from_arcs([(half_gap, np.pi - half_gap),
                             (np.pi + half_gap, TWO_PI - half_gap)])


def test_plateau_polynomial_margin_and_center():
    F = _two_arcs(0.7)
    poly, diag = plateau_polynomial(F, 0.3, 0.25, degree_cap=1024)
    z = np.exp(1j * F.sample(2048))
    assert float(np.max(np.abs(poly(z) - 1.0))) < 0.3 + diag["truncation_tail"] + 0.02
    assert abs(poly(0.0)) == pytest.approx(0.25, abs=0.01)
    assert not diag["center_clamped"]


def test_plateau_polynomial_rejects_full_circle():
    with pytest.raises(ValueError):
        plateau_polynomial(ArcSet.full_circle(), 0.3, 0.0)


def test_simul_disc_zero_target():
    res = simul_approx_disc(lambda z: np.zeros_like(np.asarray(z)), 0.5,
                            _weak_base())
    assert res.report["norm"] == 0.0
    assert res.report["measure"] == 1.0
    assert res.E.is_full()


def test_simul_disc_constant_target():
    res = simul_approx_disc(
        lambda z: np.ones_like(np.asarray(z, dtype=complex)), 0.5, _weak_base())
    rep = res.report
    assert rep["error_ok"]
    assert rep["measure_ok"]
    assert rep["sup_error"] < 0.5
    assert rep["value_at_zero"] < 0.5
    assert rep["measure"] >= 0.5
    # canonical and used splits both recorded
    assert rep["split_canonical"]["delta_Q"] == pytest.approx(0.25)
    assert rep["split_used"]["delta_P"] > 0


def test_simul_disc_real_part_meets_contract():
    res = simul_approx_disc(
        lambda z: np.asarray(z, dtype=complex).real.astype(complex), 0.5, _weak_base())
    rep = res.report
    assert rep["norm_ok"] and rep["error_ok"] and rep["measure_ok"]
    assert rep["norm"] < 0.5 and rep["sup_error"] < 0.5 and res.E.measure >= 0.5
    # the grid norm is a lower estimate; the certified bound must meet eps too
    assert rep["certified_norm"] < 0.5


def test_simul_disc_result_is_polynomial():
    res = simul_approx_disc(
        lambda z: np.ones_like(np.asarray(z, dtype=complex)), 0.5, _weak_base())
    p = res.f_disc
    z = np.exp(1j * res.E.sample(512)) if res.E.arcs else np.zeros(1)
    assert np.all(np.isfinite(p(z)))


def test_simul_polydisc_n1_delegates_to_disc():
    phi = lambda z: np.asarray(z, dtype=complex).real.astype(complex)
    a = simul_approx_disc(phi, 0.5, _weak_base())
    b = simul_approx_polydisc(phi, 0.5, 1, _weak_base())
    assert abs(a.report["norm"] - b.report["norm"]) < 0.05
    assert abs(a.report["sup_error"] - b.report["sup_error"]) < 0.05
    assert abs(a.report["measure"] - b.report["measure"]) < 0.05


def test_sup_error_polydisc_matches_pointwise_evaluation():
    f = PolynomialND({(0, 0): 0.3, (1, 0): 1.0, (2, 3): -0.5j, (0, 5): 0.25}, 2)
    phi = lambda pts: np.asarray(pts, dtype=complex)[..., 0].real.astype(complex)
    E = (ArcSet.full_circle(), _two_arcs(0.6))
    grid = np.stack(np.meshgrid(np.exp(1j * E[0].sample(512)),
                                np.exp(1j * E[1].sample(512)), indexing="ij"), axis=-1)
    direct = float(np.max(np.abs(f(grid) - phi(grid))))
    assert sup_error(f, E, phi) == pytest.approx(direct, abs=1e-13)
    assert sup_error(f, (E[0], ArcSet.empty()), phi) == float("inf")


def test_simul_polydisc_rejects_large_dim():
    with pytest.raises(Exception):
        simul_approx_polydisc(lambda pts: np.zeros(pts.shape[0]), 0.5, 3,
                              _weak_base())


def test_simul_eps_validation():
    phi = lambda z: np.ones_like(np.asarray(z, dtype=complex))
    for eps in (0.0, 1.5):
        with pytest.raises(ValueError):
            simul_approx_disc(phi, eps, _weak_base())
        with pytest.raises(ValueError):
            simul_approx_polydisc(phi, eps, 2, _weak_base())
