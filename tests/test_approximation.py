import numpy as np
import pytest

from blochlab.approximation import norm_fit, product_decompose, runge_pair, uniform_fit
from blochlab.arcs import ArcSet
from blochlab.blochnorm import bloch_norm

TWO_PI = 2.0 * np.pi


def _two_arcs(gap=0.8):
    return ArcSet.from_arcs([(gap, np.pi - gap), (np.pi + gap, TWO_PI - gap)])


def test_runge_pair_zero_at_origin():
    rep = runge_pair(_two_arcs(), 0.5, degree_cap=512)
    assert rep.poly.coeffs[0] == 0
    assert abs(rep.poly(0.0)) < 1e-12


def test_runge_pair_close_to_one_on_set():
    rep = runge_pair(_two_arcs(), 0.4, degree_cap=1024)
    F = _two_arcs()
    z = np.exp(1j * F.sample(2048))
    assert float(np.max(np.abs(rep.poly(z) - 1.0))) < 0.4 + 1e-9
    assert rep.achieved


def test_runge_pair_rejects_full_circle():
    with pytest.raises(Exception):
        runge_pair(ArcSet.full_circle(), 0.3)


def test_uniform_fit_constant():
    F = _two_arcs()
    fit = uniform_fit(F, lambda z: np.ones_like(z), 0.1)
    assert fit.margin < 0.1
    assert fit.achieved


def test_uniform_fit_real_part_target():
    F = _two_arcs()
    fit = uniform_fit(F, lambda z: z.real.astype(complex), 0.25)
    z = np.exp(1j * F.sample(2048))
    assert float(np.max(np.abs(fit.poly(z) - z.real))) < 0.25 + 1e-9


def test_uniform_fit_miss_returns_best():
    # a unimodular winding target cannot be approximated on arcs whose
    # union is nearly everything with a tiny budget at a tiny degree cap
    F = ArcSet.from_arcs([(0.05, TWO_PI - 0.05)])
    fit = uniform_fit(F, lambda z: np.conj(z), 1e-4, degree_cap=8)
    assert not fit.achieved
    assert fit.margin > 1e-4
    assert fit.degree == 8


def test_fit_degree_cap_below_first_degree_is_rejected():
    with pytest.raises(ValueError):
        uniform_fit(_two_arcs(), lambda z: np.ones_like(z), 0.1, degree_cap=4)


def test_product_decompose_separable_target():
    def phi(pts):
        return (pts[..., 0].real * pts[..., 1].real).astype(complex)

    dec = product_decompose(phi, 2, 0.2)
    assert dec.error < 0.2
    assert len(dec.terms) >= 1


def test_product_decompose_past_rank_cap_returns_best():
    # Re z1 Re z2 + Im z1 Im z2 = Re(z1 conj z2) has rank 2; one term misses
    def phi(pts):
        return (pts[..., 0].real * pts[..., 1].real
                + pts[..., 0].imag * pts[..., 1].imag).astype(complex)

    dec = product_decompose(phi, 2, 0.1, m_cap=1)
    assert len(dec.terms) == 1
    assert dec.error >= 0.1
    pts = np.exp(1j * np.array([[0.3, 1.1], [2.0, 4.0], [5.0, 0.2]]))
    assert np.max(np.abs(dec(pts) - phi(pts))) == pytest.approx(0.5, abs=1e-6)


def test_product_decompose_rejects_a_bad_dimension_before_sampling():
    calls = []

    def constant(z):
        calls.append(np.shape(z))
        return np.full(np.shape(z), 1.0, dtype=complex)

    with pytest.raises(ValueError, match="one value per point"):
        product_decompose(constant, 2, 0.1)
    assert calls == [(3, 2)]
    with pytest.raises(ValueError, match="dimension 1 or 2"):
        product_decompose(constant, 3, 0.1)
    assert calls == [(3, 2)]


def test_product_decompose_evaluation_matches_target():
    def phi(pts):
        return (pts[..., 0].real * pts[..., 1].real).astype(complex)

    dec = product_decompose(phi, 2, 0.1)
    rng = np.random.default_rng(2)
    pts = np.exp(1j * rng.uniform(0, TWO_PI, size=(500, 2)))
    err = np.max(np.abs(dec(pts) - phi(pts)))
    assert err < 0.1 + 1e-6


def _re(z):
    return np.asarray(z, dtype=complex).real.astype(complex)


def test_norm_fit_zero_budget_is_best_analytic_approximation():
    # Nehari: the distance of Re z = (z + conj z)/2 to the disc algebra is
    # 1/2, attained only by z/2
    rep = norm_fit(ArcSet.full_circle(), _re, 0.0, 8)
    assert rep.converged
    z = np.exp(1j * np.linspace(0.0, TWO_PI, 4097))
    sup_error = float(np.max(np.abs(rep.poly(z) - _re(z))))
    assert sup_error == pytest.approx(0.5, abs=1e-4)
    # the excess bounds the error through the inscribed polygon
    assert sup_error <= rep.excess + 1e-9
    expected = np.zeros(rep.poly.coeffs.size, dtype=complex)
    expected[1] = 0.5
    assert np.max(np.abs(rep.poly.coeffs - expected)) < 1e-4


def test_norm_fit_meets_budget_and_bounds_the_norm():
    F = _two_arcs(0.77)
    rep = norm_fit(F, _re, 0.45, 8)
    assert rep.converged
    assert rep.excess < 1e-9
    z = np.exp(1j * F.sample(rep.degree * 16 + 16))
    assert float(np.max(np.abs(rep.poly(z) - _re(z)))) <= 0.45 + 1e-9
    # value bounds the norm on the program's grid; the finer norm grid
    # may exceed it only slightly
    assert rep.value < 0.5
    assert bloch_norm(rep.poly).norm == pytest.approx(rep.value, rel=0.05)
