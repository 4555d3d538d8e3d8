import io
import os

import numpy as np
import pytest

from blochlab.blochnorm import (WeightSpec, WeightError, bloch_norm,
                                little_bloch_profile, profile_to_csv,
                                weight_integral_test, weighted_bloch_norm)
from blochlab.expressions import FunctionExpr, Polynomial1D, PolynomialND
from blochlab.numerics import dyadic_radii


def _monomial(n):
    c = np.zeros(n + 1, dtype=complex)
    c[n] = 1.0
    return Polynomial1D(c)


def test_identity_norm():
    rep = bloch_norm(_monomial(1))
    assert rep.value_at_zero == 0.0
    assert rep.seminorm_sup == pytest.approx(1.0, abs=1e-6)


def test_z_squared_oracle():
    # max of 2 r (1 - r^2) over [0, 1) is 4 / (3 sqrt(3))
    rep = bloch_norm(_monomial(2))
    assert rep.norm == pytest.approx(4.0 / (3.0 * np.sqrt(3.0)), abs=1e-3)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
def test_monomial_closed_form(n):
    r = np.linspace(0.0, 1.0, 200_001)[:-1]
    exact = float(np.max(n * r ** (n - 1) * (1.0 - r * r)))
    rep = bloch_norm(_monomial(n))
    assert abs(rep.seminorm_sup - exact) <= 0.01 * exact


def test_certified_dominates_grid():
    rep = bloch_norm(_monomial(5))
    assert rep.certified is not None
    assert rep.certified_norm >= rep.norm


def test_homogeneity():
    p = Polynomial1D(np.array([0.3, -1.0, 0.5j]))
    a = bloch_norm(p).norm
    b = bloch_norm(p.scale(2.5)).norm
    assert b == pytest.approx(2.5 * a, rel=1e-9)


def test_subadditivity():
    p = Polynomial1D(np.array([0.0, 1.0, 0.2]))
    q = Polynomial1D(np.array([0.5, -0.3]))
    assert bloch_norm(p + q).norm <= bloch_norm(p).norm + bloch_norm(q).norm + 1e-9


def test_constant_norm_is_origin_value():
    rep = bloch_norm(Polynomial1D(np.array([0.7 + 0.1j])))
    assert rep.norm == pytest.approx(abs(0.7 + 0.1j), abs=1e-12)


def test_polydisc_norm_sum_of_slices():
    # f(z1, z2) = z1 + z2: each coordinate contributes the disc seminorm
    p = PolynomialND({(1, 0): 1.0, (0, 1): 1.0}, 2)
    rep = bloch_norm(p, domain="polydisc")
    assert rep.seminorm_sup == pytest.approx(2.0, abs=1e-2)


def test_polydisc_norm_off_the_diagonal():
    # f = z1 z2^8: the seminorm (1-|z1|^2)|z2|^8 + 8|z1|(1-|z2|^2)|z2|^7 tends
    # to 1 at z1 = 0, |z2| -> 1, away from the diagonal |z1| = |z2|
    rep = bloch_norm(PolynomialND({(1, 8): 1.0}, 2), domain="polydisc")
    assert rep.seminorm_sup == pytest.approx(1.0, abs=0.01)
    assert rep.certified is None


def test_weighted_polydisc_norm_applies_the_weight():
    # omega(t) = t cancels the factor 1 - |z_k|^2: for f = z1 z2 the
    # weighted seminorm is sup |z2| + |z1| = 2, the plain one 0.77
    rep = weighted_bloch_norm(PolynomialND({(1, 1): 1.0}, 2),
                              WeightSpec(kind="power", parameter=1.0))
    assert rep.seminorm_sup == pytest.approx(2.0, abs=1e-3)


def test_polydisc_norms_need_two_variable_polynomials():
    w = WeightSpec(kind="power", parameter=1.0)
    for f in (_monomial(2), PolynomialND({(1, 1, 1): 1.0}, 3),
              FunctionExpr.product(FunctionExpr.polynd(PolynomialND({(1, 0): 1.0}, 2)),
                                   FunctionExpr.polynd(PolynomialND({(0, 1): 1.0}, 2)))):
        with pytest.raises(ValueError):
            bloch_norm(f, domain="polydisc")
        if not isinstance(f, Polynomial1D):
            with pytest.raises(ValueError):
                weighted_bloch_norm(f, w)


def test_ball_radial_derivative_norm():
    # f(z) = z1: sup (1-|z|^2) |z1| over the ball is at |z| = 1/sqrt(3)...
    # the integrand r(1-r^2) peaks at 1/sqrt(3) with value 2/(3 sqrt 3)
    p = PolynomialND({(1, 0): 1.0}, 2)
    rep = bloch_norm(p, domain="ball")
    assert rep.seminorm_sup == pytest.approx(2.0 / (3.0 * np.sqrt(3.0)), abs=1e-2)


def test_little_bloch_profile_vanishes_for_polynomial():
    radii = tuple(r for r in dyadic_radii(16, linear=8) if r > 0)
    prof = little_bloch_profile(_monomial(3), radii)
    assert prof[-1] < prof[np.argmax(prof)]
    assert prof[-1] < 0.05


def test_profile_csv(tmp_path):
    radii = (0.25, 0.5, 0.75)
    prof = little_bloch_profile(_monomial(2), radii)
    path = os.path.join(tmp_path, "prof.csv")
    profile_to_csv(radii, prof, path)
    with open(path) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "r,shell_sup"
    assert len(lines) == 4


def test_weight_spec_rejects_increasing_weight():
    with pytest.raises(WeightError):
        WeightSpec(kind="custom-table", table=((0.1, 0.5, 0.9), (1.0, 0.5, 0.1)))


def test_weighted_norm_sqrt_weight_oracle():
    # f = z^2 with omega(t) = sqrt(t): the weighted integrand is
    # (1 - r^2) 2r / sqrt(1 - r); compare against a dense scan
    w = WeightSpec(kind="power", parameter=0.5)
    r = np.linspace(0.0, 1.0, 400_001)[:-1]
    exact = float(np.max((1.0 - r * r) * 2.0 * r / np.sqrt(1.0 - r)))
    rep = weighted_bloch_norm(_monomial(2), w)
    assert rep.seminorm_sup == pytest.approx(exact, abs=2e-3)


def test_weight_test_verdicts():
    assert weight_integral_test(WeightSpec(kind="log-power", parameter=0.5),
                                0.5).verdict == "diverges"
    assert weight_integral_test(WeightSpec(kind="log-power", parameter=1.0),
                                0.5).verdict == "converges"
    assert weight_integral_test(WeightSpec(kind="power", parameter=1.0),
                                0.5).verdict == "converges"


def test_weight_test_partials_monotone():
    res = weight_integral_test(WeightSpec(kind="power", parameter=1.0), 0.5)
    assert np.all(np.diff(res.partials) >= -1e-15)


def test_bloch_norm_of_expression():
    f = FunctionExpr.poly1d(_monomial(2))
    assert bloch_norm(f).norm == pytest.approx(4.0 / (3.0 * np.sqrt(3.0)), abs=1e-3)
