import io
import os

import numpy as np
import pytest

from blochlab.arcs import ArcSet
from blochlab.blochnorm import (BlochReport, WeightSpec, WeightError, _bound_ordered, _certify,
                                _disc_shells, _polydisc_sup, bloch_norm, little_bloch_profile,
                                profile_to_csv, weight_integral_test)
from blochlab.expressions import Polynomial1D, PolynomialND
from blochlab.inner import InnerSpec
from blochlab.numerics import NonFiniteSampleError, angular_count, dyadic_radii
from blochlab.pipeline import plateau_polynomial, simul_approx_polydisc


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
    p = PolynomialND.from_terms({(1, 0): 1.0, (0, 1): 1.0}, 2)
    rep = bloch_norm(p, domain="polydisc")
    assert rep.seminorm_sup == pytest.approx(2.0, abs=1e-2)


def test_polydisc_norm_off_the_diagonal():
    # f = z1 z2^8: the seminorm (1-|z1|^2)|z2|^8 + 8|z1|(1-|z2|^2)|z2|^7 tends
    # to 1 at z1 = 0, |z2| -> 1, away from the diagonal |z1| = |z2|
    rep = bloch_norm(PolynomialND.from_terms({(1, 8): 1.0}, 2), domain="polydisc")
    assert rep.seminorm_sup == pytest.approx(1.0, abs=0.01)
    assert rep.certified is None


def test_weighted_polydisc_norm_applies_the_weight():
    # omega(t) = t cancels the factor 1 - |z_k|^2: for f = z1 z2 the
    # weighted seminorm is sup |z2| + |z1| = 2, the plain one 0.77
    rep = bloch_norm(PolynomialND.from_terms({(1, 1): 1.0}, 2), "polydisc",
                     weight=WeightSpec(kind="power", parameter=1.0))
    assert rep.seminorm_sup == pytest.approx(2.0, abs=1e-3)


def test_polydisc_norms_need_two_variable_polynomials():
    w = WeightSpec(kind="power", parameter=1.0)
    for f in (_monomial(2), PolynomialND.from_terms({(1, 1, 1): 1.0}, 3)):
        with pytest.raises(ValueError):
            bloch_norm(f, domain="polydisc")
        if f.dim != 1:
            with pytest.raises(ValueError):
                bloch_norm(f, "polydisc", weight=w)
            # the ball takes at most two variables, as its tensor grid does
            with pytest.raises(ValueError):
                bloch_norm(f, domain="ball")


def test_ball_radial_derivative_norm():
    # f(z) = z1: sup (1-|z|^2) |z1| over the ball is at |z| = 1/sqrt(3)...
    # the integrand r(1-r^2) peaks at 1/sqrt(3) with value 2/(3 sqrt 3)
    p = PolynomialND.from_terms({(1, 0): 1.0}, 2)
    rep = bloch_norm(p, domain="ball")
    assert rep.seminorm_sup == pytest.approx(2.0 / (3.0 * np.sqrt(3.0)), abs=1e-5)


def test_ball_norm_of_z1_plus_z2():
    # Rf = z1 + z2 peaks at |z1| = |z2| on each sphere: sup (1 - r^2) sqrt(2) r
    rep = bloch_norm(PolynomialND.from_terms({(1, 0): 1.0, (0, 1): 1.0}, 2), domain="ball")
    assert rep.seminorm_sup == pytest.approx(np.sqrt(2.0) * 2.0 / (3.0 * np.sqrt(3.0)), abs=1e-5)
    assert rep.certified is None


def test_ball_norm_of_z1_to_the_8_z2_to_the_8():
    # Rf = 16 z1^8 z2^8 peaks at t = pi/4: 16 2^-8 max (1 - r^2) r^16, which
    # the grid of radii approaches from below
    r = np.linspace(0.0, 1.0, 2_000_001)[:-1]
    exact = 16.0 * 2.0 ** -8 * float(np.max((1.0 - r * r) * r ** 16))
    rep = bloch_norm(PolynomialND.from_terms({(8, 8): 1.0}, 2), domain="ball")
    assert exact * 0.99 <= rep.seminorm_sup <= exact


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
    rep = bloch_norm(_monomial(2), weight=w)
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
    # a one-variable PolynomialND read from terms is the dense polynomial of
    # its coefficients: every norm gives both the same report, repr for repr
    rng = np.random.default_rng(5)
    radii = dyadic_radii(16, linear=32)[1:]
    w = WeightSpec(kind="log-power", parameter=0.5)
    norms = (bloch_norm, lambda h: bloch_norm(h, "ball"), lambda h: bloch_norm(h, weight=w),
             lambda h: little_bloch_profile(h, radii).tolist())
    for f in (_monomial(2), Polynomial1D(rng.normal(size=12) + 1j * rng.normal(size=12))):
        g = PolynomialND.from_terms(f.terms, 1)
        for norm in norms:
            assert repr(norm(g)) == repr(norm(f))
    rep = bloch_norm(PolynomialND.from_terms({(2,): 1.0}, 1))
    assert rep.norm == pytest.approx(4.0 / (3.0 * np.sqrt(3.0)), abs=1e-3)
    assert rep.certified is not None


def test_disc_argmax_attains_the_reported_sup():
    # each shell's argmax is the point its sample was taken at, not its
    # conjugate: for z + 0.5i z^2 the conjugate reaches only half the sup
    rng = np.random.default_rng(11)
    polys = [Polynomial1D(np.array([0.0, 1.0, 0.5j]))]
    polys += [Polynomial1D(rng.normal(size=7) + 1j * rng.normal(size=7)) for _ in range(4)]
    for p in polys:
        dp = p.partial(0)
        rep = bloch_norm(p)
        a = rep.argmax[0]
        assert (1.0 - abs(a) ** 2) * abs(dp(a)) == pytest.approx(rep.seminorm_sup, rel=1e-12)
        rep = bloch_norm(p, weight=WeightSpec(kind="power", parameter=1.0))
        a = rep.argmax[0]
        assert (1.0 + abs(a)) * abs(dp(a)) == pytest.approx(rep.seminorm_sup, rel=1e-12)


def test_bloch_norm_of_an_object_that_is_no_function_is_a_type_error():
    for norm in (bloch_norm, lambda f: little_bloch_profile(f, [0.5]),
                 lambda f: bloch_norm(f, weight=WeightSpec(kind="power"))):
        with pytest.raises(TypeError):
            norm(object())


def test_a_one_variable_polynd_takes_the_fft_shell_scan():
    # _disc_shells reports a degree, and so a certified bound, for a
    # polynomial; one read from terms gives the dense polynomial's shells
    # and shell bounds bit for bit, and an InnerSpec is scanned pointwise
    radii = dyadic_radii()[:8]

    def scan(f):
        shell, bound, degree, m = _disc_shells(f, radii)
        return [shell(i) for i in range(len(radii))], bound, degree, m

    ref = scan(_monomial(3))
    assert ref[2:] == (3, angular_count(3))
    assert repr(scan(PolynomialND.from_terms({(3,): 1.0}, 1))) == repr(ref)
    assert scan(InnerSpec.blaschke([0.3]))[1:3] == (None, None)


def test_bloch_norm_of_a_blaschke_factor_is_one():
    # Schwarz-Pick: (1 - |z|^2)|B'(z)| = 1 - |B(z)|^2 <= 1, with equality at the zero 0.3
    rep = bloch_norm(InnerSpec.blaschke([0.3]))
    assert 0.999 <= rep.seminorm_sup <= 1.0
    assert rep.value_at_zero == pytest.approx(0.3)
    assert rep.certified is None


def test_little_bloch_profile_of_a_singular_inner_function_stays_below_one():
    radii = dyadic_radii()[1:]
    prof = little_bloch_profile(InnerSpec.atomic([(1.0 + 0j, 0.5)]), radii)
    assert prof.shape == (len(radii),)
    assert np.all(np.isfinite(prof))
    assert np.all(prof <= 1.0)
    assert prof.max() > 0.5


def _full_disc_scan(p, omega=None):
    """Every shell of dyadic_radii() in radius order, as (sup, (point,)) pairs."""
    shell = _disc_shells(p, dyadic_radii(), omega)[0]
    return [shell(i) for i in range(len(dyadic_radii()))]


def _first_max(shells, origin=(0.0,)):
    """Reference: the largest sample and the first point attaining it, origin when none is positive."""
    best = max((v for v, _ in shells), default=0.0)
    return (best, next(z for v, z in shells if v == best)) if best > 0.0 else (0.0, origin)


def _assert_matches_full_scan(p):
    """bloch_norm's early-stopped scan gives the full scan's sup, argmax and bound bit for bit."""
    best, arg = _first_max(_full_disc_scan(p))
    _, _, degree, m = _disc_shells(p, dyadic_radii())
    rep = bloch_norm(p)
    assert rep.seminorm_sup == best
    assert rep.argmax == arg
    assert rep.certified == _certify(best, degree, m)


def _visited_shells(p, omega=None):
    """How many shells the early stop visits; each is the full scan's shell, in radius order."""
    shell, bound, _, _ = _disc_shells(p, dyadic_radii(), omega)
    visited = _bound_ordered(shell, len(dyadic_radii()), bound, (0.0,))[2]
    full = _full_disc_scan(p, omega)
    assert list(visited) == sorted(visited)
    assert [repr(s) for s in visited.values()] == [repr(full[i]) for i in visited]
    return len(visited)


def test_early_stop_matches_full_scan_on_monomials():
    for n in [*range(0, 65), 100, 127, 128, 129, 255, 256, 511, 512, 1000, 1023, 1024]:
        _assert_matches_full_scan(_monomial(n))


@pytest.mark.parametrize("seed", range(6))
def test_early_stop_matches_full_scan_on_random_polynomials(seed):
    rng = np.random.default_rng(seed)
    degree = int(rng.integers(1, 2000))
    decay = rng.uniform(0.0, 5.0) ** -np.arange(degree + 1) if seed % 2 else 1.0
    p = Polynomial1D((rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)) * decay)
    _assert_matches_full_scan(p)
    assert _visited_shells(p) >= 1


def test_early_stop_matches_full_scan_on_a_ladder_polynomial():
    # a plateau P of degree 4096 times a degree-72 factor, the degree the
    # former Q (P o J) disc construction passed to bloch_norm
    half_gap = 0.2 * np.pi
    F = ArcSet.from_arcs([(half_gap, np.pi - half_gap), (np.pi + half_gap, 2.0 * np.pi - half_gap)])
    rng = np.random.default_rng(3)
    q = (rng.normal(size=73) + 1j * rng.normal(size=73)) * 0.9 ** np.arange(73)
    for center in (0.0, 0.6):
        plateau, _ = plateau_polynomial(F, 0.3, center, 4096)
        p = Polynomial1D(np.convolve(plateau.coeffs, q))
        assert p.degree == 4168
        _assert_matches_full_scan(p)
        assert _visited_shells(p) < len(dyadic_radii())


def test_early_stop_skips_every_shell_of_a_constant():
    p = Polynomial1D(np.array([0.7 + 0.1j]))
    assert _visited_shells(p) == 0
    _assert_matches_full_scan(p)
    assert bloch_norm(p).argmax == (0.0,)


_WEIGHTS = [WeightSpec(kind="power", parameter=0.5), WeightSpec(kind="log-power", parameter=1.0),
            WeightSpec(kind="custom-table", table=((0.0, 0.25, 1.0), (0.0, 0.5, 1.0)))]


def _assert_weighted_matches_full_scan(p, w):
    """The bound-ordered weighted disc report is the full 82-shell scan's, repr for repr.

    Returns how many shells the bound-ordered scan visits.
    """
    radii = dyadic_radii()
    omega = [float(w.omega(1.0 - float(r))) for r in radii]
    best, arg = _first_max([(v / o, z) for (v, z), o in zip(_full_disc_scan(p), omega)])
    m = _disc_shells(p, radii)[3]
    ref = BlochReport("disc", abs(complex(p(np.zeros(1))[0])), best, None, arg,
                      f"weighted disc grid: {len(radii)} dyadic shells x {m} angles")
    assert repr(bloch_norm(p, weight=w)) == repr(ref)
    return _visited_shells(p, omega)


@pytest.mark.parametrize("w", _WEIGHTS, ids=["power", "log-power", "custom-table"])
def test_weighted_early_stop_matches_full_scan_on_random_polynomials(w):
    rng = np.random.default_rng(17)
    for degree in (1, 2, 7, 64, 500):
        decay = rng.uniform(0.5, 3.0) ** -np.arange(degree + 1) if degree % 2 else 1.0
        p = Polynomial1D((rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)) * decay)
        assert _assert_weighted_matches_full_scan(p, w) < len(dyadic_radii())


def test_weighted_disc_norm_of_an_inner_function_scans_every_shell():
    # an InnerSpec has no shell bound: every shell is sampled, in radius order
    f = InnerSpec.blaschke([0.3])
    omega = [float(_WEIGHTS[0].omega(1.0 - float(r))) for r in dyadic_radii()]
    assert _visited_shells(f, omega) == len(dyadic_radii())
    assert bloch_norm(f, weight=_WEIGHTS[0]).certified is None


def test_the_ball_takes_no_weight():
    with pytest.raises(ValueError):
        bloch_norm(PolynomialND.from_terms({(1, 0): 1.0}, 2), "ball", weight=_WEIGHTS[0])


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_coefficients_still_raise(bad):
    for coeffs in ([1.0, bad, 2.0], [1.0, bad]):
        nd = PolynomialND.from_terms({(k,): c for k, c in enumerate(coeffs)}, 1)
        for f in (Polynomial1D(np.array(coeffs)), nd):
            with pytest.raises(NonFiniteSampleError), np.errstate(invalid="ignore"):
                bloch_norm(f)


def _full_polydisc_scan(f, weight):
    """Reference: every radius pair in row-major order, the first strict maximum wins."""
    c = f.coeffs
    n1, n2 = c.shape
    d1 = c[1:] * np.arange(1, n1)[:, None]
    d2 = c[:, 1:] * np.arange(1, n2)
    radii = dyadic_radii(12, linear=16)
    m = angular_count(max(n1, n2) - 1)
    unit = np.exp(2j * np.pi * np.outer(np.arange(m), np.arange(max(n1, n2))) / m)

    def vander(r, n):
        return unit[:, :n] * r ** np.arange(n)

    weights = [float(weight(r)) for r in radii]
    right = [(vander(r, n2).T, vander(r, n2 - 1).T) for r in radii]
    best, arg = 0.0, (0.0, 0.0)
    for r1, w1 in zip(radii, weights):
        left1, left2 = vander(r1, n1 - 1) @ d1, vander(r1, n1) @ d2
        for r2, w2, (v1, v2) in zip(radii, weights, right):
            vals = w1 * np.abs(left1 @ v1) + w2 * np.abs(left2 @ v2)
            k = int(np.argmax(vals))
            if vals.flat[k] > best:
                best = float(vals.flat[k])
                arg = (r1 * np.exp(2j * np.pi * (k // m) / m), r2 * np.exp(2j * np.pi * (k % m) / m))
    note = f"polydisc grid: {len(radii)}^2 radius pairs x {m}^2 angles"
    return float(abs(c[0, 0])), best, arg, note


def _assert_polydisc_matches_full_scan(p, w=None):
    """The early-stopped polydisc report is the full scan's, repr for repr."""
    if w is None:
        rep, prefix, weight = bloch_norm(p, domain="polydisc"), "", lambda r: 1.0 - r * r
    else:
        rep, prefix = bloch_norm(p, "polydisc", weight=w), "weighted "
        weight = lambda r: (1.0 - r * r) / float(w.omega(1.0 - r * r))
    f0, best, arg, note = _full_polydisc_scan(p, weight)
    assert repr(rep) == repr(BlochReport("polydisc", f0, best, None, arg, prefix + note))


def _random_polynd(rng):
    d1, d2 = (int(d) for d in rng.integers(1, 14, size=2))
    decay = rng.uniform(0.2, 3.0)
    return PolynomialND.from_terms({(a, b): complex(rng.normal(), rng.normal()) * decay ** -(a + b)
                         for a in range(d1 + 1) for b in range(d2 + 1) if rng.random() < 0.6}, 2)


@pytest.mark.parametrize("seed", range(4))
def test_polydisc_early_stop_matches_full_scan_on_random_polynomials(seed):
    rng = np.random.default_rng(seed)
    for _ in range(3):
        _assert_polydisc_matches_full_scan(_random_polynd(rng))


def test_polydisc_early_stop_keeps_the_first_of_tied_maxima():
    # z1 (z2) samples 1 - |z1|^2 (1 - |z2|^2): its sup 1 ties on all 24 pairs
    # with r1 = 0 (r2 = 0), and the argmax stays the first in row-major order
    for alpha in ((1, 0), (0, 1)):
        p = PolynomialND.from_terms({alpha: 1.0}, 2)
        _assert_polydisc_matches_full_scan(p)
        assert len(_polydisc_sup(p)[4]) == 24
    _assert_polydisc_matches_full_scan(PolynomialND.from_terms({(1, 0): 1.0, (0, 1): 1.0}, 2))
    _assert_polydisc_matches_full_scan(PolynomialND.from_terms({(1, 8): 1.0}, 2))


def test_polydisc_early_stop_skips_every_pair_of_a_constant():
    for p in (PolynomialND.from_terms({}, 2), PolynomialND.from_terms({(0, 0): 0.7 + 0.1j}, 2)):
        assert _polydisc_sup(p)[4] == []
        _assert_polydisc_matches_full_scan(p)
        assert bloch_norm(p, domain="polydisc").argmax == (0.0, 0.0)


@pytest.mark.parametrize("parameter", [0.5, 1.0, 2.0])
def test_weighted_polydisc_early_stop_matches_full_scan(parameter):
    w = WeightSpec(kind="power", parameter=parameter)
    _assert_polydisc_matches_full_scan(PolynomialND.from_terms({(1, 1): 1.0, (0, 2): -0.5j}, 2), w)
    _assert_polydisc_matches_full_scan(_random_polynd(np.random.default_rng(7)), w)


def test_polydisc_early_stop_visits_only_pairs_whose_bound_reaches_the_sup():
    # criterion 7's f: simul dim 2 on Re z1 Re z2
    def phi(pts):
        pts = np.asarray(pts, dtype=complex)
        return (pts[..., 0].real * pts[..., 1].real).astype(complex)

    f = simul_approx_polydisc(phi, 0.5, 2).f
    _, best, _, _, visited = _polydisc_sup(f)
    c = f.coeffs
    d1, d2 = (np.abs(np.polynomial.polynomial.polyder(c, axis=a)) for a in (0, 1))
    radii = dyadic_radii(12, linear=16)
    reach = [(i, j) for i, r1 in enumerate(radii) for j, r2 in enumerate(radii)
             if (1.0 - r1 * r1) * np.polynomial.polynomial.polyval2d(r1, r2, d1)
             + (1.0 - r2 * r2) * np.polynomial.polynomial.polyval2d(r1, r2, d2) >= best]
    assert visited == reach
    assert len(visited) < len(radii) ** 2 // 4


@pytest.mark.parametrize("coeffs", [{(1, 0): np.nan, (0, 1): 1.0}, {(2, 1): np.nan, (1, 0): 1.0},
                                    {(1, 0): np.inf, (0, 1): 1.0}], ids=["nan", "nan-mixed", "inf"])
def test_non_finite_polydisc_coefficients_raise(coeffs):
    for domain in ("polydisc", "ball"):
        with pytest.raises(NonFiniteSampleError):
            bloch_norm(PolynomialND.from_terms(coeffs, 2), domain=domain)
    with pytest.raises(NonFiniteSampleError):
        bloch_norm(PolynomialND.from_terms(coeffs, 2), "polydisc",
                   weight=WeightSpec(kind="power", parameter=1.0))
