import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from blochlab import approximation
from blochlab.approximation import (ApproxError, norm_fit, product_decompose, runge_pair,
                                    uniform_fit)
from blochlab.arcs import ArcSet
from blochlab.blochnorm import bloch_norm
from blochlab.cli import _target_from_config
from blochlab.pipeline import (_BUDGET_SHARE, _default_arcs, _target_measure,
                               simul_approx_disc, simul_approx_polydisc)

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


# Arc sets of the boundary-fit solve tests: two arcs with gaps of 1.6, one
# short arc, the two nearly half circles of a universality correction block
# at budget 0.25, and a nearly full circle.
_FIT_SETS = {
    "two-arcs": _two_arcs(),
    "short-arc": ArcSet.from_arcs([(1.0, 1.3)]),
    "universal-gaps": ArcSet.from_arcs([(1 / 32, np.pi - 1 / 32),
                                        (np.pi + 1 / 32, TWO_PI - 1 / 32)]),
    "nearly-full": ArcSet.from_arcs([(0.005, TWO_PI - 0.005)]),
}


def _fit(kind, F, degree_cap):
    """Run every degree from 8 to ``degree_cap``: the tolerance is never met."""
    if kind == "runge":
        return runge_pair(F, 1e-12, degree_cap=degree_cap)
    return uniform_fit(F, lambda z: z.real.astype(complex), 1e-12, degree_cap=degree_cap)


def _qr_lawson(A, b, n_main, bound):
    """The Lawson passes of ``_bounded_fit``, each solved by a pivoted-QR least
    squares of the stacked, reweighted rows: the reference for its normal equations."""
    A_main, A_gap = A[:n_main], A[n_main:]
    b_main, t_gap = b[:n_main], b[n_main:]
    w = np.ones(n_main)
    for _ in range(approximation._LAWSON_PASSES):
        sw = np.sqrt(w)[:, None]
        g = np.sqrt(approximation._GAP_WEIGHT)
        coef, *_ = scipy.linalg.lstsq(np.vstack([A_main * sw, A_gap * g]),
                                      np.concatenate([b_main * sw[:, 0], t_gap * g]),
                                      lapack_driver="gelsy", check_finite=False)
        w = w * np.maximum(np.abs(A_main @ coef - b_main), 1e-15)
        w = np.clip(w / np.mean(w), 1e-6, 1e6)
        v = A_gap @ coef
        mod = np.abs(v)
        t_gap = np.where(mod > bound, v * (bound / np.maximum(mod, 1e-300)), v)
    return coef


@pytest.mark.parametrize("kind, name, degree_cap", [
    ("uniform", "two-arcs", 256), ("runge", "universal-gaps", 256),
    ("uniform", "short-arc", 64), ("runge", "short-arc", 64)])
def test_bounded_fit_matches_a_qr_least_squares(monkeypatch, kind, name, degree_cap):
    fits = []
    solve = approximation._bounded_fit

    def record(A, b, n_main, bound):
        coef = solve(A, b, n_main, bound)
        fits.append((A.shape[1], coef, _qr_lawson(A, b, n_main, bound)))
        return coef

    monkeypatch.setattr(approximation, "_bounded_fit", record)
    _fit(kind, _FIT_SETS[name], degree_cap)
    lowest = 1 if kind == "runge" else 0
    degrees = [8 * 2 ** k for k in range(int(np.log2(degree_cap // 8)) + 1)]
    assert [n - 1 + lowest for n, _, _ in fits] == degrees
    for _, coef, reference in fits:
        assert np.linalg.norm(coef - reference) <= 1e-10 * np.linalg.norm(reference)


def _gram_conditions(monkeypatch):
    """cond(G) of the first and the last Lawson pass of every degree, by size."""
    conds = {}
    calls = []
    solve = scipy.linalg.solve_toeplitz

    def record(cr, b, **kwargs):
        mu = cr[1]
        calls.append(mu.size)
        if len(calls) % approximation._LAWSON_PASSES in (0, 1):
            eig = np.linalg.eigvalsh(scipy.linalg.toeplitz(np.conj(mu), mu))
            conds.setdefault(mu.size, []).append(eig[-1] / eig[0])
        return solve(cr, b, **kwargs)

    monkeypatch.setattr(scipy.linalg, "solve_toeplitz", record)
    return conds


@pytest.mark.parametrize("kind, name, degree_cap", [
    ("uniform", "universal-gaps", 1024), ("runge", "nearly-full", 1024),
    ("uniform", "two-arcs", 512)])
def test_gram_matrix_is_well_conditioned_where_the_gaps_are_sampled_densely(
        monkeypatch, kind, name, degree_cap):
    conds = _gram_conditions(monkeypatch)
    _fit(kind, _FIT_SETS[name], degree_cap)
    assert max(conds) == degree_cap + (kind == "uniform")
    assert all(len(c) == 2 for c in conds.values())
    assert max(max(c) for c in conds.values()) < 1e6


def test_numerically_singular_gram_still_gives_a_fit(monkeypatch):
    # 64 anchors on a gap of 2 pi - 0.3 cannot pin a degree-128 polynomial
    # down off a short arc: G is singular to working precision, and the
    # diagonal shift keeps its solve defined
    conds = _gram_conditions(monkeypatch)
    rep = runge_pair(_FIT_SETS["short-arc"], 1e-5, degree_cap=128)
    assert max(conds[64]) < 1e6
    assert min(conds[128]) > 1e12
    assert rep.achieved
    assert rep.degree == 128
    assert rep.margin < 1e-6


@pytest.mark.parametrize("name", sorted(_FIT_SETS))
@pytest.mark.parametrize("kind", ["uniform", "runge"])
def test_blocked_powers_match_one_exponential_per_entry(monkeypatch, kind, name):
    # the fits' own samples at degrees 8 .. 1024; the solve is skipped, so no
    # degree meets the tolerance
    eps = np.finfo(float).eps
    powers = approximation._powers
    seen = []

    def check(theta, lowest, degree):
        A = powers(theta, lowest, degree)
        assert A.flags.c_contiguous and A.shape == (theta.size, degree + 1 - lowest)
        tol = 8.0 * eps * (1.0 + np.max(np.abs(theta)) * degree)
        for rows in np.array_split(np.arange(theta.size), 8):
            reference = np.exp(np.outer(1j * theta[rows], np.arange(lowest, degree + 1)))
            assert np.max(np.abs(A[rows] - reference)) <= tol
        seen.append((lowest, degree))
        return A

    monkeypatch.setattr(approximation, "_powers", check)
    monkeypatch.setattr(approximation, "_bounded_fit",
                        lambda A, b, n_main, bound: np.zeros(A.shape[1], dtype=complex))
    _fit(kind, _FIT_SETS[name], 1024)
    lowest = 1 if kind == "runge" else 0
    assert seen == [(lowest, 8 * 2 ** k) for k in range(8)]


def test_verification_sample_and_its_target_values_are_computed_once_per_fit():
    # the count max(VERIFY_FLOOR, 32 d) is the same at every degree up to 312
    def phi(z):
        return z.real.astype(complex)

    sizes = []

    def counted(z):
        sizes.append(np.size(z))
        return phi(z)

    plain = uniform_fit(_two_arcs(), phi, 1e-12, degree_cap=256)
    fit = uniform_fit(_two_arcs(), counted, 1e-12, degree_cap=256)
    # one call on the fit samples of each degree 8 .. 256, one on the verification sample
    assert len(sizes) == 6 + 1
    assert sum(size >= approximation.VERIFY_FLOOR for size in sizes) == 1
    assert np.array_equal(fit.poly.coeffs, plain.poly.coeffs)
    assert (fit.margin, fit.degree) == (plain.margin, plain.degree)


def test_a_target_that_is_not_finite_on_the_samples_is_an_approx_error():
    # NaN coefficients of the first pass make every weight NaN, and the
    # second pass's Gram row is rejected
    def phi(z):
        v = np.ones_like(z)
        v[::7] = np.nan
        return v

    with pytest.raises(ApproxError, match="degree-8 fit"):
        uniform_fit(_two_arcs(), phi, 0.1, degree_cap=16)


def test_uniform_fit_does_not_depend_on_the_blas_thread_count():
    # a degree-128 fit with a constant term has 129 unknowns; at that size
    # OpenBLAS sums a product with a transposed (non-contiguous) A in an
    # order that depends on the thread count
    script = ("import hashlib, numpy as np\n"
              "from blochlab.approximation import uniform_fit\n"
              "from blochlab.arcs import ArcSet\n"
              "F = ArcSet.from_arcs([(0.8, np.pi - 0.8), (np.pi + 0.8, 2 * np.pi - 0.8)])\n"
              "fit = uniform_fit(F, lambda z: z.real.astype(complex), 1e-12, degree_cap=128)\n"
              "print(fit.degree, hashlib.sha256(fit.poly.coeffs.tobytes()).hexdigest())\n")
    path = os.pathsep.join([os.path.join(os.path.dirname(__file__), "..", "src"),
                            os.environ.get("PYTHONPATH", "")])
    runs = [subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                           text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                                               PYTHONPATH=path)).stdout
            for threads in ("1", "2")]
    assert runs[0].startswith("128 ")
    assert runs[0] == runs[1]


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


def test_product_decompose_evaluates_each_factor_on_its_axis(monkeypatch):
    sizes = []
    call = approximation.TrigPoly.__call__

    def counted(self, zeta):
        sizes.append(np.size(zeta))
        return call(self, zeta)

    monkeypatch.setattr(approximation.TrigPoly, "__call__", counted)
    product_decompose(lambda p: (p[..., 0].real * p[..., 1].imag).astype(complex), 2, 0.1)
    product_decompose(lambda z: z.real.astype(complex), 1, 0.1)
    assert sizes and max(sizes) <= 256


def test_product_decompose_keeps_the_nyquist_monomial_as_one_term():
    # z1^128 lives on the -128 row the coefficients drop: one term of
    # rounding size is kept, and the grid error is |z1^128| = 1
    dec = product_decompose(lambda p: p[..., 0] ** 128, 2, 0.25, m_cap=8)
    assert len(dec.terms) == 1
    assert abs(dec.error - 1.0) <= 1e-12


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
    # the excess bounds the error off the samples too: the optimal error is 1/2 everywhere
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


def _step(z):
    th = np.angle(np.asarray(z, dtype=complex)) % TWO_PI
    return ((0.37 <= th) & (th < 2.77)).astype(complex)


def _const(z):
    return np.ones_like(np.asarray(z, dtype=complex))


@pytest.mark.parametrize("degree", [8, 16])
def test_const_norm_fit_reaches_the_exact_disc_optimum(degree):
    # no constant c has |c| < 1/2 and |c - 1| < 0.499 together: the least
    # |c| is 1 - 0.499; the inscribed 32-gon of the former LP gave 0.505839
    rep = norm_fit(_default_arcs(_target_measure(0.5)), _const, _BUDGET_SHARE * 0.5, degree)
    assert rep.converged
    assert abs(rep.value - 0.501) < 1e-6


# the former LP's values on the same samples, under inscribed 32-gons
_POLYGON_VALUES = {("const", 8): 0.505839, ("const", 16): 0.505839,
                   ("re", 8): 0.136004, ("re", 16): 0.107408,
                   ("step", 8): 0.503017, ("step", 16): 0.497292}


@pytest.mark.parametrize("target, degree", sorted(_POLYGON_VALUES))
def test_exact_discs_relax_the_inscribed_polygon(target, degree):
    phi = {"const": _const, "re": _re, "step": _step}[target]
    rep = norm_fit(_default_arcs(_target_measure(0.5)), phi, _BUDGET_SHARE * 0.5, degree)
    assert rep.converged
    assert rep.value <= _POLYGON_VALUES[target, degree] + 1e-6


def _count_factorizations(monkeypatch):
    calls = []
    normal = approximation._ConeRows.normal

    def counted(self, *scaling):
        calls.append(1)
        return normal(self, *scaling)

    monkeypatch.setattr(approximation._ConeRows, "normal", counted)
    return calls


def test_step_disc_fits_stay_within_a_factorization_budget(monkeypatch):
    # step's simul_approx_disc factors 50 normal matrices, starts included;
    # the cutting-plane LP over inscribed 32-gons factored 218
    calls = _count_factorizations(monkeypatch)
    simul_approx_disc(_step, 0.5)
    assert len(calls) <= 60


@pytest.mark.parametrize("spec, dim, budget", [({"kind": "constant", "value": 1.0}, 1, 43),
                                               ({"kind": "re"}, 1, 24),
                                               ({"kind": "product_re"}, 2, 48)],
                         ids=["const", "re", "product-re"])
def test_the_other_simul_targets_stay_within_a_factorization_budget(monkeypatch, spec, dim,
                                                                    budget):
    # 36, 20 and 40 factorizations, starts included (the LP: 38, 38 and 81)
    phi, _ = _target_from_config(spec)
    calls = _count_factorizations(monkeypatch)
    simul_approx_polydisc(phi, 0.5, dim)
    assert len(calls) <= budget


# the least disc enclosing 1, -1 and 2i: |c - p| <= t for each p, minimise t;
# its centre is 0.75i and its radius 1.25.  One family: three cones at the
# point 1, scale 1, exponent offset 0, scalar t
_ENCLOSING = (approximation._ConeRows([(np.ones(3), np.ones((1, 1)), 0, 0)], np.zeros((0, 1))),
              np.zeros(3), -np.array([1.0, -1.0, 2.0j]), np.array([0.0, 0.0, 1.0]))


def test_cone_solve_finds_the_least_enclosing_disc():
    x, converged = approximation._cone_solve(*_ENCLOSING)
    assert converged
    assert np.max(np.abs(x - [0.0, 0.75, 1.25])) < 1e-7


def test_cone_solve_at_its_iteration_cap_is_not_converged(monkeypatch):
    monkeypatch.setattr(approximation, "_CONE_MAX_ITER", 1)
    _, converged = approximation._cone_solve(*_ENCLOSING)
    assert not converged


def test_a_non_finite_iterate_ends_the_fit_with_the_last_finite_one(monkeypatch):
    # from the 5th factorization on, the normal matrix is subnormal, so the
    # 4th iteration's step overflows; the fit keeps the 3rd iterate
    args = (_default_arcs(_target_measure(0.5)), _step, _BUDGET_SHARE * 0.5, 8)
    monkeypatch.setattr(approximation, "_CONE_MAX_ITER", 3)
    capped = norm_fit(*args)
    monkeypatch.undo()
    calls = _count_factorizations(monkeypatch)
    counted = approximation._ConeRows.normal

    def overflowing(self, *scaling):
        H = counted(self, *scaling)
        return H * 1e-310 if len(calls) >= 5 else H

    monkeypatch.setattr(approximation._ConeRows, "normal", overflowing)
    with np.errstate(all="ignore"):
        rep = norm_fit(*args)
    assert len(calls) == 5
    assert not rep.converged and not capped.converged
    assert np.all(np.isfinite(rep.poly.coeffs))
    assert np.array_equal(rep.poly.coeffs, capped.poly.coeffs)
    assert (rep.value, rep.excess) == (capped.value, capped.excess)


def test_a_normal_matrix_that_is_not_positive_definite_is_an_approx_error(monkeypatch):
    normal = approximation._ConeRows.normal
    monkeypatch.setattr(approximation._ConeRows, "normal", lambda self, *w: -normal(self, *w))
    with pytest.raises(ApproxError, match="degree-8 norm fit is not numerically positive"):
        norm_fit(_two_arcs(0.77), _re, 0.3, 8)


def _dense_rows(G):
    """Ga and Gw of ``G`` as dense matrices, built from its families and linear
    rows: the reference for ``_ConeRows``' products and normal matrix."""
    ns, k, Ga, Gw = G.linear.shape[1], np.arange(G.nc), [], []
    for f in G.families:
        R = len(f.scales)
        n = (f.rows.stop - f.rows.start) // R
        if f.powers is not None:
            powers = f.powers[0]
        else:
            # zeta_j^(k - e) on the circle grid e^(2 pi i j / n)
            powers = np.exp(2j * np.pi * np.arange(n) / n)[np.outer(np.arange(n), k - f.e) % n]
        Ga.append(-np.eye(ns)[np.full(R * n, f.var)])
        Gw.append(-(f.scales[:, None, :] * powers).reshape(-1, G.nc))
    return (np.vstack(Ga + [G.linear]),
            np.vstack(Gw + [np.zeros((len(G.linear), G.nc), dtype=complex)]))


def _dense_normal(G, beta, w0, w1):
    """G' W^-2 G from the dense rows, summed over blocks of 256 cones: the
    reference for ``_ConeRows.normal``'s moment form."""
    Ga, Gw = _dense_rows(G)
    nc, ns, ib2, cw1 = G.nc, Ga.shape[1], beta ** -2.0, np.conj(w1)
    dh, ds = ib2 * w0 ** 2, ib2 * cw1 ** 2
    cross, scalar = Ga.T * (-2.0 * cw1 / w0), Ga.T * (ib2 * (2.0 * w0 ** 2 - 1.0))
    Hh, Hs, X = (np.zeros((m, nc), dtype=complex) for m in (nc, nc, ns))
    S = np.zeros((ns, ns))
    for k in range(0, w0.size, 256):
        b = slice(k, k + 256)
        hg = dh[b, None] * Gw[b]
        Hh += np.conj(Gw[b].T) @ hg
        X += cross[:, b] @ hg
        Hs += Gw[b].T @ (ds[b, None] * Gw[b])
        S += scalar[:, b] @ Ga[b]
    H = np.empty((2 * nc + ns,) * 2)
    H[:nc, :nc], H[:nc, nc:2 * nc] = Hh.real + Hs.real, -Hh.imag - Hs.imag
    H[nc:2 * nc, :nc], H[nc:2 * nc, nc:2 * nc] = Hh.imag - Hs.imag, Hh.real - Hs.real
    H[2 * nc:, :nc], H[2 * nc:, nc:2 * nc], H[2 * nc:, 2 * nc:] = X.real, -X.imag, S
    H[:2 * nc, 2 * nc:] = H[2 * nc:, :2 * nc].T
    return H


def _fit_rows(monkeypatch, fit, *args, **kwargs):
    """The ``_ConeRows`` of every cone solve that ``fit(*args, **kwargs)`` runs."""
    rows = []
    solve = approximation._cone_solve

    def recorded(G, *program):
        rows.append(G)
        return solve(G, *program)

    monkeypatch.setattr(approximation, "_cone_solve", recorded)
    fit(*args, **kwargs)
    monkeypatch.undo()
    return rows


def _case_rows(monkeypatch, case):
    """The ``_ConeRows`` of the cone solves of one named fit."""
    if case.startswith("disc"):
        args = (_default_arcs(_target_measure(0.5)), _step, _BUDGET_SHARE * 0.5,
                int(case[5:]))
        return _fit_rows(monkeypatch, norm_fit, *args)
    if case == "product-re-second-axis":
        phi, _ = _target_from_config({"kind": "product_re"})
        rows = [G for G in _fit_rows(monkeypatch, simul_approx_polydisc, phi, 0.5, 2)
                if len(G.linear) > 2]
        # error samples, origin, sup circle and seminorm rings; a linear row
        # per weight pair (24) and the excess row
        assert rows and all(len(G.families) == 4 and len(G.linear) == 25 for G in rows)
        return rows
    if case == "zero-budget":
        return _fit_rows(monkeypatch, norm_fit, ArcSet.full_circle(), _re, 0.0, 8)
    return [_ENCLOSING[0]]


_ROW_CASES = ["disc-8", "disc-16", "disc-64", "product-re-second-axis", "zero-budget",
              "enclosing"]


@pytest.mark.parametrize("case", _ROW_CASES)
def test_normal_matrix_from_moments_matches_the_dense_products(monkeypatch, case):
    rows = _case_rows(monkeypatch, case)
    rng = np.random.default_rng(5)
    for G in rows:
        M = G.cones + len(G.linear)
        for _ in range(3):
            # random NT scalings: beta > 0, w0 >= 1 and |w1|^2 = w0^2 - 1
            beta = np.exp(rng.uniform(-3.0, 3.0, M))
            w0 = 1.0 + rng.exponential(2.0, M)
            w1 = np.sqrt(w0 ** 2 - 1.0) * np.exp(1j * rng.uniform(0.0, TWO_PI, M))
            H, ref = G.normal(beta, w0, w1), _dense_normal(G, beta, w0, w1)
            assert np.max(np.abs(H - ref)) <= 1e-12 * np.max(np.abs(ref))


def _close(value, ref):
    return np.max(np.abs(value - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("case", _ROW_CASES)
def test_products_match_the_dense_rows(monkeypatch, case):
    rng = np.random.default_rng(6)
    for G in _case_rows(monkeypatch, case):
        Ga, Gw = _dense_rows(G)
        nc, M = G.nc, len(Ga)
        for _ in range(3):
            x = rng.standard_normal(2 * nc + Ga.shape[1])
            v = approximation._ConeVec(rng.standard_normal(M),
                                       rng.standard_normal(M) + 1j * rng.standard_normal(M))
            Gx = G @ x
            assert _close(Gx.a, Ga @ x[2 * nc:])
            assert _close(Gx.w, Gw @ (x[:nc] + 1j * x[nc:2 * nc]))
            y = np.conj(Gw.T) @ v.w
            assert _close(G.rmatvec(v), np.concatenate([y.real, y.imag, Ga.T @ v.a]))


def _held_arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _held_arrays(item)
    elif hasattr(obj, "__dict__"):
        yield from _held_arrays(list(vars(obj).values()))


def test_cone_rows_hold_no_array_larger_than_one_power_table(monkeypatch):
    # step's degree-64 fit: 1040 arc samples, the origin and 19 rings on a
    # 512-point grid, 10769 cones; only the arcs and the origin keep powers
    (G,) = _case_rows(monkeypatch, "disc-64")
    arcs, m = len(G.families[0].powers[0]), approximation._degree_tables(64)[0]
    assert (arcs, m, G.cones) == (1040, 512, 10769)
    assert [f.powers is None for f in G.families] == [False, False, True]
    sizes = [a.size for a in _held_arrays(G)]
    assert sizes and max(sizes) <= max(arcs, m) * 65


def test_circle_families_must_share_one_grid():
    one, linear = np.ones((1, 5)), np.zeros((1, 3))
    approximation._ConeRows([(32, one, 0, 0), (32, one, 1, 1)], linear)
    with pytest.raises(ValueError, match="share one grid"):
        approximation._ConeRows([(32, one, 0, 0), (64, one, 1, 1)], linear)


def test_degree_tables_are_cached_bounded_and_read_only():
    tables = approximation._degree_tables
    m, scales = tables(16)
    assert m == 128 and scales.shape == (19, 17)
    for degree in range(2 * tables.cache_info().maxsize):
        tables(degree)
    info = tables.cache_info()
    assert info.currsize <= info.maxsize
    again = tables(16)
    assert np.array_equal(again[1], scales)
    assert not any(a.flags.writeable for a in again[1:])
