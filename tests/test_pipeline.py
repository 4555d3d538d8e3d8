import json
import os

import numpy as np
import pytest

from blochlab import approximation, pipeline, serialize
from blochlab.arcs import ArcSet
from blochlab.blochnorm import bloch_norm
from blochlab.cli import _target_from_config, main
from blochlab.expressions import Polynomial1D, PolynomialND
from blochlab.pipeline import (_product_polynd, _zero_result, plateau_polynomial,
                               simul_approx_disc, simul_approx_polydisc, sup_error)

TWO_PI = 2.0 * np.pi


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
    res = simul_approx_disc(lambda z: np.zeros_like(np.asarray(z)), 0.5)
    rep = res.report
    assert rep["trivial_zero"]
    assert (rep["norm"], rep["certified_norm"], rep["sup_error"], rep["measure"]) == \
        (0.0, 0.0, 0.0, 1.0)
    assert rep["norm_ok"] and rep["error_ok"] and rep["measure_ok"]
    assert res.E.is_full()


def test_simul_disc_thin_step_target_is_not_zero():
    # 1 on [0.001, 0.002) only: the zero test must sample where sup_error does
    phi, _ = _target_from_config({"kind": "step", "jumps": [0.001, 0.002], "values": [0.0, 1.0]})
    res = simul_approx_disc(phi, 0.5)
    rep = res.report
    assert "trivial_zero" not in rep
    assert sup_error(PolynomialND.zero(), ArcSet.full_circle(), phi) == 1.0
    assert rep["sup_error"] == sup_error(res.f, res.E, phi)
    assert rep["measure"] == res.E.measure < 1.0


_CONTRACT = {"norm", "value_at_zero", "sup_error", "measure", "norm_ok", "error_ok", "measure_ok"}


def test_every_simul_report_carries_one_contract():
    # disc fit, bidisc assembly and both zero results; only a one-variable
    # norm carries a certificate, so only there is certified_norm written
    re1, _ = _target_from_config({"kind": "re"})
    zero1 = lambda z: np.zeros_like(np.asarray(z, dtype=complex))
    zero2 = lambda p: np.zeros(np.shape(p)[:-1], dtype=complex)
    diagonal = lambda p: np.asarray(p, dtype=complex)[..., 0] - np.asarray(p, dtype=complex)[..., 1]
    results = [(simul_approx_disc(re1, 0.5), re1, True),
               (simul_approx_disc(zero1, 0.5), zero1, True),
               (simul_approx_polydisc(diagonal, 0.5, 2), diagonal, False),
               (simul_approx_polydisc(zero2, 0.5, 2), zero2, False)]
    for res, phi, certified in results:
        rep = res.report
        assert _CONTRACT <= rep.keys()
        assert ("certified_norm" in rep) == certified
        norm = bloch_norm(res.f, domain="disc" if certified else "polydisc")
        judged = norm.certified_norm if certified else norm.norm
        assert rep["certified_norm" if certified else "norm"] == judged
        assert rep["sup_error"] == sup_error(res.f, res.E, phi)
        assert rep["norm_ok"] == (judged < 0.5)
        assert rep["error_ok"] == (rep["sup_error"] < 0.5)
        assert rep["measure_ok"] == (rep["measure"] >= 0.5)


def test_simul_disc_constant_target():
    res = simul_approx_disc(
        lambda z: np.ones_like(np.asarray(z, dtype=complex)), 0.5)
    rep = res.report
    assert rep["error_ok"]
    assert rep["measure_ok"]
    assert rep["sup_error"] < 0.5
    assert rep["measure"] >= 0.5
    # the best norm fit is a constant near 1/2: below the 0.520 of the
    # former Q (P o J) ladder, but not below eps
    assert rep["certified_norm"] < 0.51
    assert not rep["norm_ok"]


def _step_target(z):
    th = np.angle(np.asarray(z, dtype=complex)) % TWO_PI
    return ((0.37 <= th) & (th < 2.77)).astype(complex)


@pytest.mark.parametrize("phi", [lambda z: np.ones_like(np.asarray(z, dtype=complex)),
                                 _step_target], ids=["const", "step"])
def test_simul_disc_miss_returns_the_fit_of_least_certified_norm(phi):
    rep = simul_approx_disc(phi, 0.5).report
    assert not rep["norm_ok"]
    trail = rep["norm_fit"]
    assert len(trail) == 2
    certified = [t["certified_norm"] for t in trail]
    best = trail[certified.index(min(certified))]
    assert rep["certified_norm"] == min(certified)
    assert (rep["norm"], rep["sup_error"], rep["measure"]) == \
        (best["norm"], best["sup_error"], best["measure"])


def test_every_step_norm_fit_converges():
    # a solve stopped at its iteration cap shows only as this field
    trail = simul_approx_disc(_step_target, 0.5).report["norm_fit"]
    assert [t["converged"] for t in trail] == [True] * len(trail)


@pytest.mark.parametrize("spec, dim", [({"kind": "constant", "value": 1.0}, 1),
                                       ({"kind": "re"}, 1), ({"kind": "product_re"}, 2)],
                         ids=["const", "re", "product-re"])
def test_every_norm_fit_of_the_other_simul_targets_converges(spec, dim):
    # with step above, every norm_fit of the shipped simul targets; on
    # product_re, both axes' fits of every term
    phi, _ = _target_from_config(spec)
    if dim == 1:
        flags = [t["converged"] for t in simul_approx_disc(phi, 0.5).report["norm_fit"]]
    else:
        factors = simul_approx_polydisc(phi, 0.5, 2).report["factors"]
        assert {f["axis"] for f in factors} == {0, 1}
        flags = [f["fit_converged"] for f in factors]
    assert flags and flags == [True] * len(flags)


def test_step_norm_fits_do_not_depend_on_rounding_in_the_normal_matrix(monkeypatch):
    # a relative 1e-15 perturbation of each normal matrix, the size of a
    # reordered sum, must neither stall a solve nor move a certified norm
    trail = simul_approx_disc(_step_target, 0.5).report["norm_fit"]
    rng = np.random.default_rng(11)
    normal = approximation._ConeRows.normal

    def perturbed(self, *scaling):
        H = normal(self, *scaling)
        E = rng.uniform(-1.0, 1.0, size=H.shape)
        return H * (1.0 + 1e-15 * (E + E.T) / 2.0)

    monkeypatch.setattr(approximation._ConeRows, "normal", perturbed)
    moved = simul_approx_disc(_step_target, 0.5).report["norm_fit"]
    assert [t["converged"] for t in moved] == [True] * len(trail)
    for a, b in zip(trail, moved):
        assert abs(a["certified_norm"] - b["certified_norm"]) < 1e-8


def test_simul_disc_real_part_meets_contract():
    res = simul_approx_disc(
        lambda z: np.asarray(z, dtype=complex).real.astype(complex), 0.5)
    rep = res.report
    assert rep["norm_ok"] and rep["error_ok"] and rep["measure_ok"]
    assert rep["norm"] < 0.5 and rep["sup_error"] < 0.5 and res.E.measure >= 0.5
    # the grid norm is a lower estimate; the certified bound must meet eps too
    assert rep["certified_norm"] < 0.5


def test_simul_disc_result_is_polynomial():
    res = simul_approx_disc(
        lambda z: np.ones_like(np.asarray(z, dtype=complex)), 0.5)
    p = res.f
    assert p.dim == 1
    z = np.exp(1j * res.E.sample(512)) if res.E.arcs else np.zeros(1)
    assert np.all(np.isfinite(p(z)))


def test_simul_polydisc_n1_delegates_to_disc():
    phi = lambda z: np.asarray(z, dtype=complex).real.astype(complex)
    a = simul_approx_disc(phi, 0.5)
    b = simul_approx_polydisc(phi, 0.5, 1)
    assert abs(a.report["norm"] - b.report["norm"]) < 0.05
    assert abs(a.report["sup_error"] - b.report["sup_error"]) < 0.05
    assert abs(a.report["measure"] - b.report["measure"]) < 0.05


def test_sup_error_polydisc_matches_pointwise_evaluation():
    f = PolynomialND.from_terms({(0, 0): 0.3, (1, 0): 1.0, (2, 3): -0.5j, (0, 5): 0.25}, 2)
    phi = lambda pts: np.asarray(pts, dtype=complex)[..., 0].real.astype(complex)
    E = (ArcSet.full_circle(), _two_arcs(0.6))
    grid = np.stack(np.meshgrid(np.exp(1j * E[0].sample(512)),
                                np.exp(1j * E[1].sample(512)), indexing="ij"), axis=-1)
    direct = float(np.max(np.abs(f(grid) - phi(grid))))
    assert sup_error(f, E, phi) == pytest.approx(direct, abs=1e-13)
    assert sup_error(f, (E[0], ArcSet.empty()), phi) == float("inf")


def test_product_assembly_is_the_sum_of_scalar_products_bit_for_bit():
    # reference: sum_l p_{1,l}(z1) p_{2,l}(z2) one scalar complex product at a time
    rng = np.random.default_rng(4)

    def poly(n):  # some coefficients real, so products with a zero imaginary part occur
        return Polynomial1D(rng.normal(size=n) + 1j * rng.normal(size=n) * (rng.random(n) < 0.8))

    for _ in range(10):
        sizes = rng.integers(1, 10, size=(int(rng.integers(1, 9)), 2))
        terms = [(poly(n1), poly(n2)) for n1, n2 in sizes]
        ref = {}
        for p1, p2 in terms:
            for k1, c1 in enumerate(p1.coeffs):
                for k2, c2 in enumerate(p2.coeffs):
                    ref[k1, k2] = ref.get((k1, k2), 0.0) + complex(c1) * complex(c2)
        f = _product_polynd(terms)
        assert list(f.terms.items()) == sorted((k, c) for k, c in ref.items() if c != 0)


def test_simul_polydisc_target_vanishing_on_the_diagonal_is_not_zero():
    def phi(pts):
        pts = np.asarray(pts, dtype=complex)
        return pts[..., 0] - pts[..., 1]

    res = simul_approx_polydisc(phi, 0.5, 2)
    assert "trivial_zero" not in res.report
    assert res.report["sup_error"] == pytest.approx(sup_error(res.f, res.E, phi), abs=1e-12)


def test_simul_polydisc_target_vanishing_on_the_zero_test_grid_is_not_zero():
    # z1^64 - 1 vanishes on a grid of 64 points per axis, but sup |phi| = 2:
    # the decomposition, not a grid test, tells a zero target
    res = simul_approx_polydisc(lambda p: np.asarray(p, dtype=complex)[..., 0] ** 64 - 1.0, 0.5, 2)
    assert "trivial_zero" not in res.report
    assert res.report["sup_error"] > 0.0
    assert not res.report["error_ok"]


def test_simul_polydisc_zero_target_is_the_zero_result():
    phi = lambda p: np.zeros(np.shape(p)[:-1], dtype=complex)
    res = simul_approx_polydisc(phi, 0.5, 2)
    assert repr(res) == repr(_zero_result(phi, 0.5, 2))
    assert res.report["norm_ok"] and res.report["error_ok"] and res.report["measure_ok"]


def test_simul_polydisc_without_a_budget_fits_nothing(monkeypatch):
    # z1^128 lives in the Nyquist row the 256-point decomposition grid drops:
    # the decomposition error 1.0 spends the whole budget before any fit
    fits = []
    monkeypatch.setattr(pipeline, "norm_fit", lambda *args, **kw: fits.append(args))
    res = simul_approx_polydisc(lambda p: np.asarray(p, dtype=complex)[..., 0] ** 128, 0.5, 2)
    rep = res.report
    assert fits == []
    assert rep["budget"] <= 0.0 and rep["decomposition_error"] == pytest.approx(1.0)
    assert rep["terms"] == 1 and res.f.total_degree == 0 and not res.E[1].arcs
    assert (rep["norm_ok"], rep["error_ok"], rep["measure_ok"]) == (True, False, False)
    assert (rep["sup_error"], rep["measure"]) == (float("inf"), 0.0)


def test_simul_polydisc_rejects_large_dim():
    with pytest.raises(Exception):
        simul_approx_polydisc(lambda pts: np.zeros(pts.shape[0]), 0.5, 3)


def test_simul_eps_validation():
    phi = lambda z: np.ones_like(np.asarray(z, dtype=complex))
    for eps in (0.0, 1.5):
        with pytest.raises(ValueError):
            simul_approx_disc(phi, eps)
        with pytest.raises(ValueError):
            simul_approx_polydisc(phi, eps, 2)


@pytest.mark.parametrize("name", ["simul_re.json", "simul_zero.json",
                                  "simul_product_re.json"])
def test_shipped_simul_report_matches_its_own_f_and_E(tmp_path, name):
    """A simul report's norm, measure and sup error are those of its stored f and E."""
    config = os.path.join(os.path.dirname(__file__), "..", "configs", name)
    assert main(["simul", "--config", config, "--out", str(tmp_path)]) == 0
    doc = serialize.load(os.path.join(tmp_path, "simul_report.json"))
    with open(config) as fh:
        phi, _ = _target_from_config(json.load(fh)["target"])
    f = serialize.from_document(doc["f"])
    if f.dim == 1:
        E = serialize.from_document(doc["E"])
        norm, measure = bloch_norm(f).norm, E.measure
    else:
        E = tuple(serialize.from_document(d) for d in doc["E"])
        norm = bloch_norm(f, domain="polydisc").norm
        measure = float(np.prod([s.measure for s in E]))
    rep = doc["report"]
    assert rep["norm"] == pytest.approx(norm, abs=1e-12)
    assert rep["measure"] == pytest.approx(measure, abs=1e-12)
    assert rep["sup_error"] == pytest.approx(sup_error(f, E, phi), abs=1e-12)
