"""End-to-end simultaneous approximation: disc fits and polydisc assemblies.

The disc routine is one norm-aware boundary fit: a polynomial that
minimises its Bloch norm within a pointwise error budget on an arc set F
(``approximation.norm_fit``), tried at each degree of ``_FIT_DEGREES``.
The first fit that meets the whole contract (certified norm, error and
measure against eps) is the result; when none does, the fit with the
least certified norm is.  The boundary set E of the result is the
verified part of F.

Polydisc factors are norm-aware fits too.  Their error budget comes from
the product estimate
|f_1 f_2 - phi_1 phi_2| <= |f_1| |f_2 - phi_2| + |phi_2| |f_1 - phi_1|
with measured factor values.  All report entries are measured
quantities; nothing is assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .approximation import norm_fit, product_decompose
from .arcs import TWO_PI, ArcSet
from .blochnorm import bloch_norm
from .expressions import PolynomialND
# runge_pair, uniform_fit, taylor_truncate, compose_shrink, hyperbolic_quotient and
# indicator_measure stay imported: the benchmark tracer patches them here
from .approximation import runge_pair, uniform_fit  # noqa: F401
from .expressions import taylor_truncate  # noqa: F401
from .inner import compose_shrink, hyperbolic_quotient  # noqa: F401
from .numerics import indicator_measure  # noqa: F401

__all__ = [
    "SimulApproxResult",
    "plateau_polynomial",
    "simul_approx_disc",
    "simul_approx_polydisc",
    "sup_error",
]

# polydisc: at most this many product terms in the decomposition of phi
_FACTOR_TERM_CAP = 8
# degrees tried by the norm-aware fits, lowest first
_FIT_DEGREES = (8, 16)
# share of eps given to a fit's pointwise error budget; the rest absorbs
# the error between the fit's samples
_BUDGET_SHARE = 0.998
# relative gap below which ``_cross_weights`` takes grid points as tied
_TIE_TOL = 1e-9


@dataclass(frozen=True)
class SimulApproxResult:
    """f, the verified boundary set E, and the measured report.

    On the disc E is an ArcSet; on the polydisc it is a tuple with one
    ArcSet per axis, and the verified set is their product.
    """

    f: PolynomialND
    E: object
    report: dict


# ---------------------------------------------------------------------------
# Plateau synthesis: P = 1 - exp(-S) from designed boundary data


def _gap_distance(theta, F: ArcSet):
    """Angular distance to F for each angle (0 inside F)."""
    t = np.full(theta.shape, np.inf)
    inside = F.contains(theta)
    for a, b in F.arcs:
        for edge in (a, b):
            d = np.abs((theta - edge + np.pi) % TWO_PI - np.pi)
            t = np.minimum(t, d)
    t[inside] = 0.0
    return t, inside


def plateau_polynomial(F: ArcSet, margin: float, center_value: float,
                       degree_cap: int = 4096):
    """Polynomial P with |P - 1| <= margin on F and |P(0)| ~ center_value.

    The boundary modulus of 1 - P is prescribed as margin on F, rising
    (or falling, for center_value near 0 the gap level exceeds 1) to a
    gap level chosen so that the harmonic mean matches the requested
    origin value; the analytic completion comes from a Hilbert transform
    and P is the Fourier section of 1 - exp(-S).  Returns (PolynomialND,
    diagnostics dict).  No pipeline routine calls it; it serves as a dense
    high-degree test polynomial for the Bloch-norm scan.
    """
    if not 0.0 < margin < 1.0:
        raise ValueError("margin must lie in (0, 1)")
    if not F.arcs:
        raise ValueError("plateau needs a nonempty arc set")
    gaps = F.complement()
    if not gaps.arcs:
        raise ValueError("plateau needs a proper arc set")
    a = -math.log(margin)
    sigma = -math.log1p(-center_value)
    m = int(2 ** math.ceil(math.log2(max(16 * degree_cap, 4096))))
    theta = TWO_PI * np.arange(m) / m
    t, on_f = _gap_distance(theta, F)
    min_gap = min((b - a_) % TWO_PI for a_, b in gaps.arcs)
    t1 = max(TWO_PI * 8.0 / degree_cap, 8.0 * TWO_PI / m)
    t_end = max(0.45 * min_gap, 2.0 * t1)
    tau = np.clip((np.log(np.maximum(t, t1)) - np.log(t1))
                  / (np.log(t_end) - np.log(t1)), 0.0, 1.0)
    shape = tau * tau * (3.0 - 2.0 * tau)

    def mean_u(log_ratio):
        y = margin * np.exp(log_ratio * shape)
        return float(np.mean(-np.log(y)))

    # gap level Y = margin * e^rho; mean decreases as rho grows
    lo, hi = -40.0, 15.0 + a
    clamped = False
    if mean_u(lo) < sigma:
        rho = lo
        clamped = True
    elif mean_u(hi) > sigma:
        rho = hi
        clamped = True
    else:
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if mean_u(mid) > sigma:
                lo = mid
            else:
                hi = mid
        rho = 0.5 * (lo + hi)
    u = -np.log(margin) - rho * shape
    uk = np.fft.fft(u) / m
    sk = np.zeros(m, dtype=complex)
    sk[0] = uk[0].real
    sk[1: m // 2] = 2.0 * uk[1: m // 2]
    p_star = 1.0 - np.exp(-np.fft.ifft(sk * m))
    ck = np.fft.fft(p_star) / m
    keep = min(degree_cap, m // 2 - 1)
    coeffs = np.array(ck[: keep + 1])
    tail = float(np.sum(np.abs(ck[keep + 1: m // 2])))
    poly = PolynomialND(coeffs)
    diag = {
        "margin_request": margin,
        "margin_on_grid": float(np.max(np.abs(p_star[on_f] - 1.0))),
        "truncation_tail": tail,
        "gap_level": margin * math.exp(rho),
        "center_request": center_value,
        "center_achieved": float(abs(coeffs[0])),
        "center_clamped": clamped,
        "degree": poly.degree,
        "grid_size": m,
    }
    return poly, diag


# ---------------------------------------------------------------------------
# Measured helpers


def _default_arcs(measure: float) -> ArcSet:
    """Two symmetric arcs of total normalized measure ``measure``.

    Gaps are centered at angles 0 and pi, so targets with discontinuities
    or winding obstructions there (the usual convention in the tests)
    stay approximable on F.
    """
    half_gap = (1.0 - measure) * np.pi / 2.0
    return ArcSet.from_arcs([(half_gap, np.pi - half_gap),
                             (np.pi + half_gap, TWO_PI - half_gap)])


def _target_measure(eps: float) -> float:
    """Measure of the set a construction aims for: 1 - eps plus a margin."""
    return min(0.98, 1.0 - eps + 0.01)


def _runs(ok):
    """(start, stop) index pairs of the runs of True in ``ok``, stop exclusive."""
    edges = np.flatnonzero(np.diff(np.concatenate([[0], ok.astype(int), [0]])))
    return zip(edges[::2], edges[1::2])


def _verified_subarcs(F: ArcSet, residual, tol: float) -> ArcSet:
    """Maximal sub-arcs of F on which residual(zeta) < tol at 512 samples per arc."""
    per_arc = 512
    arcs = []
    for a, b in F.arcs:
        length = (b - a) % TWO_PI or TWO_PI
        th = a + length * (np.arange(per_arc) + 0.5) / per_arc
        ok = residual(np.exp(1j * th)) < tol
        # at least two verified samples make an arc
        arcs += [(th[i], th[j - 1]) for i, j in _runs(ok) if j - i >= 2]
    return ArcSet.from_arcs(arcs)


def _superlevel_arcs(score, measure: float) -> ArcSet:
    """Arcs where score(theta) is largest, of total measure at least ``measure``.

    The circle is cut into 4096 equal cells, scored at their midpoints.
    """
    count = 4096
    h = TWO_PI / count
    theta = h * (np.arange(count) + 0.5)
    values = score(theta)
    ok = values >= np.sort(values)[::-1][int(math.ceil(measure * count)) - 1]
    # the merge in from_arcs joins a run through angle 0
    return ArcSet.from_arcs([(h * i, h * j) for i, j in _runs(ok)])


def _disc_residual(f_poly: PolynomialND, phi):
    return lambda z: np.abs(f_poly(z) - np.asarray(phi(z), dtype=complex))


def sup_error(f, E, phi) -> float:
    """Sup of |f - phi| over a fixed sampling of E (inf when E is empty).

    On the disc f is a one-variable PolynomialND, E an ArcSet and the
    samples are 4096 points of E.  On the bidisc f is a two-variable
    PolynomialND, E one arc set per axis and the samples are the product
    of 512 points of each; f there is V_1 C V_2^T, C its coefficient
    matrix and V_k the Vandermonde matrix of axis k, taken 64 second-axis
    points at a time.
    """
    if isinstance(E, ArcSet):
        if not E.arcs:
            return float("inf")
        return float(np.max(_disc_residual(f, phi)(np.exp(1j * E.sample(4096)))))
    if not all(axis_set.arcs for axis_set in E):
        return float("inf")
    c = f.coeffs
    z1, z2 = (np.exp(1j * axis_set.sample(512)) for axis_set in E)
    rows = np.power.outer(z1, np.arange(c.shape[0])) @ c
    best = 0.0
    for lo in range(0, z2.size, 64):
        w = z2[lo:lo + 64]
        values = rows @ np.power.outer(w, np.arange(c.shape[1])).T
        pts = np.stack(np.broadcast_arrays(z1[:, None], w[None, :]), axis=-1).reshape(-1, 2)
        target = np.asarray(phi(pts), dtype=complex).reshape(values.shape)
        best = max(best, float(np.max(np.abs(values - target))))
    return best


def _contract(f: PolynomialND, E, phi, eps: float) -> dict:
    """The measured quantities of the simul contract for f on E and its three clauses.

    ``norm`` is the grid estimate of ``bloch_norm``, a lower bound.  When
    the norm report carries a certificate (one variable), the report
    holds its ``certified_norm``, an upper bound of the same polynomial,
    and the norm clause judges it; otherwise the clause judges ``norm``.
    On the bidisc the measure is the product of the axis measures.
    """
    norm_rep = bloch_norm(f, domain="disc" if f.dim == 1 else "polydisc")
    certified = norm_rep.certified_norm
    sup_err = sup_error(f, E, phi)
    measure = E.measure if isinstance(E, ArcSet) else math.prod(s.measure for s in E)
    return {
        "norm": norm_rep.norm,
        **({} if certified is None else {"certified_norm": certified}),
        "value_at_zero": norm_rep.value_at_zero,
        "sup_error": sup_err,
        "measure": measure,
        "norm_ok": (norm_rep.norm if certified is None else certified) < eps,
        "error_ok": sup_err < eps,
        "measure_ok": measure >= 1.0 - eps,
    }


def _zero_result(phi, eps: float, dim: int, E=None, **facts) -> SimulApproxResult:
    """f = 0 on E measured against phi; by default the ``trivial_zero`` fit on the whole circle."""
    f, whole = PolynomialND(np.zeros((1,) * dim)), ArcSet.full_circle()
    if E is None:
        E, facts = (whole if dim == 1 else (whole,) * dim), {"trivial_zero": True}
    report = {**_contract(f, E, phi, eps), "degrees": {"f": 0}, **facts}
    return SimulApproxResult(f, E, report)


# ---------------------------------------------------------------------------
# Disc lemma: one polynomial, small norm and small boundary error


def simul_approx_disc(phi, eps: float) -> SimulApproxResult:
    """Norm-aware fit f with its measured Bloch norm and sup error on E against eps.

    ``norm_fit`` is run on the default arc set F at each degree of
    ``_FIT_DEGREES``.  The fit drives its norm down on grid points, so the
    contract judges its certified norm: the first fit with certified norm
    < eps, sup error < eps on E and m(E) >= 1 - eps is the result.  When
    none meets it, the fit with the least certified norm is returned (the
    earlier on ties) and ``report["norm_ok"]`` and friends say which
    clause fails.  ``report["norm_fit"]`` has one entry per degree tried.
    E is the verified part of F, a finite union of arcs, so its measure is
    exact.  A target below 1e-13 on the circle samples of ``sup_error``
    gives f = 0 on the whole circle, measured by the same contract.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    # the zero test samples phi where every disc report measures its sup error
    if sup_error(PolynomialND.zero(), ArcSet.full_circle(), phi) < 1e-13:
        return _zero_result(phi, eps, 1)
    F = _default_arcs(_target_measure(eps))
    best = None
    trail = []
    for degree in _FIT_DEGREES:
        fit = norm_fit(F, phi, _BUDGET_SHARE * eps, degree)
        E = _verified_subarcs(F, _disc_residual(fit.poly, phi), eps)
        contract = _contract(fit.poly, E, phi, eps)
        trail.append({"degree": degree, "value": fit.value, "excess": fit.excess,
                      "converged": fit.converged, "norm": contract["norm"],
                      "certified_norm": contract["certified_norm"],
                      "sup_error": contract["sup_error"], "measure": contract["measure"]})
        met = contract["norm_ok"] and contract["error_ok"] and contract["measure_ok"]
        if met or best is None or contract["certified_norm"] < best[2]["certified_norm"]:
            best = (fit.poly, E, contract)
        if met:
            break
    poly, E, contract = best
    report = {**contract, "norm_fit": trail, "degrees": {"f": poly.degree}}
    return SimulApproxResult(poly, E, report)


# ---------------------------------------------------------------------------
# Polydisc assembly


def _product_polynd(terms) -> PolynomialND:
    """Assemble sum_l p_{1,l}(z1) p_{2,l}(z2) as a PolynomialND."""
    shape = np.max([(p1.coeffs.size, p2.coeffs.size) for p1, p2 in terms], axis=0)
    acc = np.zeros(shape, dtype=complex)
    for p1, p2 in terms:
        a, b = p1.coeffs, p2.coeffs
        # in real arithmetic, so each product rounds as a scalar complex product
        # does; numpy's vectorised complex product may fuse its multiply-adds
        acc.real[:a.size, :b.size] += np.outer(a.real, b.real) - np.outer(a.imag, b.imag)
        acc.imag[:a.size, :b.size] += np.outer(a.real, b.imag) + np.outer(a.imag, b.real)
    return PolynomialND(acc)


def _cross_weights(p: PolynomialND) -> tuple:
    """Pairs (s_k, m_k) with which a second factor h enters the norm of p(z_1) h(z_2).

    The seminorm of p(z_1) h(z_2) is the sup over both variables of
    (1 - |z_1|^2)|p'(z_1)| |h(z_2)| + |p(z_1)| (1 - |z_2|^2)|h'(z_2)|, which
    is at most max over z_1 of s sup|h| + m sup (1 - |z|^2)|h'| with
    (s, m) = ((1 - |z_1|^2)|p'(z_1)|, |p(z_1)|).  Of the grid pairs only
    those supporting the set in some direction of the quadrant matter;
    33 directions are tried.  Grid points within ``_TIE_TOL`` (relative) of
    a direction's max tie, and the first of them in grid order stands for
    all: for p = c z, the first-axis fit of Re z, the 256 points of the
    best circle lie within 1.2e-12 of each other, so picking the max
    itself let rounding in p change which pairs, and how many, come back.
    """
    z = (np.linspace(0.0, 1.0, 65)[:, None] * np.exp(2j * np.pi * np.arange(256) / 256)).ravel()
    sem = (1.0 - np.abs(z) ** 2) * np.abs(p.partial(0)(z))
    mod = np.abs(p(z))
    picks = set()
    for a in np.linspace(0.0, np.pi / 2.0, 33):
        score = math.cos(a) * sem + math.sin(a) * mod
        picks.add(int(np.argmax(score >= (1.0 - _TIE_TOL) * np.max(score))))
    return tuple((float(sem[i]), float(mod[i])) for i in sorted(picks))


def simul_approx_polydisc(phi, eps: float, n_dim: int) -> SimulApproxResult:
    """Tensor assembly f = sum_l f_{1,l}(z_1) f_{2,l}(z_2) on the bidisc.

    N = 1 delegates to the disc pipeline (the two statements coincide).
    N other than 1 and 2 raises ``ValueError``.

    phi is split into product terms phi_{1,l} phi_{2,l} whose scale and
    phase are arbitrary.  Every factor is a norm-aware fit
    (``approximation.norm_fit``); no inner function enters f.  The
    first-axis factors minimise their sup error e_l on the whole circle.
    With their measured sup M_l, the product estimate
    |f_1 f_2 - phi_1 phi_2| <= M_l |f_2 - phi_2| + e_l |phi_2| gives the
    second-axis factors the pointwise budget
    (eps' / L - e_l |phi_{2,l}|) / M_l, where eps' is a share of eps less
    the decomposition error.  The second-axis set is where the tightest
    budget is largest, of measure 1 - eps plus a margin; on it the
    factors minimise the bound on the tensor norm their first-axis
    partner leaves them, at degrees 8 then 16.  E is the product of the
    whole circle and the part of that set where the estimate verifies
    below eps, so ``result.E`` holds one arc set per axis and the measure
    is exact.  The norm is ``bloch_norm(f, domain="polydisc")`` and the
    error ``sup_error``; both are deterministic grid values, and the norm
    clause judges the grid norm, for which no certificate exists yet.
    With no budget left by the decomposition, f = 0 and E2 is empty.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if n_dim == 1:
        return simul_approx_disc(phi, eps)
    if n_dim != 2:
        raise ValueError(f"polydisc assembly takes dimension 1 or 2, not {n_dim}")
    dec = product_decompose(phi, n_dim, eps / 2.0, m_cap=_FACTOR_TERM_CAP)
    n_terms = len(dec.terms)
    if n_terms == 0:
        return _zero_result(phi, eps, 2)
    total = _BUDGET_SHARE * eps - dec.error
    whole = ArcSet.full_circle()
    if total <= 0.0:  # the decomposition error alone spends the budget
        return _zero_result(phi, eps, 2, (whole, ArcSet.empty()), terms=n_terms,
                            decomposition_error=dec.error, budget=total)
    circle = np.exp(1j * TWO_PI * np.arange(4096) / 4096)

    # per term: the first-axis factor f1, phi2, the sup error err1 and sup
    # sup1 of f1 on the circle, and whether f1's fit converged
    terms = []
    for term in dec.terms:
        phi1, phi2 = term.factors
        fit1 = norm_fit(whole, phi1, 0.0, _FIT_DEGREES[0])
        f1 = fit1.poly
        terms.append((f1, phi2, float(np.max(np.abs(f1(circle) - phi1(circle)))),
                      max(float(np.max(np.abs(f1(circle)))), 1e-12), fit1.converged))

    def budget(phi2, err1, sup1):
        return lambda theta: (total / n_terms - err1 * np.abs(phi2(np.exp(1j * theta)))) / sup1

    budgets = [budget(phi2, err1, sup1) for _, phi2, err1, sup1, _ in terms]
    # the second-axis set: where the least of the terms' unscaled budgets
    # sup1 * budget is largest
    F2 = _superlevel_arcs(
        lambda th: np.min([b(th) * sup1 for b, (*_, sup1, _) in zip(budgets, terms)], axis=0),
        _target_measure(eps))

    def residual(z):
        # bound on sup over the first axis of |f - phi| at z_2 = z
        out = np.full(z.shape, dec.error)
        for (_, phi2, err1, sup1, _), fit in zip(terms, fits):
            v2 = phi2(z)
            out += sup1 * np.abs(fit.poly(z) - v2) + err1 * np.abs(v2)
        return out

    for degree in _FIT_DEGREES:
        fits = [norm_fit(F2, phi2, b, degree, weights=_cross_weights(f1),
                         origin_weight=abs(complex(f1.coeffs[0])))
                for b, (f1, phi2, *_) in zip(budgets, terms)]
        E2 = _verified_subarcs(F2, residual, eps)
        f_nd = _product_polynd([(f1, fit.poly) for (f1, *_), fit in zip(terms, fits)])
        contract = _contract(f_nd, (whole, E2), phi, eps)
        if contract["norm_ok"] and contract["error_ok"] and contract["measure_ok"]:
            break

    factors = []
    for l, ((f1, phi2, err1, sup1, converged1), fit) in enumerate(zip(terms, fits)):
        factors.append({"term": l, "axis": 0, "degree": f1.degree, "norm": bloch_norm(f1).norm,
                        "sup_error": err1, "sup": sup1, "measure": 1.0,
                        "fit_converged": converged1})
        factors.append({"term": l, "axis": 1, "degree": fit.degree,
                        "norm": bloch_norm(fit.poly).norm,
                        "sup_error": sup_error(fit.poly, E2, phi2),
                        "measure": E2.measure, "fit_value": fit.value,
                        "fit_excess": fit.excess, "fit_converged": fit.converged})
    theta = F2.sample(2048)
    slack = np.min([b(theta) for b in budgets], axis=0)
    report = {
        **contract,
        "terms": n_terms,
        "decomposition_error": dec.error,
        "budget": total,
        "axes": [
            {"axis": 0, "fit": "sup error on the whole circle", "measure": 1.0},
            {"axis": 1, "fit": "norm bound within the product-estimate budget",
             "measure_fitted": F2.measure, "measure": E2.measure,
             "budget_min": float(np.min(slack)), "budget_max": float(np.max(slack))},
        ],
        "factors": factors,
        "degrees": {"f": f_nd.total_degree},
    }
    return SimulApproxResult(f_nd, (whole, E2), report)
