"""End-to-end simultaneous approximation: disc blocks and polydisc assemblies.

The disc routine first tries a norm-aware boundary fit: a polynomial that
minimises its Bloch norm within a pointwise error budget on an arc set F
(``approximation.norm_fit``).  When that fit meets the whole contract
(certified norm, error and measure against eps) it is the result.
Otherwise the block f = Q (P o J) is built as before: Q is a polynomial
carrying the target's boundary values on F, P is a plateau polynomial
close to 1 on F, and J(z) = z I(z) for an inner function I obtained by
chain shrinking.  The exceptional set is absorbed by gaps of F; the
boundary set E of the result is the verified part of F.

Budget arithmetic of the block follows the product estimate
|f - phi| <= |Q| |P o J - 1| + |Q - phi| on E.  The canonical split
(delta_Q = eps/2, delta_P = eps/(2 sup|Q|), eta = eps/(4 multiplier))
is recorded; when it is infeasible the pipeline rebalances toward the
measured fit margins and reports both.

Polydisc factors are norm-aware fits too; no inner function enters
them.  Their error budget comes from the product estimate
|f_1 f_2 - phi_1 phi_2| <= |f_1| |f_2 - phi_2| + |phi_2| |f_1 - phi_1|
with measured factor values.  All report entries are measured
quantities; nothing is assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# runge_pair and indicator_measure stay imported: the benchmark tracer patches them here
from .approximation import norm_fit, product_decompose, runge_pair, uniform_fit  # noqa: F401
from .arcs import ArcSet
from .blochnorm import bloch_norm
from .expressions import FunctionExpr, Polynomial1D, PolynomialND, taylor_truncate
from .inner import InnerSpec, ShrinkFailure, ShrinkResult, compose_shrink, hyperbolic_quotient
from .numerics import dyadic_radii, indicator_measure  # noqa: F401

__all__ = [
    "SimulApproxResult",
    "PipelineError",
    "plateau_polynomial",
    "simul_approx_disc",
    "simul_approx_polydisc",
    "sup_error",
]

TWO_PI = 2.0 * np.pi

# polydisc: at most this many product terms in the decomposition of phi
_FACTOR_TERM_CAP = 8
# degrees tried by the norm-aware fits, lowest first
_FIT_DEGREES = (8, 16)
# share of eps given to a fit's pointwise error budget; the rest absorbs
# the error between the fit's samples
_BUDGET_SHARE = 0.998


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


@dataclass(frozen=True)
class SimulApproxResult:
    """f, the verified boundary set E, and the measured report.

    On the disc E is an ArcSet; on the polydisc it is a tuple with one
    ArcSet per axis, and the verified set is their product.
    """

    f: PolynomialND
    E: object
    report: dict

    @property
    def f_disc(self) -> Polynomial1D:
        """One-variable view of f (dim 1 results only)."""
        if self.f.dim != 1:
            raise ValueError("result is not one-dimensional")
        return Polynomial1D(self.f.coefficient_array())


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
    and P is the Fourier section of 1 - exp(-S).  Returns (Polynomial1D,
    diagnostics dict).
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
    poly = Polynomial1D(coeffs)
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


def _multiplier_constant(q: Polynomial1D) -> float:
    """sup over the norm grid of (1 - |z|^2)|Q'| + |Q| (pointwise sum)."""
    m = int(2 ** math.ceil(math.log2(max(8 * (q.degree + 1), 256))))
    dq = q.derivative()
    best = 0.0
    for r in dyadic_radii(16):
        vals = (1.0 - r * r) * np.abs(dq.circle_values(r, m)) \
            + np.abs(q.circle_values(r, m))
        best = max(best, float(np.max(vals)))
    return best


def _shrink_or_report(base: InnerSpec, eta: float):
    try:
        return compose_shrink(base, eta, max_chain=16)
    except ShrinkFailure:
        # non-contracting base: measure the raw quotient and keep length 1
        rng = np.random.default_rng(5)
        pts = np.sqrt(rng.uniform(0.0, 0.94, 512)) * np.exp(1j * rng.uniform(0.0, TWO_PI, 512))
        sup = float(np.nanmax(hyperbolic_quotient(base, pts)))
        return ShrinkResult(base, sup, False, 1)


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


def _verified_subarcs(F: ArcSet, residual, tol: float) -> ArcSet:
    """Maximal sub-arcs of F on which residual(zeta) < tol at 512 samples per arc."""
    per_arc = 512
    arcs = []
    for a, b in F.arcs:
        length = (b - a) % TWO_PI or TWO_PI
        th = a + length * (np.arange(per_arc) + 0.5) / per_arc
        ok = residual(np.exp(1j * th)) < tol
        i = 0
        while i < per_arc:
            if ok[i]:
                j = i
                while j + 1 < per_arc and ok[j + 1]:
                    j += 1
                if j > i:  # at least two verified samples make an arc
                    arcs.append((th[i], th[j]))
                i = j + 1
            else:
                i += 1
    if not arcs:
        return ArcSet.empty()
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
    # runs of selected cells; the merge in from_arcs joins a run through angle 0
    edges = np.flatnonzero(np.diff(np.concatenate([[0], ok.astype(int), [0]])))
    return ArcSet.from_arcs([(h * i, h * j) for i, j in zip(edges[::2], edges[1::2])])


def _disc_residual(f_poly: Polynomial1D, phi):
    return lambda z: np.abs(f_poly(z) - np.asarray(phi(z), dtype=complex))


def sup_error(f, E, phi) -> float:
    """Sup of |f - phi| over a fixed sampling of E (inf when E is empty).

    On the disc f is a Polynomial1D, E an ArcSet and the samples are
    4096 points of E.  On the bidisc f is a two-variable PolynomialND, E
    one arc set per axis and the samples are the product of 512 points of
    each; f there is V_1 C V_2^T, C its coefficient matrix and V_k the
    Vandermonde matrix of axis k, taken 64 second-axis points at a time.
    """
    if isinstance(E, ArcSet):
        if not E.arcs:
            return float("inf")
        return float(np.max(_disc_residual(f, phi)(np.exp(1j * E.sample(4096)))))
    if not all(axis_set.arcs for axis_set in E):
        return float("inf")
    c = f.coefficient_array()
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


def _contract(norm_rep, sup_err: float, E: ArcSet, eps: float) -> dict:
    """The measured quantities of the disc contract and its three clauses.

    ``norm`` is the grid estimate, a lower bound; ``certified_norm`` is
    the certified upper bound of the same polynomial.
    """
    return {
        "norm": norm_rep.norm,
        "certified_norm": norm_rep.certified_norm,
        "norm_report": norm_rep,
        "value_at_zero": norm_rep.value_at_zero,
        "sup_error": sup_err,
        "measure": E.measure,
        "norm_ok": norm_rep.norm < eps,
        "error_ok": sup_err < eps,
        "measure_ok": E.measure >= 1.0 - eps,
    }


def _is_zero_target(phi) -> bool:
    zeta = np.exp(1j * TWO_PI * np.arange(512) / 512)
    return float(np.max(np.abs(np.asarray(phi(zeta), dtype=complex)))) < 1e-13


def _zero_result(dim: int = 1) -> SimulApproxResult:
    f = PolynomialND({(0,) * dim: 0.0}, dim)
    report = {
        "norm": 0.0, "value_at_zero": 0.0, "sup_error": 0.0,
        "measure": 1.0, "eta_used": 0.0,
        "degrees": {"Q": 0, "P": 0, "f": 0}, "chain_length": 0,
        "trivial_zero": True,
    }
    E = ArcSet.full_circle() if dim == 1 else (ArcSet.full_circle(),) * dim
    return SimulApproxResult(f, E, report)


# ---------------------------------------------------------------------------
# Disc lemma: one polynomial, small norm and small boundary error


def _norm_fit_stage(F: ArcSet, phi, eps: float, degree_cap: int):
    """Norm-aware fits on F at rising degree until one meets the contract.

    Returns (poly, E, contract, trail) for the first fit whose certified
    norm, error and measure meet eps, with (None, None, None, trail) when
    none does; the trail has one entry per degree tried.  The fit drives
    its norm down on grid points, so its grid norm is not evidence enough.
    """
    trail = []
    for degree in _FIT_DEGREES:
        if degree > degree_cap:
            break
        fit = norm_fit(F, phi, _BUDGET_SHARE * eps, degree)
        E = _verified_subarcs(F, _disc_residual(fit.poly, phi), eps)
        contract = _contract(bloch_norm(fit.poly), sup_error(fit.poly, E, phi), E, eps)
        trail.append({"degree": degree, "value": fit.value, "excess": fit.excess,
                      "converged": fit.converged, "norm": contract["norm"],
                      "certified_norm": contract["certified_norm"],
                      "sup_error": contract["sup_error"], "measure": contract["measure"]})
        if contract["certified_norm"] < eps and contract["error_ok"] and contract["measure_ok"]:
            return fit.poly, E, contract, trail
    return None, None, None, trail


def simul_approx_disc(phi, eps: float, inner_base: InnerSpec,
                      degree_cap: int = 4096) -> SimulApproxResult:
    """Polynomial f with measured Bloch norm and sup error on E against eps.

    The norm-aware fit comes first; when it meets the contract (certified
    norm < eps, sup error < eps on E, m(E) >= 1 - eps) it is the result
    and ``report["construction"]`` is "norm_fit".  Otherwise the block
    Q (P o J) is built: the canonical budget split is recorded, the plateau
    center is swept (trading |f(0)| against seminorm) and the best
    measured norm kept ("ladder").  A result is returned even when the
    norm budget cannot be met; report["norm_ok"] says which.  E is a
    finite union of arcs, so its measure is exact.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if _is_zero_target(phi):
        return _zero_result()
    F = _default_arcs(_target_measure(eps))

    fit_poly, E, contract, fit_trail = _norm_fit_stage(F, phi, eps, degree_cap)
    if fit_poly is not None:
        report = {**contract, "construction": "norm_fit", "norm_fit": fit_trail,
                  "degrees": {"f": fit_poly.degree}}
        return SimulApproxResult(PolynomialND.from_poly1d(fit_poly, axis=0, dim=1), E, report)

    # a fit that misses eps / 2 still serves: the split is rebalanced below
    qfit = uniform_fit(F, phi, eps / 2.0, degree_cap=min(1024, degree_cap))
    q = qfit.poly
    sup_q = max(qfit.sup_norm, 1e-12)
    mult = _multiplier_constant(q)
    eta = min(0.999, eps / (4.0 * mult))
    shrink = _shrink_or_report(inner_base, eta)
    j_expr = FunctionExpr.radialize(shrink.spec)

    delta_p_canonical = eps / (2.0 * sup_q)
    delta_p = (eps - qfit.margin - 2e-3) / sup_q
    margin = min(max(delta_p, 1e-3), 0.96)
    rebalanced = margin > delta_p_canonical

    trunc_radius = 1.0 - 2.0 ** -11
    ladder = sorted({0.0, 0.25,
                     round(max(0.0, 1.0 - margin - 0.10), 4),
                     round(max(0.0, 1.0 - margin - 0.05), 4),
                     round(max(0.0, 1.0 - margin - 0.025), 4)})
    best = None
    trail = []
    for center in ladder:
        p_poly, p_diag = plateau_polynomial(F, margin, center, degree_cap)
        f_expr = FunctionExpr.product(
            FunctionExpr.poly1d(q),
            FunctionExpr.compose(FunctionExpr.poly1d(p_poly), j_expr))
        trunc = taylor_truncate(f_expr, trunc_radius,
                                min(2 * degree_cap, q.degree + p_poly.degree + 64))
        f_poly = trunc.poly
        norm_rep = bloch_norm(f_poly)
        trail.append({"center": center, "norm": norm_rep.norm,
                      "value_at_zero": norm_rep.value_at_zero})
        key = (norm_rep.norm >= eps, norm_rep.norm)
        if best is None or key < best[0]:
            best = (key, f_poly, norm_rep, p_poly, p_diag, trunc, center)

    _, f_poly, norm_rep, p_poly, p_diag, trunc, center = best
    E = _verified_subarcs(F, _disc_residual(f_poly, phi), eps)
    report = {
        **_contract(norm_rep, sup_error(f_poly, E, phi), E, eps),
        "construction": "ladder",
        "norm_fit": fit_trail,
        "eta_used": eta,
        "eta_achieved": shrink.achieved_sup,
        "chain_length": shrink.chain_length,
        "multiplier": mult,
        "fit_margin": qfit.margin,
        "split_canonical": {"delta_Q": eps / 2.0, "delta_P": delta_p_canonical},
        "split_used": {"delta_Q": qfit.margin, "delta_P": margin},
        "rebalanced": rebalanced,
        "center_ladder": trail,
        "center_used": center,
        "degrees": {"Q": q.degree, "P": p_poly.degree, "f": f_poly.degree},
        "truncation_tail": trunc.tail_bound,
        "plateau": p_diag,
    }
    f_nd = PolynomialND.from_poly1d(f_poly, axis=0, dim=1)
    return SimulApproxResult(f_nd, E, report)


# ---------------------------------------------------------------------------
# Polydisc assembly


def _product_polynd(terms) -> PolynomialND:
    """Assemble sum_l p_{1,l}(z1) p_{2,l}(z2) as a sparse PolynomialND."""
    acc = {}
    for p1, p2 in terms:
        for k1, c1 in enumerate(p1.coeffs):
            if c1 == 0:
                continue
            for k2, c2 in enumerate(p2.coeffs):
                if c2 == 0:
                    continue
                key = (k1, k2)
                acc[key] = acc.get(key, 0.0) + c1 * c2
    return PolynomialND(acc, 2)


def _cross_weights(p: Polynomial1D) -> tuple:
    """Pairs (s_k, m_k) with which a second factor h enters the norm of p(z_1) h(z_2).

    The seminorm of p(z_1) h(z_2) is the sup over both variables of
    (1 - |z_1|^2)|p'(z_1)| |h(z_2)| + |p(z_1)| (1 - |z_2|^2)|h'(z_2)|, which
    is at most max over z_1 of s sup|h| + m sup (1 - |z|^2)|h'| with
    (s, m) = ((1 - |z_1|^2)|p'(z_1)|, |p(z_1)|).  Of the grid pairs only
    those supporting the set in some direction of the quadrant matter;
    33 directions are tried.
    """
    z = (np.linspace(0.0, 1.0, 65)[:, None] * np.exp(2j * np.pi * np.arange(256) / 256)).ravel()
    sem = (1.0 - np.abs(z) ** 2) * np.abs(p.derivative()(z))
    mod = np.abs(p(z))
    picks = sorted({int(np.argmax(math.cos(a) * sem + math.sin(a) * mod))
                    for a in np.linspace(0.0, np.pi / 2.0, 33)})
    return tuple((float(sem[i]), float(mod[i])) for i in picks)


def simul_approx_polydisc(phi, eps: float, n_dim: int,
                          inner_base: InnerSpec) -> SimulApproxResult:
    """Tensor assembly f = sum_l f_{1,l}(z_1) f_{2,l}(z_2) on the bidisc.

    N = 1 delegates to the disc pipeline (the two statements coincide);
    ``inner_base`` is used only there.  Only N <= 2 is assembled.

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
    error ``sup_error``; both are deterministic grid values.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if n_dim == 1:
        return simul_approx_disc(phi, eps, inner_base)
    if n_dim != 2:
        raise PipelineError("polydisc assembly implemented for N <= 2 only")
    if _is_zero_target(lambda z: phi(np.stack([z, z], axis=-1))):
        return _zero_result(2)

    dec = product_decompose(phi, n_dim, eps / 2.0, m_cap=_FACTOR_TERM_CAP)
    n_terms = len(dec.terms)
    if n_terms == 0:
        return _zero_result(2)
    total = _BUDGET_SHARE * eps - dec.error
    circle = np.exp(1j * TWO_PI * np.arange(4096) / 4096)
    whole = ArcSet.full_circle()

    # per term: the first-axis factor f_1, phi_1, phi_2, and the sup error
    # e and sup M of f_1 on the circle
    terms = []
    for term in dec.terms:
        phi1, phi2 = term.factors
        fit1 = norm_fit(whole, phi1, 0.0, _FIT_DEGREES[0])
        f1 = fit1.poly
        terms.append((f1, phi1, phi2, float(np.max(np.abs(f1(circle) - phi1(circle)))),
                      max(float(np.max(np.abs(f1(circle)))), 1e-12), fit1.converged))

    def budget(phi2, err1, sup1):
        return lambda theta: (total / n_terms - err1 * np.abs(phi2(np.exp(1j * theta)))) / sup1

    budgets = [budget(phi2, err1, sup1) for _, _, phi2, err1, sup1, _ in terms]
    # the second-axis set: where the least of the terms' unscaled budgets
    # sup1 * budget is largest
    F2 = _superlevel_arcs(
        lambda th: np.min([b(th) * t[4] for b, t in zip(budgets, terms)], axis=0),
        _target_measure(eps))

    def residual(z):
        # bound on sup over the first axis of |f - phi| at z_2 = z
        out = np.full(z.shape, dec.error)
        for (f1, phi1, phi2, err1, sup1, _), f2 in zip(terms, second):
            v2 = phi2(z)
            out += sup1 * np.abs(f2(z) - v2) + err1 * np.abs(v2)
        return out

    for degree in _FIT_DEGREES:
        fits = [norm_fit(F2, t[2], b, degree, weights=_cross_weights(t[0]),
                         origin_weight=abs(complex(t[0].coeffs[0])))
                for b, t in zip(budgets, terms)]
        second = [fit.poly for fit in fits]
        factor_polys = [(t[0], f2) for t, f2 in zip(terms, second)]
        axis_sets = (whole, _verified_subarcs(F2, residual, eps))
        measure = float(np.prod([s.measure for s in axis_sets]))
        f_nd = _product_polynd(factor_polys)
        norm_rep = bloch_norm(f_nd, domain="polydisc")
        norm = norm_rep.norm
        sup_err = sup_error(f_nd, axis_sets, phi)
        if norm < eps and sup_err < eps and measure >= 1.0 - eps:
            break

    factors = []
    for l, ((f1, phi1, phi2, err1, sup1, converged1), fit) in enumerate(zip(terms, fits)):
        factors.append({"term": l, "axis": 0, "degree": f1.degree, "norm": bloch_norm(f1).norm,
                        "sup_error": err1, "sup": sup1, "measure": 1.0,
                        "fit_converged": converged1})
        factors.append({"term": l, "axis": 1, "degree": fit.degree,
                        "norm": bloch_norm(fit.poly).norm,
                        "sup_error": sup_error(fit.poly, axis_sets[1], phi2),
                        "measure": axis_sets[1].measure, "fit_value": fit.value,
                        "fit_excess": fit.excess, "fit_converged": fit.converged})
    theta = F2.sample(2048)
    slack = np.min([b(theta) for b in budgets], axis=0)
    report = {
        "norm": norm,
        "value_at_zero": norm_rep.value_at_zero,
        "sup_error": sup_err,
        "measure": measure,
        "terms": n_terms,
        "decomposition_error": dec.error,
        "budget": total,
        "axes": [
            {"axis": 0, "fit": "sup error on the whole circle", "measure": 1.0},
            {"axis": 1, "fit": "norm bound within the product-estimate budget",
             "measure_fitted": F2.measure, "measure": axis_sets[1].measure,
             "budget_min": float(np.min(slack)), "budget_max": float(np.max(slack))},
        ],
        "factors": factors,
        "degrees": {"f": f_nd.total_degree},
        "norm_ok": norm < eps,
        "error_ok": sup_err < eps,
        "measure_ok": measure >= 1.0 - eps,
    }
    return SimulApproxResult(f_nd, axis_sets, report)
