"""Constructive polynomial approximation on arc sets and product tori.

Four builders: a polynomial pinned to 0 at the origin and to 1 on an arc
set, a uniform polynomial fit of a boundary function on an arc set (both
Lawson passes of least squares, whose Toeplitz normal equations scipy's
Levinson-Durbin solver solves, at degrees doubling until the tolerance is
met; the best fit is returned, with ``achieved`` saying whether it met
the tolerance), a norm-aware fit that minimises a Bloch-norm bound within
a pointwise error budget on an arc set (a linear program), and a
decomposition of a continuous function on the N-torus into a short sum of
products of one-variable trigonometric polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from blochlab.arcs import ArcSet
from blochlab.expressions import PolynomialND
from blochlab.numerics import dyadic_radii

GAP_MIN = 2.0 * np.pi / 1000.0

#: verification sampling density: max of this floor and 32 * degree points.
VERIFY_FLOOR = 10_000


class ApproxError(RuntimeError):
    """A boundary fit has no usable gap off its arc set, or cannot solve a pass."""


#: weight of complement-of-F anchor samples relative to F samples.
_GAP_WEIGHT = 0.3
#: Lawson reweighting passes of one bounded fit.
_LAWSON_PASSES = 12
#: first degree of the doubling loop.
_FIRST_DEGREE = 8


def _bounded_fit(A, b, n_main, bound):
    """Weighted least squares on the first ``n_main`` rows, anchors on the rest.

    Row i of A is z_i^lowest .. z_i^d at a point z_i of the unit circle,
    samples of F first, then of its gaps, as ``_powers`` builds them: each
    entry lies within about ulp(d theta_i) of the exact power, so the rows
    are unimodular to rounding.  Main-row weights follow Lawson
    reweighting (trading mean-square error for near-uniform error).  Gap
    rows are soft anchors of weight ``_GAP_WEIGHT`` whose targets are
    re-clamped each pass to the current fit value, capped at ``bound`` in
    modulus, so they only push back where the polynomial tries to blow up.

    Each pass solves its normal equations.  With real weights on
    unimodular rows the Gram matrix is Toeplitz, G[j, k] = mu_(k-j) with
    mu_m = sum_i w_i z_i^m: one product with A^T gives its first row,
    another the right-hand side (row-wise dot products on a contiguous
    A^T, which sum in the same order at any BLAS thread count), and
    scipy's Levinson-Durbin ``solve_toeplitz`` solves it in O(d^2) without
    BLAS.  On a positive definite G that recursion is as stable as a
    Cholesky factor (Cybenko 1980).  Squaring the condition number is
    harmless where F and its gaps are sampled densely: cond(G) < 25 up to
    degree 1024 on nearly half or full circles, < 200 on the tier-1 fits.
    Gaps with fewer than about d / 2 pi anchors per radian raise it (6.5e8
    at degree 1024 on two arcs with gaps of 1.6); on an arc of 0.3, G is
    singular to working precision from degree 128 (cond 1e15).  There the
    diagonal shift (d + 1) eps mu_0 keeps the solve defined, and the fit
    reaches a margin near 3e-7 where a QR reached 1e-13.  LinAlgError: a
    Gram row that is not finite, mu_0 <= 0, or a singular leading minor.
    """
    # imported here, not at module level: loading the package costs about 0.25 s
    # and 28 MB (2-core x86 VM) that only the boundary fits need
    from scipy.linalg import solve_toeplitz

    w = np.where(np.arange(A.shape[0]) < n_main, 1.0, _GAP_WEIGHT)
    b = b.copy()
    AT = np.ascontiguousarray(A.T)
    for _ in range(_LAWSON_PASSES):
        mu = AT @ (w * np.conj(A[:, 0]))
        mu[0] *= 1.0 + mu.size * np.finfo(float).eps
        if not (np.all(np.isfinite(mu)) and mu[0].real > 0.0):
            raise np.linalg.LinAlgError("the Gram row is not finite or mu_0 is not positive")
        coef = solve_toeplitz((np.conj(mu), mu), np.conj(AT @ (w * np.conj(b))),
                              check_finite=False)
        v = A @ coef
        err = np.maximum(np.abs(v[:n_main] - b[:n_main]), 1e-15) * w[:n_main]
        w[:n_main] = np.clip(err / np.mean(err), 1e-6, 1e6)
        mod = np.abs(v[n_main:])
        b[n_main:] = np.where(mod > bound, v[n_main:] * (bound / np.maximum(mod, 1e-300)),
                              v[n_main:])
    return coef


@dataclass(frozen=True)
class FitReport:
    poly: PolynomialND
    margin: float    # sup |poly - target| on a dense fresh sampling of F
    degree: int
    achieved: bool   # margin < delta


def _powers(theta, lowest: int, degree: int) -> np.ndarray:
    """C-contiguous e^(i k theta) for k = lowest .. degree, one row per angle.

    Paterson-Stockmeyer split: with n = degree + 1 - lowest columns and
    L = isqrt(n - 1) + 1, only the L small powers e^(i k theta), k < L,
    and the ceil(n / L) block powers e^(i (lowest + jL) theta) are
    exponentials; the power lowest + jL + k is one complex product of the
    two.  Each entry is off from the exact power by about ulp(degree
    theta), as one exponential per entry is, at a fraction of the cost.
    """
    n = degree + 1 - lowest
    L = math.isqrt(n - 1) + 1
    small = np.exp(np.outer(1j * theta, np.arange(L)))
    A = np.empty((theta.size, n), dtype=complex)
    for start in range(0, n, L):
        width = min(L, n - start)
        np.multiply(np.exp(1j * (lowest + start) * theta)[:, None], small[:, :width],
                    out=A[:, start:start + width])
    return A


def _doubling_fit(F: ArcSet, phi, delta: float, degree_cap: int, lowest: int,
                  bound) -> FitReport:
    """Best fit of ``phi`` on F by z^lowest .. z^degree, degree doubling from 8.

    Each degree solves ``_bounded_fit`` on samples of F, with anchors on
    the complement that start from phi's own values there and are capped
    in modulus at ``bound(target samples)``; A's rows come from
    ``_powers``.  Its margin is measured on a dense sampling of F,
    max(``VERIFY_FLOOR``, 32 degree) points, whose values of phi are
    computed once per count, so once per fit up to degree 312.  The loop
    stops at the first margin below ``delta`` or at ``degree_cap``, and
    returns the fit of least margin (``achieved`` False when even that
    misses ``delta``).  ``lowest = 1`` drops the constant term, so the
    fit vanishes at 0 exactly.
    """
    if degree_cap < _FIRST_DEGREE:
        raise ValueError(f"degree cap must be >= {_FIRST_DEGREE}")
    if not F.arcs:
        return FitReport(PolynomialND.zero(), 0.0, 0, True)
    gaps = F.complement()
    if not gaps.arcs or max(e - s for s, e in gaps.arcs) < GAP_MIN:
        raise ApproxError("arc set must leave a complementary gap of length >= 2*pi/1000")
    best = None
    verify_count = None
    degree = _FIRST_DEGREE
    while degree <= degree_cap:
        theta_main = F.sample(max(4 * degree + 16, 256))
        n_main = theta_main.size
        theta = np.concatenate([theta_main, gaps.sample(max(degree // 2, 64))])
        target = np.asarray(phi(np.exp(1j * theta)), dtype=complex)
        A = _powers(theta, lowest, degree)
        try:
            coef = _bounded_fit(A, target, n_main, bound(target[:n_main]))
        except np.linalg.LinAlgError as exc:
            raise ApproxError(f"the Gram matrix of the degree-{degree} fit is not "
                              "numerically positive definite") from exc
        p = PolynomialND(np.concatenate([np.zeros(lowest), coef]))
        count = max(VERIFY_FLOOR, 32 * degree)
        if count != verify_count:
            verify_count, zv = count, np.exp(1j * F.sample(count))
            phi_v = np.asarray(phi(zv), dtype=complex)
        margin = float(np.max(np.abs(p(zv) - phi_v)))
        if best is None or margin < best[1]:
            best = (p, margin, degree)
        if margin < delta:
            break
        degree *= 2
    p, margin, degree = best
    return FitReport(p, margin, degree, margin < delta)


def runge_pair(F: ArcSet, delta: float, degree_cap: int = 4096) -> FitReport:
    """Polynomial P with P(0) = 0 exactly, |P - 1| < delta on F, |P| capped off F.

    Least squares of |P - 1|^2 over F samples with the constant term
    dropped (so the origin constraint is exact, not fitted), doubling the
    degree from 8 until the margin verifies on a dense fresh sampling.
    Off F the modulus is softly capped at 1.3 max(1, m(F)/m(gap)): the
    mean of P over the circle is P(0) = 0 while P is pinned to 1 on F,
    so |P| must average about m(F)/m(gap) on the gaps, and a lower cap
    starves the fit.  A miss at ``degree_cap`` returns the best fit with
    ``achieved`` False; ``ApproxError`` means F leaves no usable gap.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    cap = 1.3 * max(1.0, F.measure / max(1.0 - F.measure, 1e-3))
    return _doubling_fit(F, np.ones_like, delta, degree_cap, 1, lambda target: cap)


def jensen_gap_floor(F: ArcSet, margin: float) -> float:
    """log10 of the least sup of |P - 1| over F's gaps that ``margin`` forces.

    For P with P(0) = 0, Jensen's inequality for P - 1 gives 0 =
    log|P(0) - 1| <= the circle mean of log|P - 1|.  So a margin delta < 1
    on F forces the gap sup of |P - 1| to be at least
    delta^(-m(F)/m(gaps)), m the normalised measure.  Returned as the
    log10 (m(F)/m(gaps)) (-log10 delta), which does not overflow; 0 when
    delta >= 1 or F is empty.  With a sampled margin, which can fall below
    the sup over F, the floor is an estimate, not a certificate.
    """
    if margin >= 1.0 or F.measure == 0.0:
        return 0.0
    return F.measure / (1.0 - F.measure) * -math.log10(margin)


def uniform_fit(F: ArcSet, phi, delta: float, degree_cap: int = 4096) -> FitReport:
    """Polynomial Q with |Q - phi| < delta on F.

    ``phi`` is a callable on unimodular points.  Off F the modulus is
    softly capped at 1.5 sup |phi| + 0.5 (phi sampled on F at each
    degree) via clamped anchors.  A miss at ``degree_cap`` returns the
    best fit with ``achieved`` False; ``ApproxError`` means F leaves no
    usable gap.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    return _doubling_fit(F, phi, delta, degree_cap, 0,
                         lambda target: 1.5 * float(np.max(np.abs(target))) + 0.5)


# ---------------------------------------------------------------------------
# Norm-aware fit: a linear program over polygonal modulus bounds

#: sides of the regular polygon inscribed in each modulus bound |w| <= R
_POLYGON_SIDES = 32
#: objective cost of one unit of error-budget excess per unit of norm
_EXCESS_WEIGHT = 100.0
#: interior-point stopping tolerance and iteration cap
_LP_TOL = 1e-8
_LP_MAX_ITER = 100
#: cap on the cutting-plane rounds of one fit
_CUT_ROUNDS = 40
#: point columns per Gram block, summed in order: 256, not 512, rounds alike at any thread count
_GRAM_BLOCK = 256


def _polygon():
    """(rho, e^(-2 pi i j / S) for j < S): the inscribed S-gon, S = ``_POLYGON_SIDES``.

    Side j of the S-gon inscribed in |w| <= R is Re(e^(-2 pi i j / S) w) <= rho R.
    """
    return (np.cos(np.pi / _POLYGON_SIDES),
            np.exp(-2j * np.pi * np.arange(_POLYGON_SIDES) / _POLYGON_SIDES))


class _PolygonRows:
    """Constraint matrix A of the norm-fit LP, kept per sample point.

    The unknowns are x = (Re c, Im c, s) for nc coefficients c and
    ns scalar variables s.  Row k < len(pts) is side ``side[k]`` of the
    polygon at sample point p = ``pts[k]``: Re(w_k (G c)_p) - rho s_var[p]
    with w_k = e^(-2 pi i side[k] / S); the full-width ``dense`` rows
    follow.  The polygon rows are never built.  With P the distinct
    points of the cut set, A x is one complex product G_P c and a gather,
    and A'y a per-point sum of y w and one product with G_P'.  Writing
    w = cos - i sin, row k is cos_k U_p + sin_k V_p - rho e_var[p], where
    U_p and V_p are the rows of Re G_P c and Im G_P c as functionals of
    (Re c, Im c); so A'DA comes from the per-point sums of d cos^2,
    d sin^2, d cos sin, d cos and d sin on the 2|P| rows (U, V).  The
    per-point sums are bincounts, which add in row order, the
    matrix-vector products take row-wise dot products of a contiguous
    matrix, and the matrix product of A'DA adds fixed blocks of point
    columns in order, so none depends on the BLAS thread count.
    """

    def __init__(self, G, var, pts, side, dense):
        self.G, self.var, self.pts, self.side, self.dense = G, var, pts, side, dense
        self.rho, sides = _polygon()
        self.nc = G.shape[1]
        self.ns = dense.shape[1] - 2 * self.nc
        self.shape = (pts.size + dense.shape[0], dense.shape[1])
        P, self.inv = np.unique(pts, return_inverse=True)
        self.var_pair = var[pts]
        self.GP = G[P]
        self.GPT = np.ascontiguousarray(self.GP.T)
        # (U, V)' as one contiguous 2 nc x 2|P| matrix
        self.WT = np.block([[self.GPT.real, self.GPT.imag], [-self.GPT.imag, self.GPT.real]])
        self.w = sides[side]
        self.cos, self.sin = cos, sin = self.w.real.copy(), -self.w.imag
        self.moments = (cos * cos, sin * sin, cos * sin, cos, sin)
        # (diag(d) A)' on the rows (U, V), rewritten in place by each
        # ``gram``; its scalar rows hold one entry per column
        self.ST = np.zeros((self.shape[1], 2 * P.size))
        self.ST_index = (2 * self.nc + var[P], np.arange(P.size))
        # views of (U, V)', (V, U)' and the (U, V) columns of ST, split by half
        self.UV = self.WT.reshape(2 * self.nc, 2, P.size)
        self.VU = self.UV[:, ::-1]
        self.ST_UV = self.ST[:2 * self.nc].reshape(self.UV.shape)

    def __matmul__(self, x):
        nc, m = self.nc, self.pts.size
        u = self.GP @ (x[:nc] + 1j * x[nc:2 * nc])
        out = np.empty(self.shape[0])
        out[:m] = (self.w * u[self.inv]).real - self.rho * x[2 * nc:][self.var_pair]
        out[m:] = self.dense @ x
        return out

    def rmatvec(self, y):
        m, nP = self.pts.size, self.GP.shape[0]
        t = self.GPT @ (np.bincount(self.inv, y[:m] * self.cos, nP)
                        - 1j * np.bincount(self.inv, y[:m] * self.sin, nP))
        out = np.concatenate([t.real, -t.imag,
                              -self.rho * np.bincount(self.var_pair, y[:m], self.ns)])
        return out + y[m:] @ self.dense

    def gram(self, d):
        nc, m, nP = self.nc, self.pts.size, self.GP.shape[0]
        cc, ss, cs, c1, s1 = (np.bincount(self.inv, d[:m] * mom, nP) for mom in self.moments)
        # (U, V) columns: cc U + cs V and ss V + cs U, as two flat products
        np.multiply(self.UV, np.stack([cc, ss]), out=self.ST_UV)
        self.ST_UV += self.VU * cs
        rows, cols = self.ST_index
        self.ST[rows, cols] = -self.rho * c1
        self.ST[rows, nP + cols] = -self.rho * s1
        H = np.zeros((self.shape[1], self.shape[1]))
        for k in range(0, 2 * nP, _GRAM_BLOCK):
            H[:2 * nc] += self.WT[:, k:k + _GRAM_BLOCK] @ self.ST[:, k:k + _GRAM_BLOCK].T
        H[2 * nc:, :2 * nc] = H[:2 * nc, 2 * nc:].T
        H[2 * nc:, 2 * nc:] += np.diag(self.rho ** 2 * np.bincount(self.var_pair, d[:m], self.ns))
        return H + self.dense.T @ (d[m:, None] * self.dense)


def _lp_solve(A, b, c):
    """(x, converged): x minimises c.x subject to A x <= b (Mehrotra).

    A is a ``_PolygonRows``.  ``converged`` is False when the iteration
    cap is reached before the residuals and the duality gap fall below
    ``_LP_TOL``; x is then the last iterate.

    Primal and dual take one common step length, 0.99 min(alpha_primal,
    alpha_dual).  With separate lengths the method was fragile: a
    relative 1e-15 perturbation of the normal matrix, the size of a
    reordered sum, drove degree-16 solves on the step target to the
    iteration cap; with one length their iteration counts do not move.
    The normal matrix A' (z/s) A has a few dozen columns, so each one is
    solved through the inverse of its Cholesky factor; the tiny diagonal
    shift keeps the factor defined once inactive rows stop contributing.
    """
    m, n = A.shape

    def factor(d):
        H = A.gram(d)
        H[np.diag_indices(n)] += 1e-14 * np.trace(H) / n
        return np.linalg.inv(np.linalg.cholesky(H))

    def solve(Li, r):
        return Li.T @ (Li @ r)

    def max_step(v, dv):
        neg = np.flatnonzero(dv < 0.0)
        return min(1.0, float(np.min(-v.take(neg) / dv.take(neg)))) if neg.size else 1.0

    start = factor(np.ones(m))
    x = solve(start, A.rmatvec(b))
    s = b - A @ x
    z = -(A @ solve(start, c))
    s += max(0.0, 1.0 - float(np.min(s)))
    z += max(0.0, 1.0 - float(np.min(z)))
    tol_p = _LP_TOL * (1.0 + np.max(np.abs(b)))
    tol_d = 10.0 * _LP_TOL * (1.0 + np.max(np.abs(c)))
    for _ in range(_LP_MAX_ITER):
        rd = A.rmatvec(z) + c
        rp = A @ x + s - b
        gap = float(s @ z)
        if (np.max(np.abs(rp)) <= tol_p and np.max(np.abs(rd)) <= tol_d
                and gap <= _LP_TOL * (1.0 + abs(float(c @ x)))):
            return x, True
        Li = factor(z / s)

        def direction(rc):
            dx = solve(Li, -rd - A.rmatvec((z * rp - rc) / s))
            ds = -rp - A @ dx
            return dx, ds, (-rc - z * ds) / s

        dx, ds, dz = direction(s * z)
        ap, ad = max_step(s, ds), max_step(z, dz)
        sigma = (float((s + ap * ds) @ (z + ad * dz)) / gap) ** 3
        dx, ds, dz = direction(s * z + ds * dz - sigma * gap / m)
        alpha = 0.99 * min(max_step(s, ds), max_step(z, dz))
        x += alpha * dx
        s += alpha * ds
        z += alpha * dz
    return x, False


@dataclass(frozen=True)
class NormFitReport:
    poly: PolynomialND
    value: float    # optimum of the norm bound the program minimised
    excess: float   # |h - phi| <= budget + excess at the samples (0: budget met)
    degree: int
    converged: bool  # False: value and excess describe an unsolved program


def norm_fit(F: ArcSet, phi, budget, degree: int, weights=((0.0, 1.0),),
             origin_weight: float = 1.0) -> NormFitReport:
    """Polynomial h of degree <= ``degree`` minimising a Bloch-norm bound.

    Minimises ``origin_weight`` |h(0)| + max_k (s_k sup|h| + m_k sup
    (1 - |z|^2)|h'|) over the disc, for the pairs (s_k, m_k) in
    ``weights``, subject to |h - phi| <= budget at dense samples of F.
    The default weights give the disc Bloch norm |h(0)| + sup (1 - |z|^2)
    |h'|.  ``budget`` is a number or a callable on angles.

    Every modulus bound |w| <= R is imposed as a regular polygon inscribed
    in the disc of radius R, so the sampled bounds hold exactly; suprema
    are taken on a grid of the closed disc.  The error budget is elastic:
    when the degree cannot meet it, the least uniform excess (at a cost
    of ``_EXCESS_WEIGHT`` per unit of norm) is reported as ``excess``.
    With a zero budget the fit minimises the sup error on F.  The program
    is solved by cutting planes: it starts from a few polygon sides per
    sample and adds, for each sample whose bound is violated, the side
    facing its current value and that side's two neighbours, less the
    (sample, side) pairs already cut.  ``converged`` is False when a
    solve hits its iteration cap or bounds are still violated after the
    last round, also when every side to add is already cut.
    """
    k = np.arange(degree + 1)
    theta = F.sample(max(16 * (degree + 1), 256))
    zeta = np.exp(1j * theta)
    slack = budget(theta) if callable(budget) else np.full(theta.size, float(budget))
    m = int(2 ** np.ceil(np.log2(4 * (degree + 1))))
    circle = np.exp(2j * np.pi * np.arange(m) / m)
    # families of modulus bounds |G c + g0| <= rhs + s[var] on coefficients
    # c; seed rows keep every family bounded in the first round
    fam = [(zeta[:, None] ** k, -np.asarray(phi(zeta), dtype=complex), slack, "excess",
            np.arange(theta.size))]
    if origin_weight > 0.0:
        fam.append((np.eye(1, degree + 1), np.zeros(1), np.zeros(1), "origin", np.arange(1)))
    if any(s > 0.0 for s, _ in weights):
        fam.append((circle[:, None] ** k, np.zeros(m), np.zeros(m), "sup", np.arange(0, m, 4)))
    if any(mu > 0.0 for _, mu in weights):
        radii = np.array([r for r in dyadic_radii(8, linear=16) if r > 0.0])
        z = (radii[:, None] * circle).ravel()
        G = np.zeros((z.size, degree + 1), dtype=complex)
        G[:, 1:] = ((1.0 - np.abs(z) ** 2)[:, None] * k[1:]) * z[:, None] ** (k[1:] - 1)
        fam.append((G, np.zeros(z.size), np.zeros(z.size), "seminorm", np.arange(0, z.size, 8)))
    names = [f[3] for f in fam] + ["t"]
    G = np.vstack([f[0] for f in fam])
    g0 = np.concatenate([f[1] for f in fam]).astype(complex)
    rhs = np.concatenate([f[2] for f in fam])
    var = np.concatenate([np.full(f[0].shape[0], i) for i, f in enumerate(fam)])
    offsets = np.cumsum([0] + [f[0].shape[0] for f in fam])
    seed = np.concatenate([o + f[4] for o, f in zip(offsets, fam)])

    # scalar rows: s_k sup + m_k seminorm <= t, excess >= 0
    nc, ns = degree + 1, len(names)
    scalar_rows = []
    for s_k, m_k in weights:
        row = np.zeros(ns)
        row[-1] = -1.0
        if s_k > 0.0:
            row[names.index("sup")] = s_k
        if m_k > 0.0:
            row[names.index("seminorm")] = m_k
        scalar_rows.append(row)
    scalar_rows.append(-np.eye(1, ns, 0)[0])
    A_scalar = np.hstack([np.zeros((len(scalar_rows), 2 * nc)), np.array(scalar_rows)])
    cost = np.zeros(2 * nc + ns)
    cost[2 * nc + ns - 1] = 1.0
    cost[2 * nc] = _EXCESS_WEIGHT
    if origin_weight > 0.0:
        cost[2 * nc + names.index("origin")] = origin_weight

    rho, sides = _polygon()

    def offset(p, j):
        # side j at point p: Re(e^{-2 pi i j / S}(G_p c + g0_p)) - rho s_var <= rho rhs_p
        return rho * rhs[p] - (sides[j] * g0[p]).real

    # the cut set: polygon side cut_side[k] at sample point pts[k]
    step = _POLYGON_SIDES // 8
    pts = np.repeat(seed, 8)
    cut_side = np.tile(np.arange(0, _POLYGON_SIDES, step), seed.size)
    b = offset(pts, cut_side)
    for _ in range(_CUT_ROUNDS):
        x, solved = _lp_solve(_PolygonRows(G, var, pts, cut_side, A_scalar),
                              np.concatenate([b, np.zeros(len(scalar_rows))]), cost)
        coef = x[:nc] + 1j * x[nc:2 * nc]
        v = G @ coef + g0
        bound = rho * (rhs + x[2 * nc:][var])
        side = np.round(np.angle(v) * _POLYGON_SIDES / (2.0 * np.pi)).astype(int) % _POLYGON_SIDES
        violated = np.flatnonzero((sides[side] * v).real - bound > 1e-9 * (1.0 + np.abs(bound)))
        if violated.size == 0:
            break
        # the facing side and its two neighbours, less the pairs already cut
        key = (violated[:, None] * _POLYGON_SIDES
               + (side[violated, None] + np.arange(-1, 2)) % _POLYGON_SIDES).ravel()
        new_pts, new_side = np.divmod(np.setdiff1d(key, pts * _POLYGON_SIDES + cut_side),
                                      _POLYGON_SIDES)
        if new_pts.size == 0:
            break
        pts, cut_side = np.concatenate([pts, new_pts]), np.concatenate([cut_side, new_side])
        b = np.concatenate([b, offset(new_pts, new_side)])
    scalars = dict(zip(names, x[2 * nc:]))
    value = scalars["t"] + origin_weight * scalars.get("origin", 0.0)
    return NormFitReport(PolynomialND(coef), float(value), float(max(scalars["excess"], 0.0)),
                         degree, bool(solved and violated.size == 0))


# ---------------------------------------------------------------------------
# Stone-Weierstrass style product decomposition on the N-torus


@dataclass(frozen=True, eq=False)
class TrigPoly:
    """One-variable trigonometric polynomial sum c_k e^{i k theta}, |k| <= K."""

    coeffs: np.ndarray  # length 2K+1, index k + K

    @property
    def max_freq(self) -> int:
        return (self.coeffs.size - 1) // 2

    def __call__(self, zeta):
        zeta = np.asarray(zeta, dtype=complex)
        K = self.max_freq
        out = np.zeros(zeta.shape, dtype=complex)
        # negative powers of a unimodular variable are conjugate powers
        for k in range(-K, K + 1):
            c = self.coeffs[k + K]
            if c != 0:
                out += c * (zeta ** k if k >= 0 else np.conj(zeta) ** (-k))
        return out


@dataclass(frozen=True, eq=False)
class ProductTerm:
    """f_1(zeta_1) * ... * f_N(zeta_N) with TrigPoly factors."""

    factors: tuple

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=complex)
        if len(self.factors) == 1:
            return self.factors[0](pts)
        out = np.ones(pts.shape[:-1], dtype=complex)
        for j, f in enumerate(self.factors):
            out = out * f(pts[..., j])
        return out


@dataclass(frozen=True)
class DecompositionResult:
    terms: tuple
    error: float    # sup |sum of terms - phi| on the torus grid

    def __call__(self, pts):
        return np.sum([t(pts) for t in self.terms], axis=0)


#: points per axis of the uniform torus grid the decomposition is measured on
_TORUS_GRID = 256


def _torus_grid(n_dim: int) -> np.ndarray:
    ang = 2.0 * np.pi * np.arange(_TORUS_GRID) / _TORUS_GRID
    axes = np.meshgrid(*([np.exp(1j * ang)] * n_dim), indexing="ij")
    return np.stack(axes, axis=-1)


def product_decompose(phi, n_dim: int, eps: float, m_cap: int = 64) -> DecompositionResult:
    """Approximate phi on the N-torus, N = 1 or 2, by <= m_cap products of TrigPolys.

    Fourier coefficients are measured on a uniform 256^N grid (N = 3
    would take 800 MB).  For N = 2 the coefficient matrix is cut by
    singular values, so rank-one structure (e.g. Re zeta_1 * Re zeta_2)
    collapses to a single term.  Terms are added until the grid error
    drops below eps; when the cap comes first, the terms kept so far are
    returned and ``error`` (>= eps) shows the miss.  phi must return one
    value per point of the N-torus, which a few probe points check before
    the grid is built.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if n_dim not in (1, 2):
        raise ValueError(f"product decomposition takes dimension 1 or 2, not {n_dim}")
    probe = np.exp(1j * np.outer(np.arange(1, 4), np.arange(1, n_dim + 1)))
    if np.shape(phi(probe[:, 0] if n_dim == 1 else probe)) != (3,):
        raise ValueError(f"target must return one value per point of the {n_dim}-torus")
    pts = _torus_grid(n_dim)
    if n_dim == 1:
        pts = pts[..., 0]
    vals = np.asarray(phi(pts), dtype=complex)
    # index k + K of each axis holds frequency k; the -128 row/column drops
    coeffs = np.fft.fftshift(np.fft.fftn(vals) / vals.size)[(slice(1, None),) * n_dim]
    K = _TORUS_GRID // 2 - 1

    def candidates():
        if n_dim == 1:
            yield ProductTerm((TrigPoly(coeffs),))
        else:
            # trim to the occupied frequency window to keep the SVD small
            occ = np.flatnonzero(np.any(np.abs(coeffs) > 1e-15, axis=1))
            occ2 = np.flatnonzero(np.any(np.abs(coeffs) > 1e-15, axis=0))
            if occ.size == 0:
                return
            W = max(K - occ.min(), occ.max() - K, K - occ2.min(), occ2.max() - K)
            U, s, Vh = np.linalg.svd(coeffs[K - W: K + W + 1, K - W: K + W + 1])
            for l in range(min(m_cap, s.size)):
                if s[l] < 1e-15:
                    return
                yield ProductTerm((TrigPoly(U[:, l] * s[l]), TrigPoly(Vh[l, :].copy())))

    terms = []
    err = float(np.max(np.abs(vals)))
    for term in candidates():
        terms.append(term)
        err = float(np.max(np.abs(np.sum([t(pts) for t in terms], axis=0) - vals)))
        if err < eps:
            break
    return DecompositionResult(tuple(terms), err)


def decomposition_csv(result: DecompositionResult) -> str:
    """CSV rows: term index, per-axis dominant frequency, |coefficient|, residual."""
    lines = ["term,frequencies,coefficient_modulus,residual"]
    for i, t in enumerate(result.terms):
        doms = []
        mod = 1.0
        for f in t.factors:
            K = f.max_freq
            k = int(np.argmax(np.abs(f.coeffs))) - K
            doms.append(str(k))
            mod *= float(np.max(np.abs(f.coeffs)))
        lines.append(f"{i},{';'.join(doms)},{mod:.17g},{result.error:.17g}")
    return "\n".join(lines) + "\n"
