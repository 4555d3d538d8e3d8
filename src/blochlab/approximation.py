"""Constructive polynomial approximation on arc sets and product tori.

Four builders: a polynomial pinned to 0 at the origin and to 1 on an arc
set, a uniform polynomial fit of a boundary function on an arc set (both
Lawson passes of least squares, solved through a Toeplitz Gram matrix, at
degrees doubling until the tolerance is met; the best fit is returned,
with ``achieved`` saying whether it met the tolerance), a norm-aware fit
that minimises a Bloch-norm bound within a pointwise error budget on an
arc set (a linear program), and a decomposition of a continuous function
on the N-torus into a short sum of products of one-variable
trigonometric polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from blochlab.arcs import ArcSet
from blochlab.expressions import Polynomial1D
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


def _toeplitz_cholesky(mu):
    """Upper triangular R with R^H R = T = toeplitz(conj(mu), mu) (Schur algorithm).

    u = mu / sqrt(mu_0) and v = u - u_0 e_0 give T - Z T Z^H = u^H u - v^H v
    (Z the down shift); row k of R is u, and shifting u then the hyperbolic
    rotation that zeroes v_(k+1) generate the next Schur complement.  The
    O(n^2) elementwise work, unlike a threaded LAPACK Cholesky, does not
    depend on the BLAS thread count.  LinAlgError: T is not numerically
    positive definite.
    """
    if not mu[0].real > 0.0:
        raise np.linalg.LinAlgError("leading minor 1 is not positive definite")
    R = np.zeros((mu.size, mu.size), dtype=complex)
    R[0] = mu / math.sqrt(mu[0].real)
    v = R[0].copy()
    v[0] = 0.0
    for k in range(mu.size - 1):
        rho = v.item(k + 1) / R.item(k, k)
        if not abs(rho) < 1.0:
            raise np.linalg.LinAlgError(f"leading minor {k + 2} is not positive definite")
        c = 1.0 / math.sqrt(1.0 - abs(rho) ** 2)
        prev, tail = R[k, k:-1], v[k + 1:]
        R[k + 1, k + 1:] = c * (prev - rho.conjugate() * tail)
        tail[:] = c * (tail - rho * prev)
    return R


def _bounded_fit(A, b, n_main, bound):
    """Weighted least squares on the first ``n_main`` rows, anchors on the rest.

    Row i of A is z_i^lowest .. z_i^d at a point z_i of the unit circle,
    samples of F first, then of its gaps.  Main-row weights follow Lawson
    reweighting (trading mean-square error for near-uniform error).  Gap
    rows are soft anchors of weight ``_GAP_WEIGHT`` whose targets are
    re-clamped each pass to the current fit value, capped at ``bound`` in
    modulus, so they only push back where the polynomial tries to blow up.

    Each pass solves its normal equations.  With real weights on
    unimodular rows the Gram matrix is Toeplitz, G[j, k] = mu_(k-j) with
    mu_m = sum_i w_i z_i^m: one product with A^T gives its first row,
    another the right-hand side (row-wise dot products on a contiguous
    A^T, which sum in the same order at any BLAS thread count), and
    ``_toeplitz_cholesky`` factors it.  Squaring the condition number is
    harmless where F and its gaps are sampled densely: cond(G) < 25 up to
    degree 1024 on nearly half or full circles, < 200 on the tier-1 fits.
    Gaps with fewer than about d / 2 pi anchors per radian raise it (6.5e8
    at degree 1024 on two arcs with gaps of 1.6); on an arc of 0.3, G is
    singular to working precision from degree 128 (cond 1e15).  There the
    diagonal shift (d + 1) eps mu_0 keeps the factor defined, and the fit
    reaches a margin near 1e-7 where a QR reached 1e-13.
    """
    # imported here, not at module level: numpy has no triangular solve, and loading
    # the package costs about 0.25 s and 28 MB (2-core x86 VM) that only the boundary fits need
    from scipy.linalg import cho_solve

    w = np.where(np.arange(A.shape[0]) < n_main, 1.0, _GAP_WEIGHT)
    b = b.copy()
    AT = np.ascontiguousarray(A.T)
    for _ in range(_LAWSON_PASSES):
        mu = AT @ (w * np.conj(A[:, 0]))
        mu[0] *= 1.0 + mu.size * np.finfo(float).eps
        coef = cho_solve((_toeplitz_cholesky(mu), False),
                         np.conj(AT @ (w * np.conj(b))), check_finite=False)
        v = A @ coef
        err = np.maximum(np.abs(v[:n_main] - b[:n_main]), 1e-15) * w[:n_main]
        w[:n_main] = np.clip(err / np.mean(err), 1e-6, 1e6)
        mod = np.abs(v[n_main:])
        b[n_main:] = np.where(mod > bound, v[n_main:] * (bound / np.maximum(mod, 1e-300)),
                              v[n_main:])
    return coef


@dataclass(frozen=True)
class FitReport:
    poly: Polynomial1D
    margin: float    # sup |poly - target| on a dense fresh sampling of F
    degree: int
    achieved: bool   # margin < delta


def _doubling_fit(F: ArcSet, phi, delta: float, degree_cap: int, lowest: int,
                  bound) -> FitReport:
    """Best fit of ``phi`` on F by z^lowest .. z^degree, degree doubling from 8.

    Each degree solves ``_bounded_fit`` on samples of F, with anchors on
    the complement that start from phi's own values there and are capped
    in modulus at ``bound(target samples)``; its margin is measured on a
    dense fresh sampling of F.  The loop stops at the first margin below
    ``delta`` or at ``degree_cap``, and returns the fit of least margin
    (``achieved`` False when even that misses ``delta``).  ``lowest = 1``
    drops the constant term, so the fit vanishes at 0 exactly.
    """
    if degree_cap < _FIRST_DEGREE:
        raise ValueError(f"degree cap must be >= {_FIRST_DEGREE}")
    if not F.arcs:
        return FitReport(Polynomial1D.zero(), 0.0, 0, True)
    gaps = F.complement()
    if not gaps.arcs or max(e - s for s, e in gaps.arcs) < GAP_MIN:
        raise ApproxError("arc set must leave a complementary gap of length >= 2*pi/1000")
    best = None
    degree = _FIRST_DEGREE
    while degree <= degree_cap:
        theta_main = F.sample(max(4 * degree + 16, 256))
        n_main = theta_main.size
        theta = np.concatenate([theta_main, gaps.sample(max(degree // 2, 64))])
        target = np.asarray(phi(np.exp(1j * theta)), dtype=complex)
        A = np.exp(np.outer(1j * theta, np.arange(lowest, degree + 1)))
        try:
            coef = _bounded_fit(A, target, n_main, bound(target[:n_main]))
        except np.linalg.LinAlgError as exc:
            raise ApproxError(f"the Gram matrix of the degree-{degree} fit is not "
                              "numerically positive definite") from exc
        p = Polynomial1D(np.concatenate([np.zeros(lowest), coef]))
        zv = np.exp(1j * F.sample(max(VERIFY_FLOOR, 32 * degree)))
        margin = float(np.max(np.abs(p(zv) - np.asarray(phi(zv), dtype=complex))))
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


def _lp_solve(A, b, c):
    """(x, converged): x minimises c.x subject to A x <= b (Mehrotra).

    ``converged`` is False when the iteration cap is reached before the
    residuals and the duality gap fall below ``_LP_TOL``; x is then the
    last iterate.

    Dense normal equations A' (z/s) A are fine here: the programs have a
    few dozen columns, so numpy's Cholesky and two solves on its factor
    serve.  The tiny diagonal shift keeps the factor defined once inactive
    rows stop contributing.
    """
    m, n = A.shape

    def factor(d):
        H = A.T @ (d[:, None] * A)
        H[np.diag_indices(n)] += 1e-14 * np.trace(H) / n
        return np.linalg.cholesky(H)

    def solve(L, r):
        return np.linalg.solve(L.T, np.linalg.solve(L, r))

    def max_step(v, dv):
        neg = dv < 0.0
        return min(1.0, float(np.min(-v[neg] / dv[neg]))) if np.any(neg) else 1.0

    start = factor(np.ones(m))
    x = solve(start, A.T @ b)
    s = b - A @ x
    z = -A @ solve(start, c)
    s += max(0.0, 1.0 - float(np.min(s)))
    z += max(0.0, 1.0 - float(np.min(z)))
    for _ in range(_LP_MAX_ITER):
        rd = A.T @ z + c
        rp = A @ x + s - b
        gap = float(s @ z)
        if (np.max(np.abs(rp)) <= _LP_TOL * (1.0 + np.max(np.abs(b)))
                and np.max(np.abs(rd)) <= 10.0 * _LP_TOL * (1.0 + np.max(np.abs(c)))
                and gap <= _LP_TOL * (1.0 + abs(float(c @ x)))):
            return x, True
        cho = factor(z / s)

        def direction(rc):
            dx = solve(cho, -rd - A.T @ ((z * rp - rc) / s))
            ds = -rp - A @ dx
            return dx, ds, (-rc - z * ds) / s

        dx, ds, dz = direction(s * z)
        ap, ad = max_step(s, ds), max_step(z, dz)
        sigma = (float((s + ap * ds) @ (z + ad * dz)) / gap) ** 3
        dx, ds, dz = direction(s * z + ds * dz - sigma * gap / m)
        ap, ad = 0.99 * max_step(s, ds), 0.99 * max_step(z, dz)
        x += ap * dx
        s += ap * ds
        z += ad * dz
    return x, False


@dataclass(frozen=True)
class NormFitReport:
    poly: Polynomial1D
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
    facing its current value.  ``converged`` is False when a solve hits
    its iteration cap or bounds are still violated after the last round.
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

    rho = np.cos(np.pi / _POLYGON_SIDES)
    sides = np.exp(-2j * np.pi * np.arange(_POLYGON_SIDES) / _POLYGON_SIDES)

    def polygon_rows(pts, side):
        # Re(e^{-i a}(G c + g0)) <= rho (rhs + s_var), c split as (Re, Im)
        R = sides[side][:, None] * G[pts]
        A = np.zeros((pts.size, 2 * nc + ns))
        A[:, :nc], A[:, nc:2 * nc] = R.real, -R.imag
        A[np.arange(pts.size), 2 * nc + var[pts]] = -rho
        return A, rho * rhs[pts] - (sides[side] * g0[pts]).real

    step = _POLYGON_SIDES // 8
    A, b = polygon_rows(np.repeat(seed, 8), np.tile(np.arange(0, _POLYGON_SIDES, step), seed.size))
    for _ in range(_CUT_ROUNDS):
        x, solved = _lp_solve(np.vstack([A, A_scalar]),
                              np.concatenate([b, np.zeros(len(scalar_rows))]), cost)
        coef = x[:nc] + 1j * x[nc:2 * nc]
        v = G @ coef + g0
        bound = rho * (rhs + x[2 * nc:][var])
        side = np.round(np.angle(v) * _POLYGON_SIDES / (2.0 * np.pi)).astype(int) % _POLYGON_SIDES
        violated = np.flatnonzero((sides[side] * v).real - bound > 1e-9 * (1.0 + np.abs(bound)))
        if violated.size == 0:
            break
        A_new, b_new = polygon_rows(violated, side[violated])
        A, b = np.vstack([A, A_new]), np.concatenate([b, b_new])
    scalars = dict(zip(names, x[2 * nc:]))
    value = scalars["t"] + origin_weight * scalars.get("origin", 0.0)
    return NormFitReport(Polynomial1D(coef), float(value), float(max(scalars["excess"], 0.0)),
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
