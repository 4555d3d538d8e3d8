"""Constructive polynomial approximation on arc sets and product tori.

Four builders: a polynomial pinned to 0 at the origin and to 1 on an arc
set, a uniform polynomial fit of a boundary function on an arc set (both
Lawson passes of least squares, whose Toeplitz normal equations scipy's
Levinson-Durbin solver solves, at degrees doubling until the tolerance is
met; the best fit is returned, with ``achieved`` saying whether it met
the tolerance), a norm-aware fit that minimises a Bloch-norm bound within
a pointwise error budget on an arc set (a second-order cone program), and a
decomposition of a continuous function on the N-torus into a short sum of
products of one-variable trigonometric polynomials.
"""

from __future__ import annotations

import functools
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
# Norm-aware fit: a second-order cone program over exact modulus discs

#: objective cost of one unit of error-budget excess per unit of norm
_EXCESS_WEIGHT = 100.0
#: interior-point stopping tolerance and iteration cap
_CONE_TOL = 1e-8
_CONE_MAX_ITER = 100


@functools.lru_cache(maxsize=8)
def _degree_tables(degree: int):
    """Read-only tables of a degree-``degree`` norm fit that depend on nothing else.

    m, the size of the circle grid of the sup and seminorm families, a
    power of 2 >= 4 (degree + 1), so the moment orders -2 .. 2 degree are
    distinct mod m; and the seminorm rings' scales a_k = (1 - r^2) k
    r^(k - 1), one row per radius r > 0 of ``dyadic_radii(8, linear=16)``.
    The cache shares the arrays with every caller.
    """
    k = np.arange(degree + 1)
    m = int(2 ** np.ceil(np.log2(4 * (degree + 1))))
    radii = np.array([r for r in dyadic_radii(8, linear=16) if r > 0.0])[:, None]
    scales = (1.0 - radii ** 2) * k * radii ** (k - 1.0)
    scales.flags.writeable = False
    return m, scales


@dataclass(frozen=True)
class _Family:
    """One family of a ``_ConeRows``: cone r n + j is scale row r at point j.

    ``powers`` holds P[j, k] = zeta_j^(k - e) and P^H, both C-contiguous;
    it is None on the circle grid, where every sum over the points is an
    FFT (``_ConeRows.grid``).
    """

    rows: slice
    scales: np.ndarray
    var: int
    e: int
    powers: tuple | None


class _ConeVec:
    """A vector over the cones: real parts ``a`` and complex parts ``w``."""

    __slots__ = ("a", "w")
    # numpy defers to __rmul__ for array * _ConeVec
    __array_ufunc__ = None

    def __init__(self, a, w):
        self.a, self.w = a, w

    def __add__(self, other):
        return _ConeVec(self.a + other.a, self.w + other.w)

    def __sub__(self, other):
        return _ConeVec(self.a - other.a, self.w - other.w)

    def __neg__(self):
        return _ConeVec(-self.a, -self.w)

    def __rmul__(self, t):
        # t a number or one real per cone
        return _ConeVec(t * self.a, t * self.w)

    def __truediv__(self, t):
        return _ConeVec(self.a / t, self.w / t)

    def dot(self, other):
        """The trace inner product sum_i u_a v_a + Re(conj(u_w) v_w)."""
        return float(np.sum(self.a * other.a) + np.sum((np.conj(self.w) * other.w).real))

    def finite(self):
        return bool(np.isfinite(np.sum(self.a) + np.sum(self.w)))


class _ConeRows:
    """Rows of a program over M cones {(a, w) : |w| <= a}, a real, w complex.

    x = (Re c, Im c, s), c of length nc; cone i holds (ha_i - Ga_i s,
    hw_i - Gw_i c).  The cones come in families (points, scales, e, var),
    one cone per scale row r and point zeta_j, r-major: Ga = -e_var and
    Gw_k = -scales[r, k] zeta_j^(k - e).  ``points`` is an array of
    unimodular zeta_j, or an int m for the circle grid e^(2 pi i j / m);
    the circle families share one m and follow each other.  The rows of
    ``linear`` follow: Ga = linear, Gw = 0.

    No row of Ga or Gw is stored.  Ga s is -s[var] repeated over each
    family's cones, and Ga'v sums v_a over each family.  With P[j, k] =
    zeta_j^(k - e), Gw c on a family is -(P (a o c)^T)^T and Gw'v is
    -sum_r a_r o (P^H v_r).  On the circle grid (the sup circle and the
    seminorm rings) P is never formed: row r of Gw c is minus the
    unnormalised inverse DFT of a_r o c placed at the orders k - e mod m,
    and P^H v_r the DFT of v_r read at those orders, one batched FFT over
    all the grid's scale rows each, so the grid holds its scales and
    O(nc) indices per row.  On other points (the error samples of F and
    the origin) a family keeps P for Gw c and P^H for Gw'v.  So the
    arrays grow as (arc samples) nc, not as M nc.  ``normal`` adds
    moments from the same FFTs and products with P^H.  FFTs, einsum and
    the row-wise dot products of contiguous matrices that these take do
    not depend on the BLAS thread count.
    """

    def __init__(self, families, linear):
        nc = families[0][1].shape[1]
        k, q, self.families, start = np.arange(nc), np.arange(2 * nc - 1), [], 0
        for points, scales, e, v in families:
            if isinstance(points, int):
                n, powers = points, None
            else:
                P = np.asarray(points, dtype=complex)[:, None] ** (k - e)
                n, powers = len(P), (P, np.ascontiguousarray(np.conj(P.T)))
            size = len(scales) * n
            self.families.append(_Family(slice(start, start + size), scales, v, e, powers))
            start += size
        self.nc, self.linear, self.cones = nc, linear, start
        # each family's first cone, number of cones and variable
        self.starts, self.sizes, self.vars = (
            np.array(a) for a in zip(*[(f.rows.start, f.rows.stop - f.rows.start, f.var)
                                       for f in self.families]))
        self.points = [f for f in self.families if f.powers is not None]
        grid = [f for f in self.families if f.powers is None]
        # the grid: its cones, scale rows and, per row, the flat FFT indices
        # of the orders k - e, then -q, 2e - q and e - q for ``normal``
        self.grid, self.grid_scales, self.grid_index = None, np.zeros((0, nc)), ()
        if grid:
            self.grid = slice(grid[0].rows.start, grid[-1].rows.stop)
            self.grid_scales = np.vstack([f.scales for f in grid])
            m = (self.grid.stop - self.grid.start) // len(self.grid_scales)
            if any(f.rows.stop - f.rows.start != m * len(f.scales) for f in grid):
                raise ValueError("the circle families must share one grid and follow each other")
            e = np.repeat([f.e for f in grid], [len(f.scales) for f in grid])[:, None]
            row = m * np.arange(len(e))[:, None]
            self.grid_index = tuple(row + o % m for o in (k - e, -q[:nc], 2 * e - q, e - q[:nc]))
        # every scale row, points first, and its variable, in ``normal``'s order
        self.scales = np.vstack([f.scales for f in self.points] + [self.grid_scales])
        self.row_vars = np.concatenate([np.full(len(f.scales), f.var)
                                        for f in self.points + grid])

    def __matmul__(self, x):
        nc = self.nc
        c, s = -(x[:nc] + 1j * x[nc:2 * nc]), x[2 * nc:]
        w = np.zeros(self.cones + len(self.linear), dtype=complex)
        for f in self.points:
            np.matmul(f.scales * c, f.powers[0].T, out=w[f.rows].reshape(len(f.scales), -1))
        if self.grid is not None:
            wg = w[self.grid]
            wg[self.grid_index[0]] = self.grid_scales * c
            wg[:] = np.fft.ifft(wg.reshape(len(self.grid_scales), -1), axis=-1,
                                norm="forward").ravel()
        a = np.concatenate([np.repeat(-s[self.vars], self.sizes), self.linear @ s])
        return _ConeVec(a, w)

    def rmatvec(self, v):
        y = np.zeros(self.nc, dtype=complex)
        for f in self.points:
            vr = v.w[f.rows].reshape(len(f.scales), -1)
            y -= (f.scales * (vr @ f.powers[1].T)).sum(axis=0)
        if self.grid is not None:
            F = np.fft.fft(v.w[self.grid].reshape(len(self.grid_scales), -1), axis=-1)
            y -= (self.grid_scales * np.take(F, self.grid_index[0])).sum(axis=0)
        sums = np.add.reduceat(v.a[:self.cones], self.starts)
        ya = self.linear.T @ v.a[self.cones:] - np.bincount(self.vars, sums,
                                                             minlength=self.linear.shape[1])
        return np.concatenate([y.real, y.imag, ya])

    def normal(self, beta, w0, w1):
        """G' W^-2 G for the cones' NT scalings, each beta and NT point (w0, w1).

        With (a, w) = (Ga s, Gw c) a cone adds beta^-2 ((2 w0^2 - 1) a^2 - 4 w0
        a Re(conj(w1) w) + w0^2 |w|^2 + Re(conj(w1)^2 w^2)), written out on
        (Re c, Im c, s) from Gw^H diag(dh) Gw, Gw^T diag(ds) Gw, Ga^T diag(.) Gw
        and Ga^T diag(.) Ga.  On a family with scales a these are a_k a_l
        P^h[l - k], a_k a_l P^s[k + l - 2e], -a_l P^c[l - e] in row var and a
        sum in (var, var), where P_q = sum_j d_j zeta_j^q are the moments of
        the weights dh, ds and c = 2 conj(w1) dh / w0.  On the circle grid
        they come from one batched FFT, indices mod m; on other points from
        products with the family's P^H (two more for orders past
        nc - 1 - e): O(M nc) in all, against O(M nc^2) for dense blocks.
        The Toeplitz and Hankel blocks of all scale rows are two einsums
        over strided views of the moments, with no (rows, nc, nc) array.
        """
        nc, ib2, cw1 = self.nc, beta ** -2.0, np.conj(w1)
        dh, scalar = ib2 * w0 ** 2, ib2 * (2.0 * w0 ** 2 - 1.0)
        weights = np.array([dh, ib2 * cw1 ** 2, 2.0 * cw1 * dh / w0])
        ns = self.linear.shape[1]
        S = self.linear.T @ (scalar[self.cones:, None] * self.linear)
        sums = np.add.reduceat(scalar[:self.cones], self.starts)
        S.flat[::ns + 1] += np.bincount(self.vars, sums, minlength=ns)
        th, hk, cx = [], [], []
        for f in self.points:
            # sums over the points with P^T = conj(P^H): P^T u = conj(P^H conj(u))
            w = np.conj(weights[:, f.rows].reshape(3, len(f.scales), -1))
            PH = f.powers[1]
            u0, ud = PH[0], PH[-1]
            th.append(np.conj([PH @ (u * np.conj(u0)) for u in w[0]]))
            hk.append(np.conj([np.concatenate([PH @ (u * u0), (PH @ (u * ud))[1:]])
                               for u in w[1]]))
            cx.append(np.conj([PH @ u for u in w[2]]))
        if self.grid is not None:
            w = weights[:, self.grid].reshape(3, len(self.grid_scales), -1)
            for out, F, i in zip((th, hk, cx), np.fft.fft(w, axis=-1), self.grid_index[1:]):
                out.append(np.take(F, i))
        th, a = np.vstack(th), self.scales
        th[:, 0] = th[:, 0].real
        X = np.zeros((ns, nc), dtype=complex)
        np.subtract.at(X, self.row_vars, a * np.vstack(cx))
        # views [r, k, l] of row r's entries nc - 1 + l - k and k + l
        toeplitz, hk = np.concatenate([np.conj(th[:, :0:-1]), th], axis=1), np.vstack(hk)
        strided = np.lib.stride_tricks.as_strided
        row, col = toeplitz.strides
        Hh = np.einsum("rk,rl,rkl->kl", a, a, strided(toeplitz[:, nc - 1:], (len(a), nc, nc),
                                                       (row, -col, col), writeable=False))
        Hs = np.einsum("rk,rl,rkl->kl", a, a, strided(hk, (len(a), nc, nc), (row, col, col),
                                                       writeable=False))
        H = np.empty((2 * nc + len(S),) * 2)
        H[:nc, :nc], H[:nc, nc:2 * nc] = Hh.real + Hs.real, -Hh.imag - Hs.imag
        H[nc:2 * nc, :nc], H[nc:2 * nc, nc:2 * nc] = Hh.imag - Hs.imag, Hh.real - Hs.real
        H[2 * nc:, :nc], H[2 * nc:, nc:2 * nc], H[2 * nc:, 2 * nc:] = X.real, -X.imag, S
        H[:2 * nc, 2 * nc:] = H[2 * nc:, :2 * nc].T
        return H


def _jordan(u, v):
    """The cone product u o v = (u_a v_a + Re(conj(u_w) v_w), u_a v_w + v_a u_w)."""
    return _ConeVec(u.a * v.a + (np.conj(u.w) * v.w).real, u.a * v.w + v.a * u.w)


def _max_step(lam, det, *steps):
    """For each step d, the largest alpha <= 1 with lam + alpha d in every cone.

    A cone's exit is the least positive root of A alpha^2 + 2 B alpha + det,
    det = lam_a^2 - |lam_w|^2 > 0, by the root formula that does not cancel;
    B^2 >= A det wherever a root is positive, so a negative discriminant is rounding.
    """
    da, dw = np.array([d.a for d in steps]), np.array([d.w for d in steps])
    mod = np.abs(dw)
    A = (da - mod) * (da + mod)
    B = lam.a * da - (np.conj(lam.w) * dw).real
    q = -(B + np.copysign(np.sqrt(np.maximum(B * B - A * det, 0.0)), B))
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = np.concatenate([q / A, det / q], axis=1)
    roots[~(roots > 0.0)] = np.inf
    return np.minimum(1.0, roots.min(axis=1))


def _nt_point(s, z, lo):
    """(beta, w0, w1, lam, det) of the NT scaling W of s and z, lo = v_a - |v_w| of each."""
    sr, zr = (np.sqrt(l * (v.a + np.abs(v.w))) for l, v in zip(lo, (s, z)))
    sn, zn, det = s / sr, z / zr, sr * zr
    gamma = np.sqrt((1.0 + sn.a * zn.a + (np.conj(sn.w) * zn.w).real) / 2.0)
    w0, w1 = (sn.a + zn.a) / (2.0 * gamma), (sn.w - zn.w) / (2.0 * gamma)
    lam = np.sqrt(det) * _ConeVec(gamma, ((gamma + zn.a) * sn.w + (gamma + sn.a) * zn.w)
                                  / (sn.a + zn.a + 2.0 * gamma))
    return np.sqrt(sr / zr), w0, w1, lam, det


def _cone_solve(G, ha, hw, cost):
    """(x, converged): x minimises cost.x subject to h - G x in every cone, h = (ha, hw).

    G is a ``_ConeRows``.  Primal-dual interior point with Nesterov-Todd
    scaling and Mehrotra's predictor-corrector (Vandenberghe, "The CVXOPT
    linear and quadratic cone program solvers", 2010), from the
    least-squares x and z with s and z shifted to at least 1 inside their
    cones.  W (W z = W^-1 s = lambda) is applied in the frame of the NT
    point (w0, w1): rotated by conj(w1 / |w1|), on (a + Re w, a - Re w,
    Im w) it is beta diag(e^psi, e^-psi, 1), e^psi = w0 + |w1|, with no
    cancellation (beta^-2 (2 J w w' J - J) for W^-2 drove a perturbed fit
    to NaN).  ds comes from the primal equation; primal and dual take one
    step, 0.99 min(alpha_p, alpha_d).  The tiny diagonal shift keeps each
    Cholesky factor defined once inactive cones stop contributing.
    Cone vectors are ``_ConeVec``s, a real and a complex array.
    ``converged`` is False at the iteration cap, or at an iterate that is
    not finite or not interior; x is then the last finite iterate.
    LinAlgError: a normal matrix that is not numerically positive definite.
    """
    M, n = ha.size, cost.size
    h = _ConeVec(ha, hw)

    def factor(*scaling):
        H = G.normal(*scaling)
        H[np.diag_indices(n)] += 1e-14 * np.trace(H) / n
        return np.linalg.inv(np.linalg.cholesky(H))

    def solve(Li, r):
        return Li.T @ (Li @ r)

    def shift(v):
        v.a += max(0.0, 1.0 - float(np.min(v.a - np.abs(v.w))))
        return v

    start = factor(np.ones(M), np.ones(M), np.zeros(M))
    x = solve(start, G.rmatvec(h))
    s, z = shift(h - G @ x), shift(-(G @ solve(start, cost)))
    tol_p = _CONE_TOL * (1.0 + max(np.max(np.abs(ha)), np.max(np.abs(hw))))
    tol_d = 10.0 * _CONE_TOL * (1.0 + np.max(np.abs(cost)))
    for _ in range(_CONE_MAX_ITER):
        rz, rx, gap = G @ x + s - h, G.rmatvec(z) + cost, s.dot(z)
        if (max(np.max(np.abs(rz.a)), np.max(np.abs(rz.w))) <= tol_p
                and np.max(np.abs(rx)) <= tol_d
                and gap <= _CONE_TOL * (1.0 + abs(float(cost @ x)))):
            return x, True
        lo = [v.a - np.abs(v.w) for v in (s, z)]
        if not (np.all(lo[0] > 0.0) and np.all(lo[1] > 0.0) and np.isfinite(gap)):
            return x, False
        beta, w0, w1, lam, det = _nt_point(s, z, lo)
        mod = np.abs(w1)
        rot, ep = np.divide(w1, mod, out=np.ones_like(w1), where=mod > 0.0), w0 + mod
        Li = factor(beta, w0, w1)

        crot, fp, fq, fo = np.conj(rot), 1.0 / (beta * ep), ep / beta, 1j / beta

        def scale_inv(v):
            # W^-1 v in the frame of the NT point
            u = crot * v.w
            p, q = (v.a + u.real) * fp, (v.a - u.real) * fq
            return _ConeVec((p + q) / 2.0, rot * ((p - q) / 2.0 + fo * u.imag))

        vr = scale_inv(rz)

        def direction(rc):
            # lambda o (W dz + W^-1 ds) = rc, G dx + ds = -rz, G' dz = -rx:
            # dx, ds, W^-1 ds and W dz
            ua = (lam.a * rc.a - (np.conj(lam.w) * rc.w).real) / det
            u = _ConeVec(ua, (rc.w - ua * lam.w) / lam.a)
            dx = solve(Li, -rx - G.rmatvec(scale_inv(u + vr)))
            Gdx = G @ dx
            vg = scale_inv(Gdx)
            return dx, -rz - Gdx, -vr - vg, vr + vg + u

        rc = -_jordan(lam, lam)
        _, _, vs, vz = direction(rc)
        ap, ad = _max_step(lam, det, vs, vz)
        sigma = ((lam + ap * vs).dot(lam + ad * vz) / gap) ** 3
        rc = rc - _jordan(vs, vz)
        rc.a += sigma * gap / M
        dx, ds, vs, vz = direction(rc)
        alpha = 0.99 * float(np.min(_max_step(lam, det, vs, vz)))
        x1, s1, z1 = x + alpha * dx, s + alpha * ds, z + alpha * scale_inv(vz)
        if not (np.isfinite(np.sum(x1)) and s1.finite() and z1.finite()):
            return x, False
        x, s, z = x1, s1, z1
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

    Every sampled modulus bound |w| <= R is one second-order cone, so the
    bounds are imposed exactly, all of them in one ``_cone_solve``;
    suprema are taken on a grid of the closed disc.  The error budget is
    elastic: when the degree cannot meet it, the least uniform excess (at
    a cost of ``_EXCESS_WEIGHT`` per unit of norm) is reported as
    ``excess``.  With a zero budget the fit minimises the sup error on F.
    ``converged`` is False when the solve stopped at its iteration cap or
    on an iterate that was not finite.  ``ApproxError``: a normal matrix
    of the solve is not numerically positive definite.
    """
    theta = F.sample(max(16 * (degree + 1), 256))
    zeta = np.exp(1j * theta)
    slack = budget(theta) if callable(budget) else np.full(theta.size, float(budget))
    m, rings = _degree_tables(degree)
    one = np.ones((1, degree + 1))
    # families (points, scales a, e, name, g0, rhs) of modulus bounds
    # |sum_k a_rk zeta_j^(k - e) c_k + g0| <= rhs + s[name] on coefficients c
    fam = [(zeta, one, 0, "excess", -np.asarray(phi(zeta), dtype=complex), slack)]
    if origin_weight > 0.0:
        fam.append((np.ones(1), np.eye(1, degree + 1), 0, "origin", np.zeros(1), np.zeros(1)))
    if any(s > 0.0 for s, _ in weights):
        fam.append((m, one, 0, "sup", np.zeros(m), np.zeros(m)))
    if any(mu > 0.0 for _, mu in weights):
        fam.append((m, rings, 1, "seminorm", np.zeros(len(rings) * m), np.zeros(len(rings) * m)))
    names = [f[3] for f in fam] + ["t"]
    nc, ns = degree + 1, len(names)
    # linear rows, cones with no modulus part: s_k sup + m_k seminorm <= t, excess >= 0
    linear = np.zeros((len(weights) + 1, ns))
    linear[:-1, -1] = linear[-1, 0] = -1.0
    for row, pair in zip(linear, weights):
        for name, v in zip(("sup", "seminorm"), pair):
            if v > 0.0:
                row[names.index(name)] = v
    zeros = np.zeros(len(linear))
    rows = _ConeRows([f[:3] + (i,) for i, f in enumerate(fam)], linear)
    cost = np.zeros(2 * nc + ns)
    cost[[2 * nc, -1]] = _EXCESS_WEIGHT, 1.0
    if origin_weight > 0.0:
        cost[2 * nc + names.index("origin")] = origin_weight
    try:
        x, converged = _cone_solve(rows, np.concatenate([f[5] for f in fam] + [zeros]),
                                   np.concatenate([f[4] for f in fam] + [zeros]), cost)
    except np.linalg.LinAlgError as exc:
        raise ApproxError(f"the normal matrix of the degree-{degree} norm fit is not "
                          "numerically positive definite") from exc
    scalars = dict(zip(names, x[2 * nc:]))
    value = scalars["t"] + origin_weight * scalars.get("origin", 0.0)
    return NormFitReport(PolynomialND(x[:nc] + 1j * x[nc:2 * nc]), float(value),
                         float(max(scalars["excess"], 0.0)), degree, converged)


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
    axis = np.exp(1j * (2.0 * np.pi * np.arange(_TORUS_GRID) / _TORUS_GRID))
    pts = axis if n_dim == 1 else np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1)
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

    # each factor takes 256 values, one per axis point: a term on the grid is
    # their outer product, added to the running sum of the terms so far
    terms, total = [], np.zeros(vals.shape, dtype=complex)
    err = float(np.max(np.abs(vals)))
    for term in candidates():
        terms.append(term)
        values = [f(axis) for f in term.factors]
        total += values[0] if n_dim == 1 else values[0][:, None] * values[1][None, :]
        err = float(np.max(np.abs(total - vals)))
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
