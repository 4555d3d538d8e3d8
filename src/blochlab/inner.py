"""Inner functions on the unit disc.

Singular inner functions are built as exp(-H[mu]) with H the Herglotz
integral of a positive singular measure (atomic, or Cantor-type on an
arc); Blaschke products and composition chains complete the calculus.
The hyperbolic derivative quotient

    q(z) = (1 - |z|^2) |I'(z)| / (1 - |I(z)|^2)

is the central measured quantity: it is <= 1 by Schwarz-Pick, exactly
multiplicative under composition, and composition chains are used to
drive it below a prescribed target.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from blochlab.arcs import ArcSet
from blochlab.numerics import dyadic_radii, circle_angles, sample_torus, MeasureEstimate

#: absolute tolerance on the certified Cantor quadrature error.
QUAD_TOL = 1e-8

#: points K of the Cantor measure's own Gauss rule on each interval.
GAUSS_POINTS = 4

#: narrowest Cantor tree interval, 128 ulp of 2 pi: a narrower one's nodes are ulps apart.
ANGLE_FLOOR = 128 * math.ulp(2.0 * math.pi)

#: 1 - |I(z)|^2 below this is treated as boundary-saturated.
SATURATION_FLOOR = 1e-14

#: radius used to read off boundary values of inner functions.
BOUNDARY_PROBE_RADIUS = 1.0 - 2.0 ** -26

_Z_CHUNK = 4096


class QuadratureError(ArithmeticError):
    """Certified quadrature error bound exceeded the tolerance."""


class ShrinkFailure(RuntimeError):
    """Composition iteration cannot reduce the quotient supremum."""


def _is_real(x) -> bool:
    """A real number; a bool (a JSON ``true``) is not one."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


@dataclass(frozen=True)
class SingularMeasureSpec:
    """A positive singular measure on the circle.

    kind ``atomic``: point masses ``atoms`` = ((zeta, mass), ...).
    kind ``cantor``: self-similar measure of total mass ``mass`` on the
    arc of length ``arc_length`` in (0, 2 pi] centered at ``center``;
    each interval splits into two end pieces of relative width ``ratio``
    carrying half the mass.  It holds no quadrature setting: the depth of
    its tree quadrature (``_cantor_tree``) follows from these fields.
    """

    kind: str
    atoms: tuple = ()
    center: complex = 1.0 + 0.0j
    arc_length: float = np.pi / 2
    ratio: float = 1.0 / 3.0
    mass: float = 1.0

    def __post_init__(self):
        if self.kind == "atomic":
            if not self.atoms:
                raise ValueError("atomic measure needs at least one atom")
            for zeta, m in self.atoms:
                if not (_is_real(m) and m > 0):
                    raise ValueError(f"atom masses must be positive numbers, got {m!r}")
                if abs(abs(zeta) - 1.0) > 1e-12:
                    raise ValueError("atom support must lie on the circle")
        elif self.kind == "cantor":
            if not (_is_real(self.ratio) and 0.0 < self.ratio < 0.5):
                raise ValueError(f"cantor ratio must lie in (0, 1/2), got {self.ratio!r}")
            if not (_is_real(self.mass) and self.mass > 0):
                raise ValueError(f"cantor mass must be a positive number, got {self.mass!r}")
            if abs(abs(self.center) - 1.0) > 1e-12:
                raise ValueError("cantor center must lie on the circle")
            if not (_is_real(self.arc_length)
                    and 0.0 < self.arc_length <= 2.0 * np.pi):
                raise ValueError(
                    f"cantor arc_length must lie in (0, 2 pi], got {self.arc_length!r}")
        else:
            raise ValueError(f"unknown measure kind {self.kind!r}")

    @property
    def total_mass(self) -> float:
        if self.kind == "atomic":
            return float(sum(m for _, m in self.atoms))
        return float(self.mass)


@dataclass(frozen=True)
class InnerSpec:
    """An inner function: singular, Blaschke, or a composition chain.

    ``chain`` is applied innermost first: composition((f, g)) is z -> g(f(z)).
    """

    kind: str
    measure: SingularMeasureSpec = None
    zeros: tuple = ()
    chain: tuple = ()

    def __post_init__(self):
        if self.kind == "singular":
            if self.measure is None:
                raise ValueError("singular spec needs a measure")
        elif self.kind == "blaschke":
            if not self.zeros:
                raise ValueError("Blaschke product needs at least one zero")
            for a in self.zeros:
                if abs(a) >= 1.0:
                    raise ValueError("Blaschke zeros must lie strictly inside the disc")
        elif self.kind == "composition":
            if not self.chain:
                raise ValueError("composition chain must be nonempty")
        else:
            raise ValueError(f"unknown inner kind {self.kind!r}")

    @classmethod
    def singular(cls, measure: SingularMeasureSpec) -> "InnerSpec":
        return cls(kind="singular", measure=measure)

    @classmethod
    def atomic(cls, atoms) -> "InnerSpec":
        return cls.singular(SingularMeasureSpec(kind="atomic", atoms=tuple(atoms)))

    @classmethod
    def blaschke(cls, zeros) -> "InnerSpec":
        return cls(kind="blaschke", zeros=tuple(complex(a) for a in zeros))

    @classmethod
    def composition(cls, chain) -> "InnerSpec":
        return cls(kind="composition", chain=tuple(chain))

    def __call__(self, z):
        """Value at strictly interior point(s) z; ``ValueError`` at |z| >= 1."""
        return inner_eval(self, z)[0]

    def primitives(self) -> list:
        """Flatten to the innermost-first list of primitive factors."""
        if self.kind != "composition":
            return [self]
        out = []
        for s in self.chain:
            out.extend(s.primitives())
        return out


# ---------------------------------------------------------------------------
# Cantor measure: its own Gauss rule and certified tree quadrature


@functools.lru_cache(maxsize=8)
def cantor_gauss_rule(ratio: float):
    """Nodes and weights of the GAUSS_POINTS-point Gauss rule of the Cantor measure.

    The measure is the unit-mass self-similar measure of the given ratio
    on [-1/2, 1/2].  Its moments are exact rationals: the two halves are
    copies scaled by r = ratio about the centers +-c, c = (1 - r)/2, so
    M_n (1 - r^n) = sum over j < n with n - j even of C(n, j) r^j c^(n-j) M_j.
    The Chebyshev algorithm turns the moments into the Jacobi matrix, also
    in exact arithmetic (a float Hankel factorization of these nearly
    singular moment matrices loses the rule at small ratios), and its
    eigen-decomposition gives the nodes and the weights (Golub-Welsch).
    The arrays are read-only: the cache shares them with every caller.
    """
    r = Fraction(ratio)
    c = (1 - r) / 2
    count = 2 * GAUSS_POINTS
    mom = [Fraction(1)]
    for n in range(1, count):
        s = sum(math.comb(n, j) * r ** j * c ** (n - j) * mom[j] for j in range(n % 2, n, 2))
        mom.append(s / (1 - r ** n))
    # Chebyshev algorithm: sigma_k,l = <p_k, x^l>, alpha_k and beta_k
    older, sigma = [Fraction(0)] * count, mom
    alpha, beta = [mom[1] / mom[0]], [mom[0]]
    for k in range(1, GAUSS_POINTS):
        nxt = [Fraction(0)] * count
        for col in range(k, count - k):
            nxt[col] = sigma[col + 1] - alpha[-1] * sigma[col] - beta[-1] * older[col]
        alpha.append(nxt[k + 1] / nxt[k] - sigma[k] / sigma[k - 1])
        beta.append(nxt[k] / sigma[k - 1])
        older, sigma = sigma, nxt
    off = np.sqrt([float(b) for b in beta[1:]])
    jacobi = np.diag([float(a) for a in alpha]) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    weights = float(beta[0]) * vectors[0] ** 2
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _cantor_tree(spec, flat):
    """Herglotz integrals A, A' over a Cantor measure at a chunk of points.

    Returns A, A' and each point's certified truncation bound, <= QUAD_TOL.
    One level-synchronous traversal of the Cantor tree: the frontier holds
    (point, interval) pairs, starting with the whole arc for every point.
    Each pair is integrated by the measure's own Gauss rule, mapped to the
    interval (nodes mid + w x_i, weights m omega_i; by self-similarity the
    reference rule serves every interval).  A pair is accepted when its
    truncation bound is at most its mass share QUAD_TOL m / total, or at
    the last level, the deepest whose intervals are ANGLE_FLOOR wide or
    wider; otherwise its two sub-intervals join the next frontier.  A
    point whose summed bound still exceeds QUAD_TOL lies closer to the
    support than angles resolve, and raises QuadratureError.  A pair
    holds its point and the index of its interval among those occupied at
    its level, so the center e^(i mid) and the node factors
    e^(-i(mid + w x_i)) are evaluated once per occupied interval.

    Certificate.  The rule is exact on polynomials of degree <= 2K - 1 in
    the angle, K = GAUSS_POINTS, and its weights are positive and sum to m.
    So for either kernel f the error is at most 2 m sup |f - T| over the
    interval, T the Taylor polynomial of degree 2K - 1 about mid.  Let
    D = |z - e^(i mid)|, R = min(1, log1p(D / (2|z|))), h = w/2, t = h/R.
    For complex theta with |theta - mid| <= R,
    |1 - z e^(-i theta)| >= D - |z| (e^R - 1) >= D/2, so both kernels are
    analytic there and bounded by M = max((1 + |z| e^R)/(D/2),
    2 e^R/(D/2)^2).  Cauchy's estimate on the Taylor coefficients gives
    |f - T| <= M t^(2K)/(1 - t) for t < 1, and the pair's bound is
    2 m M t^(2K)/(1 - t); it is infinite for t >= 1.  R <= 1 keeps e^R,
    and so M, of the order of the kernels themselves.

    The certificate bounds truncation only, not rounding.  Next to the
    support |A'| reaches about 1e6, and against an 8-point rule run to
    1e-13 the difference there exceeds both certificates by up to about
    4e-12 |A'|, far above QUAD_TOL in absolute terms.
    """
    n = flat.size
    x, omega = cantor_gauss_rule(spec.ratio)
    total = spec.total_mass
    cap = max(0, math.floor(math.log(ANGLE_FLOOR / spec.arc_length) / math.log(spec.ratio)))
    power = 2 * GAUSS_POINTS
    A = np.zeros(n, dtype=complex)
    Ap = np.zeros(n, dtype=complex)
    err = np.zeros(n)
    abs_flat = np.abs(flat)
    # each pair is (point pt, interval iv); iv indexes the occupied midpoints
    pt = np.arange(n)
    iv = np.zeros(n, dtype=np.intp)
    mids = np.array([np.angle(spec.center)])
    width, mass = spec.arc_length, total
    for level in range(cap + 1):
        zp = flat[pt]
        absz = abs_flat[pt]
        half_d = 0.5 * np.abs(zp - np.exp(1j * mids)[iv])
        R = np.minimum(1.0, np.log1p(half_d / np.maximum(absz, 1e-300)))
        t = 0.5 * width / R
        eR = np.exp(R)
        M = np.maximum((1.0 + absz * eR) / half_d, 2.0 * eR / half_d ** 2)
        ok = t < 1.0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            bound = np.where(ok, 2.0 * mass * M * t ** power / (1.0 - t), np.inf)
        accept = (bound <= QUAD_TOL * mass / total) | (level == cap)
        p = pt[accept]
        zeta_conj = np.exp(-1j * (mids[:, None] + width * x))
        ia = iv[accept]
        u = zp[accept, None] * zeta_conj[ia]
        den = 1.0 - u
        a = ((1.0 + u) / den) @ omega * mass
        ap = ((2.0 * zeta_conj)[ia] / (den * den)) @ omega * mass
        np.add.at(A, p, a)
        np.add.at(Ap, p, ap)
        np.add.at(err, p, bound[accept])
        split = ~accept
        if not np.any(split):
            break
        # renumber the intervals some pair splits; children are mid -+ shift
        used = np.zeros(mids.size, dtype=bool)
        used[iv[split]] = True
        kept = mids[used]
        iv = (np.cumsum(used) - 1)[iv[split]]
        shift = 0.5 * (1.0 - spec.ratio) * width
        pt = np.concatenate([pt[split], pt[split]])
        iv = np.concatenate([iv, iv + kept.size])
        mids = np.concatenate([kept - shift, kept + shift])
        width *= spec.ratio
        mass *= 0.5
    worst = int(np.argmax(err))
    if err[worst] > QUAD_TOL:
        # only pairs accepted at the cap exceed their share: the last level.
        # On each of its arcs the point nearest z is at z's angle clipped to the arc
        mid = mids[iv[pt == worst]]
        angle = mid + np.clip(np.angle(flat[worst] * np.exp(-1j * mid)), -width / 2.0, width / 2.0)
        min_dist = float(np.min(np.abs(flat[worst] - np.exp(1j * angle)), initial=np.inf))
        raise QuadratureError(
            f"cantor quadrature error bound {err[worst]:.3e} exceeds {QUAD_TOL}"
            f" at z={complex(flat[worst])} (distance to support {min_dist:.3e})")
    return A, Ap, err


# ---------------------------------------------------------------------------
# Evaluation


def _atomic_sums(measure, flat):
    """A = sum m_j (1+z c_j)/(1-z c_j), c_j the conjugate atoms, and A' at a chunk of points."""
    zetas_conj = np.conj(np.array([zeta for zeta, _ in measure.atoms], dtype=complex))
    masses = np.array([m for _, m in measure.atoms], dtype=float)
    zc = flat[:, None]
    den = 1.0 - zc * zetas_conj
    return ((1.0 + zc * zetas_conj) / den) @ masses, (2.0 * zetas_conj / (den * den)) @ masses


def _eval_singular(measure, z):
    """(value, derivative, 1-|value|^2) for exp(-Herglotz integral)."""
    # one loop over chunks of points; each measure kind's integrator maps
    # (measure, chunk) -> (A, A', ...)
    integrate = _atomic_sums if measure.kind == "atomic" else _cantor_tree
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    A, Ap = np.empty((2, flat.size), dtype=complex)
    for lo in range(0, flat.size, _Z_CHUNK):
        A[lo:lo + _Z_CHUNK], Ap[lo:lo + _Z_CHUNK] = integrate(measure, flat[lo:lo + _Z_CHUNK])[:2]
    A, Ap = A.reshape(z.shape), Ap.reshape(z.shape)
    val = np.exp(-A)
    der = -Ap * val
    oms = -np.expm1(-2.0 * np.real(A))  # 1 - |val|^2 without cancellation
    return val, der, oms


def _eval_blaschke(zeros, z, one_minus_sq_z):
    """(value, derivative, 1-|value|^2) for a finite Blaschke product."""
    z = np.asarray(z, dtype=complex)
    val = np.ones(z.shape, dtype=complex)
    der = np.zeros(z.shape, dtype=complex)
    log_sq = np.zeros(z.shape, dtype=float)  # log |B|^2 via per-factor 1-|b_k|^2
    for a in zeros:
        if a == 0:
            fv, fd = z, np.ones(z.shape, dtype=complex)
            t = one_minus_sq_z
        else:
            u = abs(a) / a
            den = 1.0 - np.conj(a) * z
            fv = u * (a - z) / den
            fd = u * (abs(a) ** 2 - 1.0) / (den * den)
            t = (1.0 - abs(a) ** 2) * one_minus_sq_z / np.abs(den) ** 2
        der = der * fv + val * fd
        val = val * fv
        # t = 1 exactly at a zero of B: log 0 = -inf, which expm1 below
        # turns into the correct 1 - |B|^2 = 1
        with np.errstate(divide="ignore"):
            log_sq = log_sq + np.log1p(-np.minimum(t, 1.0))
    oms = -np.expm1(log_sq)
    return val, der, oms


def _eval_primitive(spec, z, one_minus_sq_z):
    if spec.kind == "singular":
        return _eval_singular(spec.measure, z)
    if spec.kind == "blaschke":
        return _eval_blaschke(spec.zeros, z, one_minus_sq_z)
    raise ValueError("composition is not a primitive")


def _chain_eval(spec: InnerSpec, z, one_minus_sq_z=None):
    """Evaluate a full chain: returns (value, derivative, 1-|value|^2, q, saturated).

    q is accumulated factor by factor with each stage's accurate 1-|.|^2,
    so composition multiplicativity holds to rounding.
    """
    z = np.asarray(z, dtype=complex)
    if one_minus_sq_z is None:
        one_minus_sq_z = (1.0 - np.abs(z)) * (1.0 + np.abs(z))
    w = z
    oms_w = np.broadcast_to(np.asarray(one_minus_sq_z, dtype=float), z.shape).copy()
    der_total = np.ones(z.shape, dtype=complex)
    q = np.ones(z.shape, dtype=float)
    saturated = np.zeros(z.shape, dtype=bool)
    for prim in spec.primitives():
        val, der, oms = _eval_primitive(prim, w, oms_w)
        safe = oms > SATURATION_FLOOR
        saturated |= ~safe
        q = q * np.where(safe, oms_w * np.abs(der) / np.where(safe, oms, 1.0), np.nan)
        der_total = der_total * der
        w = val
        oms_w = oms
    return w, der_total, oms_w, q, saturated


def _interior_eval(spec: InnerSpec, z):
    """_chain_eval at strictly interior point(s) z; Python scalars for a scalar z."""
    z_arr = np.asarray(z, dtype=complex)
    if np.any(np.abs(z_arr) >= 1.0):
        raise ValueError("inner functions are evaluated strictly inside the disc")
    # a scalar goes through as a one-point array: numpy scalar arithmetic
    # rounds differently from the array loops
    out = _chain_eval(spec, np.atleast_1d(z_arr))
    return tuple(a.item(0) for a in out) if z_arr.ndim == 0 else out


def inner_eval(spec: InnerSpec, z):
    """Value and derivative of the inner function at interior point(s) z.

    Accepts a scalar or an array; |z| must be < 1.
    """
    return _interior_eval(spec, z)[:2]


def hyperbolic_quotient(spec: InnerSpec, z):
    """q(z) = (1-|z|^2)|I'(z)| / (1-|I(z)|^2); NaN where boundary-saturated."""
    return _interior_eval(spec, z)[3]


@dataclass(frozen=True)
class ShrinkResult:
    spec: InnerSpec
    achieved_sup: float
    target_met: bool
    chain_length: int


def compose_shrink(spec: InnerSpec, eta: float, max_chain: int = 64) -> ShrinkResult:
    """Self-compose until the measured grid supremum of q drops below eta.

    The quotient of a composition is the product of the factor quotients,
    so each extra link multiplies the pointwise field by the base quotient
    at the pushed-forward points.  Fails explicitly for a non-contracting
    base (measured sup >= 1 - 1e-6 on the reference grid).
    """
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    # Reference grid: 128 angles on radii up to 1 - 2^-7.  Closer to the
    # boundary every singular quotient creeps back to 1 away from its
    # support mass, which would flag every base as non-contracting.
    radii = np.asarray(dyadic_radii(j_max=7, linear=16))
    pts = (radii[:, None] * np.exp(1j * circle_angles(128))[None, :]).ravel()
    w, _, oms_w, q, sat = _chain_eval(spec, pts)
    clean = ~sat & np.isfinite(q)
    if not np.any(clean):
        raise ShrinkFailure("the base quotient is boundary-saturated at every reference point")
    base_sup = float(np.max(q[clean]))
    if base_sup <= eta:
        return ShrinkResult(spec, base_sup, True, 1)
    if base_sup >= 1.0 - 1e-6:
        raise ShrinkFailure(
            f"base quotient supremum {base_sup:.8f} is not bounded away from 1")
    best_sup, best_len = base_sup, 1
    for length in range(2, max_chain + 1):
        val, der, oms, q_step, sat_step = _chain_eval(spec, w, oms_w)
        q = q * q_step
        sat |= sat_step
        w, oms_w = val, oms
        clean = ~sat & np.isfinite(q)
        if not np.any(clean):
            break
        sup = float(np.max(q[clean]))
        if sup < best_sup:
            best_sup, best_len = sup, length
        if sup < eta:
            return ShrinkResult(InnerSpec.composition([spec] * length), sup, True, length)
    return ShrinkResult(InnerSpec.composition([spec] * best_len), best_sup, False, best_len)


@dataclass(frozen=True)
class TransportReport:
    """Loewner boundary-transport deviation for J(z) = z I(z)."""

    arc_measure: float
    preimage: MeasureEstimate
    deviation: float
    stabilized_fraction: float
    inconclusive: bool


def loewner_transport_check(spec: InnerSpec, F: ArcSet, samples: int, seed: int) -> TransportReport:
    """Check m(J_b^{-1}(F)) = m(F) for the measure-preserving boundary map.

    J(z) = z I(z) fixes the origin, so Loewner's lemma makes its boundary
    map preserve normalized Lebesgue measure of preimages; the report
    carries the Monte-Carlo deviation and its Wilson interval.
    """
    zeta = sample_torus(1, samples, seed)
    z = BOUNDARY_PROBE_RADIUS * zeta
    val, _, _, _, _ = _chain_eval(spec, z)
    stabilized = np.abs(val) >= 0.999
    jb = z * val
    hits = F.contains_point(jb)
    p = float(np.mean(hits))
    frac = float(np.mean(stabilized))
    return TransportReport(
        arc_measure=F.measure,
        preimage=MeasureEstimate(p, samples),
        deviation=abs(p - F.measure),
        stabilized_fraction=frac,
        inconclusive=frac < 0.99,
    )
