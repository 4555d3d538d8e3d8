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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from blochlab.arcs import ArcSet
from blochlab.numerics import dyadic_radii, circle_angles, sample_torus, MeasureEstimate

#: absolute tolerance on the certified Cantor quadrature error.
QUAD_TOL = 1e-8

#: points K of the Cantor measure's own Gauss rule on each interval.
GAUSS_POINTS = 4

#: 1 - |I(z)|^2 below this is treated as boundary-saturated.
SATURATION_FLOOR = 1e-14

#: radius used to read off boundary values of inner functions.
BOUNDARY_PROBE_RADIUS = 1.0 - 2.0 ** -26

_Z_CHUNK = 4096


class QuadratureError(ArithmeticError):
    """Certified quadrature error bound exceeded the tolerance."""


class ShrinkFailure(RuntimeError):
    """Composition iteration cannot reduce the quotient supremum."""


@dataclass(frozen=True)
class SingularMeasureSpec:
    """A positive singular measure on the circle.

    kind ``atomic``: point masses ``atoms`` = ((zeta, mass), ...).
    kind ``cantor``: self-similar measure of total mass ``mass`` on the
    arc of length ``arc_length`` centered at ``center``; each interval
    splits into two end pieces of relative width ``ratio`` carrying half
    the mass; ``depth`` caps the quadrature recursion.
    """

    kind: str
    atoms: tuple = ()
    center: complex = 1.0 + 0.0j
    arc_length: float = np.pi / 2
    ratio: float = 1.0 / 3.0
    depth: int = 16
    mass: float = 1.0

    def __post_init__(self):
        if self.kind == "atomic":
            if not self.atoms:
                raise ValueError("atomic measure needs at least one atom")
            for zeta, m in self.atoms:
                if m <= 0:
                    raise ValueError("atom masses must be positive")
                if abs(abs(zeta) - 1.0) > 1e-12:
                    raise ValueError("atom support must lie on the circle")
        elif self.kind == "cantor":
            if not 0.0 < self.ratio < 0.5:
                raise ValueError("cantor ratio must lie in (0, 1/2)")
            if self.mass <= 0:
                raise ValueError("total mass must be positive")
            if abs(abs(self.center) - 1.0) > 1e-12:
                raise ValueError("cantor center must lie on the circle")
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


def _herglotz_sums(z, zetas_conj, masses):
    """H(z) = sum m_j (1+z c_j)/(1-z c_j) and its z-derivative, chunked in z."""
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    A = np.empty(flat.shape, dtype=complex)
    Ap = np.empty(flat.shape, dtype=complex)
    for lo in range(0, flat.size, _Z_CHUNK):
        zc = flat[lo:lo + _Z_CHUNK, None]
        den = 1.0 - zc * zetas_conj[None, :]
        A[lo:lo + _Z_CHUNK] = ((1.0 + zc * zetas_conj) / den) @ masses
        Ap[lo:lo + _Z_CHUNK] = (2.0 * zetas_conj / (den * den)) @ masses
    return A.reshape(z.shape), Ap.reshape(z.shape)


def _cantor_integrals(spec, z):
    """Herglotz integrals A, A' over a Cantor measure, certified error <= QUAD_TOL.

    One level-synchronous traversal of the Cantor tree: the frontier holds
    (point, interval) pairs, starting with the whole arc for every point.
    Each pair is integrated by the measure's own Gauss rule, mapped to the
    interval (nodes mid + w x_i, weights m omega_i; by self-similarity the
    reference rule serves every interval).  A pair is accepted when its
    truncation bound is at most its mass share QUAD_TOL m / total, or at
    the depth cap spec.depth + 4; otherwise its two children join the next
    frontier.  A point whose summed bound exceeds QUAD_TOL raises
    QuadratureError.

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
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    A = np.empty(flat.shape, dtype=complex)
    Ap = np.empty(flat.shape, dtype=complex)
    for lo in range(0, flat.size, _Z_CHUNK):
        A[lo:lo + _Z_CHUNK], Ap[lo:lo + _Z_CHUNK], _ = _cantor_tree(spec, flat[lo:lo + _Z_CHUNK])
    return A.reshape(z.shape), Ap.reshape(z.shape)


def _cantor_tree(spec, flat):
    """The tree traversal of _cantor_integrals for one chunk of points.

    Returns A, A' and each point's certified truncation bound.
    """
    n = flat.size
    x, omega = cantor_gauss_rule(spec.ratio)
    total = spec.total_mass
    cap = spec.depth + 4
    power = 2 * GAUSS_POINTS
    A = np.zeros(n, dtype=complex)
    Ap = np.zeros(n, dtype=complex)
    err = np.zeros(n)
    pt = np.arange(n)
    mid = np.full(n, np.angle(spec.center))
    width, mass = spec.arc_length, total
    for depth in range(cap + 1):
        zp = flat[pt]
        absz = np.abs(zp)
        half_d = 0.5 * np.abs(zp - np.exp(1j * mid))
        R = np.minimum(1.0, np.log1p(half_d / np.maximum(absz, 1e-300)))
        t = 0.5 * width / R
        eR = np.exp(R)
        M = np.maximum((1.0 + absz * eR) / half_d, 2.0 * eR / half_d ** 2)
        bound = np.full(pt.shape, np.inf)
        ok = t < 1.0
        bound[ok] = 2.0 * mass * M[ok] * t[ok] ** power / (1.0 - t[ok])
        accept = bound <= QUAD_TOL * mass / total
        if depth == cap:
            accept[:] = True
        p = pt[accept]
        zeta_conj = np.exp(-1j * (mid[accept, None] + width * x))
        u = zp[accept, None] * zeta_conj
        den = 1.0 - u
        a = ((1.0 + u) / den) @ omega * mass
        ap = (2.0 * zeta_conj / (den * den)) @ omega * mass
        np.add.at(A, p, a)
        np.add.at(Ap, p, ap)
        np.add.at(err, p, bound[accept])
        split = ~accept
        if not np.any(split):
            break
        shift = 0.5 * (1.0 - spec.ratio) * width
        pt = np.concatenate([pt[split], pt[split]])
        mid = np.concatenate([mid[split] - shift, mid[split] + shift])
        width *= spec.ratio
        mass *= 0.5
    worst = int(np.argmax(err))
    if err[worst] > QUAD_TOL:
        # only pairs accepted at the cap exceed their share: the last level
        min_dist = float(np.min(2.0 * half_d[pt == worst], initial=np.inf)) - width / 2.0
        raise QuadratureError(
            f"cantor quadrature error bound {err[worst]:.3e} exceeds {QUAD_TOL}"
            f" at z={complex(flat[worst])} (distance to support {min_dist:.3e});"
            " raise the depth cap")
    return A, Ap, err


# ---------------------------------------------------------------------------
# Evaluation


def _eval_singular(measure, z):
    """(value, derivative, 1-|value|^2) for exp(-Herglotz integral)."""
    if measure.kind == "atomic":
        zetas = np.array([zeta for zeta, _ in measure.atoms], dtype=complex)
        masses = np.array([m for _, m in measure.atoms], dtype=float)
        A, Ap = _herglotz_sums(z, np.conj(zetas), masses)
    else:
        A, Ap = _cantor_integrals(measure, z)
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


def inner_eval(spec: InnerSpec, z):
    """Value and derivative of the inner function at interior point(s) z.

    Accepts a scalar or an array; |z| must be < 1.
    """
    z_arr = np.asarray(z, dtype=complex)
    if np.any(np.abs(z_arr) >= 1.0):
        raise ValueError("inner functions are evaluated strictly inside the disc")
    val, der, _, _, _ = _chain_eval(spec, z_arr)
    if np.isscalar(z) or np.ndim(z) == 0:
        return complex(val), complex(der)
    return val, der


def hyperbolic_quotient(spec: InnerSpec, z):
    """q(z) = (1-|z|^2)|I'(z)| / (1-|I(z)|^2); NaN where boundary-saturated."""
    z_arr = np.asarray(z, dtype=complex)
    if np.any(np.abs(z_arr) >= 1.0):
        raise ValueError("interior points required")
    _, _, _, q, _ = _chain_eval(spec, z_arr)
    if np.isscalar(z) or np.ndim(z) == 0:
        return float(q)
    return q


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
    one_minus = (1.0 - np.abs(pts)) * (1.0 + np.abs(pts))
    w, _, oms_w, q, sat = _chain_eval(spec, pts, one_minus)
    clean = ~sat & np.isfinite(q)
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
