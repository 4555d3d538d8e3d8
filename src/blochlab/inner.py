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

from dataclasses import dataclass

import numpy as np

from blochlab.arcs import ArcSet
from blochlab.numerics import Z95, dyadic_radii, circle_angles, sample_torus, MeasureEstimate

#: absolute tolerance on the certified Cantor quadrature error.
QUAD_TOL = 1e-8

#: 1 - |I(z)|^2 below this is treated as boundary-saturated.
SATURATION_FLOOR = 1e-14

#: radius used to read off boundary values of inner functions.
BOUNDARY_PROBE_RADIUS = 1.0 - 2.0 ** -26

_Z_CHUNK = 4096


class QuadratureError(ArithmeticError):
    """Certified quadrature error bound exceeded the tolerance."""

    def __init__(self, message, min_distance=None):
        self.min_distance = min_distance
        super().__init__(message)


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
# Cantor measure support and certified quadrature


_cantor_cache: dict = {}


def cantor_nodes(spec: SingularMeasureSpec, depth: int):
    """Midpoint angles, interval width and per-node mass at the given depth."""
    key = (complex(spec.center), spec.arc_length, spec.ratio, depth)
    if key not in _cantor_cache:
        offs = np.zeros(1)
        width = spec.arc_length
        for _ in range(depth):
            offs = np.concatenate([offs, offs + width * (1.0 - spec.ratio)])
            width *= spec.ratio
        start = np.angle(spec.center) - spec.arc_length / 2.0
        mids = start + offs + width / 2.0
        _cantor_cache[key] = (np.sort(mids), width)
    mids, width = _cantor_cache[key]
    return mids, width, spec.mass / mids.size


def _kernel_bound(dist, width, mass):
    # second angular derivative of the Herglotz/derivative kernels, crude sup
    d = np.maximum(dist, 1e-300)
    m2 = 2.0 / d**2 + 8.0 / d**3 + 12.0 / d**4
    return mass * width * width / 24.0 * m2


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


def _cantor_adaptive_point(spec, z):
    """Certified Herglotz integrals for one point near the Cantor support."""
    base = min(spec.depth, 12)
    mids, width, mass = cantor_nodes(spec, base)
    starts = mids - width / 2.0
    widths = np.full(mids.shape, width)
    masses = np.full(mids.shape, mass)
    depths = np.full(mids.shape, base, dtype=int)
    max_depth = spec.depth + 4
    A = 0.0 + 0.0j
    Ap = 0.0 + 0.0j
    err = 0.0
    total = spec.total_mass
    min_dist = np.inf
    for _ in range(max_depth - base + 2):
        mid = starts + widths / 2.0
        zeta = np.exp(1j * mid)
        dist = np.maximum(np.abs(z - zeta) - widths, 1e-300)
        min_dist = min(min_dist, float(dist.min()))
        bound = _kernel_bound(dist, widths, masses)
        keep = (bound <= QUAD_TOL * masses / total) | (depths >= max_depth)
        zc = np.conj(zeta[keep])
        den = 1.0 - z * zc
        A += np.sum(masses[keep] * (1.0 + z * zc) / den)
        Ap += np.sum(masses[keep] * 2.0 * zc / (den * den))
        err += float(np.sum(bound[keep]))
        split = ~keep
        if not np.any(split):
            break
        s, w, m, d = starts[split], widths[split], masses[split], depths[split]
        starts = np.concatenate([s, s + w * (1.0 - spec.ratio)])
        widths = np.concatenate([w * spec.ratio, w * spec.ratio])
        masses = np.concatenate([m / 2.0, m / 2.0])
        depths = np.concatenate([d + 1, d + 1])
    else:
        raise QuadratureError(
            f"cantor quadrature error bound {err:.3e} exceeds {QUAD_TOL} at z={z}"
            f" (distance to support {min_dist:.3e}); raise the depth cap",
            min_distance=min_dist,
        )
    if err > QUAD_TOL:
        raise QuadratureError(
            f"cantor quadrature error bound {err:.3e} exceeds {QUAD_TOL} at z={z}"
            f" (distance to support {min_dist:.3e}); raise the depth cap",
            min_distance=min_dist,
        )
    return A, Ap


def _cantor_integrals(spec, z):
    """Herglotz integrals over a Cantor measure with certified error <= QUAD_TOL."""
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    base = min(spec.depth, 12)
    mids, width, mass = cantor_nodes(spec, base)
    zetas_conj = np.exp(-1j * mids)
    masses = np.full(mids.shape, mass)
    A, Ap = _herglotz_sums(flat, zetas_conj, masses)
    # per-point uniform-depth error bound; refine outliers individually
    bad = np.zeros(flat.shape, dtype=bool)
    for lo in range(0, flat.size, _Z_CHUNK):
        zc = flat[lo:lo + _Z_CHUNK, None]
        dist = np.maximum(np.abs(zc - np.exp(1j * mids)[None, :]) - width, 1e-300)
        bad[lo:lo + _Z_CHUNK] = np.sum(_kernel_bound(dist, width, masses[None, :]), axis=1) > QUAD_TOL
    for i in np.flatnonzero(bad):
        A[i], Ap[i] = _cantor_adaptive_point(spec, complex(flat[i]))
    return A.reshape(z.shape), Ap.reshape(z.shape)


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


def disc_grid_points(radii, angular_count: int) -> np.ndarray:
    ang = circle_angles(angular_count)
    r = np.asarray(radii, dtype=float)
    return (r[:, None] * np.exp(1j * ang)[None, :]).ravel()


@dataclass(frozen=True)
class ShrinkResult:
    spec: InnerSpec
    achieved_sup: float
    target_met: bool
    chain_length: int


def compose_shrink(spec: InnerSpec, eta: float, max_chain: int = 64,
                   radii=None, angular_count: int = 128) -> ShrinkResult:
    """Self-compose until the measured grid supremum of q drops below eta.

    The quotient of a composition is the product of the factor quotients,
    so each extra link multiplies the pointwise field by the base quotient
    at the pushed-forward points.  Fails explicitly for a non-contracting
    base (measured sup >= 1 - 1e-6 on the reference grid).
    """
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    if radii is None:
        # Reference grid stops at 1 - 2^-8: closer to the boundary every
        # singular quotient creeps back to 1 away from its support mass,
        # which would flag every base as non-contracting.
        radii = dyadic_radii(j_max=7, linear=16)
    pts = disc_grid_points(radii, angular_count)
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


def boundary_map(spec: InnerSpec, zeta, radius: float = BOUNDARY_PROBE_RADIUS):
    """Approximate boundary values of J(z) = z I(z) via a radial probe."""
    z = radius * np.asarray(zeta, dtype=complex)
    val, _, _, _, _ = _chain_eval(spec, z)
    return z * val


def loewner_transport_check(spec: InnerSpec, F: ArcSet, samples: int, seed: int) -> TransportReport:
    """Check m(J_b^{-1}(F)) = m(F) for the measure-preserving boundary map.

    J(z) = z I(z) fixes the origin, so Loewner's lemma makes its boundary
    map preserve normalized Lebesgue measure of preimages; the report
    carries the Monte-Carlo deviation and confidence half-width.
    """
    zeta = sample_torus(1, samples, seed)
    z = BOUNDARY_PROBE_RADIUS * zeta
    val, _, _, _, _ = _chain_eval(spec, z)
    stabilized = np.abs(val) >= 0.999
    jb = z * val
    hits = F.contains_point(jb)
    p = float(np.mean(hits))
    hw = Z95 * float(np.sqrt(max(p * (1.0 - p), 0.0) / samples))
    est = MeasureEstimate(p, min(hw, p, 1.0 - p) if 0.0 < p < 1.0 else 0.0, samples)
    frac = float(np.mean(stabilized))
    return TransportReport(
        arc_measure=F.measure,
        preimage=est,
        deviation=abs(p - F.measure),
        stabilized_fraction=frac,
        inconclusive=frac < 0.99,
    )
