"""Greedy universal Bloch series: blocks, certificates, boundary probes.

The rescaling operators T_n^w f = f(r_n (. - w) + w) pull the boundary
circle to depth r_n around the anchor w.  A certificate quantifies one
step of convergence: the sup over a finite anchor list of the
convergence-in-measure metric between T_n^w of a partial sum and a
target, plus a good-set measure, both on the same equispaced circle
points.  Universality proper (all targets, all precisions) is not
decidable at desk scale; the candidate certifies a finite target list
and reports failures as data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .approximation import uniform_fit
from .arcs import ArcSet
from .blochnorm import bloch_norm
from .expressions import FunctionExpr, PathSpec, Polynomial1D, path_points
# indicator_measure stays imported: the benchmark tracer patches it here
from .numerics import indicator_measure, measure_metric, metric_points  # noqa: F401

__all__ = [
    "TargetEnumeration",
    "UniversalCandidate",
    "Certificate",
    "default_radii",
    "apply_Tnw",
    "certify",
    "universal_build",
    "cluster_probe",
    "lacunary_baseline",
    "certificates_csv",
]

TWO_PI = 2.0 * np.pi

#: the boundary points of every certificate and stability check
CIRCLE_POINTS = metric_points(1024)
CIRCLE_POINTS.setflags(write=False)


def default_radii(n_max: int = 20) -> tuple:
    """The dyadic approach schedule r_n = 1 - 2^-n, n = 1..n_max."""
    return tuple(1.0 - 0.5 ** np.arange(1, n_max + 1))


@dataclass(frozen=True)
class TargetEnumeration:
    """Deterministic enumeration of trigonometric polynomial targets.

    Targets are sums c e^{i k theta} with dyadic-rational coefficients,
    ordered by total complexity |k| + log2(denominator) + |numerator|.
    ``explicit`` overrides the enumeration with a fixed list of
    (target_id, callable) pairs, which is what the certified scenarios
    use.
    """

    count: int
    explicit: tuple = ()

    def __iter__(self):
        if self.explicit:
            yield from self.explicit[: self.count]
            return
        emitted = 0
        seen = set()
        level = 0
        while emitted < self.count:
            for k in range(-level, level + 1):
                for q in range(0, level - abs(k) + 1):
                    rest = level - abs(k) - q
                    for num in range(-rest, rest + 1):
                        c = Fraction(num, 2 ** q)
                        # all zero coefficients give the same target
                        key = (k, c) if c != 0 else (0, Fraction(0))
                        if key in seen:
                            continue
                        seen.add(key)
                        cf = float(c)

                        def target(zeta, k=k, cf=cf):
                            zeta = np.asarray(zeta, dtype=complex)
                            return cf * zeta ** k if k >= 0 else cf * np.conj(zeta) ** (-k)

                        yield f"trig[k={k},c={c}]", target
                        emitted += 1
                        if emitted >= self.count:
                            return
            level += 1


@dataclass(frozen=True)
class Certificate:
    """One quantified convergence step for one target."""

    target_id: str
    n: int
    radius: float
    anchors: tuple
    d_sup: float
    good_measure: float
    block_norm: float
    partial_index: int
    verified: bool

    def __post_init__(self):
        if not (0.0 <= self.d_sup <= 1.0 + 1e-12):
            raise ValueError("metric value must lie in [0, 1]")
        for v in (self.good_measure, self.block_norm):
            if not math.isfinite(v):
                raise ValueError("certificate entries must be finite")

    def to_dict(self) -> dict:
        return {
            "target_id": self.target_id,
            "n": self.n,
            "radius": self.radius,
            "anchors": [[a.real, a.imag] for a in self.anchors],
            "d_sup": self.d_sup,
            "good_measure": self.good_measure,
            "block_norm": self.block_norm,
            "partial_index": self.partial_index,
            "verified": self.verified,
        }


@dataclass(frozen=True)
class UniversalCandidate:
    """Blocks, budgets and certificates of a greedy universal candidate."""

    blocks: tuple            # Polynomial1D per step
    budgets: tuple           # the eps schedule actually consumed
    indices: tuple           # radius index n_l per certificate
    certificates: tuple
    partial_norms: tuple
    failed: tuple            # target ids that never certified


def apply_Tnw(f, n: int, w: complex, zeta, radii=None) -> np.ndarray:
    """Samples of zeta -> f(r_n (zeta - w) + w) at the circle points ``zeta``."""
    rs = default_radii() if radii is None else tuple(radii)
    if not 1 <= n <= len(rs):
        raise ValueError("radius index out of range")
    r = float(rs[n - 1])
    if not 0.0 < r < 1.0:
        raise ValueError("radius must lie in (0, 1)")
    if abs(w) >= 1.0:
        raise ValueError("anchor must be interior")
    pts = r * (zeta - w) + w
    if isinstance(f, FunctionExpr):
        return f.eval(pts)
    return np.asarray(f(pts), dtype=complex)


def certify(f, target, n: int, L, radii=None, tol: float = 0.25,
            block_norm: float = 0.0, target_id: str = "target",
            partial_index: int = -1) -> Certificate:
    """Measure sup over anchors of d(T_n^w f, target) plus a good-set measure.

    Both are quadratures on CIRCLE_POINTS.  The good set is {zeta :
    |T_n^w f(zeta) - target(zeta)| < tol for all anchors w in L}; its
    measure is the fraction of the points that lie in it.
    """
    anchors = tuple(complex(w) for w in L)
    tv = np.asarray(target(CIRCLE_POINTS), dtype=complex)
    d_sup = 0.0
    good = np.ones(CIRCLE_POINTS.shape, dtype=bool)
    for w in anchors:
        fv = apply_Tnw(f, n, w, CIRCLE_POINTS, radii=radii)
        d_sup = max(d_sup, measure_metric(fv, tv))
        good &= np.abs(fv - tv) < tol
    rs = default_radii() if radii is None else tuple(radii)
    return Certificate(target_id, n, float(rs[n - 1]), anchors, float(d_sup),
                       float(np.mean(good)), block_norm, partial_index, d_sup < tol)


def _correction_block(diff, budget: float) -> Polynomial1D:
    """Polynomial whose boundary values track ``diff`` outside small gaps.

    The best fit of degree <= 256 is used even when it misses budget / 2.
    """
    gap = min(0.2, budget / 8.0)
    F = ArcSet.from_arcs([(gap, np.pi - gap), (np.pi + gap, TWO_PI - gap)])
    return uniform_fit(F, diff, budget / 2.0, degree_cap=256).poly


def universal_build(targets: TargetEnumeration, radii, L, eps_schedule,
                    total_budget: float = 16.0) -> UniversalCandidate:
    """Greedy assembly: per target, a correction block plus a certificate.

    For each target y_l the loop finds the smallest radius index past
    stabilization at which the corrected partial sum certifies
    sup_w d(T_n^w(partial), y_l) < eps_l.  Targets that never certify
    within the radius list are recorded in ``failed``; the build
    continues (failed certificates are data, not errors).
    """
    eps_schedule = tuple(float(e) for e in eps_schedule)
    if any(e <= 0 for e in eps_schedule):
        raise ValueError("eps schedule must be positive")
    if sum(eps_schedule) >= total_budget:
        raise ValueError("eps schedule exceeds the total Bloch budget")
    radii = tuple(float(r) for r in radii)
    zeta = CIRCLE_POINTS

    blocks, budgets, indices, certs, norms, failed = [], [], [], [], [], []
    partial = Polynomial1D.zero()
    n_prev = 0
    pairs = list(targets)
    for l, (tid, target) in enumerate(pairs):
        eps_l = eps_schedule[min(l, len(eps_schedule) - 1)]
        tv = np.asarray(target(zeta), dtype=complex)

        diff_vals = tv - partial(zeta)
        if float(np.max(np.abs(diff_vals))) < 1e-13:
            block = Polynomial1D.zero()
        else:
            block = _correction_block(lambda z, t=target: np.asarray(t(z), dtype=complex)
                                      - partial(z), eps_l)
        candidate = partial + block
        bnorm = bloch_norm(block).norm

        # stabilization: T_n^w(candidate) must sit near its boundary values
        bv = candidate(zeta)
        chosen = None
        for n in range(n_prev + 1, len(radii) + 1):
            stable = all(measure_metric(apply_Tnw(candidate, n, w, zeta, radii=radii),
                                        bv) < eps_l / 4.0 for w in L)
            if not stable:
                continue
            cert = certify(candidate, target, n, L, radii=radii,
                           tol=eps_l, block_norm=bnorm, target_id=tid,
                           partial_index=l)
            if cert.verified:
                chosen = (n, cert)
                break
        if chosen is None:
            # keep the last attempt on record with its measured values
            n = len(radii)
            cert = certify(candidate, target, n, L, radii=radii,
                           tol=eps_l, block_norm=bnorm, target_id=tid,
                           partial_index=l)
            failed.append(tid)
            chosen = (n, cert)
        n, cert = chosen
        partial = candidate
        n_prev = n if cert.verified else n_prev
        blocks.append(block)
        budgets.append(eps_l)
        indices.append(n)
        certs.append(cert)
        norms.append(bloch_norm(partial).norm)
    return UniversalCandidate(tuple(blocks), tuple(budgets), tuple(indices),
                              tuple(certs), tuple(norms), tuple(failed))


@dataclass(frozen=True)
class ClusterHit:
    value: complex
    hit: bool
    distance: float
    parameter: float
    point: complex


def cluster_probe(f, path: PathSpec, values, tol: float) -> tuple:
    """For each value, whether f approaches it along the path within tol."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    pts = path_points(path)
    rs = np.asarray(path.schedule, dtype=float)
    fv = f.eval(pts) if isinstance(f, FunctionExpr) else np.asarray(f(pts), dtype=complex)
    out = []
    for v in values:
        dist = np.abs(fv - complex(v))
        k = int(np.argmin(dist))
        out.append(ClusterHit(complex(v), bool(dist[k] < tol), float(dist[k]),
                              float(rs[k]), complex(pts[k])))
    return tuple(out)


def lacunary_baseline(K: int) -> FunctionExpr:
    """Partial sum sum_{k=1..K} z^(2^k), the classical wild Bloch function."""
    if K < 1:
        raise ValueError("K must be >= 1")
    coeffs = np.zeros(2 ** K + 1, dtype=complex)
    for k in range(1, K + 1):
        coeffs[2 ** k] = 1.0
    return FunctionExpr.poly1d(Polynomial1D(coeffs))


def certificates_csv(candidate: UniversalCandidate) -> str:
    """CSV rows: target_id, n, r_n, d_sup, good_measure, block_norm."""
    lines = ["target_id,n,r_n,d_sup,good_measure,block_norm"]
    for c in candidate.certificates:
        lines.append(f"{c.target_id},{c.n},{c.radius!r},{c.d_sup!r},"
                     f"{c.good_measure!r},{c.block_norm!r}")
    return "\n".join(lines) + "\n"
