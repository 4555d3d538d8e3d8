"""Bloch, little-Bloch and weighted-Bloch norm estimation.

Norm conventions:

* disc:      |f(0)| + sup (1 - |z|^2) |f'(z)|
* ball(N):   |f(0)| + sup (1 - |z|^2) |Rf(z)|  with Rf = sum z_k df/dz_k
* polydisc:  |f(0)| + sup sum_k (1 - |z_k|^2) |df/dz_k|

Grid suprema are lower estimates.  For polynomials on the disc a
Bernstein-type oversampling correction turns the angular sup into a
certified upper bound: multiply by (1 - pi d / M)^(-1), which needs
M > 4 d angular samples for degree d; ``angular_count`` gives at least
8 (d + 1).

The polydisc norm takes two-variable polynomials only.  Both partials
are evaluated exactly on a tensor grid: every pair of radii from
``dyadic_radii(12, linear=16)`` times M x M angles, M chosen from the
largest per-axis degree by the disc rule.  No certified bound is given
there; ``certified`` is None.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .expressions import FunctionExpr, Polynomial1D, PolynomialND
from .numerics import NonFiniteSampleError, angular_count, dyadic_radii

__all__ = [
    "BlochReport",
    "WeightSpec",
    "WeightError",
    "IntegralTestResult",
    "bloch_norm",
    "little_bloch_profile",
    "profile_to_csv",
    "weighted_bloch_norm",
    "weight_integral_test",
]


class WeightError(ValueError):
    """Weight not admissible or not evaluable where needed."""


@dataclass(frozen=True)
class BlochReport:
    """Outcome of a norm estimate.

    ``certified`` upgrades ``seminorm_sup`` to an upper bound for the
    true seminorm; ``bloch_norm`` sets it for one-variable polynomials on
    the disc, and it is None otherwise.
    """

    domain: str
    value_at_zero: float
    seminorm_sup: float
    certified: object  # float or None
    argmax: tuple
    grid_note: str

    def __post_init__(self):
        for v in (self.value_at_zero, self.seminorm_sup):
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError("report entries must be finite and >= 0")
        if self.certified is not None:
            if not math.isfinite(self.certified) or self.certified < self.seminorm_sup:
                raise ValueError("certified bound must be finite and >= grid sup")

    @property
    def norm(self) -> float:
        return self.value_at_zero + self.seminorm_sup

    @property
    def certified_norm(self):
        if self.certified is None:
            return None
        return self.value_at_zero + self.certified

    def to_dict(self) -> dict:
        return {
            "domain": self.domain,
            "value_at_zero": self.value_at_zero,
            "seminorm_sup": self.seminorm_sup,
            "certified": self.certified,
            "norm": self.norm,
            "argmax": [[float(np.real(a)), float(np.imag(a))] for a in self.argmax],
            "grid_note": self.grid_note,
        }


def _as_expr(f) -> FunctionExpr:
    if isinstance(f, FunctionExpr):
        return f
    if isinstance(f, Polynomial1D):
        return FunctionExpr.poly1d(f)
    if isinstance(f, PolynomialND):
        return FunctionExpr.polynd(f)
    raise TypeError(f"cannot interpret {type(f).__name__} as a function expression")


#: angles per shell (directions per sphere on the ball) for non-polynomial input
_ANGULAR_COUNT = 512


def _angular_count(degree) -> int:
    return _ANGULAR_COUNT if degree is None else angular_count(degree)


def _certify(sup: float, degree, m: int):
    if degree is None:
        return None
    return sup / (1.0 - math.pi * degree / m)


#: relative slack on a shell bound, far above its rounding and the FFT's
_BOUND_GUARD = 1.0 + 1e-9


def _disc_shells(f: FunctionExpr, radii, stop_early: bool = False):
    """Per-shell sup of (1 - r^2)|f'| over |z| = r on the disc, for each r in radii.

    Returns (sups, argmax points, degree, m): ``degree`` is f's degree
    when f is recognizably a one-variable polynomial (else None) and m the
    angles per shell.  A polynomial's derivative is taken once and
    evaluated on each shell by FFT; other input is differentiated
    pointwise.  The first shell with a non-finite sample raises.

    With ``stop_early`` a polynomial's shells are visited in decreasing
    order of b(r) = (1 - r^2) sum k |a_k| r^(k-1), which bounds every
    sample of the shell, and the scan stops once b is 0 or below the
    largest sample so far: no skipped shell can reach or tie it.  Only
    the visited shells are returned, in radius order, so their first
    maximum is the full scan's.
    """
    poly = f.as_poly1d() if f.dim == 1 else None
    degree = None if poly is None else poly.degree
    m = _angular_count(degree)
    dpoly = None if poly is None else poly.derivative()
    theta = 2.0 * np.pi * np.arange(m) / m
    radii = np.asarray(radii, dtype=float)
    order, bound = range(radii.size), None
    if stop_early and dpoly is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            bound = (1.0 - radii * radii) * Polynomial1D(np.abs(dpoly.coeffs))(radii).real * _BOUND_GUARD
        if np.all(np.isfinite(bound)):
            order = np.argsort(-bound, kind="stable")
        else:  # non-finite coefficients: scan in radius order, raise at the first bad shell
            bound = None
    shells, best = {}, 0.0
    for i in order:
        if bound is not None and (bound[i] < best or bound[i] == 0.0):
            break
        r = float(radii[i])
        if dpoly is not None:
            mag = np.abs(dpoly.circle_values(r, m))
        else:
            _, grad = f.eval_with_grad(r * np.exp(1j * theta))
            mag = np.abs(np.asarray(grad))
        if not np.all(np.isfinite(mag)):
            k = int(np.flatnonzero(~np.isfinite(mag))[0])
            raise NonFiniteSampleError(r * np.exp(2j * np.pi * k / m), complex("nan"))
        k = int(np.argmax(mag))
        shells[i] = ((1.0 - r * r) * float(mag[k]), r * np.exp(2j * np.pi * k / m))
        best = max(best, shells[i][0])
    visited = sorted(shells)
    return [shells[i][0] for i in visited], [shells[i][1] for i in visited], degree, m


def _first_max(values, points):
    """(largest value, (its first argmax point,)), or (0.0, (0.0,)) when none is positive."""
    best = max(values, default=0.0)
    return (best, (points[values.index(best)],)) if best > 0.0 else (0.0, (0.0,))


def _polydisc_sup(f: FunctionExpr, weight):
    """Tensor-grid sup of weight(|z_1|)|d_1 f| + weight(|z_2|)|d_2 f|.

    f must be a two-variable polynomial with coefficient matrix C.  On
    the circles of radii (r_1, r_2) a partial with coefficient matrix D
    takes the values V(r_1) D V(r_2)^T, V(r) the Vandermonde matrix of m
    equispaced points of |z| = r.  Returns (|f(0)|, sup, argmax, note).
    """
    if f.kind != "polynd" or f.dim != 2:
        raise ValueError("polydisc norm needs a two-variable polynomial")
    c = f.poly.coefficient_array()
    n1, n2 = c.shape
    d1 = c[1:] * np.arange(1, n1)[:, None]
    d2 = c[:, 1:] * np.arange(1, n2)
    radii = dyadic_radii(12, linear=16)
    m = _angular_count(max(n1, n2) - 1)
    unit = np.exp(2j * np.pi * np.outer(np.arange(m), np.arange(max(n1, n2))) / m)

    def vander(r, n):
        return unit[:, :n] * r ** np.arange(n)

    weights = [float(weight(r)) for r in radii]
    right = [(vander(r, n2).T, vander(r, n2 - 1).T) for r in radii]
    best, arg = 0.0, (0.0, 0.0)
    for r1, w1 in zip(radii, weights):
        left1, left2 = vander(r1, n1 - 1) @ d1, vander(r1, n1) @ d2
        for r2, w2, (v1, v2) in zip(radii, weights, right):
            vals = w1 * np.abs(left1 @ v1) + w2 * np.abs(left2 @ v2)
            k = int(np.argmax(vals))
            if vals.flat[k] > best:
                best = float(vals.flat[k])
                arg = (r1 * np.exp(2j * np.pi * (k // m) / m), r2 * np.exp(2j * np.pi * (k % m) / m))
    note = f"polydisc grid: {len(radii)}^2 radius pairs x {m}^2 angles"
    return float(abs(c[0, 0])), best, arg, note


def bloch_norm(f, domain: str = "disc") -> BlochReport:
    """Estimate the Bloch norm of ``f`` on the disc, ball or polydisc.

    Returns |f(0)| plus the grid supremum of the defining seminorm;
    polynomial inputs on the disc additionally carry a certified upper
    bound for the seminorm.  The polydisc takes two-variable polynomials
    only (``ValueError`` otherwise) and carries no certified bound.
    """
    f = _as_expr(f)
    if domain not in ("disc", "ball", "polydisc"):
        raise ValueError(f"unknown domain {domain!r}")
    if domain == "disc" and f.dim != 1:
        raise ValueError("disc norm needs a one-variable function")
    if domain == "polydisc":
        f0, best, arg, note = _polydisc_sup(f, lambda r: 1.0 - r * r)
        return BlochReport(domain, f0, best, None, arg, note)
    radii = dyadic_radii()

    origin = 0.0 if f.dim == 1 else np.zeros(f.dim)
    f0 = abs(complex(f.eval(origin)))

    if f.dim == 1:
        sups, points, degree, m = _disc_shells(f, radii, stop_early=True)
        best, arg = _first_max(sups, points)
        note = f"disc grid: {len(radii)} dyadic shells x {m} angles"
        return BlochReport(domain, f0, best, _certify(best, degree, m),
                           arg, note)

    rng = np.random.default_rng(0)
    best, arg = 0.0, (0.0,) * f.dim
    vecs = rng.normal(size=(_ANGULAR_COUNT, 2 * f.dim)).view(complex)
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    for r in radii:
        z = float(r) * vecs
        rd = np.abs(f.radial_derivative(z))
        vals = (1.0 - float(r) ** 2) * rd
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, arg = float(vals[k]), tuple(z[k])
    note = f"{domain} grid: {len(radii)} shells x {_ANGULAR_COUNT} directions, seed 0"
    return BlochReport(domain, f0, best, None, arg, note)


def little_bloch_profile(f, radii) -> np.ndarray:
    """Per-shell suprema of (1 - r^2)|f'| on the given increasing radii.

    Raw values; no monotonicity is enforced.  A vanishing tail is the
    numerical signature of membership in the little Bloch space.
    """
    f = _as_expr(f)
    radii = np.asarray(radii, dtype=float)
    if radii.size and (np.any(np.diff(radii) <= 0) or np.any(radii <= 0) or np.any(radii >= 1)):
        raise ValueError("radii must be strictly increasing inside (0, 1)")
    return np.array(_disc_shells(f, radii)[0], dtype=float)


def profile_to_csv(radii, values, path) -> None:
    """Write a little-Bloch decay curve as CSV with columns r, shell_sup."""
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if radii.shape != values.shape:
        raise ValueError("radii and values must align")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "shell_sup"])
        for r, v in zip(radii, values):
            writer.writerow([repr(float(r)), repr(float(v))])


_PROBE_COUNT = 1000


@dataclass(frozen=True)
class WeightSpec:
    """Admissible weight omega on (0, 1).

    kind ``power`` is omega(t) = t^p, kind ``log-power`` is
    omega(t) = log(e/t)^(-p), kind ``custom-table`` interpolates the
    given (t, omega) table linearly.  Admissibility (non-decreasing,
    vanishing toward 0) is checked on a 1000-point probe.
    """

    kind: str
    parameter: float = 1.0
    table: tuple = ()

    def __post_init__(self):
        if self.kind not in ("power", "log-power", "custom-table"):
            raise WeightError(f"unknown weight kind {self.kind!r}")
        if self.kind in ("power", "log-power") and self.parameter <= 0.0:
            raise WeightError("weight exponent must be > 0")
        if self.kind == "custom-table":
            tab = np.asarray(self.table, dtype=float)
            if tab.ndim != 2 or tab.shape[0] != 2 or tab.shape[1] < 2:
                raise WeightError("custom table must be (t_values, omega_values)")
            if np.any(np.diff(tab[0]) <= 0):
                raise WeightError("custom table abscissae must increase")
            object.__setattr__(self, "table", tuple(map(tuple, tab)))
        probe = np.geomspace(1e-10, 1.0 - 1e-10, _PROBE_COUNT)
        w = self.omega(probe)
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise WeightError("weight must be finite and positive on (0, 1)")
        if np.any(np.diff(w) < -1e-12 * np.max(w)):
            raise WeightError("weight must be non-decreasing")
        if not w[0] < 0.9 * w[-1]:
            raise WeightError("weight must decay toward t = 0 on the probe")

    def omega(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "power":
            return t ** self.parameter
        if self.kind == "log-power":
            return np.log(np.e / t) ** (-self.parameter)
        ts, ws = (np.asarray(v, dtype=float) for v in self.table)
        return np.interp(t, ts, ws)


def weighted_bloch_norm(f, w: WeightSpec) -> BlochReport:
    """Weighted Bloch norm estimate.

    The disc seminorm weights by omega(1 - |z|); the polydisc seminorm
    weights coordinate k by omega(1 - |z_k|^2).  The two conventions are
    intentionally different and are both used verbatim.  The polydisc
    uses the tensor grid of ``bloch_norm`` and takes two-variable
    polynomials only.
    """
    f = _as_expr(f)
    if f.dim != 1:
        def weight(r):
            wv = float(w.omega(1.0 - r * r))
            if not (math.isfinite(wv) and wv > 0.0):
                raise WeightError(f"weight not usable at 1 - r^2 = {1.0 - r * r!r}")
            return (1.0 - r * r) / wv

        f0, best, arg, note = _polydisc_sup(f, weight)
        return BlochReport("polydisc", f0, best, None, arg, "weighted " + note)
    radii = dyadic_radii()
    f0 = abs(complex(f.eval(0.0)))
    weights = []
    for r in radii:
        wv = float(w.omega(1.0 - float(r)))
        if not (math.isfinite(wv) and wv > 0.0):
            raise WeightError(f"weight not usable at 1 - r = {1.0 - float(r)!r}")
        weights.append(wv)
    sups, points, _, m = _disc_shells(f, radii)
    best, arg = _first_max([s / wv for s, wv in zip(sups, weights)], points)
    note = f"weighted disc grid: {len(radii)} shells x {m} angles"
    return BlochReport("disc", f0, best, None, arg, note)


@dataclass(frozen=True)
class IntegralTestResult:
    verdict: str
    partials: tuple
    cutoffs: tuple

    def to_dict(self) -> dict:
        return {"verdict": self.verdict,
                "partials": list(self.partials),
                "cutoffs": list(self.cutoffs)}


def weight_integral_test(w: WeightSpec, x: float, tolerance: float = 2e-3) -> IntegralTestResult:
    """Probe divergence of the integral of omega(t)^2 / t near t = 0.

    Partial integrals run from a shrinking cutoff x 2^-j (j <= 40) up to
    x.  Verdict ``diverges`` when every one of the last five dyadic
    steps adds at least ``tolerance``; ``converges`` when those steps
    each add less than ``tolerance`` (Cauchy stabilization); otherwise
    ``inconclusive``.
    """
    if not 0.0 < x < 1.0:
        raise ValueError("x must lie in (0, 1)")
    if tolerance <= 0.0:
        raise ValueError("tolerance must be > 0")
    partials = []
    cutoffs = []
    total = 0.0
    upper = x
    for j in range(1, 41):
        lower = x * 0.5 ** j
        # substitute t = e^s: the segment integral is of omega(e^s)^2 ds
        s = np.linspace(math.log(lower), math.log(upper), 129)
        total += float(np.trapezoid(w.omega(np.exp(s)) ** 2, s))
        partials.append(total)
        cutoffs.append(lower)
        upper = lower
    steps = np.diff(np.asarray(partials[-6:]))
    if np.all(steps >= tolerance):
        verdict = "diverges"
    elif np.all(np.abs(steps) < tolerance):
        verdict = "converges"
    else:
        verdict = "inconclusive"
    return IntegralTestResult(verdict, tuple(partials), tuple(cutoffs))
