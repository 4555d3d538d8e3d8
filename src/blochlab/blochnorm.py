"""Bloch, little-Bloch and weighted-Bloch norm estimation.

Norm conventions:

* disc:      |f(0)| + sup (1 - |z|^2) |f'(z)|
* ball(N):   |f(0)| + sup (1 - |z|^2) |Rf(z)|  with Rf = sum z_k df/dz_k
* polydisc:  |f(0)| + sup sum_k (1 - |z_k|^2) |df/dz_k|

Grid suprema are lower estimates.  For polynomials a Bernstein-type
oversampling correction turns the angular sup into a certified upper
bound: multiply by (1 - pi d / M)^(-1) when M > 4 d angular samples are
used for degree d.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .expressions import FunctionExpr, Polynomial1D, PolynomialND
from .numerics import NonFiniteSampleError, SampleGrid, dyadic_radii

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
    true seminorm; it is None when the input is not polynomial or the
    angular grid was too coarse for the correction factor.
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


def _poly_degree(f: FunctionExpr):
    """Degree when f is recognizably polynomial, else None."""
    p = f.as_poly1d() if f.dim == 1 else None
    if p is not None:
        return p.degree
    if f.kind == "polynd":
        return f.poly.total_degree
    return None


def _angular_count(degree, grid: SampleGrid) -> int:
    if degree is None:
        return grid.angular_count
    # power of two at least 8 (1 + degree): keeps the FFT path fast and
    # satisfies the M > 4 d requirement of the certification factor
    return int(2 ** math.ceil(math.log2(max(8 * (1 + degree), 64))))


def _certify(sup: float, degree, m: int):
    if degree is None or degree == 0:
        return sup if degree == 0 else None
    if m > 4 * degree:
        return sup / (1.0 - math.pi * degree / m)
    return None


def _disc_shell_sup(f: FunctionExpr, r: float, m: int, poly: Polynomial1D = None):
    """(sup over |z| = r of (1 - r^2)|f'|, argmax angle index)."""
    w = 1.0 - r * r
    if poly is not None:
        dv = poly.derivative().circle_values(r, max(m, poly.degree + 1))
        mag = np.abs(dv)
    else:
        theta = 2.0 * np.pi * np.arange(m) / m
        z = r * np.exp(1j * theta)
        _, grad = f.eval_with_grad(z)
        mag = np.abs(np.asarray(grad))
    if not np.all(np.isfinite(mag)):
        k = int(np.flatnonzero(~np.isfinite(mag))[0])
        bad = r * np.exp(2j * np.pi * k / mag.size)
        raise NonFiniteSampleError(bad, complex("nan"))
    k = int(np.argmax(mag))
    return w * float(mag[k]), r * np.exp(2j * np.pi * k / mag.size)


def bloch_norm(f, domain: str = "disc", grid: SampleGrid = None) -> BlochReport:
    """Estimate the Bloch norm of ``f`` on the disc, ball or polydisc.

    Returns |f(0)| plus the grid supremum of the defining seminorm;
    polynomial inputs additionally carry a certified upper bound for the
    seminorm.
    """
    f = _as_expr(f)
    if domain not in ("disc", "ball", "polydisc"):
        raise ValueError(f"unknown domain {domain!r}")
    if domain == "disc" and f.dim != 1:
        raise ValueError("disc norm needs a one-variable function")
    if grid is None:
        grid = SampleGrid(domain="disc" if f.dim == 1 else "polydisc", dim=f.dim)
    radii = grid.radii if grid.radii else dyadic_radii()
    if any(r >= 1.0 for r in radii):
        raise ValueError("grid radii must be < 1")
    degree = _poly_degree(f)
    m = _angular_count(degree, grid)

    origin = 0.0 if f.dim == 1 else np.zeros(f.dim)
    f0 = abs(complex(f.eval(origin)))

    if f.dim == 1:
        poly = f.as_poly1d()
        best, arg = 0.0, (0.0,)
        for r in radii:
            s, pt = _disc_shell_sup(f, float(r), m, poly)
            if s > best:
                best, arg = s, (pt,)
        note = f"disc grid: {len(radii)} dyadic shells x {m} angles"
        return BlochReport(domain, f0, best, _certify(best, degree, m),
                           arg, note)

    count = grid.angular_count
    rng = np.random.default_rng(grid.seed)
    best, arg = 0.0, (0.0,) * f.dim
    if domain == "ball":
        vecs = rng.normal(size=(count, 2 * f.dim)).view(complex)
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        for r in radii:
            z = float(r) * vecs
            rd = np.abs(f.radial_derivative(z))
            vals = (1.0 - float(r) ** 2) * rd
            k = int(np.argmax(vals))
            if vals[k] > best:
                best, arg = float(vals[k]), tuple(z[k])
    else:
        theta = rng.uniform(0.0, 2.0 * np.pi, size=(count, f.dim))
        vecs = np.exp(1j * theta)
        for r in radii:
            z = float(r) * vecs
            _, grads = f.eval_with_grad(z)
            vals = np.sum((1.0 - np.abs(z) ** 2) * np.abs(grads), axis=1)
            if not np.all(np.isfinite(vals)):
                k = int(np.flatnonzero(~np.isfinite(vals))[0])
                raise NonFiniteSampleError(tuple(z[k]), complex("nan"))
            k = int(np.argmax(vals))
            if vals[k] > best:
                best, arg = float(vals[k]), tuple(z[k])
    cert = None
    if domain == "polydisc" and f.kind == "polynd":
        cert = _certify(best, degree, count)
    note = f"{domain} grid: {len(radii)} shells x {count} directions, seed {grid.seed}"
    return BlochReport(domain, f0, best, cert, arg, note)


def little_bloch_profile(f, radii) -> np.ndarray:
    """Per-shell suprema of (1 - r^2)|f'| on the given increasing radii.

    Raw values; no monotonicity is enforced.  A vanishing tail is the
    numerical signature of membership in the little Bloch space.
    """
    f = _as_expr(f)
    radii = np.asarray(radii, dtype=float)
    if radii.size and (np.any(np.diff(radii) <= 0) or np.any(radii <= 0) or np.any(radii >= 1)):
        raise ValueError("radii must be strictly increasing inside (0, 1)")
    degree = _poly_degree(f)
    m = _angular_count(degree, SampleGrid(domain="disc"))
    poly = f.as_poly1d()
    out = np.empty(radii.size)
    for i, r in enumerate(radii):
        out[i] = _disc_shell_sup(f, float(r), m, poly)[0]
    return out


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


def weighted_bloch_norm(f, w: WeightSpec, grid: SampleGrid = None) -> BlochReport:
    """Weighted Bloch norm estimate.

    The disc seminorm weights by omega(1 - |z|); the polydisc seminorm
    weights coordinate k by omega(1 - |z_k|^2).  The two conventions are
    intentionally different and are both used verbatim.
    """
    f = _as_expr(f)
    if grid is None:
        grid = SampleGrid(domain="disc" if f.dim == 1 else "polydisc", dim=f.dim)
    radii = grid.radii if grid.radii else dyadic_radii()
    degree = _poly_degree(f)

    origin = 0.0 if f.dim == 1 else np.zeros(f.dim)
    f0 = abs(complex(f.eval(origin)))

    if f.dim == 1:
        m = _angular_count(degree, grid)
        poly = f.as_poly1d()
        best, arg = 0.0, (0.0,)
        for r in radii:
            wv = float(w.omega(1.0 - float(r)))
            if not (math.isfinite(wv) and wv > 0.0):
                raise WeightError(f"weight not usable at 1 - r = {1.0 - float(r)!r}")
            s, pt = _disc_shell_sup(f, float(r), m, poly)
            if s / wv > best:
                best, arg = s / wv, (pt,)
        note = f"weighted disc grid: {len(radii)} shells x {m} angles"
        return BlochReport("disc", f0, best, None, arg, note)

    rng = np.random.default_rng(grid.seed)
    vecs = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(grid.angular_count, f.dim)))
    best, arg = 0.0, (0.0,) * f.dim
    for r in radii:
        z = float(r) * vecs
        wv = w.omega(1.0 - np.abs(z) ** 2)
        if not (np.all(np.isfinite(wv)) and np.all(wv > 0.0)):
            raise WeightError("weight not usable at a needed argument")
        _, grads = f.eval_with_grad(z)
        vals = np.sum((1.0 - np.abs(z) ** 2) / wv * np.abs(grads), axis=1)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, arg = float(vals[k]), tuple(z[k])
    note = f"weighted polydisc grid: {len(radii)} shells x {grid.angular_count} directions"
    return BlochReport("polydisc", f0, best, None, arg, note)


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
