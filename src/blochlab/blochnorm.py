"""Bloch, little-Bloch and weighted-Bloch norm estimation.

Every norm takes the function itself, a polynomial (one class,
``PolynomialND``, for any number of variables) or an ``InnerSpec``.  On
the disc a polynomial is scanned by FFT and an ``InnerSpec`` pointwise.
A polynomial of two variables on the polydisc or the ball B_2 is
evaluated exactly on M x M angles for each of a list of radius pairs, M
chosen from the largest per-axis degree by the disc rule: both partials
on every pair of radii from ``dyadic_radii(12, linear=16)``, or Rf on
the pairs (r cos t, r sin t) of the ball, t = 2 pi k / M (k <= M/4).

Norm conventions:

* disc:      |f(0)| + sup (1 - |z|^2) |f'(z)|
* ball(N):   |f(0)| + sup (1 - |z|^2) |Rf(z)|  with Rf = sum z_k df/dz_k
* polydisc:  |f(0)| + sup sum_k (1 - |z_k|^2) |df/dz_k|

Grid suprema are lower estimates; only the disc certifies one.  For
polynomials on the disc a Bernstein-type oversampling correction turns
the angular sup into a certified upper bound: multiply by
(1 - pi d / M)^(-1), which needs M > 4 d angular samples for degree d;
``angular_count`` gives at least 8 (d + 1).
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .expressions import PolynomialND
from .inner import InnerSpec, inner_eval
from .numerics import NonFiniteSampleError, angular_count, dyadic_radii

__all__ = [
    "BlochReport",
    "WeightSpec",
    "WeightError",
    "IntegralTestResult",
    "bloch_norm",
    "little_bloch_profile",
    "profile_to_csv",
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


def _dim(f) -> int:
    """The number of variables of a polynomial or inner function."""
    if isinstance(f, PolynomialND):
        return f.dim
    if isinstance(f, InnerSpec):
        return 1
    raise TypeError(f"cannot interpret {type(f).__name__} as a Bloch function")


#: angles per shell for an InnerSpec
_ANGULAR_COUNT = 512


def _certify(sup: float, degree, m: int):
    if degree is None:
        return None
    return sup / (1.0 - math.pi * degree / m)


#: relative slack on a shell bound, far above its rounding and the FFT's
_BOUND_GUARD = 1.0 + 1e-9


def _bound_ordered(sample, count: int, bound, origin: tuple):
    """(sup, first argmax in index order, visited items) of a scan of the items i < count.

    ``sample(i)`` returns the item's largest sample and its point.  Items
    are visited in decreasing order of ``bound`` (ties in index order)
    and the scan stops once the bound is 0 or below the largest sample so
    far: no skipped item can reach or tie it, so the first maximum in
    index order among the visited items is the full scan's.  Without a
    bound, or with a non-finite one, every item is visited in index
    order.  The argmax is ``origin`` when no sample is positive; the
    visited items come back as {i: sample(i)}, keys sorted.
    """
    if bound is not None and np.all(np.isfinite(bound)):
        order = np.argsort(-bound, kind="stable")
    else:
        order, bound = range(count), None
    visited, best = {}, 0.0
    for i in map(int, order):
        if bound is not None and (bound[i] < best or bound[i] == 0.0):
            break
        visited[i] = sample(i)
        best = max(best, visited[i][0])
    visited = dict(sorted(visited.items()))
    arg = next((z for v, z in visited.values() if v == best), origin) if best > 0.0 else origin
    return best, arg, visited


def _disc_shells(f, radii, omega=None):
    """Sampler of (1 - r^2)|f'| / omega on the disc's shells |z| = r, r in radii.

    Returns (shell, bound, degree, m): shell(i) is the sup over m angles
    of shell i and its point (a 1-tuple), ``degree`` f's degree when f is
    a polynomial (else None).  ``omega``, one positive value per radius,
    defaults to 1.  A polynomial's derivative is taken once and
    evaluated on each shell by FFT; ``bound`` then holds
    b(r) = (1 - r^2) sum k |a_k| r^(k-1) / omega, which bounds every
    sample of its shell.  An ``InnerSpec`` is differentiated pointwise
    and has no bound (None).  A shell with a non-finite sample raises.
    """
    degree = f.degree if isinstance(f, PolynomialND) else None
    m = _ANGULAR_COUNT if degree is None else angular_count(degree)
    dpoly = None if degree is None else f.partial(0)
    theta = 2.0 * np.pi * np.arange(m) / m
    sign = 1.0 if dpoly is None else -1.0  # the FFT walks the circle clockwise
    radii = np.asarray(radii, dtype=float)
    bound = None
    if dpoly is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            bound = (1.0 - radii * radii) * PolynomialND(np.abs(dpoly.coeffs))(radii).real * _BOUND_GUARD
            bound = bound if omega is None else bound / np.asarray(omega)

    def shell(i):
        r = float(radii[i])
        if dpoly is not None:
            mag = np.abs(dpoly.circle_values(r, m))
        else:
            mag = np.abs(inner_eval(f, r * np.exp(1j * theta))[1])
        if not np.all(np.isfinite(mag)):
            k = int(np.flatnonzero(~np.isfinite(mag))[0])
            raise NonFiniteSampleError(r * np.exp(sign * 2j * np.pi * k / m), complex("nan"))
        k = int(np.argmax(mag))
        value = (1.0 - r * r) * float(mag[k])
        return value if omega is None else value / omega[i], (r * np.exp(sign * 2j * np.pi * k / m),)

    return shell, bound, degree, m


def _tensor_sup(pairs, terms, m: int):
    """Bound-ordered sup over radius pairs of sum_t w_t |V(r_1) D_t V(r_2)^T|.

    ``pairs`` is a (P, 2) array of radius pairs and ``terms`` a list of
    (D, w): a coefficient matrix and its weight at each pair.  On the
    circles of radii (r_1, r_2), D takes the values V(r_1) D V(r_2)^T,
    V(r) the Vandermonde matrix of m equispaced points of |z| = r; the
    factors of a radius that recurs on its side are computed once.
    Returns ``_bound_ordered``'s (sup, argmax, visited pairs) under the
    bound b = sum_t w_t sum |D_t|_jk r_1^j r_2^k on a pair's samples; the
    first non-finite sample raises.
    """
    n = max(max(d.shape) for d, _ in terms)
    unit = np.exp(2j * np.pi * np.outer(np.arange(m), np.arange(n)) / m)
    recurs = [Counter(pairs[:, side].tolist()) for side in (0, 1)]
    cache = {}

    def vander(r, k):
        return unit[:, :k] * r ** np.arange(k)

    def factors(side, r):  # V(r) D_t on the left, V(r)^T on the right
        out = cache.get((side, r))
        if out is None:
            out = [vander(r, d.shape[0]) @ d if side == 0 else vander(r, d.shape[1]).T for d, _ in terms]
            if recurs[side][r] > 1:
                cache[side, r] = out
        return out

    def pair(p):
        r1, r2 = pairs[p]
        samples = (w[p] * np.abs(a @ b) for a, b, (_, w) in zip(factors(0, r1), factors(1, r2), terms))
        vals = sum(samples, next(samples))
        k = int(np.argmax(vals))  # a NaN, else an inf, is its own argmax
        z = (r1 * np.exp(2j * np.pi * (k // m) / m), r2 * np.exp(2j * np.pi * (k % m) / m))
        if not np.isfinite(vals.flat[k]):
            raise NonFiniteSampleError(z, complex(vals.flat[k]))
        return float(vals.flat[k]), z

    powers = pairs[:, :, None] ** np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = sum(w * np.einsum("pj,jk,pk->p", powers[:, 0, :d.shape[0]], np.abs(d),
                                  powers[:, 1, :d.shape[1]]) for d, w in terms) * _BOUND_GUARD
        return _bound_ordered(pair, len(pairs), bound, (0.0, 0.0))


def _polydisc_sup(f, weight=None):
    """Sup of w(|z_1|)|d_1 f| + w(|z_2|)|d_2 f| over every pair of radii.

    w(r) = (1 - r^2) / omega(1 - r^2), omega the ``WeightSpec`` ``weight``
    or 1.  f must be a two-variable polynomial; the radii are
    ``dyadic_radii(12, linear=16)``.  Returns (|f(0)|, sup, argmax, note,
    visited): ``visited`` lists the (i, j) radius-index pairs sampled,
    in row-major order.
    """
    if _dim(f) != 2:
        raise ValueError("polydisc norm needs a two-variable polynomial")
    c = f.coeffs
    n1, n2 = c.shape
    radii = np.asarray(dyadic_radii(12, linear=16))
    m = angular_count(max(n1, n2) - 1)
    w = np.array([(1.0 - r * r) / (1.0 if weight is None else _omega(weight, 1.0 - r * r))
                  for r in radii])
    pairs = np.stack(np.meshgrid(radii, radii, indexing="ij"), axis=-1).reshape(-1, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = [(c[1:] * np.arange(1, n1)[:, None], np.repeat(w, radii.size)),
                 (c[:, 1:] * np.arange(1, n2), np.tile(w, radii.size))]
    best, arg, visited = _tensor_sup(pairs, terms, m)
    note = f"polydisc grid: {len(radii)}^2 radius pairs x {m}^2 angles"
    return float(abs(c[0, 0])), best, arg, note, [divmod(p, len(radii)) for p in visited]


def bloch_norm(f, domain: str = "disc", weight=None) -> BlochReport:
    """Estimate the Bloch norm of ``f`` on the disc, ball or polydisc.

    Returns |f(0)| plus the grid supremum of the defining seminorm;
    polynomial inputs on the disc additionally carry a certified upper
    bound for the seminorm.  The polydisc takes two-variable polynomials
    only, the ball at most two variables (``ValueError`` otherwise).

    A ``WeightSpec`` ``weight`` divides the disc seminorm by
    omega(1 - |z|) and axis k of the polydisc seminorm by
    omega(1 - |z_k|^2); the two conventions differ on purpose.  A
    weighted norm carries no certificate, and the ball takes no weight.
    """
    dim = _dim(f)
    if domain not in ("disc", "ball", "polydisc"):
        raise ValueError(f"unknown domain {domain!r}")
    if domain == "disc" and dim != 1:
        raise ValueError("disc norm needs a one-variable function")
    if domain == "ball" and dim > 2:
        raise ValueError("ball norm needs at most two variables")
    if domain == "ball" and weight is not None:
        raise ValueError("ball norm takes no weight")
    prefix = "" if weight is None else "weighted "
    if domain == "polydisc":
        f0, best, arg, note, _ = _polydisc_sup(f, weight)
        return BlochReport(domain, f0, best, None, arg, prefix + note)
    radii = dyadic_radii()
    if dim == 2:
        # Rf, with coefficients (j + k) c_jk, at (r cos t e^(ia), r sin t e^(ib))
        c = f.coeffs
        n1, n2 = c.shape
        m = angular_count(max(n1, n2) - 1)
        r, t = np.asarray(radii), 2.0 * np.pi * np.arange(m // 4 + 1) / m
        pairs = np.stack([np.outer(r, np.cos(t)), np.outer(r, np.sin(t))], axis=-1).reshape(-1, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            d = c * np.add.outer(np.arange(n1), np.arange(n2))
        best, arg, _ = _tensor_sup(pairs, [(d, np.repeat(1.0 - r * r, t.size))], m)
        note = f"ball grid: {len(radii)} shells x {t.size} polar angles x {m}^2 angles"
        return BlochReport(domain, float(abs(c[0, 0])), best, None, arg, note)
    f0 = abs(complex(f(np.zeros(1))[0]))  # from a one-point array: numpy rounds scalars differently
    omega = None if weight is None else [_omega(weight, 1.0 - float(r)) for r in radii]
    shell, bound, degree, m = _disc_shells(f, radii, omega)
    best, arg, _ = _bound_ordered(shell, len(radii), bound, (0.0,))
    certified = _certify(best, degree, m) if weight is None else None
    note = f"{prefix}disc grid: {len(radii)} dyadic shells x {m} angles"
    return BlochReport(domain, f0, best, certified, arg, note)


def little_bloch_profile(f, radii) -> np.ndarray:
    """Per-shell suprema of (1 - r^2)|f'| on the given increasing radii.

    Raw values; no monotonicity is enforced.  A vanishing tail is the
    numerical signature of membership in the little Bloch space.
    """
    if _dim(f) != 1:
        raise ValueError("little-Bloch profiles take one-variable functions")
    radii = np.asarray(radii, dtype=float)
    if radii.size and (np.any(np.diff(radii) <= 0) or np.any(radii <= 0) or np.any(radii >= 1)):
        raise ValueError("radii must be strictly increasing inside (0, 1)")
    shell = _disc_shells(f, radii)[0]
    return np.array([shell(i)[0] for i in range(radii.size)], dtype=float)


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


def _omega(w: WeightSpec, t) -> float:
    """omega(t) as a float; a WeightError where it is not finite and positive."""
    wv = float(w.omega(t))
    if not (math.isfinite(wv) and wv > 0.0):
        raise WeightError(f"weight not usable at t = {float(t)!r}")
    return wv


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
