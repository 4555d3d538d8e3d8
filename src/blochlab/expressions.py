"""The polynomials the toolkit builds, Taylor sections and boundary paths.

A Bloch function here is a dense one-variable polynomial
(``Polynomial1D``), a dense polynomial in N variables
(``PolynomialND``) or an inner function on the disc
(``inner.InnerSpec``).  Each evaluates itself when called and is passed
around as is; the norms in ``blochnorm`` dispatch on its type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# _chain_eval stays imported: the benchmark tracer patches it here
from blochlab.inner import _chain_eval  # noqa: F401

#: points per block of Polynomial1D evaluation; bounds its temporaries
_EVAL_CHUNK = 1024


@dataclass(frozen=True, eq=False)
class Polynomial1D:
    """Dense one-variable polynomial a_0 + a_1 z + ... + a_d z^d."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        if c.size == 0:
            c = np.zeros(1, dtype=complex)
        nz = np.flatnonzero(c != 0)  # a NaN is kept, not stripped as a zero
        c = c[: nz[-1] + 1] if nz.size else c[:1] * 0.0
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zero(cls) -> "Polynomial1D":
        return cls(np.zeros(1, dtype=complex))

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, z):
        """p(z) by blocked (Paterson-Stockmeyer) evaluation; scalar in, scalar out.

        With L = ceil(sqrt(d + 1)) row j of the coefficient matrix holds
        a_{jL}, ..., a_{jL+L-1}.  For each chunk of points one matrix
        product with the powers z^0, ..., z^(L-1) gives every row's value,
        and Horner in z^L over the rows finishes.
        """
        z = np.asarray(z, dtype=complex)
        n = self.coeffs.size
        width = math.isqrt(n - 1) + 1
        rows = -(-n // width)
        blocks = np.zeros(rows * width, dtype=complex)
        blocks[:n] = self.coeffs
        blocks = blocks.reshape(rows, width)
        flat = z.reshape(-1)
        out = np.empty(flat.size, dtype=complex)
        for start in range(0, flat.size, _EVAL_CHUNK):
            zc = flat[start: start + _EVAL_CHUNK]
            powers = np.empty((width + 1, zc.size), dtype=complex)
            powers[0] = 1.0
            powers[1:] = zc
            np.cumprod(powers, axis=0, out=powers)
            vals = blocks @ powers[:width]
            acc = vals[-1]
            for row in vals[-2::-1]:
                acc *= powers[width]
                acc += row
            out[start: start + zc.size] = acc
        return out.reshape(z.shape)[()]

    def derivative(self) -> "Polynomial1D":
        if self.degree == 0:
            return Polynomial1D.zero()
        k = np.arange(1, self.coeffs.size)
        return Polynomial1D(self.coeffs[1:] * k)

    def __add__(self, other: "Polynomial1D") -> "Polynomial1D":
        n = max(self.coeffs.size, other.coeffs.size)
        a = np.zeros(n, dtype=complex)
        a[: self.coeffs.size] += self.coeffs
        a[: other.coeffs.size] += other.coeffs
        return Polynomial1D(a)

    def scale(self, c: complex) -> "Polynomial1D":
        return Polynomial1D(self.coeffs * c)

    def circle_values(self, r: float, count: int) -> np.ndarray:
        """p(r e^{i theta}) on ``count`` uniform angles via a zero-padded FFT."""
        b = self.coeffs * r ** np.arange(self.coeffs.size)
        if count < b.size:
            raise ValueError("need at least degree+1 angular samples")
        return np.fft.fft(b, n=count)


_MAX_EXPONENT = int(np.iinfo(np.intp).max)  # the largest index of a numpy axis


@dataclass(frozen=True, eq=False)
class PolynomialND:
    """Dense polynomial in coeffs.ndim variables: coeffs[alpha] is the coefficient of z^alpha."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim == 0:
            raise ValueError("a PolynomialND needs at least one variable")
        nz = np.nonzero(c != 0)  # a NaN is kept, not stripped as a zero
        if nz[0].size:
            c = c[tuple(slice(int(i.max()) + 1) for i in nz)]
        else:
            c = np.zeros((1,) * c.ndim, dtype=complex)
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_terms(cls, terms: dict, dim: int) -> "PolynomialND":
        """The sum of c z^alpha over the items (alpha, c) of ``terms``, each alpha of length dim."""
        if isinstance(dim, bool) or not (isinstance(dim, int) and dim >= 1):
            raise ValueError(f"dim must be a whole number >= 1, got {dim!r}")
        for alpha in terms:
            if len(alpha) != dim:
                raise ValueError("multi-index length mismatch")
            for a in alpha:
                if not (isinstance(a, (int, float, np.integer)) and 0 <= a <= _MAX_EXPONENT
                        and float(a).is_integer()):
                    raise ValueError(f"multi-index {list(alpha)!r}: entry {a!r} "
                                     f"is not a whole number in [0, {_MAX_EXPONENT}]")
        alphas = np.array(list(terms), dtype=int).reshape(-1, dim)
        c = np.zeros(alphas.max(axis=0, initial=0) + 1, dtype=complex)
        c[tuple(alphas.T)] = list(terms.values())
        return cls(c)

    @property
    def dim(self) -> int:
        return self.coeffs.ndim

    @property
    def terms(self) -> dict:
        """{alpha: c} over the nonzero coefficients, alpha in lexicographic order."""
        return {tuple(map(int, alpha)): complex(self.coeffs[tuple(alpha)])
                for alpha in np.argwhere(self.coeffs != 0)}

    @property
    def total_degree(self) -> int:
        return max(map(sum, self.terms), default=0)

    def __call__(self, z):
        """p at points z, coordinates on the last axis; in one variable, one point per entry too.

        Nested Horner: the coefficient array is contracted one axis at a
        time with its coordinate of every point.
        """
        z = np.asarray(z, dtype=complex)
        if self.dim == 1 and z.ndim <= 1:
            z = z[..., None]
        if z.shape[-1:] != (self.dim,):
            raise ValueError(f"expected points with {self.dim} coordinates")
        out = self.coeffs[..., None]
        for x in z.reshape(-1, self.dim).T:
            out = np.polynomial.polynomial.polyval(x, out, tensor=False)
        return out.reshape(z.shape[:-1])

    def partial(self, k: int) -> "PolynomialND":
        return PolynomialND(np.polynomial.polynomial.polyder(self.coeffs, axis=k))


# ---------------------------------------------------------------------------
# Taylor truncation of dilates


@dataclass(frozen=True)
class TruncationResult:
    poly: Polynomial1D
    tail_bound: float
    extraction_radius: float
    sample_count: int


def taylor_truncate(f, r: float, degree: int) -> TruncationResult:
    """Degree-<= d Taylor section of the dilate f_r(z) = f(r z), f a one-variable callable.

    Coefficients are recovered by discrete Fourier analysis of f on the
    circle of radius rho = r + (1-r)/2 (between r and 1, so higher-order
    terms are damped rather than amplified).  The tail bound sums the
    measured coefficients beyond the kept degree with a geometric
    extrapolation from their observed decay.
    """
    if not 0.0 < r < 1.0:
        raise ValueError("dilation radius must lie in (0, 1)")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    rho = r + (1.0 - r) / 2.0
    m = int(2 ** np.ceil(np.log2(max(4 * (degree + 1), 256))))
    samples = f(rho * np.exp(1j * 2 * np.pi * np.arange(m) / m))
    c = np.fft.fft(samples) / m
    s = r / rho
    kept = c[: degree + 1] * s ** np.arange(degree + 1)
    # measured tail: dilated coefficient magnitudes past the kept degree
    k_tail = np.arange(degree + 1, m)
    t = np.abs(c[degree + 1:]) * s ** k_tail.astype(float)
    tail = float(np.sum(t))
    if t.size >= 8:
        lo, hi = t[-8:-4].sum(), t[-4:].sum()
        ratio = min(hi / lo, 0.999) if lo > 0 else 0.0
        tail += float(t[-1]) * ratio / (1.0 - ratio)
    return TruncationResult(Polynomial1D(kept), tail, rho, m)


# ---------------------------------------------------------------------------
# Paths toward the boundary


@dataclass(frozen=True)
class PathSpec:
    """Segment path r -> r (zeta - w) + w approaching the boundary point zeta."""

    zeta: complex
    anchor: complex
    schedule: tuple = ()

    def __post_init__(self):
        if abs(abs(self.zeta) - 1.0) > 1e-12:
            raise ValueError("path endpoint must lie on the circle")
        if abs(self.anchor) >= 1.0:
            raise ValueError("anchor must be an interior point")
        for t in self.schedule:
            if not 0.0 <= t < 1.0:
                raise ValueError("schedule parameters must lie in [0, 1)")


def path_points(p: PathSpec) -> np.ndarray:
    """Interior points r (zeta - w) + w for each r in the schedule."""
    r = np.asarray(p.schedule, dtype=float)
    pts = r * (p.zeta - p.anchor) + p.anchor
    if np.any(np.abs(pts) >= 1.0):
        raise ValueError("path escapes the open disc (invalid anchor)")
    return pts
