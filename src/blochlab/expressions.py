"""The polynomials the toolkit builds, Taylor sections and boundary paths.

A Bloch function here is a dense polynomial in N variables
(``PolynomialND``; the disc's polynomials are its one-variable case,
also reachable as ``Polynomial1D``) or an inner function on the disc
(``inner.InnerSpec``).  Each evaluates itself when called and is passed
around as is; the norms in ``blochnorm`` dispatch on its number of
variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# _chain_eval stays imported: the benchmark tracer patches it here
from blochlab.inner import _chain_eval  # noqa: F401

#: points per block of one-variable evaluation; bounds its temporaries
_EVAL_CHUNK = 1024

_MAX_EXPONENT = int(np.iinfo(np.intp).max)  # the largest index of a numpy axis


def multi_index(alpha, dim: int) -> tuple:
    """alpha as a tuple, when it holds dim whole numbers in [0, _MAX_EXPONENT]; else ValueError."""
    if len(alpha) != dim:
        raise ValueError("multi-index length mismatch")
    for a in alpha:
        if not (isinstance(a, (int, float, np.integer)) and not isinstance(a, bool)
                and 0 <= a <= _MAX_EXPONENT
                and float(a).is_integer()):
            raise ValueError(f"multi-index {list(alpha)!r}: entry {a!r} "
                             f"is not a whole number in [0, {_MAX_EXPONENT}]")
    return tuple(alpha)


@dataclass(frozen=True, eq=False)
class PolynomialND:
    """Dense polynomial in coeffs.ndim variables: coeffs[alpha] is the coefficient of z^alpha.

    Trailing zero slabs are trimmed on every axis, a NaN is kept, and an
    empty array is the zero polynomial.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim == 0:
            raise ValueError("a PolynomialND needs at least one variable")
        if c.size == 0:
            c = np.zeros((1,) * c.ndim, dtype=complex)
        nz = np.nonzero(c != 0)  # a NaN is kept, not stripped as a zero
        if nz[0].size:
            c = c[tuple(slice(int(i.max()) + 1) for i in nz)]
        else:
            c = c[(slice(1),) * c.ndim] * 0.0
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zero(cls) -> "PolynomialND":
        return cls(np.zeros(1, dtype=complex))

    @classmethod
    def from_terms(cls, terms: dict, dim: int) -> "PolynomialND":
        """The sum of c z^alpha over the items (alpha, c) of ``terms``, each alpha of length dim."""
        if isinstance(dim, bool) or not (isinstance(dim, int) and dim >= 1):
            raise ValueError(f"dim must be a whole number >= 1, got {dim!r}")
        alphas = np.array([multi_index(alpha, dim) for alpha in terms], dtype=int).reshape(-1, dim)
        c = np.zeros(alphas.max(axis=0, initial=0) + 1, dtype=complex)
        c[tuple(alphas.T)] = list(terms.values())
        return cls(c)

    @property
    def dim(self) -> int:
        return self.coeffs.ndim

    @property
    def degree(self) -> int:
        """The total degree; in one variable, read off the trimmed array's length."""
        return self.coeffs.size - 1 if self.dim == 1 else self.total_degree

    @property
    def terms(self) -> dict:
        """{alpha: c} over the nonzero coefficients, alpha in lexicographic order."""
        return {tuple(map(int, alpha)): complex(self.coeffs[tuple(alpha)])
                for alpha in np.argwhere(self.coeffs != 0)}

    @property
    def total_degree(self) -> int:
        return max(map(sum, self.terms), default=0)

    def __call__(self, z):
        """p at points z.

        In one variable every entry of z is a point, and the result has
        z's shape (a scalar for a scalar); only a last axis of length one
        on two or more axes is read as the coordinate axis, as in N
        variables, and dropped.  The evaluation is blocked
        (Paterson-Stockmeyer): with L = ceil(sqrt(d + 1)) row j of the
        coefficient matrix holds a_{jL}, ..., a_{jL+L-1}; for each chunk
        of points one matrix product with the powers z^0, ..., z^(L-1)
        gives every row's value, and Horner in z^L over the rows finishes.

        In N >= 2 variables the coordinates lie on z's last axis, and
        nested Horner contracts the coefficient array one axis at a time
        with its coordinate of every point.
        """
        z = np.asarray(z, dtype=complex)
        if self.dim == 1 and z.ndim > 1 and z.shape[-1] == 1:
            z = z[..., 0]
        if self.dim > 1:
            if z.shape[-1:] != (self.dim,):
                raise ValueError(f"expected points with {self.dim} coordinates")
            out = self.coeffs[..., None]
            for x in z.reshape(-1, self.dim).T:
                out = np.polynomial.polynomial.polyval(x, out, tensor=False)
            return out.reshape(z.shape[:-1])
        n = self.coeffs.size
        width = math.isqrt(n - 1) + 1
        blocks = np.concatenate([self.coeffs, np.zeros(-n % width)]).reshape(-1, width)
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

    def partial(self, k: int) -> "PolynomialND":
        """d/dz_k: each slab along axis k times its exponent, shifted down by one."""
        exponents = np.arange(1, self.coeffs.shape[k]).reshape((-1,) + (1,) * (self.dim - 1 - k))
        return PolynomialND(self.coeffs[(slice(None),) * k + (slice(1, None),)] * exponents)

    def __add__(self, other: "PolynomialND") -> "PolynomialND":
        a = np.zeros(tuple(map(max, self.coeffs.shape, other.coeffs.shape)), dtype=complex)
        for c in (self.coeffs, other.coeffs):
            a[tuple(map(slice, c.shape))] += c
        return PolynomialND(a)

    def scale(self, c: complex) -> "PolynomialND":
        return PolynomialND(self.coeffs * c)

    def circle_values(self, r: float, count: int) -> np.ndarray:
        """p(r e^{i theta}) on ``count`` uniform angles via a zero-padded FFT; one variable."""
        b = self.coeffs * r ** np.arange(self.coeffs.size)
        if count < b.size:
            raise ValueError("need at least degree+1 angular samples")
        return np.fft.fft(b, n=count)


#: the one-variable name of the same class, kept for callers that use it
Polynomial1D = PolynomialND


# ---------------------------------------------------------------------------
# Taylor truncation of dilates


@dataclass(frozen=True)
class TruncationResult:
    poly: PolynomialND
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
    return TruncationResult(PolynomialND(kept), tail, rho, m)


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
