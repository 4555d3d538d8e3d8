"""Expression trees for the holomorphic functions the toolkit manipulates.

Polynomials, inner-function atoms, sums, products, compositions, dilations
and the radializing map z -> z I(z) combine into immutable trees that are
evaluated and differentiated pointwise (forward mode, exact chain rule;
inner atoms supply value and derivative jointly from their closed forms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from blochlab.inner import InnerSpec, _chain_eval

#: points per block of Polynomial1D evaluation; bounds its temporaries
_EVAL_CHUNK = 1024


class DomainError(ValueError):
    """Point outside (or on the boundary of) the expression's domain."""


@dataclass(frozen=True, eq=False)
class Polynomial1D:
    """Dense one-variable polynomial a_0 + a_1 z + ... + a_d z^d."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        nz = np.flatnonzero(np.abs(c) > 0.0)
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

    def dilate(self, r: float) -> "Polynomial1D":
        return Polynomial1D(self.coeffs * r ** np.arange(self.coeffs.size))

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


@dataclass(frozen=True, eq=False)
class PolynomialND:
    """Sparse polynomial in N variables: multi-index -> coefficient."""

    terms: dict
    dim: int

    def __post_init__(self):
        clean = {}
        for alpha, c in self.terms.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != self.dim:
                raise ValueError("multi-index length mismatch")
            if c != 0:
                clean[alpha] = complex(c)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def from_poly1d(cls, p: Polynomial1D, axis: int, dim: int) -> "PolynomialND":
        terms = {}
        for k, c in enumerate(p.coeffs):
            if c != 0:
                alpha = [0] * dim
                alpha[axis] = k
                terms[tuple(alpha)] = c
        return cls(terms, dim)

    @property
    def total_degree(self) -> int:
        return max((sum(a) for a in self.terms), default=0)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        pts = z.reshape(-1, self.dim)
        out = np.zeros(pts.shape[0], dtype=complex)
        for alpha, c in self.terms.items():
            mono = np.full(pts.shape[0], c, dtype=complex)
            for k, a in enumerate(alpha):
                if a:
                    mono *= pts[:, k] ** a
            out += mono
        return out.reshape(z.shape[:-1])

    def coefficient_array(self) -> np.ndarray:
        """Dense coefficients: entry alpha holds the coefficient of z^alpha."""
        shape = tuple(max((alpha[k] for alpha in self.terms), default=0) + 1
                      for k in range(self.dim))
        out = np.zeros(shape, dtype=complex)
        for alpha, c in self.terms.items():
            out[alpha] = c
        return out

    def partial(self, k: int) -> "PolynomialND":
        terms = {}
        for alpha, c in self.terms.items():
            if alpha[k] > 0:
                beta = list(alpha)
                beta[k] -= 1
                terms[tuple(beta)] = terms.get(tuple(beta), 0.0) + c * alpha[k]
        return PolynomialND(terms, self.dim)


@dataclass(frozen=True, eq=False)
class FunctionExpr:
    """Immutable expression node.

    kind is one of ``poly1d``, ``polynd``, ``inner``, ``sum``, ``product``,
    ``compose``, ``dilate``, ``radialize``.  ``dim`` is the complex
    dimension of the domain (disc when 1).
    """

    kind: str
    dim: int = 1
    children: tuple = ()
    poly: object = None
    inner_spec: InnerSpec = None
    factor: float = 1.0

    # -- constructors -------------------------------------------------------

    @classmethod
    def poly1d(cls, p) -> "FunctionExpr":
        if not isinstance(p, Polynomial1D):
            p = Polynomial1D(np.asarray(p, dtype=complex))
        return cls(kind="poly1d", dim=1, poly=p)

    @classmethod
    def polynd(cls, p: PolynomialND) -> "FunctionExpr":
        return cls(kind="polynd", dim=p.dim, poly=p)

    @classmethod
    def inner(cls, spec: InnerSpec) -> "FunctionExpr":
        return cls(kind="inner", dim=1, inner_spec=spec)

    @classmethod
    def sum(cls, *fs) -> "FunctionExpr":
        dims = {f.dim for f in fs}
        if len(dims) != 1:
            raise DomainError("sum children live on different domains")
        return cls(kind="sum", dim=dims.pop(), children=tuple(fs))

    @classmethod
    def product(cls, *fs) -> "FunctionExpr":
        dims = {f.dim for f in fs}
        if len(dims) != 1:
            raise DomainError("product children live on different domains")
        return cls(kind="product", dim=dims.pop(), children=tuple(fs))

    @classmethod
    def compose(cls, outer: "FunctionExpr", inner_expr: "FunctionExpr") -> "FunctionExpr":
        if outer.dim != 1:
            raise DomainError("outer function of a composition must be one-variable")
        node = cls(kind="compose", dim=inner_expr.dim, children=(outer, inner_expr))
        if not outer.is_entire():
            # probe: the inner range must stay inside the outer disc domain
            probe = _probe_points(inner_expr.dim)
            vals = inner_expr.eval(probe)
            if np.any(np.abs(vals) >= 1.0):
                raise DomainError("inner range escapes the outer function's disc")
        return node

    @classmethod
    def dilate(cls, f: "FunctionExpr", r: float) -> "FunctionExpr":
        if not 0.0 < r <= 1.0:
            raise DomainError("dilation factor must lie in (0, 1]")
        if f.kind == "dilate":  # normal form: nested dilations multiply
            return cls(kind="dilate", dim=f.dim, children=f.children, factor=f.factor * r)
        return cls(kind="dilate", dim=f.dim, children=(f,), factor=r)

    @classmethod
    def radialize(cls, spec: InnerSpec) -> "FunctionExpr":
        """The inner map J(z) = z I(z) on the disc."""
        return cls(kind="radialize", dim=1, inner_spec=spec)

    # -- structure ----------------------------------------------------------

    def is_entire(self) -> bool:
        """True when the tree is polynomial-only (defined on all of C^N)."""
        if self.kind in ("poly1d", "polynd"):
            return True
        if self.kind in ("inner", "radialize"):
            return False
        return all(c.is_entire() for c in self.children)

    def as_poly1d(self):
        """Collapse to a Polynomial1D if the tree is exactly one (else None)."""
        if self.kind == "poly1d":
            return self.poly
        if self.kind == "dilate" and self.dim == 1:
            inner = self.children[0].as_poly1d()
            return None if inner is None else inner.dilate(self.factor)
        if self.kind == "sum":
            parts = [c.as_poly1d() for c in self.children]
            if any(p is None for p in parts):
                return None
            out = Polynomial1D.zero()
            for p in parts:
                out = out + p
            return out
        return None

    # -- evaluation ---------------------------------------------------------

    def _check_interior(self, z):
        z = np.asarray(z, dtype=complex)
        if self.dim == 1:
            bad = np.abs(z) >= 1.0
        else:
            if z.shape[-1] != self.dim:
                raise DomainError(f"expected points with {self.dim} coordinates")
            bad = np.any(np.abs(z) >= 1.0, axis=-1)
        if np.any(bad):
            raise DomainError("evaluation point on or outside the domain boundary")
        return z

    def eval(self, z):
        """Evaluate at strictly interior point(s); scalar in, scalar out."""
        scalar = np.ndim(z) == 0 if self.dim == 1 else np.ndim(z) <= 1
        zz = self._check_interior(z)
        val = self._eval(np.atleast_1d(zz) if self.dim == 1 else zz.reshape(-1, self.dim))
        if scalar:
            return complex(val.reshape(-1)[0])
        return val.reshape(zz.shape if self.dim == 1 else zz.shape[:-1])

    def _eval(self, z):
        if self.kind == "poly1d" or self.kind == "polynd":
            return self.poly(z)
        if self.kind == "inner":
            val, _, _, _, _ = _chain_eval(self.inner_spec, z)
            return val
        if self.kind == "radialize":
            val, _, _, _, _ = _chain_eval(self.inner_spec, z)
            return z * val
        if self.kind == "sum":
            return np.sum([c._eval(z) for c in self.children], axis=0)
        if self.kind == "product":
            out = self.children[0]._eval(z)
            for c in self.children[1:]:
                out = out * c._eval(z)
            return out
        if self.kind == "compose":
            outer, inner_expr = self.children
            return outer._eval(np.asarray(inner_expr._eval(z)))
        if self.kind == "dilate":
            return self.children[0]._eval(self.factor * z)
        raise ValueError(f"unknown node kind {self.kind!r}")

    def eval_with_grad(self, z):
        """Value and complex gradient (d/dz_1, ..., d/dz_N) at point(s) z."""
        scalar = np.ndim(z) == 0 if self.dim == 1 else np.ndim(z) <= 1
        zz = self._check_interior(z)
        pts = np.atleast_1d(zz) if self.dim == 1 else zz.reshape(-1, self.dim)
        val, grad = self._eval_grad(pts)
        if scalar:
            if self.dim == 1:
                return complex(val[0]), complex(grad[0, 0])
            return complex(val[0]), grad[0]
        if self.dim == 1:
            return val.reshape(zz.shape), grad[:, 0].reshape(zz.shape)
        return val.reshape(zz.shape[:-1]), grad.reshape(zz.shape[:-1] + (self.dim,))

    def _eval_grad(self, z):
        n_pts = z.shape[0]
        if self.kind == "poly1d":
            zc = z if z.ndim == 1 else z[:, 0]
            return self.poly(zc), self.poly.derivative()(zc)[:, None]
        if self.kind == "polynd":
            pts = z if z.ndim == 2 else z[:, None]
            val = self.poly(pts)
            grad = np.stack([self.poly.partial(k)(pts) for k in range(self.dim)], axis=-1)
            return val, grad
        if self.kind == "inner":
            val, der, _, _, _ = _chain_eval(self.inner_spec, z)
            return val, der[:, None]
        if self.kind == "radialize":
            val, der, _, _, _ = _chain_eval(self.inner_spec, z)
            return z * val, (val + z * der)[:, None]
        if self.kind == "sum":
            vals, grads = zip(*(c._eval_grad(z) for c in self.children))
            return np.sum(vals, axis=0), np.sum(grads, axis=0)
        if self.kind == "product":
            val, grad = self.children[0]._eval_grad(z)
            for c in self.children[1:]:
                v, g = c._eval_grad(z)
                grad = grad * v[:, None] + g * val[:, None]
                val = val * v
            return val, grad
        if self.kind == "compose":
            outer, inner_expr = self.children
            iv, ig = inner_expr._eval_grad(z)
            ov, og = outer._eval_grad(np.atleast_1d(iv))
            return ov, og[:, 0][:, None] * ig
        if self.kind == "dilate":
            val, grad = self.children[0]._eval_grad(self.factor * z)
            return val, self.factor * grad
        raise ValueError(f"unknown node kind {self.kind!r}")

    def radial_derivative(self, z):
        """Euler operator sum z_k df/dz_k; equals z f'(z) in one variable."""
        val, grad = self.eval_with_grad(z)
        zz = np.asarray(z, dtype=complex)
        if self.dim == 1:
            return zz * grad
        return np.sum(zz * grad, axis=-1)


def _probe_points(dim: int) -> np.ndarray:
    """64 points of radius <= 0.9: a circle on the disc, seeded draws in N variables."""
    if dim == 1:
        return 0.9 * np.exp(1j * 2 * np.pi * np.arange(64) / 64)
    rng = np.random.default_rng(11)
    theta = rng.uniform(0, 2 * np.pi, size=(64, dim))
    radii = 0.9 * rng.uniform(0.1, 1.0, size=(64, 1))
    return radii * np.exp(1j * theta)


# ---------------------------------------------------------------------------
# Taylor truncation of dilates


@dataclass(frozen=True)
class TruncationResult:
    poly: Polynomial1D
    tail_bound: float
    extraction_radius: float
    sample_count: int


def taylor_truncate(f: FunctionExpr, r: float, degree: int) -> TruncationResult:
    """Degree-<= d Taylor section of the dilate f_r(z) = f(r z), one variable.

    Coefficients are recovered by discrete Fourier analysis of f on the
    circle of radius rho = r + (1-r)/2 (between r and 1, so higher-order
    terms are damped rather than amplified).  The tail bound sums the
    measured coefficients beyond the kept degree with a geometric
    extrapolation from their observed decay.
    """
    if f.dim != 1:
        raise DomainError("taylor_truncate operates on one-variable expressions")
    if not 0.0 < r < 1.0:
        raise ValueError("dilation radius must lie in (0, 1)")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    rho = r + (1.0 - r) / 2.0
    m = int(2 ** np.ceil(np.log2(max(4 * (degree + 1), 256))))
    samples = f.eval(rho * np.exp(1j * 2 * np.pi * np.arange(m) / m))
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
            raise DomainError("path endpoint must lie on the circle")
        if abs(self.anchor) >= 1.0:
            raise DomainError("anchor must be an interior point")
        for t in self.schedule:
            if not 0.0 <= t < 1.0:
                raise DomainError("schedule parameters must lie in [0, 1)")


def path_points(p: PathSpec) -> np.ndarray:
    """Interior points r (zeta - w) + w for each r in the schedule."""
    r = np.asarray(p.schedule, dtype=float)
    pts = r * (p.zeta - p.anchor) + p.anchor
    if np.any(np.abs(pts) >= 1.0):
        raise DomainError("path escapes the open disc (invalid anchor)")
    return pts
