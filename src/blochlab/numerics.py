"""Grids, quadrature, torus sampling and the convergence-in-measure metric.

The metric is a deterministic quadrature on equispaced circle points.
The Monte Carlo helpers draw from explicit 64-bit seeds; there is no
global RNG state anywhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: z-score of the two-sided 95% normal confidence interval.
Z95 = 1.959963984540054


class GridError(ValueError):
    """Invalid sampling-grid parameters."""


class NonFiniteSampleError(ValueError):
    """A sampled function value was NaN or infinite."""

    def __init__(self, point, value):
        self.point = point
        self.value = value
        super().__init__(f"non-finite sample value {value!r} at point {point!r}")


def circle_angles(count: int) -> np.ndarray:
    """Uniform angles on [0, 2*pi); the periodic trapezoid nodes."""
    if count < 1:
        raise GridError("angle count must be positive")
    return 2.0 * np.pi * np.arange(count) / count


def angular_count(degree: int) -> int:
    """Equispaced samples per circle for a degree-d polynomial.

    The power of two at least max(8 (d + 1), 64): FFT-friendly, and more
    than the 4 d that the Bernstein oversampling correction needs.
    """
    return int(2 ** math.ceil(math.log2(max(8 * (degree + 1), 64))))


def dyadic_radii(j_max: int = 24, linear: int = 64) -> tuple:
    """Radial schedule r = 1 - 2^-j joined with a uniform k/linear grid.

    The dyadic tail resolves hyperbolic-scale variation near the boundary;
    the linear part pins down maxima of low-degree integrands, which the
    dyadic points alone would miss by several percent.
    """
    dy = 1.0 - 0.5 ** np.arange(0, j_max + 1)
    lin = np.arange(0, linear) / linear
    r = np.unique(np.concatenate([dy, lin]))
    return tuple(r[r < 1.0])


def sample_torus(n_dim: int, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` i.i.d. uniform points on the n_dim-torus.

    Returns a complex array of shape (count,) when n_dim == 1 and
    (count, n_dim) otherwise.  Deterministic given the seed.
    """
    if n_dim < 1:
        raise GridError("torus dimension must be >= 1")
    if count < 1:
        raise GridError("sample count must be >= 1")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(count, n_dim))
    pts = np.exp(1j * theta)
    return pts[:, 0] if n_dim == 1 else pts


def wilson_interval(p: float, count: int) -> tuple:
    """95% Wilson score interval of a binomial proportion p out of ``count``.

    Unlike the normal-approximation interval it keeps a positive width at
    p = 0 and p = 1.  The upper end is 1 - (lower end at 1 - p), so both
    ends are exact there: 0 at p = 0 and 1 at p = 1.
    """
    z2n = Z95 * Z95 / count

    def lower(q):
        return (q + z2n / 2.0 - np.sqrt(z2n * (q * (1.0 - q) + z2n / 4.0))) / (1.0 + z2n)

    return max(0.0, float(lower(p))), min(1.0, float(1.0 - lower(1.0 - p)))


@dataclass(frozen=True)
class MeasureEstimate:
    """Monte-Carlo measure ``value`` out of ``count`` draws, with its Wilson interval."""

    value: float
    count: int

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("estimate must lie in [0, 1]")

    @property
    def lower(self) -> float:
        return wilson_interval(self.value, self.count)[0]

    @property
    def upper(self) -> float:
        return wilson_interval(self.value, self.count)[1]

    @property
    def half_width(self) -> float:
        return (self.upper - self.lower) / 2.0


def indicator_measure(predicate, count: int, seed: int) -> MeasureEstimate:
    """Estimate the normalized measure of {zeta : predicate(zeta)} on the circle.

    ``predicate`` must accept ``count`` points drawn by sample_torus and
    return a boolean array of length ``count``.
    """
    pts = sample_torus(1, count, seed)
    hits = np.asarray(predicate(pts), dtype=bool)
    if hits.shape[0] != count:
        raise ValueError("predicate returned wrong number of values")
    return MeasureEstimate(float(np.mean(hits)), count)


def metric_points(count: int) -> np.ndarray:
    """Quadrature nodes of measure_metric: ``count`` equispaced circle points."""
    return np.exp(1j * circle_angles(count))


def measure_metric(g, h) -> float:
    """Translation-invariant metric d(g, h) = integral of min(1, |g - h|).

    ``g`` and ``h`` are samples on metric_points, where the mean is the
    periodic trapezoid rule.
    """
    gv, hv = (np.asarray(v, dtype=complex) for v in (g, h))
    for vals in (gv, hv):
        if not np.all(np.isfinite(vals)):
            bad = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise NonFiniteSampleError(metric_points(vals.size)[bad], vals[bad])
    if gv.shape != hv.shape:
        raise ValueError("sample shapes disagree")
    return float(np.mean(np.minimum(1.0, np.abs(gv - hv))))
