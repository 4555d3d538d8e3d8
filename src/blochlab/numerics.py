"""Grids, quadrature, torus sampling and the convergence-in-measure metric.

The metric is a deterministic quadrature on equispaced circle points.
The Monte Carlo helpers draw from explicit 64-bit seeds; there is no
global RNG state anywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS_MACH = float(np.finfo(np.float64).eps)

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


@dataclass(frozen=True)
class MeasureEstimate:
    """Monte-Carlo measure with a 95% binomial confidence half-width."""

    value: float
    half_width: float
    count: int

    def __post_init__(self):
        if self.half_width < 0.0:
            raise ValueError("half-width must be >= 0")
        if self.value - self.half_width < -EPS_MACH * self.count:
            raise ValueError("estimate extends below 0")
        if self.value + self.half_width > 1.0 + EPS_MACH * self.count:
            raise ValueError("estimate extends above 1")

    @property
    def lower(self) -> float:
        return max(0.0, self.value - self.half_width)

    @property
    def upper(self) -> float:
        return min(1.0, self.value + self.half_width)


def indicator_measure(predicate, count: int, seed: int, n_dim: int = 1) -> MeasureEstimate:
    """Estimate the normalized measure of {zeta : predicate(zeta)} on the torus.

    ``predicate`` must accept the array returned by sample_torus and return
    a boolean array of length ``count``.
    """
    pts = sample_torus(n_dim, count, seed)
    hits = np.asarray(predicate(pts), dtype=bool)
    if hits.shape[0] != count:
        raise ValueError("predicate returned wrong number of values")
    p = float(np.mean(hits))
    # Clip the normal-approximation half-width so the interval stays in [0, 1].
    hw = Z95 * np.sqrt(max(p * (1.0 - p), 0.0) / count)
    hw = min(hw, p, 1.0 - p) if 0.0 < p < 1.0 else 0.0
    return MeasureEstimate(p, hw, count)


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
            raise NonFiniteSampleError(bad, vals[bad])
    if gv.shape != hv.shape:
        raise ValueError("sample shapes disagree")
    return float(np.mean(np.minimum(1.0, np.abs(gv - hv))))
