import numpy as np
import pytest

from blochlab.numerics import (dyadic_radii, indicator_measure, measure_metric,
                               metric_points, sample_torus)


def test_dyadic_radii_schedule():
    r = dyadic_radii(4, linear=0)
    assert r[0] == 0.0
    assert r[-1] == 1.0 - 2.0 ** -4
    assert np.all(np.diff(r) > 0)
    assert all(v < 1.0 for v in r)


def test_sample_torus_shape_and_modulus():
    pts = sample_torus(2, 1000, seed=1)
    assert pts.shape == (1000, 2)
    assert np.allclose(np.abs(pts), 1.0)


def test_sample_torus_deterministic():
    a = sample_torus(1, 64, seed=9)
    b = sample_torus(1, 64, seed=9)
    assert np.array_equal(a, b)


def test_metric_points_on_circle():
    z = metric_points(256)
    assert z.size == 256
    assert np.allclose(np.abs(z), 1.0)


def test_measure_metric_bounds_and_identity():
    z = metric_points(512)
    f = z ** 2
    assert measure_metric(f, f) == 0.0
    # |g - h| = 2 everywhere clips at 1
    assert measure_metric(np.ones_like(z), -np.ones_like(z)) == pytest.approx(1.0)


def test_measure_metric_triangle_inequality():
    z = metric_points(512)
    f, g, h = z, z ** 2, 0.3 * z ** 3
    assert measure_metric(f, h) <= measure_metric(f, g) + measure_metric(g, h) + 1e-12


def test_indicator_measure_half_circle():
    est = indicator_measure(lambda z: z.real > 0, 200_000, seed=4)
    assert abs(est.value - 0.5) < 3.0 * est.half_width + 1e-3
    assert est.count == 200_000


def test_indicator_measure_deterministic():
    a = indicator_measure(lambda z: z.imag > 0.2, 50_000, seed=7)
    b = indicator_measure(lambda z: z.imag > 0.2, 50_000, seed=7)
    assert a.value == b.value
