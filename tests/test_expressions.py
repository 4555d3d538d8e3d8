import numpy as np
import pytest

from blochlab.expressions import (PathSpec, Polynomial1D, PolynomialND, path_points,
                                  taylor_truncate)


def test_poly1d_eval_and_trim():
    p = Polynomial1D(np.array([1.0, 2.0, 0.0, 0.0]))
    assert p.degree == 1
    assert p(0.5) == pytest.approx(2.0)


def test_an_empty_coefficient_list_is_the_zero_polynomial():
    p = Polynomial1D(np.array([]))
    assert p.degree == 0
    assert np.array_equal(p.coeffs, np.zeros(1, dtype=complex))
    assert p(0.5) == 0.0


def test_poly1d_sum_and_scale():
    p = Polynomial1D(np.array([1.0, 1.0]))
    q = Polynomial1D(np.array([0.0, 1.0]))
    z = 0.3 + 0.2j
    assert (p + q)(z) == pytest.approx(p(z) + q(z))
    assert p.scale(2.0)(z) == pytest.approx(2.0 * p(z))


def _polyval_gap(p, z):
    """|p(z) - polyval| in units of sum |a_k| |z|^k, the scale of both roundings."""
    direct = np.polynomial.polynomial.polyval(np.asarray(z, dtype=complex), p.coeffs)
    scale = np.polynomial.polynomial.polyval(np.abs(z), np.abs(p.coeffs))
    return np.max(np.abs(p(z) - direct) / scale)


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 15, 16, 17, 100, 1023, 4096, 5000])
def test_blocked_eval_matches_polyval(degree):
    rng = np.random.default_rng(degree)
    p = Polynomial1D(rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=2000)
    inside = np.sqrt(rng.uniform(size=2000)) * np.exp(1j * theta)
    assert _polyval_gap(p, inside) < 1e-13
    assert _polyval_gap(p, np.exp(1j * theta)) < 1e-13


@pytest.mark.parametrize("count", [1023, 1024, 1025])
def test_blocked_eval_across_a_chunk_boundary(count):
    rng = np.random.default_rng(count)
    p = Polynomial1D(rng.normal(size=300) + 1j * rng.normal(size=300))
    z = 0.99 * np.exp(2j * np.pi * np.arange(count) / count)
    assert p(z).shape == (count,)
    assert _polyval_gap(p, z) < 1e-13


def test_blocked_eval_keeps_the_input_shape():
    rng = np.random.default_rng(7)
    p = Polynomial1D(rng.normal(size=50) + 1j * rng.normal(size=50))
    z = 0.9 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(3, 700, 2)))
    assert p(z).shape == (3, 700, 2)
    assert _polyval_gap(p, z) < 1e-13
    assert p(np.zeros((0, 4))).shape == (0, 4)
    value = p(0.5 - 0.25j)
    assert np.ndim(value) == 0 and isinstance(value, complex)
    assert _polyval_gap(p, 0.5 - 0.25j) < 1e-13


def test_circle_values_match_direct_eval():
    rng = np.random.default_rng(0)
    p = Polynomial1D(rng.normal(size=6) + 1j * rng.normal(size=6))
    m = 64
    # the FFT convention walks the circle clockwise
    z = 0.8 * np.exp(-2j * np.pi * np.arange(m) / m)
    assert np.allclose(p.circle_values(0.8, m), p(z))


def test_derivative():
    p = Polynomial1D(np.array([1.0, 0.0, 3.0]))  # 1 + 3 z^2
    dp = p.partial(0)
    assert np.allclose(dp.coeffs, [0.0, 6.0])
    assert np.array_equal(p.partial(0).partial(0).partial(0).coeffs, [0.0])


def test_polynd_partial_and_degree():
    p = PolynomialND.from_terms({(2, 1): 3.0, (0, 0): 1.0}, 2)
    assert p.total_degree == 3
    dp = p.partial(0)
    z = np.array([[0.4 + 0.1j, 0.2 - 0.3j]])
    assert dp(z)[0] == pytest.approx(6.0 * z[0, 0] * z[0, 1])


def test_one_variable_polynd_takes_one_point_per_entry_of_a_flat_array():
    # one class: a one-variable polynomial read from terms is the dense one
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
    p = Polynomial1D(coeffs)
    q = PolynomialND.from_terms({(k,): c for k, c in enumerate(coeffs)}, 1)
    assert Polynomial1D is PolynomialND and np.array_equal(q.coeffs, p.coeffs)
    z = 0.9 * np.exp(2j * np.pi * np.arange(1024) / 1024)
    assert q(z).shape == (1024,)
    assert np.array_equal(q(z), p(z))
    # a last axis of length one holds the coordinate
    assert np.array_equal(q(z[:, None]), p(z))
    assert q.degree == q.total_degree == 8
    assert complex(q(0.5j)) == pytest.approx(p(0.5j))


def _random_terms(rng, dim):
    """A random sparse {alpha: c} in ``dim`` variables, an exact zero among its values."""
    terms = {tuple(int(a) for a in rng.integers(0, 6, size=dim)): complex(*rng.normal(size=2))
             for _ in range(int(rng.integers(1, 9)))}
    terms[next(iter(terms))] = 0.0
    return terms


def _monomial_sum(terms, z):
    return sum((c * np.prod(z ** np.array(alpha), axis=-1) for alpha, c in terms.items()),
               np.zeros(z.shape[:-1], dtype=complex))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_dense_polynd_matches_a_sum_of_monomials(dim):
    rng = np.random.default_rng(dim)
    for _ in range(20):
        terms = _random_terms(rng, dim)
        p = PolynomialND.from_terms(terms, dim)
        nonzero = {alpha: c for alpha, c in terms.items() if c != 0}
        assert list(p.terms.items()) == sorted(nonzero.items())
        assert p.total_degree == max(map(sum, nonzero), default=0)
        z = 0.9 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(3, 40, dim)))
        assert np.allclose(p(z), _monomial_sum(terms, z), rtol=1e-13, atol=1e-13)
        for k in range(dim):
            ref = {}
            for alpha, c in nonzero.items():
                if alpha[k]:
                    beta = alpha[:k] + (alpha[k] - 1,) + alpha[k + 1:]
                    ref[beta] = ref.get(beta, 0.0) + alpha[k] * c
            assert list(p.partial(k).terms.items()) == sorted(ref.items())
            # the vectorised derivative is numpy's polyder loop, bit for bit
            polyder = np.polynomial.polynomial.polyder(p.coeffs, axis=k)
            assert np.array_equal(p.partial(k).coeffs, PolynomialND(polyder).coeffs)
            assert np.allclose(p.partial(k)(z), _monomial_sum(ref, z), rtol=1e-13, atol=1e-13)


def test_polynd_trims_trailing_zeros_and_keeps_a_nan():
    p = PolynomialND(np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]]))
    assert p.coeffs.shape == (2, 2) and p.dim == 2
    assert PolynomialND(np.zeros((4, 3))).coeffs.shape == (1, 1)
    assert PolynomialND(np.array([[0.0, np.nan], [0.0, 0.0]])).coeffs.shape == (1, 2)
    assert PolynomialND.from_terms({}, 3).coeffs.shape == (1, 1, 1)


@pytest.mark.parametrize("alpha", [(-1, 0), (1.5, 0), (0, float("nan")), (0, "1"), (10 ** 20, 0),
                                   (0, float("inf")), (True, 0)])
def test_polynd_from_terms_rejects_an_entry_that_is_not_a_whole_number(alpha):
    with pytest.raises(ValueError, match="is not a whole number in"):
        PolynomialND.from_terms({alpha: 1.0, (1, 1): 2.0}, 2)
    assert PolynomialND.from_terms({(2.0, 0): 1.0}, 2).terms == {(2, 0): 1.0}
    with pytest.raises(ValueError, match="length mismatch"):
        PolynomialND.from_terms({(1,): 1.0}, 2)


def test_polynd_rejects_points_of_the_wrong_dimension():
    p = PolynomialND.from_terms({(1, 1): 1.0}, 2)
    for z in (0.5, np.zeros(4), np.zeros((3, 3))):
        with pytest.raises(ValueError, match="expected points with 2 coordinates"):
            p(z)


def test_taylor_truncate_returns_dilated_section():
    p = Polynomial1D(np.array([0.5, 0.0, 1.0, -0.25]))
    res = taylor_truncate(p, 0.9, 8)
    z = 0.5 * np.exp(1j * np.linspace(0, 2 * np.pi, 16, endpoint=False))
    assert np.allclose(res.poly(z), p(0.9 * z), atol=1e-10)
    assert res.tail_bound < 1e-10


def test_taylor_truncate_geometric_series():
    # 1/(1 - z/2) via compose machinery is not available; use a long
    # polynomial proxy and truncate low
    coeffs = 0.5 ** np.arange(30)
    p = Polynomial1D(coeffs.astype(complex))
    res = taylor_truncate(p, 0.5, 10)
    assert res.poly.degree <= 10
    assert res.tail_bound < 1e-2


def test_path_points_inside_disc():
    path = PathSpec(zeta=1.0 + 0j, anchor=0.0, schedule=(0.5, 0.75, 0.875))
    pts = path_points(path)
    assert np.all(np.abs(pts) < 1.0)
    assert np.allclose(pts, [0.5, 0.75, 0.875])
