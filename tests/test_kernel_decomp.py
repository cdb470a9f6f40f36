"""Kernel decomposition: truncation residuals and reconstruction."""

import numpy as np
import pytest

from sepconvwave.kernel_decomp import (
    KernelDecomposition,
    decompose_2d,
    decompose_3d,
    reconstruct,
    residual_norm,
)
from sepconvwave.tensor_core import frobenius_norm, svd_small


class TestDecompose2d:
    def test_rank_one_input_exact(self):
        k = np.outer(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        d = decompose_2d(k, 1)
        assert residual_norm(k, d) < 1e-12

    def test_identity_truncation(self):
        d = decompose_2d(np.eye(2), 1)
        assert abs(residual_norm(np.eye(2), d) - 1.0) < 1e-10

    def test_residual_matches_sigma_tail(self):
        rng = np.random.default_rng(21)
        k = rng.standard_normal((3, 3))
        sigma = svd_small(k).singular_values
        for r in range(1, 4):
            tail = np.sqrt(np.sum(sigma[r:] ** 2))
            assert abs(residual_norm(k, decompose_2d(k, r)) - tail) < 1e-10

    def test_factors_absorb_sqrt_sigma(self):
        rng = np.random.default_rng(22)
        k = rng.standard_normal((4, 5))
        sigma = svd_small(k).singular_values
        d = decompose_2d(k, 3)
        for i, (left, right) in enumerate(d.terms):
            assert abs(np.linalg.norm(left) * np.linalg.norm(right) - sigma[i]) < 1e-10

    def test_rank_too_large(self):
        with pytest.raises(ValueError):
            decompose_2d(np.zeros((3, 5)), 4)

    def test_eckart_young_sweep(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n, m = rng.integers(2, 7, size=2)
            k = rng.standard_normal((int(n), int(m)))
            sigma = svd_small(k).singular_values
            prev = np.inf
            for r in range(1, min(n, m) + 1):
                res = residual_norm(k, decompose_2d(k, r))
                assert abs(res - np.sqrt(np.sum(sigma[r:] ** 2))) < 1e-9
                assert res <= prev + 1e-12
                prev = res


class TestDecompose3d:
    def test_rank_one_slices_exact(self):
        rng = np.random.default_rng(24)
        slices = [np.outer(rng.standard_normal(3), rng.standard_normal(4)) for _ in range(2)]
        k = np.stack(slices, axis=2)
        assert residual_norm(k, decompose_3d(k, 1)) < 1e-10

    def test_zero_kernel(self):
        k = np.zeros((2, 2, 2))
        d = decompose_3d(k, 1)
        assert residual_norm(k, d) < 1e-14

    def test_residual_combines_per_slice(self):
        rng = np.random.default_rng(25)
        k = rng.standard_normal((3, 3, 2))
        per_slice = [residual_norm(k[:, :, l], decompose_2d(k[:, :, l], 1)) for l in range(2)]
        expected = np.sqrt(sum(r * r for r in per_slice))
        assert abs(residual_norm(k, decompose_3d(k, 1)) - expected) < 1e-10

    def test_term_count_and_selectors(self):
        rng = np.random.default_rng(26)
        k = rng.standard_normal((4, 3, 3))
        d = decompose_3d(k, 2)
        assert len(d.terms) == 3 * 2
        for i, term in enumerate(d.terms):
            expected = np.zeros(3)
            expected[i // 2] = 1.0
            assert np.array_equal(term[2], expected)

    def test_full_rank_identity(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            k = rng.standard_normal((5, 5, 5))
            d = decompose_3d(k, 5)
            assert residual_norm(k, d) < 1e-9

    def test_rank_too_large(self):
        with pytest.raises(ValueError):
            decompose_3d(np.zeros((2, 3, 4)), 3)


class TestReconstruct:
    def test_single_term(self):
        d = KernelDecomposition(
            shape=(2, 2),
            terms=((np.array([1.0, 2.0]), np.array([3.0, 4.0])),),
        )
        assert np.array_equal(reconstruct(d), [[3.0, 4.0], [6.0, 8.0]])

    def test_cancelling_terms(self):
        t = (np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        neg = (-t[0], t[1])
        d = KernelDecomposition(shape=(2, 2), terms=(t, neg))
        assert np.array_equal(reconstruct(d), np.zeros((2, 2)))

    def test_term_arity_follows_kernel_shape(self):
        a = np.array([1.0, 2.0])
        with pytest.raises(ValueError):
            KernelDecomposition(shape=(2, 2), terms=((a, a, a),))
        with pytest.raises(ValueError):
            KernelDecomposition(shape=(2,), terms=((a,),))
        assert len(decompose_3d(np.ones((2, 2, 3)), 1).terms[0]) == 3

    def test_full_rank_round_trip(self):
        rng = np.random.default_rng(28)
        k = rng.standard_normal((4, 6))
        d = decompose_2d(k, 4)
        assert frobenius_norm(k - reconstruct(d)) < 1e-10


class TestResidualNorm:
    def test_shape_mismatch(self):
        d = decompose_2d(np.eye(3), 1)
        with pytest.raises(ValueError):
            residual_norm(np.zeros((2, 2)), d)

    def test_monotone_in_rank(self):
        rng = np.random.default_rng(29)
        k = rng.standard_normal((6, 6))
        residuals = [residual_norm(k, decompose_2d(k, r)) for r in range(1, 7)]
        assert all(a >= b - 1e-12 for a, b in zip(residuals, residuals[1:]))
        assert residuals[-1] < 1e-10

