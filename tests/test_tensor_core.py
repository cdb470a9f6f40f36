"""Tensor algebra: the reference valid correlation, the small SVD, the norm."""

import numpy as np
import pytest

from sepconvwave.tensor_core import conv_valid, frobenius_norm, svd_small


def conv_as_sparse_matrix(x_shape, kernel):
    """Oracle: the convolution written as one sparse matrix acting on flat x.

    Row (i, j) of the matrix carries kernel entry K(l, h) in the column of
    flat index (l+i, h+j), so matrix @ x.ravel() is the valid convolution.
    """
    n, m = x_shape
    k1, k2 = kernel.shape
    ny, my = n - k1 + 1, m - k2 + 1
    mat = np.zeros((ny * my, n * m))
    for i in range(ny):
        for j in range(my):
            for l in range(k1):
                for h in range(k2):
                    mat[i * my + j, (l + i) * m + (h + j)] = kernel[l, h]
    return mat


class TestConv2dValid:
    def test_window_sum(self):
        y = conv_valid(np.ones((3, 3)), np.ones((2, 2)))
        assert np.array_equal(y, np.full((2, 2), 4.0))

    def test_identity_kernel(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 5))
        assert np.array_equal(conv_valid(x, np.ones((1, 1))), x)

    def test_kernel_too_large(self):
        with pytest.raises(ValueError):
            conv_valid(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_matches_sparse_matrix_form(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 4))
        k = rng.standard_normal((2, 2))
        mat = conv_as_sparse_matrix(x.shape, k)
        expected = (mat @ x.ravel()).reshape(3, 3)
        assert np.allclose(conv_valid(x, k), expected, atol=1e-12, rtol=0)

    def test_matches_sparse_matrix_up_to_8x8(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n, m = rng.integers(2, 9, size=2)
            k1 = int(rng.integers(1, n + 1))
            k2 = int(rng.integers(1, m + 1))
            x = rng.standard_normal((n, m))
            k = rng.standard_normal((k1, k2))
            mat = conv_as_sparse_matrix(x.shape, k)
            expected = (mat @ x.ravel()).reshape(n - k1 + 1, m - k2 + 1)
            assert np.max(np.abs(conv_valid(x, k) - expected)) < 1e-12


def svd_invariants_hold(m, tol=1e-10):
    res = svd_small(m)
    s, u, v = res.singular_values, res.left_vectors, res.right_vectors
    assert np.all(np.diff(s) <= 1e-15)
    assert np.all(s >= 0)
    assert np.max(np.abs(u.T @ u - np.eye(u.shape[1]))) < tol
    assert np.max(np.abs(v.T @ v - np.eye(v.shape[1]))) < tol
    recon = (u * s) @ v.T
    assert frobenius_norm(m - recon) <= tol * max(1.0, frobenius_norm(m))


class TestSvdSmall:
    def test_rank_one_matrix(self):
        s = svd_small(np.array([[1.0, 2.0], [2.0, 4.0]])).singular_values
        assert abs(s[0] - 5.0) < 1e-12
        assert abs(s[1]) < 1e-12

    def test_identity(self):
        s = svd_small(np.eye(3)).singular_values
        assert np.allclose(s, 1.0, atol=1e-12, rtol=0)

    def test_random_rect(self):
        rng = np.random.default_rng(15)
        svd_invariants_hold(rng.standard_normal((5, 3)))
        svd_invariants_hold(rng.standard_normal((3, 5)))

    def test_invariants_sweep(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            n, m = rng.integers(1, 9, size=2)
            svd_invariants_hold(rng.standard_normal((int(n), int(m))))

    def test_matches_numpy_singular_values(self):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((6, 4))
        s = svd_small(m).singular_values
        assert np.allclose(s, np.linalg.svd(m, compute_uv=False), atol=1e-10, rtol=0)

    def test_zero_matrix(self):
        svd_invariants_hold(np.zeros((3, 4)))

    def test_equal_column_norms(self):
        # symmetric off-diagonal case exercises the zeta == 0 rotation
        svd_invariants_hold(np.array([[1.0, 1.0], [1.0, -1.0]]))
        svd_invariants_hold(np.array([[0.0, 2.0], [2.0, 0.0]]))

    def test_too_large(self):
        with pytest.raises(ValueError):
            svd_small(np.zeros((65, 2)))


class TestFrobeniusNorm:
    def test_three_four_five(self):
        assert frobenius_norm(np.array([[3.0, 4.0]])) == 5.0

    def test_zero(self):
        assert frobenius_norm(np.zeros((4, 4))) == 0.0

    def test_rank_one_factorization(self):
        rng = np.random.default_rng(18)
        u = rng.standard_normal(4)
        v = rng.standard_normal(6)
        assert abs(frobenius_norm(np.outer(u, v))
                   - np.linalg.norm(u) * np.linalg.norm(v)) < 1e-12


class TestConvValid:
    def test_1d(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        k = np.array([1.0, -1.0])
        assert np.array_equal(conv_valid(x, k), [-1.0, -1.0, -1.0])

    def test_3d_matches_loops(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((4, 5, 4))
        k = rng.standard_normal((2, 3, 2))
        y = conv_valid(x, k)
        for idx in np.ndindex(*y.shape):
            window = tuple(slice(i, i + e) for i, e in zip(idx, k.shape))
            assert abs(y[idx] - np.sum(x[window] * k)) < 1e-12
