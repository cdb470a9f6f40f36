"""Kernel decomposition: truncation residuals and reconstruction."""

import numpy as np
import pytest

from sepconvwave.harness import VariantSpec, build_model
from sepconvwave.kernel_decomp import (
    KernelDecomposition,
    decompose_2d,
    decompose_3d,
    reconstruct,
    residual_norm,
)
from sepconvwave.nn import Conv, SeparableConv
from sepconvwave.tensor_core import frobenius_norm, svd_small
from sepconvwave.wave import make_grid


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
    def test_rank_one_unfolding_exact(self):
        rng = np.random.default_rng(24)
        k = np.multiply.outer(rng.standard_normal(3), rng.standard_normal((4, 2)))
        assert residual_norm(k, decompose_3d(k, 1)) < 1e-10

    def test_zero_kernel(self):
        k = np.zeros((2, 2, 2))
        d = decompose_3d(k, 1)
        assert residual_norm(k, d) < 1e-14

    def test_residual_matches_unfolding_sigma_tail(self):
        # Eckart-Young on the first-axis unfolding K.reshape(n1, -1)
        rng = np.random.default_rng(25)
        for _ in range(50):
            shape = tuple(int(n) for n in rng.integers(1, 7, size=3))
            k = rng.standard_normal(shape)
            sigma = svd_small(k.reshape(shape[0], -1)).singular_values
            prev = np.inf
            for r in range(1, len(sigma) + 1):
                res = residual_norm(k, decompose_3d(k, r))
                assert abs(res - np.sqrt(np.sum(sigma[r:] ** 2))) < 1e-9
                assert res <= prev + 1e-12
                prev = res

    def test_terms_are_a_vector_and_a_kernel_of_the_other_axes(self):
        rng = np.random.default_rng(26)
        k = rng.standard_normal((4, 3, 3))
        sigma = svd_small(k.reshape(4, 9)).singular_values
        d = decompose_3d(k, 2)
        assert len(d.terms) == 2
        for i, (left, right) in enumerate(d.terms):
            assert left.shape == (4,) and right.shape == (3, 3)
            assert abs(np.linalg.norm(left) * np.linalg.norm(right) - sigma[i]) < 1e-10

    def test_full_rank_identity(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            k = rng.standard_normal((5, 5, 5))
            d = decompose_3d(k, 5)
            assert residual_norm(k, d) < 1e-9

    def test_rank_bound_is_the_unfoldings(self):
        rng = np.random.default_rng(30)
        k = rng.standard_normal((5, 2, 2))  # a [5, 4] unfolding: rank 4 exists, unlike a [5, 2] slice
        assert residual_norm(k, decompose_3d(k, 4)) < 1e-10
        with pytest.raises(ValueError, match=r"rank 5 out of range 1\.\.4"):
            decompose_3d(k, 5)

    def test_rank_too_large(self):
        with pytest.raises(ValueError):
            decompose_3d(np.zeros((2, 3, 4)), 3)

    def test_unfolding_longer_than_svd_small_allows_is_refused(self):
        # a [7, 81] unfolding: 9 x 9 spatial extents pass svd_small's 64 per side
        with pytest.raises(ValueError, match=r"matrix \(7, 81\) exceeds max_dim=64"):
            decompose_3d(np.ones((7, 9, 9)), 1)


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

    def test_term_shapes_split_the_kernel_shape(self):
        a, b = np.array([1.0, 2.0]), np.ones((2, 3))
        for shape, term in [((2, 2), (a, a, a)), ((2,), (a,)), ((2, 3, 2), (a, b)), ((2, 2, 3), (b, a))]:
            with pytest.raises(ValueError, match=r"left\.shape \+ right\.shape"):
                KernelDecomposition(shape=shape, terms=(term,))
        d = KernelDecomposition(shape=(2, 2, 3), terms=((a, b),))
        assert np.array_equal(reconstruct(d), np.multiply.outer(a, b))

    def test_full_rank_round_trip(self):
        rng = np.random.default_rng(28)
        k = rng.standard_normal((4, 6))
        d = decompose_2d(k, 4)
        assert frobenius_norm(k - reconstruct(d)) < 1e-10


class TestStagePair:
    """A rank-1 cut of a trained-shape filter is exactly a separable layer's stage pair.

    The left factor is the first axis's 1-D stage and the right factor the
    stage over the other axes, so ``set_stage_kernels`` loads the cut and
    ``equivalent_kernels`` rebuilds ``reconstruct`` to the bit.
    """

    @pytest.mark.parametrize("variant, groups", [
        ("Conv3D", ((1, 2), (0,))),  # Conv2.5D's spatial kernel, then its temporal vector
        ("Conv2D_Boundary", None),  # the default 1-D stages, last axis first
    ])
    def test_rank_one_cut_loads_as_the_separable_twin(self, variant, groups):
        model = build_model(VariantSpec(variant), make_grid(), None, 0)
        layers = [l for l in model.all_layers() if isinstance(l, Conv) and len(l.extents) >= 2]
        assert layers
        for layer in layers:
            decompose = decompose_3d if len(layer.extents) == 3 else decompose_2d
            cuts = [decompose(k, 1) for k in layer.kernel.value]
            sep = SeparableConv(layer.c_in, layer.n_f, layer.extents, np.random.default_rng(0),
                                groups=groups)
            sep.set_stage_kernels([np.stack([d.terms[0][1] for d in cuts]),
                                   np.stack([d.terms[0][0] for d in cuts])])
            assert np.array_equal(sep.equivalent_kernels(), np.stack([reconstruct(d) for d in cuts]))


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

