"""Layer forward contracts and gradient checks for every layer kind."""

import numpy as np
import pytest

from sepconvwave.nn import (
    BatchNorm,
    Conv,
    Dense,
    Parameter,
    Reshape,
    SeparableConv,
    Tanh,
    Upsample,
)
from sepconvwave.nn.gradcheck import max_relative_gradient_error
from sepconvwave.tensor_core import conv_valid

GRAD_TOL = 1e-6


def make_run(layer, x_param, weights):
    """Forward + random weighted-sum loss + backward.

    A weighted sum keeps per-coordinate gradients O(1), so the central
    difference is far above float64 noise.  The input is itself checked
    as a Parameter.
    """

    def run():
        for _, p in layer.parameters():
            p.grad[...] = 0.0
        x_param.grad[...] = 0.0
        out = layer.forward(x_param.value, training=True)
        loss = float(np.sum(out * weights))
        x_param.grad += layer.backward(weights)
        return loss

    return run


def check_layer_gradients(layer, x, seed=0):
    rng = np.random.default_rng(seed)
    x_param = Parameter(x)
    out = layer.forward(x, training=True)
    weights = rng.standard_normal(out.shape)
    run = make_run(layer, x_param, weights)
    params = [p for _, p in layer.parameters()] + [x_param]
    err = max_relative_gradient_error(run, params, n_coords=20, h=1e-5, seed=seed)
    assert err < GRAD_TOL, f"{layer.kind}: relative gradient error {err:.3e}"


class TestDense:
    def test_identity_weights(self):
        rng = np.random.default_rng(0)
        layer = Dense(3, 3, rng)
        layer.weight.value[...] = np.eye(3)
        layer.bias.value[...] = 0.0
        x = rng.standard_normal((4, 3))
        assert np.allclose(layer.forward(x), x, atol=1e-15, rtol=0)

    def test_linear_case_gradient(self):
        # loss = sum(out) for one sample makes dL/dW the input, broadcast per row
        rng = np.random.default_rng(1)
        layer = Dense(3, 2, rng)
        x = rng.standard_normal((1, 3))
        layer.forward(x, training=True)
        layer.backward(np.ones((1, 2)))
        assert np.allclose(layer.weight.grad, np.vstack([x, x]), atol=1e-15, rtol=0)
        assert np.allclose(layer.bias.grad, 1.0, atol=1e-15, rtol=0)

    def test_gradients(self):
        rng = np.random.default_rng(2)
        check_layer_gradients(Dense(4, 3, rng), rng.standard_normal((5, 4)))

    def test_shape_error(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            Dense(4, 3, rng).forward(np.zeros((2, 5)))


class TestConv:
    def test_matches_reference_conv(self):
        rng = np.random.default_rng(4)
        layer = Conv(c_in=2, n_f=3, extents=(2, 3), rng=rng)
        x = rng.standard_normal((1, 2, 5, 6))
        out = layer.forward(x)
        expected = np.stack([conv_valid(x[0].sum(axis=0), k) for k in layer.kernel.value])
        expected += layer.bias.value[:, None, None]
        assert np.max(np.abs(out[0] - expected)) < 1e-12

    def test_conv1d_and_conv3d_match_reference(self):
        rng = np.random.default_rng(5)
        for extents, spatial in [((3,), (7,)), ((2, 2, 2), (4, 5, 4))]:
            layer = Conv(c_in=2, n_f=2, extents=extents, rng=rng)
            x = rng.standard_normal((2, 2) + spatial)
            out = layer.forward(x)
            for b in range(2):
                summed = x[b].sum(axis=0)
                for j in range(2):
                    ref = conv_valid(summed, layer.kernel.value[j]) + layer.bias.value[j]
                    assert np.max(np.abs(out[b, j] - ref)) < 1e-12

    def test_gradients_1d(self):
        rng = np.random.default_rng(6)
        check_layer_gradients(Conv(2, 3, (3,), rng), rng.standard_normal((3, 2, 8)))

    def test_gradients_2d(self):
        rng = np.random.default_rng(7)
        check_layer_gradients(Conv(2, 2, (2, 3), rng), rng.standard_normal((2, 2, 5, 6)))

    def test_gradients_3d(self):
        rng = np.random.default_rng(8)
        check_layer_gradients(Conv(1, 2, (2, 2, 2), rng), rng.standard_normal((2, 1, 4, 4, 4)))

    def test_kernel_does_not_fit(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            Conv(1, 1, (5, 5), rng).forward(np.zeros((1, 1, 4, 6)))


class TestSeparableConv:
    def test_parameter_count_is_sum_not_product(self):
        rng = np.random.default_rng(10)
        layer = SeparableConv(c_in=3, n_f=4, extents=(3, 5), rng=rng)
        n = sum(p.size for _, p in layer.parameters())
        assert n == 4 * (3 + 5) + 4

    def test_gradients_2d(self):
        rng = np.random.default_rng(11)
        check_layer_gradients(
            SeparableConv(2, 3, (2, 3), rng), rng.standard_normal((2, 2, 5, 6))
        )

    def test_gradients_3d_three_stages(self):
        rng = np.random.default_rng(12)
        check_layer_gradients(
            SeparableConv(1, 2, (2, 2, 2), rng), rng.standard_normal((2, 1, 4, 4, 4))
        )

    def test_gradients_grouped_2p5d(self):
        rng = np.random.default_rng(13)
        check_layer_gradients(
            SeparableConv(2, 2, (2, 3, 3), rng, groups=((1, 2), (0,))),
            rng.standard_normal((2, 2, 4, 5, 5)),
        )

    def test_group_partition_validated(self):
        rng = np.random.default_rng(15)
        with pytest.raises(ValueError):
            SeparableConv(1, 1, (3, 3), rng, groups=((0,), (0,)))


class TestBatchNorm:
    def test_train_mode_normalizes(self):
        # input variance large enough that the eps guard stays below the
        # 1e-6 variance tolerance: var(xhat) = var/(var + eps)
        rng = np.random.default_rng(16)
        layer = BatchNorm(3)
        x = 5.0 + 10.0 * rng.standard_normal((32, 3, 4, 4))
        out = layer.forward(x, training=True)
        # gamma=1, beta=0 at init, so the output is the normalized activation
        mean = out.mean(axis=(0, 2, 3))
        var = out.var(axis=(0, 2, 3))
        assert np.max(np.abs(mean)) < 1e-10
        assert np.max(np.abs(var - 1.0)) < 1e-6

    def test_eval_uses_running_stats(self):
        rng = np.random.default_rng(17)
        layer = BatchNorm(2)
        for _ in range(50):
            layer.forward(1.0 + rng.standard_normal((16, 2)), training=True)
        x = 1.0 + rng.standard_normal((16, 2))
        out_eval = layer.forward(x, training=False)
        expected = (x - layer.running_mean) / np.sqrt(layer.running_var + layer.eps)
        assert np.allclose(out_eval, expected, atol=1e-12, rtol=0)

    def test_running_statistics_update_their_own_arrays(self):
        rng = np.random.default_rng(25)
        layer = BatchNorm(3)
        running = layer.state()
        for _ in range(3):
            old_mean, old_var = layer.running_mean.copy(), layer.running_var.copy()
            x3 = 2.0 + rng.standard_normal((8, 3, 5))
            layer.forward(x3, training=True)
            mean = np.einsum("bcs->c", x3) / 40
            xhat = x3 - mean[:, None]
            var = np.einsum("bcs,bcs->c", xhat, xhat) / 40
            m = layer.momentum
            assert np.array_equal(layer.running_mean, (1 - m) * old_mean + m * mean)
            assert np.array_equal(layer.running_var, (1 - m) * old_var + m * var)
        assert all(layer.state()[k] is running[k] for k in running)

    def test_gradients_dense_shape(self):
        rng = np.random.default_rng(18)
        check_layer_gradients(BatchNorm(4), rng.standard_normal((6, 4)))

    def test_gradients_conv_shape(self):
        rng = np.random.default_rng(19)
        check_layer_gradients(BatchNorm(2), rng.standard_normal((4, 2, 3, 3)))

    def test_gradients_volume_shape(self):
        rng = np.random.default_rng(24)
        check_layer_gradients(BatchNorm(3), rng.standard_normal((4, 3, 2, 3, 3)))

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            BatchNorm(3).forward(np.zeros((4, 2)))


class TestTanh:
    def test_forward(self):
        x = np.linspace(-2, 2, 12).reshape(3, 4)
        assert np.array_equal(Tanh().forward(x), np.tanh(x))

    def test_gradients(self):
        rng = np.random.default_rng(20)
        check_layer_gradients(Tanh(), rng.standard_normal((3, 4)))


class TestShapeLayers:
    def test_reshape_round_trip(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((2, 12))
        layer = Reshape((3, 4))
        out = layer.forward(x, training=True)
        assert out.shape == (2, 3, 4)
        assert np.array_equal(layer.backward(out), x)

    def test_reshape_backward_needs_a_training_forward(self):
        layer = Reshape((3, 4))
        grad = np.zeros((2, 3, 4))
        with pytest.raises(RuntimeError, match="reshape backward"):
            layer.backward(grad)
        layer.forward(np.zeros((2, 12)), training=True)
        layer.forward(np.zeros((5, 12)))  # an eval forward keeps nothing
        with pytest.raises(RuntimeError, match="reshape backward"):
            layer.backward(grad)
        layer.forward(np.zeros((2, 12)), training=True)
        assert layer.backward(grad).shape == (2, 12)
        with pytest.raises(RuntimeError, match="reshape backward"):
            layer.backward(grad)  # the cache is taken once

    def test_upsample_repeats(self):
        x = np.array([[[1.0, 2.0]]])  # [batch=1, c=1, n=2]
        out = Upsample((1, 3)).forward(x)
        assert np.array_equal(out[0, 0], [1.0, 1.0, 1.0, 2.0, 2.0, 2.0])

    def test_upsample_backward_sums_blocks(self):
        rng = np.random.default_rng(22)
        layer = Upsample((1, 2, 2))
        x = rng.standard_normal((2, 3, 2, 2))
        layer.forward(x)
        g = rng.standard_normal((2, 3, 4, 4))
        gin = layer.backward(g)
        assert np.allclose(
            gin[0, 0, 0, 0], g[0, 0, :2, :2].sum(), atol=1e-12, rtol=0
        )

    def test_upsample_gradients(self):
        rng = np.random.default_rng(23)
        check_layer_gradients(Upsample((1, 2, 3)), rng.standard_normal((2, 2, 3, 2)))

    def test_output_shapes(self):
        assert Reshape((4, 2)).output_shape((8,)) == (4, 2)
        assert Upsample((2, 3)).output_shape((4, 5)) == (8, 15)
