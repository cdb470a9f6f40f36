"""Model zoo construction: shapes, sharing, counts, legality."""

from pathlib import Path

import numpy as np
import pytest

from sepconvwave.harness import (
    VARIANT_NAMES,
    ExperimentConfig,
    VariantSpec,
    build_model,
    parse_regularization,
    resolve_widths,
)
from sepconvwave.nn import SeparableConv, Tanh, count_params
from sepconvwave.nn.gradcheck import max_relative_gradient_error
from sepconvwave.wave import make_grid

# small grid keeps every-variant sweeps fast; widths fit its chains
GRID = make_grid(nx=32, ny=32, zoom_nx=8, zoom_ny=8, nt=16)
WIDTHS = {
    "fc.width": 16,
    "fcb.width": 16,
    "conv2d.c0": 4, "conv2d.nf": 4, "conv2d.k": 3, "conv2d.up": 2,
    "conv2dt.c0": 4, "conv2dt.nf": 4, "conv2dt.k": 3, "conv2dt.up": 2,
    "conv3d.nf": 4, "conv3d.kt": 5, "conv3d.ks": 3,
    "conv3d.kt3": 5, "conv3d.ks3": 3, "conv3d.mid3_t": 1,
    "conv3d.up_t": 2, "conv3d.up_s": 2,
    "conv1db.c0": 4, "conv1db.nf": 4, "conv1db.k": 3,
    "conv2db.c0": 2, "conv2db.nf": 4, "conv2db.kt": 3, "conv2db.ks": 3, "conv2db.up_t": 2,
}


def expected_output_shape(spec, grid):
    if spec.boundary:
        per_slice = (grid.n_boundary,)
    else:
        per_slice = (grid.zoom_nx, grid.zoom_ny)
    if spec.time_conditioned:
        return per_slice
    return (grid.nt,) + per_slice


class TestBuildAllVariants:
    @pytest.mark.parametrize("name", VARIANT_NAMES)
    def test_forward_shapes(self, name):
        spec = VariantSpec(name)
        model = build_model(spec, GRID, WIDTHS, seed=0)
        x = np.random.default_rng(1).standard_normal((3, spec.input_dim))
        out = model.forward(x)
        expected = expected_output_shape(spec, GRID)
        assert out["u"].shape == (3,) + expected
        assert out["v"].shape == (3,) + expected

    @pytest.mark.parametrize("name", VARIANT_NAMES)
    def test_one_step_and_gradients(self, name):
        # every variant x a legal regularization runs forward/backward and
        # passes the finite-difference check on sampled coordinates; a
        # weighted-sum loss keeps per-coordinate gradients above FD noise
        spec = VariantSpec(name, ("SL",))
        model = build_model(spec, GRID, WIDTHS, seed=2)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, spec.input_dim))
        out = model.forward(x, training=True)
        # weights scaled so the loss stays O(1): FD noise is proportional
        # to the loss value and must sit below the tolerance
        weights = {
            h: rng.standard_normal(o.shape) / np.sqrt(o.size) for h, o in out.items()
        }

        def run():
            model.zero_grad()
            out = model.forward(x, training=True)
            loss = sum(float(np.sum(out[h] * weights[h])) for h in out)
            model.backward(weights)
            return loss

        params = model.parameters()[:6]  # probe a few tensors, keep it quick
        # the absolute floor tolerates coordinates whose true gradient
        # cancels to ~1e-8 through the deep stack, far below FD noise
        err = max_relative_gradient_error(run, params, n_coords=4, h=1e-5, seed=4, floor=1e-4)
        assert err < 1e-6, f"{name}: gradient error {err:.2e}"

    @pytest.mark.parametrize("name", VARIANT_NAMES)
    def test_every_legal_regularization_constructs_and_steps(self, name):
        from sepconvwave.harness import REGULARIZATION_COLUMNS, parse_regularization
        from sepconvwave.nn import Adam

        rng = np.random.default_rng(6)
        for column in REGULARIZATION_COLUMNS:
            spec = VariantSpec(name, parse_regularization(column))
            model = build_model(spec, GRID, WIDTHS, seed=1)
            x = rng.standard_normal((2, spec.input_dim))
            out = model.forward(x, training=True)
            model.zero_grad()
            model.backward({h: np.ones_like(o) / o.size for h, o in out.items()})
            opt = Adam(model.parameters(), lr=1e-3)
            before = model.state_dict()["trunk.00.dense.weight" if spec.shared else
                                        "head_u.00.dense.weight"].copy()
            opt.step()
            after = model.state_dict()["trunk.00.dense.weight" if spec.shared else
                                       "head_u.00.dense.weight"]
            assert not np.array_equal(before, after), f"{name} [{column}]: no update"


class TestSharing:
    def test_sl_trunk_is_shared_storage(self):
        spec = VariantSpec("Conv2.5D", ("SL",))
        model = build_model(spec, GRID, WIDTHS, seed=0)
        assert len(model.trunk) > 0
        x = np.random.default_rng(5).standard_normal((2, 3))
        model.zero_grad()
        out = model.forward(x, training=True)
        model.backward({h: np.ones_like(o) for h, o in out.items()})
        assert any(np.any(p.grad != 0) for p in model.parameters())

    def test_sl_reduces_params(self):
        basic = count_params(build_model(VariantSpec("Conv3D"), GRID, WIDTHS, 0))
        shared = count_params(build_model(VariantSpec("Conv3D", ("SL",)), GRID, WIDTHS, 0))
        assert shared.decomposed_count < basic.decomposed_count

    def test_bn_and_euler_combination_rejected(self):
        with pytest.raises(ValueError):
            VariantSpec("Conv2.5D", ("BN", "E"))

    def test_euler_flag_does_not_change_counts(self):
        for name in VARIANT_NAMES:
            basic = count_params(build_model(VariantSpec(name), GRID, WIDTHS, 0))
            euler = count_params(build_model(VariantSpec(name, ("E",)), GRID, WIDTHS, 0))
            assert basic.decomposed_count == euler.decomposed_count

    def test_bn_adds_small_count(self):
        basic = count_params(build_model(VariantSpec("Conv2D"), GRID, WIDTHS, 0))
        bn = count_params(build_model(VariantSpec("Conv2D", ("BN",)), GRID, WIDTHS, 0))
        assert 0 < bn.decomposed_count - basic.decomposed_count < 0.2 * basic.decomposed_count


class TestDeskCounts:
    def test_desk_compression_ratios(self):
        desk = make_grid()
        counts = {}
        for name in ("Conv2D", "Conv3D", "Conv2.5D", "Conv2.5Db"):
            counts[name] = count_params(build_model(VariantSpec(name), desk, None, 0)).decomposed_count
        assert counts["Conv3D"] / counts["Conv2.5Db"] >= 4.0
        assert counts["Conv2.5D"] < counts["Conv2D"]

    def test_separable_layer_counts_exact(self):
        desk = make_grid()
        model = build_model(VariantSpec("Conv2.5Db"), desk, None, 0)
        for layer in model.all_layers():
            if isinstance(layer, SeparableConv):
                n = sum(p.size for _, p in layer.parameters())
                assert n == layer.n_f * sum(layer.extents) + layer.n_f

    def test_single_head_build(self):
        model = build_model(VariantSpec("Conv2.5D"), GRID, WIDTHS, 0, heads=("u",))
        assert model.head_names == ("u",)
        out = model.forward(np.zeros((2, 3)))
        assert set(out) == {"u"}

    def test_repeated_head_rejected(self):
        with pytest.raises(ValueError, match="'u' is repeated"):
            build_model(VariantSpec("FC_t"), GRID, WIDTHS, 0, heads=("u", "u"))

    def test_unknown_width_key_rejected(self):
        with pytest.raises(ValueError):
            resolve_widths({"conv3d.bogus": 1})

    def test_infeasible_chain_reports_clearly(self):
        grid = make_grid(nx=32, ny=32, zoom_nx=9, zoom_ny=9, nt=16)
        with pytest.raises(ValueError, match="divisible|chain"):
            build_model(VariantSpec("Conv2D"), grid, WIDTHS, 0)


TINY = ExperimentConfig.from_file(Path(__file__).resolve().parent.parent / "configs" / "tiny.cfg")
CONTRACT_CELLS = [(name, column) for name in VARIANT_NAMES for column in ("Basic", "BN", "SL")]


def _mutations(in_shape):
    """Per-sample shapes one step off ``in_shape``: first or last extent +1, one axis more."""
    first = (in_shape[0] + 1,) + in_shape[1:]
    last = in_shape[:-1] + (in_shape[-1] + 1,)
    return first, last, in_shape + (1,)


@pytest.mark.parametrize("name, column", CONTRACT_CELLS,
                         ids=[f"{n}[{c}]" for n, c in CONTRACT_CELLS])
def test_every_layer_forward_follows_its_output_shape(name, column):
    """``output_shape`` is each layer's one shape rule, and ``forward`` keeps it.

    Every layer's output matches ``output_shape`` of its input in a
    training and an eval forward.  On a per-sample shape one step off,
    ``forward`` raises ``ValueError`` exactly where ``output_shape`` does
    and otherwise returns the shape it gives; every layer but ``Tanh``
    rejects at least one such shape.
    """
    spec = VariantSpec(name, parse_regularization(column))
    model = build_model(spec, TINY.grid(), TINY.zoo_widths, seed=0)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2,) + model.input_shape)
    seen = []  # every layer with the per-sample shape it reads
    for training in (True, False):
        for head in model.heads.values():
            z = x
            for layer in model.trunk + head:
                seen.append((layer, z.shape[1:]))
                out = layer.forward(z, training)
                assert out.shape[1:] == layer.output_shape(z.shape[1:]), (layer.kind, training)
                z = out
    for layer, in_shape in seen:
        rejected = 0
        for bad in _mutations(in_shape):
            try:
                expected = layer.output_shape(bad)
            except ValueError:
                with pytest.raises(ValueError):
                    layer.forward(rng.standard_normal((2,) + bad))
                rejected += 1
            else:
                assert layer.forward(rng.standard_normal((2,) + bad)).shape[1:] == expected
        assert rejected or isinstance(layer, Tanh), layer.kind
