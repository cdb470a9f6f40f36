"""An upsample folded into the convolution that reads it (polyphase correlation).

A linked ``Upsample`` hands its convolution the un-repeated tensor; the
convolution must compute exactly what it computes on the materialised
repeat: forward, input gradient and every kernel gradient.  The zoo-wide
tests check that the links ``Model`` sets change nothing but the work
done.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepconvwave.harness import VARIANT_NAMES, ExperimentConfig, VariantSpec, build_model
from sepconvwave.nn import Conv, Model, Reshape, SeparableConv, Tanh, Upsample

DESK = ExperimentConfig.from_file(Path(__file__).resolve().parent.parent / "configs" / "desk.cfg")


def _rel(a, b) -> float:
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), np.finfo(float).tiny))


def _run_pair(case, linked):
    """Upsample then conv, forward and backward; the conv's draws follow the case seed."""
    factors, extents, groups, stage_activation, c_in, n_f, small, seed = case
    rng = np.random.default_rng(seed)
    if groups == "conv":
        conv = Conv(c_in, n_f, extents, rng)
    else:
        conv = SeparableConv(c_in, n_f, extents, rng, groups=groups,
                             stage_activation=stage_activation)
    up = Upsample((1,) + factors)
    up.linked = linked
    x = rng.standard_normal(small)
    y = conv.forward(up.forward(x, training=True), training=True)
    grad = rng.standard_normal(y.shape)
    gx = up.backward(conv.backward(grad))
    return y, gx, [p.grad for _, p in conv.parameters()]


def _assert_fold_matches(case):
    y_fold, gx_fold, kgrads_fold = _run_pair(case, linked=True)
    y_full, gx_full, kgrads_full = _run_pair(case, linked=False)
    assert y_fold.shape == y_full.shape and gx_fold.shape == gx_full.shape
    assert _rel(y_fold, y_full) < 1e-12
    assert _rel(gx_fold, gx_full) < 1e-12
    for a, b in zip(kgrads_fold, kgrads_full):
        assert _rel(a, b) < 1e-12


@st.composite
def _pair_cases(draw):
    nd = draw(st.integers(1, 3))
    extents = tuple(draw(st.integers(1, 7)) for _ in range(nd))
    factors = tuple(draw(st.integers(1, 6)) for _ in range(nd))
    kind = draw(st.sampled_from(["conv", "per-axis", "2.5d", "any"]))
    if kind == "conv":
        groups = "conv"
    elif kind == "per-axis":
        groups = None
    elif kind == "2.5d" and nd == 3:
        groups = ((1, 2), (0,))
    else:
        # any partition into groups, in any axis order (non-ascending included)
        order = draw(st.permutations(range(nd)))
        cuts = sorted(draw(st.sets(st.integers(1, nd - 1), max_size=nd - 1))) if nd > 1 else []
        bounds = [0, *cuts, nd]
        groups = tuple(tuple(order[a:b]) for a, b in zip(bounds, bounds[1:]))
    # the smallest input whose repeat fits the kernel, plus up to two
    spatial = tuple(-(-k // f) + draw(st.integers(0, 2)) for k, f in zip(extents, factors))
    c_in, n_f, batch = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return (factors, extents, groups, draw(st.booleans()), c_in, n_f,
            (batch, c_in) + spatial, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_pair_cases())
def test_folded_pair_equals_upsample_then_conv(case):
    _assert_fold_matches(case)


@pytest.mark.parametrize(
    "factors, extents, groups, stage_activation",
    [
        # k < f: every phase's merged kernel has one or two taps
        ((4, 3), (2, 1), None, False),
        ((5,), (3,), "conv", False),
        # f = 6 with k = 5, as the mid-block time repeat of the 3D stacks
        ((6, 1, 1), (5, 5, 5), "conv", False),
        ((6, 1, 1), (5, 5, 5), ((1, 2), (0,)), False),
        ((6, 1, 1), (5, 5, 5), None, True),
        # all-ones factors (a mid-block repeat of 1)
        ((1, 1, 1), (5, 3, 3), "conv", False),
        ((1, 1, 1), (5, 3, 3), ((1, 2), (0,)), True),
        # the desk blocks
        ((2, 2, 2), (7, 5, 5), "conv", False),
        ((2, 2, 2), (7, 5, 5), ((1, 2), (0,)), False),
        ((2, 2, 2), (7, 5, 5), ((2, 0), (1,)), True),
    ],
)
def test_folded_pair_cases(factors, extents, groups, stage_activation):
    small = (2, 3) + tuple(-(-k // f) + 1 for k, f in zip(extents, factors))
    _assert_fold_matches((factors, extents, groups, stage_activation, 3, 2, small, 7))


def test_linked_upsample_returns_a_read_only_nan_stand_in():
    up = Upsample((1, 2, 3))
    up.linked = True
    x = np.random.default_rng(0).standard_normal((2, 4, 3, 5))
    out = up.forward(x)
    assert out.shape == (2, 4, 6, 15)
    assert not out.flags.writeable and np.isnan(out).all()
    assert out.small is x and out.factors == (1, 2, 3)
    grad = np.ones_like(x)
    assert up.backward(grad) is grad


def test_model_links_only_an_upsample_a_convolution_reads():
    rng = np.random.default_rng(0)
    ups = [Upsample((1, 2)), Upsample((2, 1)), Upsample((1, 2)), Upsample((1, 1))]
    model = Model(
        [ups[0], Conv(1, 2, (3,), rng), ups[1], Conv(4, 1, (3,), rng), ups[2]],
        {"u": [Tanh(), ups[3], Reshape((8,))]},
        input_shape=(1, 4),
    )
    # channel factor 2 is not folded; a trunk's last layer is not linked
    # to the head that reads it
    assert [u.linked for u in ups] == [True, False, False, False]
    x = rng.standard_normal((3, 1, 4))
    out_linked = model.forward(x)["u"]
    ups[0].linked = False
    assert _rel(out_linked, model.forward(x)["u"]) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.data())
def test_upsample_and_reshape_are_adjoint(shape, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    batch = (2,)
    factors = tuple(data.draw(st.integers(1, 3)) for _ in shape)
    up = Upsample(factors)
    x = rng.standard_normal(batch + tuple(shape))
    y = rng.standard_normal(batch + up.output_shape(tuple(shape)))
    lhs, rhs = np.vdot(up.forward(x), y), np.vdot(x, up.backward(y))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    reshape = Reshape((int(np.prod(shape)),))
    y = rng.standard_normal(batch + reshape.output_shape(tuple(shape)))
    lhs, rhs = np.vdot(reshape.forward(x, training=True), y), np.vdot(x, reshape.backward(y))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def _clear_links(model):
    for layer in model.all_layers():
        if isinstance(layer, Upsample):
            layer.linked = False


def _step(model, x, seed):
    out = model.forward(x, training=True)
    rng = np.random.default_rng(seed)
    model.zero_grad()
    model.backward({h: rng.standard_normal(o.shape) for h, o in out.items()})
    grads = [p.grad.copy() for p in model.parameters()]
    return out, grads, model.forward(x, training=False)


@pytest.mark.parametrize("regularization", [(), ("BN",), ("SL",)], ids=["Basic", "BN", "SL"])
@pytest.mark.parametrize("name", VARIANT_NAMES)
def test_zoo_links_change_nothing_but_the_work(name, regularization):
    spec = VariantSpec(name, regularization)
    linked = build_model(spec, DESK.grid(), DESK.zoo_widths, seed=0)
    unlinked = build_model(spec, DESK.grid(), DESK.zoo_widths, seed=0)
    _clear_links(unlinked)
    lists = [linked.trunk, *linked.heads.values()]
    pairs = [(a, b) for layers in lists for a, b in zip(layers, layers[1:])]
    for layer, after in pairs:
        if isinstance(layer, Upsample):
            assert layer.linked == isinstance(after, SeparableConv)
            # the last repeat of every stack stays materialised
            assert not (isinstance(after, Reshape) and layer.linked)
    n_links = sum(isinstance(a, Upsample) and a.linked for a, _ in pairs)
    assert (n_links == 0) == name.startswith("FC")

    state, state_unlinked = linked.state_dict(), unlinked.state_dict()
    assert list(state) == list(state_unlinked)
    assert all(np.array_equal(state[k], state_unlinked[k]) for k in state)
    assert [layer.kind for layer in linked.all_layers()] == \
        [layer.kind for layer in unlinked.all_layers()]

    x = np.random.default_rng(1).standard_normal((2,) + linked.input_shape)
    out, grads, out_eval = _step(linked, x, seed=2)
    ref, ref_grads, ref_eval = _step(unlinked, x, seed=2)
    for h in ref:
        assert _rel(out[h], ref[h]) < 1e-12
        assert _rel(out_eval[h], ref_eval[h]) < 1e-12
    # a bias that feeds batch norm has a true gradient of zero, so its
    # round-off is measured against the model's gradient scale
    scale = max(float(np.max(np.abs(g))) for g in ref_grads)
    for g, g_ref in zip(grads, ref_grads):
        assert np.max(np.abs(g - g_ref)) < 1e-12 * max(float(np.max(np.abs(g_ref))), scale)
