"""Model composition, Adam, schedules, losses, checkpoints, durable writes."""

import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from sepconvwave.harness import ExperimentConfig, VariantSpec, build_model
from sepconvwave.harness.tables import atomic_write_text
from sepconvwave.nn import (
    Adam,
    BatchNorm,
    Dense,
    Model,
    Parameter,
    Tanh,
    count_params,
    euler_residual,
    euler_residual_grads,
    lr_schedule,
    mse,
    mse_grad,
)
from sepconvwave.nn.checkpoint import load_tensors, save_model, save_tensors, load_model
from sepconvwave.wave import generate_dataset, make_grid, save_dataset


def two_head_model(seed=0, shared=True):
    rng = np.random.default_rng(seed)
    trunk = [Dense(3, 8, rng), Tanh()] if shared else []
    n_in = 8 if shared else 3
    heads = {}
    for name in ("u", "v"):
        layers = [] if shared else [Dense(3, 8, rng), Tanh()]
        layers += [Dense(n_in if shared else 8, 4, rng)]
        heads[name] = layers
    return Model(trunk, heads, input_shape=(3,))


class TestModel:
    def test_identity_dense_forward(self):
        rng = np.random.default_rng(40)
        layer = Dense(3, 3, rng)
        layer.weight.value[...] = np.eye(3)
        layer.bias.value[...] = 0.0
        model = Model([], {"u": [layer]}, input_shape=(3,))
        x = rng.standard_normal((5, 3))
        assert np.array_equal(model.forward(x)["u"], x)

    def test_shared_trunk_identical_heads(self):
        rng = np.random.default_rng(41)
        trunk = [Dense(3, 6, rng), Tanh()]
        head_layer = Dense(6, 2, rng)
        clone = Dense(6, 2, np.random.default_rng(0))
        clone.weight.value[...] = head_layer.weight.value
        clone.bias.value[...] = head_layer.bias.value
        model = Model(trunk, {"u": [head_layer], "v": [clone]}, input_shape=(3,))
        out = model.forward(rng.standard_normal((4, 3)))
        assert np.array_equal(out["u"], out["v"])

    def test_eval_forward_deterministic(self):
        model = two_head_model(seed=42)
        x = np.random.default_rng(1).standard_normal((6, 3))
        a = model.forward(x, training=False)
        b = model.forward(x, training=False)
        assert np.array_equal(a["u"], b["u"])
        assert np.array_equal(a["v"], b["v"])

    def test_backward_without_forward_raises(self):
        model = two_head_model()
        with pytest.raises(RuntimeError):
            model.backward({"u": np.zeros((1, 4)), "v": np.zeros((1, 4))})

    def test_zero_loss_grad_gives_zero_grads(self):
        model = two_head_model(seed=2)
        x = np.random.default_rng(3).standard_normal((5, 3))
        model.zero_grad()
        model.forward(x, training=True)
        model.backward({"u": np.zeros((5, 4)), "v": np.zeros((5, 4))})
        assert all(np.all(p.grad == 0.0) for p in model.parameters())

    def test_shared_trunk_grads_sum_over_heads(self):
        rng = np.random.default_rng(44)
        x = rng.standard_normal((6, 3))
        gu = rng.standard_normal((6, 4))
        gv = rng.standard_normal((6, 4))

        def trunk_grads(grads):
            model = two_head_model(seed=7)
            model.zero_grad()
            model.forward(x, training=True)
            model.backward(grads)
            return [p.grad.copy() for _, p in model.trunk[0].parameters()]

        joint = trunk_grads({"u": gu, "v": gv})
        only_u = trunk_grads({"u": gu, "v": np.zeros_like(gv)})
        only_v = trunk_grads({"u": np.zeros_like(gu), "v": gv})
        for j, a, b in zip(joint, only_u, only_v):
            assert np.max(np.abs(j - (a + b))) < 1e-12

    def test_shape_chain_validated_at_construction(self):
        rng = np.random.default_rng(46)
        with pytest.raises(ValueError):
            Model([Dense(3, 4, rng)], {"u": [Dense(5, 2, rng)]}, input_shape=(3,))

    def test_count_params_dense(self):
        rng = np.random.default_rng(47)
        model = Model([], {"u": [Dense(3, 4, rng)]}, input_shape=(3,))
        assert count_params(model).decomposed_count == 16

    def test_count_params_separable_vs_full(self):
        from sepconvwave.nn import SeparableConv

        rng = np.random.default_rng(48)
        sep = SeparableConv(1, 1, (3, 3), rng)
        model = Model([], {"u": [sep]}, input_shape=(1, 8, 8))
        budget = count_params(model)
        assert budget.decomposed_count == 7


class TestAdam:
    def test_first_step_magnitude(self):
        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=1e-3)
        p.grad[...] = 3.7
        opt.step()
        assert abs((1.0 - p.value[0]) - 1e-3) < 1e-6 * 1e-3

    def test_zero_gradient_no_motion(self):
        p = Parameter(np.array([1.0, -2.0]))
        opt = Adam([p])
        for _ in range(10):
            p.grad[...] = 0.0
            opt.step()
        assert np.array_equal(p.value, [1.0, -2.0])

    def test_deterministic_trajectories(self):
        def run():
            rng = np.random.default_rng(50)
            p = Parameter(rng.standard_normal(5))
            opt = Adam([p], lr=1e-2)
            for _ in range(25):
                p.grad[...] = p.value * 0.5 + 1.0
                opt.step()
            return p.value.copy()

        assert np.array_equal(run(), run())


class TestLrSchedule:
    def test_endpoints(self):
        assert lr_schedule(0, 1000) == 1e-3
        assert abs(lr_schedule(999, 1000) - 1e-4) < 1e-19

    def test_geometric_midpoint(self):
        lr = lr_schedule(4999.5, 10000)
        assert abs(lr - np.sqrt(1e-7)) < 1e-12

    def test_no_decay(self):
        assert lr_schedule(500, 1000, decay=False) == 1e-3

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lr_schedule(1000, 1000)


class TestLosses:
    def test_mse_zero_and_one(self):
        rng = np.random.default_rng(51)
        t = rng.standard_normal((3, 4))
        assert mse(t, t) == 0.0
        assert abs(mse(t + 1.0, t) - 1.0) < 1e-12

    def test_mse_matches_hand_sum(self):
        rng = np.random.default_rng(52)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((2, 3))
        total = sum((a[i, j] - b[i, j]) ** 2 for i in range(2) for j in range(3))
        assert abs(mse(a, b) - total / 6.0) < 1e-12

    def test_mse_grad_finite_difference(self):
        rng = np.random.default_rng(53)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((2, 3))
        g = mse_grad(a, b)
        h = 1e-6
        for idx in np.ndindex(2, 3):
            ap = a.copy()
            ap[idx] += h
            am = a.copy()
            am[idx] -= h
            num = (mse(ap, b) - mse(am, b)) / (2 * h)
            assert abs(num - g[idx]) < 1e-8

    def test_euler_zero_for_linear_motion(self):
        c = np.random.default_rng(54).standard_normal((1, 1, 3, 3))
        t = np.arange(5.0).reshape(1, 5, 1, 1)
        u = t * c
        v = np.broadcast_to(c, (1, 5, 3, 3)).copy()
        assert euler_residual(u, v, dt=1.0) < 1e-28

    def test_euler_unit_residual(self):
        u = np.zeros((2, 4, 3))
        v = np.ones((2, 4, 3))
        assert abs(euler_residual(u, v, dt=0.5) - 1.0) < 1e-15

    def test_euler_exact_forward_difference(self):
        rng = np.random.default_rng(55)
        dt = 0.1
        u = rng.standard_normal((3, 6, 4, 4))
        v = np.zeros_like(u)
        v[:, :-1] = (u[:, 1:] - u[:, :-1]) / dt
        assert euler_residual(u, v, dt) < 1e-12

    def test_euler_grads_finite_difference(self):
        rng = np.random.default_rng(56)
        dt = 0.3
        u = rng.standard_normal((2, 4, 3))
        v = rng.standard_normal((2, 4, 3))
        gu, gv = euler_residual_grads(u, v, dt)
        h = 1e-6
        for idx in [(0, 0, 0), (1, 3, 2), (0, 2, 1)]:
            up = u.copy()
            up[idx] += h
            um = u.copy()
            um[idx] -= h
            num = (euler_residual(up, v, dt) - euler_residual(um, v, dt)) / (2 * h)
            assert abs(num - gu[idx]) < 1e-6
            vp = v.copy()
            vp[idx] += h
            vm = v.copy()
            vm[idx] -= h
            num = (euler_residual(u, vp, dt) - euler_residual(u, vm, dt)) / (2 * h)
            assert abs(num - gv[idx]) < 1e-6

    def test_euler_needs_two_time_samples(self):
        with pytest.raises(ValueError):
            euler_residual(np.zeros((1, 1, 3)), np.zeros((1, 1, 3)), 0.1)


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(57)
        tensors = {
            "a.weight": rng.standard_normal((3, 4)),
            "b.bias": rng.standard_normal(7),
            "scalar": np.array(3.14159),
        }
        path = tmp_path / "model.scnn"
        save_tensors(path, tensors)
        loaded = load_tensors(path)
        assert set(loaded) == set(tensors)
        for name in tensors:
            assert loaded[name].shape == tensors[name].shape
            assert np.array_equal(loaded[name], tensors[name])
            assert loaded[name].tobytes() == tensors[name].tobytes()

    def test_loaded_tensors_are_read_only_and_bit_equal(self, tmp_path):
        # the reader hands out views of the bytes it read; writes go through load_state_dict
        rng = np.random.default_rng(59)
        tensors = {
            "scalar": np.array(-0.0),
            "empty": np.zeros((0, 3)),
            "transposed": rng.standard_normal((3, 5)).T,
            "nan_payload": np.frombuffer(struct.pack("<2Q", 0x7FF8000000000123, 1), dtype="<f8"),
        }
        path = tmp_path / "model.scnn"
        save_tensors(path, tensors)
        loaded = load_tensors(path)
        for name, array in tensors.items():
            assert loaded[name].dtype == np.float64 and loaded[name].shape == array.shape, name
            assert loaded[name].tobytes() == array.tobytes(), name
            assert not loaded[name].flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                loaded[name][...] = 1.0

    def test_same_bytes_on_rewrite(self, tmp_path):
        rng = np.random.default_rng(58)
        tensors = {"x": rng.standard_normal((5, 5))}
        p1, p2 = tmp_path / "a.scnn", tmp_path / "b.scnn"
        save_tensors(p1, tensors)
        save_tensors(p2, tensors)
        assert p1.read_bytes() == p2.read_bytes()

    def test_model_round_trip_with_running_stats(self, tmp_path):
        rng = np.random.default_rng(59)
        model = Model(
            [Dense(3, 4, rng), BatchNorm(4), Tanh()],
            {"u": [Dense(4, 2, rng)]},
            input_shape=(3,),
        )
        x = rng.standard_normal((8, 3))
        model.forward(x, training=True)  # move running stats off their init
        path = tmp_path / "m.scnn"
        save_model(path, model)

        clone = Model(
            [Dense(3, 4, np.random.default_rng(0)), BatchNorm(4), Tanh()],
            {"u": [Dense(4, 2, np.random.default_rng(0))]},
            input_shape=(3,),
        )
        load_model(path, clone)
        bn_orig = model.trunk[1]
        bn_clone = clone.trunk[1]
        assert np.array_equal(bn_orig.running_mean, bn_clone.running_mean)
        assert np.array_equal(bn_orig.running_var, bn_clone.running_var)
        out_a = model.forward(x, training=False)["u"]
        out_b = clone.forward(x, training=False)["u"]
        assert np.array_equal(out_a, out_b)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.scnn"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            load_tensors(path)

    def test_state_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(60)
        model = Model([], {"u": [Dense(3, 2, rng)]}, input_shape=(3,))
        path = tmp_path / "m.scnn"
        save_tensors(path, {"unrelated": np.zeros(3)})
        with pytest.raises(ValueError):
            load_model(path, model)

    def test_truncated_or_padded_file_rejected(self, tmp_path):
        rng = np.random.default_rng(61)
        whole = tmp_path / "whole.scnn"
        tensors = {"a.kernel": rng.standard_normal((2, 3)), "b.bias": rng.standard_normal(4)}
        save_tensors(whole, tensors)
        data = whole.read_bytes()
        # magic, version, name length, name, rank, extents, data, second record
        for cut in (2, 6, 10, 14, 20, 30, 60, len(data) - 1):
            path = tmp_path / f"cut{cut}.scnn"
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError, match=rf"cut{cut}\.scnn: truncated at byte \d+"):
                load_tensors(path)
        padded = tmp_path / "padded.scnn"
        padded.write_bytes(data + b"\x01" * 8)
        with pytest.raises(ValueError, match=rf"padded\.scnn: truncated at byte {len(data) + 4}"):
            load_tensors(padded)

    def test_every_strict_prefix_rejected_naming_the_file(self, tmp_path):
        # a prefix cut at a record boundary is a well-formed tensor file, so
        # the check runs through load_model, which also needs every tensor
        model = two_head_model(seed=63, shared=False)
        whole = tmp_path / "whole.scnn"
        save_model(whole, model)
        data = whole.read_bytes()
        path = tmp_path / "prefix.scnn"
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError, match=r"prefix\.scnn: "):
                load_model(path, two_head_model(seed=64, shared=False))

    @staticmethod
    def _record(name: bytes, array) -> bytes:
        array = np.asarray(array, dtype="<f8")
        return (struct.pack("<I", len(name)) + name
                + struct.pack(f"<Q{array.ndim}Q", array.ndim, *array.shape) + array.tobytes())

    def test_name_that_is_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "badname.scnn"
        path.write_bytes(b"SCNN" + struct.pack("<I", 1) + self._record(b"\xff\xfe", [1.0]))
        # magic, version, name length: the name starts at byte 12
        with pytest.raises(ValueError, match=r"badname\.scnn: tensor name at byte 12 is not UTF-8"):
            load_tensors(path)

    def test_repeated_name_rejected(self, tmp_path):
        first = self._record(b"a", [1.0, 2.0])
        path = tmp_path / "twice.scnn"
        path.write_bytes(b"SCNN" + struct.pack("<I", 1) + first + self._record(b"a", [3.0]))
        at = 8 + len(first) + 4
        with pytest.raises(ValueError, match=rf"twice\.scnn: repeated tensor name 'a' at byte {at}"):
            load_tensors(path)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        rng = np.random.default_rng(62)
        path = tmp_path / "m.scnn"
        save_tensors(path, {"a": rng.standard_normal(4)})
        before = path.read_bytes()
        # the second tensor cannot be encoded as float64: the write fails midway
        with pytest.raises(ValueError):
            save_tensors(path, {"a": rng.standard_normal(4), "b": np.array(["text"])})
        assert path.read_bytes() == before
        assert [q.name for q in tmp_path.iterdir()] == ["m.scnn"]


TINY = Path(__file__).resolve().parent.parent / "configs" / "tiny.cfg"


def _tiny_bn_model(seed):
    cfg = ExperimentConfig.from_file(TINY)
    return build_model(VariantSpec("Conv2.5D", ("BN",)), cfg.grid(), cfg.zoo_widths, seed=seed)


def _state_bytes(model):
    return {name: array.tobytes() for name, array in model.state_dict().items()}


class TestCheckedLoad:
    """A load restores every tensor of a Conv2.5D[BN] model, or changes nothing."""

    @pytest.fixture(scope="class")
    def source(self):
        # every tensor, running statistics too, differs from a fresh model's
        state = {k: v.copy() for k, v in _tiny_bn_model(seed=1).state_dict().items()}
        for i, array in enumerate(state.values()):
            array += 0.01 * (i + 1)
        return state

    def test_load_writes_every_tensor_into_the_models_own_arrays(self, tmp_path, source):
        target = _tiny_bn_model(seed=2)
        own = target.state_dict()
        path = tmp_path / "good.scnn"
        save_tensors(path, source)
        load_model(path, target)
        after = target.state_dict()
        assert all(after[name] is own[name] for name in own)
        assert _state_bytes(target) == {k: v.tobytes() for k, v in source.items()}

    @pytest.mark.parametrize(
        "misshape",
        [lambda a: a.reshape((1,) + a.shape), lambda a: np.append(a, 0.0)],
        ids=["same_count", "other_count"],
    )
    def test_any_misshapen_tensor_is_refused_and_changes_nothing(self, tmp_path, source, misshape):
        assert "head_u.04.batchnorm.running_mean" in source
        target = _tiny_bn_model(seed=2)
        before = _state_bytes(target)
        path = tmp_path / "bad.scnn"
        for name in source:
            save_tensors(path, {**source, name: misshape(source[name])})
            with pytest.raises(ValueError, match=rf"bad\.scnn: shape mismatch for '{re.escape(name)}'"):
                load_model(path, target)
            assert _state_bytes(target) == before, name

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_any_non_finite_tensor_is_refused_and_changes_nothing(self, tmp_path, source, value):
        target = _tiny_bn_model(seed=2)
        before = _state_bytes(target)
        path = tmp_path / "bad.scnn"
        # the first tensor in state order, and the last, which is checked after every other passed
        for name in (next(iter(source)), list(source)[-1]):
            bad = source[name].copy()
            bad.flat[-1] = value
            save_tensors(path, {**source, name: bad})
            with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: tensor "
                                                 rf"'{re.escape(name)}' is not finite$"):
                load_model(path, target)
            assert _state_bytes(target) == before, name


    def test_a_negative_running_variance_is_refused_and_changes_nothing(self, tmp_path, source):
        # it would reach the eval forward and the fold as the square root of a negative
        target = _tiny_bn_model(seed=2)
        before = _state_bytes(target)
        path = tmp_path / "bad.scnn"
        names = [name for name in source if name.endswith(".batchnorm.running_var")]
        assert names
        for name in names:
            bad = source[name].copy()
            bad.flat[0] = -1.0
            save_tensors(path, {**source, name: bad})
            with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: tensor "
                                                 rf"'{re.escape(name)}' has a negative variance$"):
                load_model(path, target)
            assert _state_bytes(target) == before, name


@pytest.mark.parametrize("writer", [
    lambda path: save_dataset(path, generate_dataset(make_grid(nx=12, ny=12, zoom_nx=4,
                                                               zoom_ny=4, nt=6), 2, seed=0)),
    lambda path: save_model(path, _tiny_bn_model(seed=0)),
    lambda path: atomic_write_text(path, "epoch,seconds\n0,1.0\n"),
], ids=["save_dataset", "save_model", "atomic_write_text"])
def test_file_is_fsynced_whole_before_it_is_renamed(tmp_path, monkeypatch, writer):
    # an OS crash after an unsynced rename can leave a short file under the final name
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        stat = os.fstat(fd)
        events.append(("fsync", stat.st_ino, stat.st_size))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.stat(src).st_ino, os.stat(src).st_size))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    path = tmp_path / "out.bin"
    writer(path)
    # one fsync of the temporary file, already holding every byte, then its rename
    assert [kind for kind, *_ in events] == ["fsync", "replace"]
    assert events[0][1:] == events[1][1:] == (path.stat().st_ino, path.stat().st_size)
