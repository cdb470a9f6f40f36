"""LHS sampling, scaling, dataset generation and the binary format."""

import hashlib
import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from sepconvwave.harness import ExperimentConfig
from sepconvwave.wave import (
    Scaler,
    WaveDataset,
    WaveParams,
    generate_dataset,
    lhs_sample,
    load_dataset,
    make_grid,
    restrict,
    ring_index,
    ring_traces,
    save_dataset,
    solve_wave,
    submodel_solve,
    velocity_field,
)

UNIT3 = [(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]
FIELDS = ("u", "v", "boundary_u", "boundary_v")


def _constant_dataset(grid, values):
    """One sample per value: its displacement holds that value at every node and step."""
    window = np.stack([np.full((grid.nt, grid.zoom_nx, grid.zoom_ny), val) for val in values])
    params = np.tile(WaveParams(1.0, 0.8, 0.8), (len(values), 1))
    return WaveDataset(grid, params, window)


class TestLhsSample:
    def test_one_sample_per_stratum(self):
        n = 4
        samples = lhs_sample(n, UNIT3, seed=1)
        for dim in range(3):
            values = sorted(s[dim] for s in samples)
            for k, v in enumerate(values):
                assert k / n <= v < (k + 1) / n

    def test_standard_cardinalities(self):
        # the default experiment sizes: 100 training, 25 test draws
        assert len(lhs_sample(100, UNIT3, seed=2)) == 100
        assert len(lhs_sample(25, UNIT3, seed=3)) == 25

    def test_marginal_uniformity_bound(self):
        n = 50
        samples = lhs_sample(n, UNIT3, seed=4)
        for dim in range(3):
            values = np.sort([s[dim] for s in samples])
            for k in range(n + 1):
                ecdf = np.sum(values < k / n) / n
                assert abs(ecdf - k / n) <= 1.0 / n + 1e-12

    def test_exclusion_respected(self):
        rect = (0.3, 0.7, 0.3, 0.7)
        samples = lhs_sample(200, UNIT3, seed=5, exclusion=rect)
        for s in samples:
            inside = rect[0] <= s.x_s <= rect[1] and rect[2] <= s.y_s <= rect[3]
            assert not inside

    def test_exclusion_redraw_keeps_stratification(self):
        n = 10
        rect = (0.0, 0.35, 0.0, 0.35)
        samples = lhs_sample(n, UNIT3, seed=6, exclusion=rect)
        for dim in (1, 2):
            values = sorted(s[dim] for s in samples)
            for k, v in enumerate(values):
                assert k / n <= v < (k + 1) / n

    def test_impossible_exclusion_raises(self):
        # with one stratum the whole box is one cell; swallowing it must fail
        with pytest.raises(ValueError, match="exclusion"):
            lhs_sample(1, UNIT3, seed=7, exclusion=(-0.1, 1.1, -0.1, 1.1))

    def test_deterministic(self):
        a = lhs_sample(20, UNIT3, seed=8, exclusion=(0.4, 0.6, 0.4, 0.6))
        b = lhs_sample(20, UNIT3, seed=8, exclusion=(0.4, 0.6, 0.4, 0.6))
        assert a == b

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            lhs_sample(4, [(0.0, 1.0), (1.0, 0.0), (0.0, 1.0)], seed=9)


class TestScaler:
    def test_two_point_data(self):
        assert Scaler._GUARD < 1e-6
        grid = make_grid(nx=16, ny=16, zoom_nx=4, zoom_ny=4, nt=4)
        ds = _constant_dataset(grid, [0.0, 2.0])
        scaler = Scaler().fit(ds)
        mean, std = scaler.stats["u"]
        assert mean == 1.0 and std == 1.0
        assert np.array_equal(scaler.transform(np.array([0.0, 2.0]), "u"), [-1.0, 1.0])

    def test_transform_inverse_identity(self):
        grid = make_grid(nx=20, ny=20, zoom_nx=6, zoom_ny=6, nt=8)
        ds = generate_dataset(grid, 3, seed=10)
        scaler = Scaler().fit(ds)
        x = ds.stack("u")
        back = scaler.inverse(scaler.transform(x, "u"), "u")
        assert np.max(np.abs(back - x)) < 1e-12

    def test_inverse_unscales_its_argument_in_place(self):
        grid = make_grid(nx=20, ny=20, zoom_nx=6, zoom_ny=6, nt=8)
        scaler = Scaler().fit(generate_dataset(grid, 3, seed=10))
        mean, std = scaler.stats["v"]
        x = np.random.default_rng(3).standard_normal((3, 8, 6, 6))
        expected = x * std + mean
        assert scaler.inverse(x, "v") is x
        assert np.array_equal(x, expected)

    def test_degenerate_spread_guard(self):
        grid = make_grid(nx=16, ny=16, zoom_nx=4, zoom_ny=4, nt=4)
        scaler = Scaler().fit(_constant_dataset(grid, [3.0]))
        assert scaler.stats["u"] == (3.0, 1.0)
        assert np.all(scaler.transform(np.full(4, 3.0), "u") == 0.0)


class TestDataset:
    def test_sample_fields_consistent(self):
        grid = make_grid(nx=24, ny=24, zoom_nx=8, zoom_ny=8, nt=16)
        ds = generate_dataset(grid, 3, seed=22)
        for b, params in enumerate(ds.params):
            full = solve_wave(params, grid)
            assert np.array_equal(ds.u[b], restrict(full, grid))
            assert np.array_equal(ds.v[b], restrict(velocity_field(full, grid.dt), grid))
        assert ds.boundary_u.shape == ds.boundary_v.shape == (3, grid.nt, grid.n_boundary)
        assert np.all(np.isfinite(ds.u))
        assert np.all(ds.u[:, 0] == 0.0)

    def test_boundary_trace_matches_zoom_ring(self):
        grid = make_grid(nx=24, ny=24, zoom_nx=8, zoom_ny=8, nt=16)
        ds = generate_dataset(grid, 3, seed=23)
        ii, jj = np.divmod(ring_index(grid), grid.zoom_ny)
        assert np.array_equal(ds.boundary_u, ds.u[:, :, ii, jj])
        assert np.array_equal(ds.boundary_v, ds.v[:, :, ii, jj])

    def test_stack_is_the_datasets_own_read_only_array(self, tmp_path):
        grid = make_grid(nx=20, ny=20, zoom_nx=6, zoom_ny=6, nt=8)
        generated = generate_dataset(grid, 3, seed=24)
        save_dataset(tmp_path / "data.wds", generated)
        for ds in (generated, load_dataset(tmp_path / "data.wds")):
            for field in FIELDS:
                x = ds.stack(field)
                assert x is ds.stack(field) and x is getattr(ds, field)
                assert x.flags.c_contiguous and x.shape[0] == len(ds) == 3
                # the layout np.stack gives the per-sample views
                assert x.tobytes() == np.stack([getattr(s, field) for s in ds.samples]).tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    x[0] = 1.0
                with pytest.raises(ValueError, match="read-only"):
                    getattr(ds.samples[1], field)[...] = 0.0
            assert ds.param_matrix().tolist() == [list(p) for p in ds.params]

    def test_fields_are_derived_from_u(self):
        grid = make_grid(nx=20, ny=20, zoom_nx=6, zoom_ny=7, nt=5)
        rng = np.random.default_rng(30)
        params, u = rng.standard_normal((3, 3)), rng.standard_normal((3, grid.nt, 6, 7))
        ds = WaveDataset(grid, params, u)
        v = velocity_field(u, grid.dt)
        assert ds.v.tobytes() == v.tobytes()
        assert ds.boundary_u.tobytes() == ring_traces(u, grid).tobytes()
        assert ds.boundary_v.tobytes() == ring_traces(v, grid).tobytes()
        assert ds.param_matrix() is ds.params is params and ds.u is u
        for name in ("params", *FIELDS):
            assert not getattr(ds, name).flags.writeable, name
        with pytest.raises(TypeError):
            WaveDataset(grid, params, u, v)

    def test_sources_outside_zoom(self):
        grid = make_grid(nx=20, ny=20, zoom_nx=8, zoom_ny=8, nt=8)
        ds = generate_dataset(grid, 12, seed=11)
        x0, x1, y0, y1 = grid.zoom_footprint()
        for s in ds.samples:
            inside = x0 <= s.params.x_s <= x1 and y0 <= s.params.y_s <= y1
            assert not inside

    def test_round_trip_bit_exact(self, tmp_path):
        grid = make_grid(nx=20, ny=20, zoom_nx=6, zoom_ny=6, nt=8)
        ds = generate_dataset(grid, 4, seed=12)
        path = tmp_path / "data.wds"
        save_dataset(path, ds)
        loaded = load_dataset(path)
        assert loaded.grid == ds.grid
        assert len(loaded) == len(ds)
        for a, b in zip(loaded.samples, ds.samples):
            assert a.params == b.params
            for field in ("u", "v", "boundary_u", "boundary_v"):
                assert np.array_equal(getattr(a, field), getattr(b, field))
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes()

    def test_same_seed_same_bytes(self, tmp_path):
        grid = make_grid(nx=20, ny=20, zoom_nx=6, zoom_ny=6, nt=8)
        p1, p2 = tmp_path / "a.wds", tmp_path / "b.wds"
        save_dataset(p1, generate_dataset(grid, 3, seed=13))
        save_dataset(p2, generate_dataset(grid, 3, seed=13))
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seed_different_data(self, tmp_path):
        grid = make_grid(nx=20, ny=20, zoom_nx=6, zoom_ny=6, nt=8)
        p1, p2 = tmp_path / "a.wds", tmp_path / "b.wds"
        save_dataset(p1, generate_dataset(grid, 3, seed=14))
        save_dataset(p2, generate_dataset(grid, 3, seed=15))
        assert p1.read_bytes() != p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.wds"
        path.write_bytes(b"JUNKJUNK")
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_truncated_file_names_file_and_offset(self, tmp_path):
        grid = make_grid(nx=20, ny=20, zoom_nx=6, zoom_ny=6, nt=8)
        whole = tmp_path / "whole.wds"
        save_dataset(whole, generate_dataset(grid, 2, seed=16))
        data = whole.read_bytes()
        # header, grid block, params rank, extents and data, u rank and extents, mid-file, last byte
        for cut in (0, 3, 6, 40, 100, 110, 124, 130, 150, 170, 180, len(data) // 2, len(data) - 1):
            path = tmp_path / f"cut{cut}.wds"
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError, match=rf"cut{cut}\.wds: truncated at byte \d+"):
                load_dataset(path)

    def test_every_strict_prefix_rejected_naming_the_file(self, tmp_path):
        grid = make_grid(nx=12, ny=12, zoom_nx=4, zoom_ny=4, nt=3)
        whole = tmp_path / "whole.wds"
        save_dataset(whole, generate_dataset(grid, 2, seed=21))
        data = whole.read_bytes()
        path = tmp_path / "prefix.wds"
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError, match=r"prefix\.wds: truncated at byte \d+"):
                load_dataset(path)

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        import sepconvwave.wave.dataset as dataset_module

        grid = make_grid(nx=20, ny=20, zoom_nx=6, zoom_ny=6, nt=8)
        path = tmp_path / "data.wds"
        save_dataset(path, generate_dataset(grid, 2, seed=18))
        before = path.read_bytes()
        write_array = dataset_module.write_array
        calls = []

        def failing(fh, array):
            calls.append(1)
            if len(calls) == 2:  # the u record
                raise OSError("disk full")
            write_array(fh, array)

        monkeypatch.setattr(dataset_module, "write_array", failing)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(path, generate_dataset(grid, 2, seed=19))
        assert path.read_bytes() == before
        assert [q.name for q in tmp_path.iterdir()] == ["data.wds"]

    def test_trailing_bytes_rejected(self, tmp_path):
        grid = make_grid(nx=20, ny=20, zoom_nx=6, zoom_ny=6, nt=8)
        path = tmp_path / "padded.wds"
        save_dataset(path, generate_dataset(grid, 2, seed=17))
        size = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(ValueError, match=rf"padded\.wds: 8 trailing bytes at byte {size}"):
            load_dataset(path)

    @pytest.mark.parametrize("field, value", [("dt", 0.0), ("lx", 0.0), ("c", float("nan"))])
    def test_invalid_grid_block_rejected_naming_the_file(self, tmp_path, field, value):
        grid = make_grid(nx=20, ny=20, zoom_nx=6, zoom_ny=6, nt=8)
        path = tmp_path / "grid.wds"
        save_dataset(path, generate_dataset(grid, 2, seed=26))
        data = bytearray(path.read_bytes())
        # the grid block's four float64 fields follow the 8-byte header
        at = 8 + 8 * ("lx", "ly", "c", "dt").index(field)
        data[at : at + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=rf"grid\.wds: grid block: grid needs finite .* {field} = {value}$"):
            load_dataset(path)

    def test_zero_sample_count_rejected(self, tmp_path, write_wds):
        # the generator never writes one; it used to load and fail later, in the scalers
        grid = make_grid(nx=20, ny=20, zoom_nx=6, zoom_ny=6, nt=8)
        window = np.zeros((0, grid.nt, 6, 6))
        path = tmp_path / "empty.wds"
        write_wds(path, grid, np.zeros((0, 3)), window)
        with pytest.raises(ValueError, match=r"empty\.wds: sample count is 0"):
            load_dataset(path)

    @pytest.mark.parametrize("shape", [(), (2,), (2, 4), (2, 3, 1)], ids=str)
    def test_params_record_not_n_by_3_rejected(self, tmp_path, write_wds, shape):
        grid = make_grid(nx=20, ny=20, zoom_nx=6, zoom_ny=6, nt=8)
        ds = generate_dataset(grid, 2, seed=27)
        path = tmp_path / "params.wds"
        write_wds(path, grid, np.zeros(shape), ds.u)
        at = 8 + struct.calcsize("<4d7Q")
        shape = re.escape(str(shape))
        with pytest.raises(ValueError, match=rf"params\.wds: params at byte {at} has shape {shape}, not"):
            load_dataset(path)

    def test_version_1_file_rejected(self, tmp_path):
        # version 1 held per-sample records; generate rewrites such a file as version 2
        grid = make_grid(nx=20, ny=20, zoom_nx=6, zoom_ny=6, nt=8)
        path = tmp_path / "old.wds"
        save_dataset(path, generate_dataset(grid, 2, seed=28))
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 1)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=r"old\.wds: unsupported dataset version 1$"):
            load_dataset(path)

    def test_version_2_file_rejected(self, tmp_path):
        # version 2 also stored v and both ring traces, which are now derived from u on load
        grid = make_grid(nx=20, ny=20, zoom_nx=6, zoom_ny=6, nt=8)
        path = tmp_path / "old.wds"
        save_dataset(path, generate_dataset(grid, 2, seed=28))
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 2)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=r"old\.wds: unsupported dataset version 2$"):
            load_dataset(path)

    def test_fewer_than_3_steps_rejected(self, tmp_path, write_wds):
        # the grid itself is valid, but the velocity needs three time steps
        grid = make_grid(nx=20, ny=20, zoom_nx=6, zoom_ny=6, nt=2)
        path = tmp_path / "short.wds"
        write_wds(path, grid, np.zeros((1, 3)), np.zeros((1, 2, 6, 6)))
        with pytest.raises(ValueError, match=r"short\.wds: grid block: nt = 2; the velocity needs nt >= 3$"):
            load_dataset(path)

    @pytest.mark.parametrize("field, sample, column, value", [
        ("params", 1, 2, np.nan), ("params", 0, 0, -np.inf), ("u", 2, 40, np.inf), ("u", 1, 0, np.nan),
    ])
    def test_non_finite_value_rejected(self, tmp_path, write_wds, field, sample, column, value):
        grid = make_grid(nx=20, ny=20, zoom_nx=6, zoom_ny=6, nt=8)
        ds = generate_dataset(grid, 3, seed=31)
        arrays = {"params": ds.params.copy(), "u": ds.u.copy()}
        arrays[field][sample].flat[column] = value
        path = tmp_path / "bad.wds"
        write_wds(path, grid, *arrays.values())
        with pytest.raises(ValueError, match=rf"bad\.wds: {field} of sample {sample} is not finite$"):
            load_dataset(path)

    def test_overflowing_velocity_rejected_without_a_warning(self, tmp_path, write_wds):
        # u is finite, but its central difference 1e308 - (-1e308) is not
        grid = make_grid(nx=20, ny=20, zoom_nx=6, zoom_ny=6, nt=3)
        u = np.zeros((2, 3, 6, 6))
        u[1, 0, 0, 0], u[1, 2, 0, 0] = 1e308, -1e308
        path = tmp_path / "fast.wds"
        write_wds(path, grid, np.ones((2, 3)), u)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"fast\.wds: v of sample 1 is not finite$"):
                load_dataset(path)

    def test_rows_written_field_by_field_match_save_dataset(self, tmp_path, write_wds):
        grid = make_grid(nx=20, ny=20, zoom_nx=6, zoom_ny=6, nt=8)
        ds = generate_dataset(grid, 2, seed=25)
        save_dataset(tmp_path / "saved.wds", ds)
        write_wds(tmp_path / "written.wds", grid, ds.params, ds.u)
        assert (tmp_path / "written.wds").read_bytes() == (tmp_path / "saved.wds").read_bytes()

    @pytest.mark.parametrize("axis, field, cut", [(0, "u", 3)])
    def test_sample_shape_disagreeing_with_grid_rejected(self, tmp_path, write_wds, axis, field, cut):
        # a well-formed file whose field contradicts its grid block: its grid axis ``axis`` cut
        grid = make_grid(nx=32, ny=32, zoom_nx=16, zoom_ny=16, nt=8)
        ds = generate_dataset(grid, 2, seed=20)
        expected = getattr(ds, field).shape
        bad = np.take(getattr(ds, field), np.arange(cut), axis=1 + axis)
        path = tmp_path / "bad.wds"
        write_wds(path, grid, ds.params, bad)
        # header, grid block, then the params record: rank, two extents, 2 x 3 values
        first_u = 8 + struct.calcsize("<4d7Q") + 8 * 3 + 8 * 6
        message = (rf"bad\.wds: {field} at byte {first_u} has shape {re.escape(str(bad.shape))}, "
                   rf"the params record and grid block give {re.escape(str(expected))}")
        with pytest.raises(ValueError, match=message):
            load_dataset(path)

    @pytest.mark.parametrize("field", ["u"])
    def test_field_sample_count_disagreeing_with_params_rejected(self, tmp_path, write_wds, field):
        grid = make_grid(nx=20, ny=20, zoom_nx=6, zoom_ny=6, nt=8)
        ds = generate_dataset(grid, 3, seed=29)
        expected = getattr(ds, field).shape
        short = getattr(ds, field)[:2]
        path = tmp_path / "short.wds"
        write_wds(path, grid, ds.params, short)
        message = (rf"short\.wds: {field} at byte \d+ has shape {re.escape(str(short.shape))}, "
                   rf"the params record and grid block give {re.escape(str(expected))}")
        with pytest.raises(ValueError, match=message):
            load_dataset(path)


class TestGeneratorBytes:
    """The generator's output for ``configs/tiny.cfg`` (train set, seed 0), pinned by digest.

    The digests were taken from the numpy solver on a 64-bit x86 host; a
    change to the stepping order or to the rounding of any step shows here.
    The file digest is of the version 3 layout (grid block, ``params`` and
    ``u``).  The arrays digest, over the shape and bytes of ``params``,
    ``u``, ``v``, ``boundary_u`` and ``boundary_v`` as ``tools/digests.py``
    forms it, was taken from the version 2 generator, which stored all
    five: the fields derived on construction are bit-identical to those
    it stored.
    """

    @pytest.fixture(scope="class")
    def dataset(self):
        cfg = ExperimentConfig.from_file(Path(__file__).resolve().parent.parent / "configs" / "tiny.cfg")
        return generate_dataset(cfg.grid(), cfg.train_samples, seed=0, bounds=cfg.bounds())

    def test_dataset_file_digest(self, dataset, tmp_path):
        path = tmp_path / "train.wds"
        save_dataset(path, dataset)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "abed4eaa1b56a0f4993e94efbca9ba3260ced8506ed38bdbebd6747a01c15848"

    def test_dataset_arrays_digest(self, dataset, tmp_path):
        path = tmp_path / "train.wds"
        save_dataset(path, dataset)
        for ds in (dataset, load_dataset(path)):
            digest = hashlib.sha256()
            for array in (ds.params, *(ds.stack(f) for f in FIELDS)):
                digest.update(repr(array.shape).encode())
                digest.update(array.tobytes())
            assert digest.hexdigest() == (
                "a97059671ee76d6484f45866f50d935925c34664a60ff70185905cc5b68d2a34")

    def test_submodel_resolve_digest(self, dataset):
        digest = hashlib.sha256()
        for s in dataset.samples:
            digest.update(submodel_solve(s.boundary_u, s.params, dataset.grid).tobytes())
        assert digest.hexdigest() == "9a7f3a88b5aba7fa098a6d2b5e109fbc50ace867978d24ba3c3a864e3b92a4ed"
