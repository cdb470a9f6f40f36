"""Training jobs and the boundary-driven zoom evaluation pipeline."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from sepconvwave.harness import (
    ExperimentConfig,
    VariantSpec,
    build_model,
    error_indicator,
    predict_fields,
    zoom_evaluate,
)
from sepconvwave.harness.training import (
    ParamScaler,
    TrainSettings,
    euler_spec_for,
    prepare_inputs,
    prepare_targets,
    train,
)
from sepconvwave.wave import (
    Scaler,
    extract_boundary,
    generate_dataset,
    make_grid,
    restrict,
    ring_index,
    solve_wave,
)

GRID = make_grid(nx=24, ny=24, zoom_nx=8, zoom_ny=8, nt=16)
WIDTHS = {
    "fc.width": 16, "fcb.width": 16,
    "conv2d.c0": 4, "conv2d.nf": 4, "conv2d.k": 3, "conv2d.up": 2,
    "conv2dt.c0": 4, "conv2dt.nf": 4, "conv2dt.k": 3, "conv2dt.up": 2,
    "conv3d.nf": 4, "conv3d.kt": 5, "conv3d.ks": 3,
    "conv3d.kt3": 5, "conv3d.ks3": 3, "conv3d.mid3_t": 1,
    "conv3d.up_t": 2, "conv3d.up_s": 2,
    "conv1db.c0": 4, "conv1db.nf": 4, "conv1db.k": 3,
    "conv2db.c0": 2, "conv2db.nf": 4, "conv2db.kt": 3, "conv2db.ks": 3, "conv2db.up_t": 2,
}


@pytest.fixture(scope="module")
def data():
    train_ds = generate_dataset(GRID, 6, seed=40)
    test_ds = generate_dataset(GRID, 3, seed=41)
    scaler = Scaler().fit(train_ds)
    pscaler = ParamScaler().fit(train_ds.param_matrix())
    return train_ds, test_ds, scaler, pscaler


class TestTrainJob:
    def test_zero_epochs_leaves_model_unchanged(self, data):
        train_ds, _, scaler, pscaler = data
        spec = VariantSpec("Conv2.5Db")
        model = build_model(spec, GRID, WIDTHS, seed=1)
        before = {k: v.copy() for k, v in model.state_dict().items()}
        result = train(
            model,
            prepare_inputs(spec, train_ds, pscaler),
            prepare_targets(spec, train_ds, scaler),
            TrainSettings(epochs=0, seed=0),
        )
        assert result.history == []
        after = model.state_dict()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_same_seed_identical_histories(self, data):
        train_ds, _, scaler, pscaler = data
        spec = VariantSpec("Conv2.5Db")

        def run():
            model = build_model(spec, GRID, WIDTHS, seed=1)
            return train(
                model,
                prepare_inputs(spec, train_ds, pscaler),
                prepare_targets(spec, train_ds, scaler),
                TrainSettings(epochs=8, batch_size=2, seed=3),
            ).history

        h1, h2 = run(), run()
        assert h1 == h2

    def test_loss_decreases_on_smoke_run(self, data):
        train_ds, _, scaler, pscaler = data
        spec = VariantSpec("Conv2.5D", ("BN",))
        model = build_model(spec, GRID, WIDTHS, seed=1)
        result = train(
            model,
            prepare_inputs(spec, train_ds, pscaler),
            prepare_targets(spec, train_ds, scaler),
            TrainSettings(epochs=150, batch_size=2, seed=0),
        )
        assert result.history[-1]["loss"] < 0.5 * result.history[0]["loss"]

    def test_divergence_guard(self, data):
        # non-finite loss values abort instead of training on garbage
        train_ds, _, scaler, pscaler = data
        spec = VariantSpec("FC_t")
        model = build_model(spec, GRID, WIDTHS, seed=1)
        targets = prepare_targets(spec, train_ds, scaler)
        targets["u"][0, 0, 0] = np.nan
        with pytest.raises(RuntimeError, match="diverged"):
            train(
                model,
                prepare_inputs(spec, train_ds, pscaler),
                targets,
                TrainSettings(epochs=3, seed=0),
            )

    def test_euler_term_couples_heads(self, data):
        train_ds, _, scaler, pscaler = data
        spec = VariantSpec("Conv2.5Db", ("E",))
        model = build_model(spec, GRID, WIDTHS, seed=1)
        espec = euler_spec_for(spec, train_ds, scaler)
        result = train(
            model,
            prepare_inputs(spec, train_ds, pscaler),
            prepare_targets(spec, train_ds, scaler),
            TrainSettings(epochs=3, seed=0),
            euler=espec,
        )
        assert all(np.isfinite(rec["euler"]) and rec["euler"] > 0 for rec in result.history)

    def test_euler_for_slicewise_variant_groups_time(self, data):
        train_ds, _, scaler, pscaler = data
        spec = VariantSpec("FC_t", ("E",))
        model = build_model(spec, GRID, WIDTHS, seed=1)
        espec = euler_spec_for(spec, train_ds, scaler)
        assert espec.group == (len(train_ds), GRID.nt)
        result = train(
            model,
            prepare_inputs(spec, train_ds, pscaler),
            prepare_targets(spec, train_ds, scaler),
            TrainSettings(epochs=2, seed=0),
            euler=espec,
        )
        assert len(result.history) == 2


class TestPrepare:
    def test_slicewise_inputs_sample_major(self, data):
        train_ds, _, _, pscaler = data
        spec = VariantSpec("FC_t")
        rows = prepare_inputs(spec, train_ds, pscaler)
        assert rows.shape == (len(train_ds) * GRID.nt, 4)
        t_col = rows[:, 3].reshape(len(train_ds), GRID.nt)
        assert np.allclose(t_col, t_col[0], atol=0, rtol=0)
        assert t_col[0, 0] == 0.0 and t_col[0, -1] == 1.0

    def test_boundary_targets_use_trace_fields(self, data):
        train_ds, _, scaler, _ = data
        spec = VariantSpec("Conv1D_Boundary")
        targets = prepare_targets(spec, train_ds, scaler)
        assert targets["u"].shape == (len(train_ds), GRID.nt, GRID.n_boundary)
        expected = scaler.transform(train_ds.stack("boundary_u"), "u")
        assert np.array_equal(targets["u"], expected)


class TestZoomEvaluate:
    def test_exact_traces_give_tiny_eps(self, data):
        # bypass any model: feed the reference's own ring as "prediction"
        _, test_ds, _, _ = data
        spec = VariantSpec("Conv1D_Boundary")
        preds = {
            "u": test_ds.stack("boundary_u"),
            "v": test_ds.stack("boundary_v"),
        }
        result = zoom_evaluate(spec, preds, test_ds)
        assert result.eps_u.scalar < 1e-6
        assert result.eps_v.scalar < 1e-6

    def test_field_model_ring_equals_boundary_path(self, data):
        # a field prediction whose ring matches the boundary prediction
        # drives the identical solve
        _, test_ds, _, _ = data
        field_preds = {"u": test_ds.stack("u"), "v": test_ds.stack("v")}
        trace_preds = {"u": test_ds.stack("boundary_u"), "v": test_ds.stack("boundary_v")}
        a = zoom_evaluate(VariantSpec("Conv2.5D"), field_preds, test_ds)
        b = zoom_evaluate(VariantSpec("Conv1D_Boundary"), trace_preds, test_ds)
        assert np.allclose(
            np.nan_to_num(a.eps_u.eps_pt), np.nan_to_num(b.eps_u.eps_pt), atol=0, rtol=0
        )

    def test_zero_model_eps_closed_form(self, data):
        _, test_ds, _, _ = data
        refs = test_ds.stack("u")
        zero_preds = {
            "u": np.zeros_like(test_ds.stack("boundary_u")),
            "v": np.zeros_like(test_ds.stack("boundary_v")),
        }
        result = zoom_evaluate(VariantSpec("Conv1D_Boundary"), zero_preds, test_ds)
        expected = error_indicator(np.zeros_like(refs), refs).scalar
        assert abs(result.eps_u.scalar - expected) < 1e-12

    @pytest.mark.parametrize(
        "name, given, expected",
        [
            ("Conv2.5Db", "boundary_", (3, GRID.nt, GRID.zoom_nx, GRID.zoom_ny)),
            ("Conv1D_Boundary", "", (3, GRID.nt, GRID.n_boundary)),
        ],
        ids=["traces_for_a_field_variant", "fields_for_a_boundary_variant"],
    )
    def test_misshapen_predictions_are_refused(self, data, name, given, expected):
        _, test_ds, _, _ = data
        preds = {h: test_ds.stack(given + h) for h in ("u", "v")}
        with pytest.raises(ValueError) as info:
            zoom_evaluate(VariantSpec(name), preds, test_ds)
        message = str(info.value)
        assert f"{name}[Basic]" in message
        assert str(preds["u"].shape) in message and str(expected) in message

    def test_predict_fields_shapes(self, data):
        train_ds, test_ds, scaler, pscaler = data
        for name, shape in (
            ("Conv2.5D", (len(test_ds), GRID.nt, GRID.zoom_nx, GRID.zoom_ny)),
            ("FC_t", (len(test_ds), GRID.nt, GRID.zoom_nx, GRID.zoom_ny)),
            ("Conv1D_t_Boundary", (len(test_ds), GRID.nt, GRID.n_boundary)),
        ):
            spec = VariantSpec(name)
            model = build_model(spec, GRID, WIDTHS, seed=0)
            preds = predict_fields(model, spec, test_ds, scaler, pscaler)
            assert preds["u"].shape == shape
            assert preds["v"].shape == shape


class TestZoomIndicatorBytes:
    """``zoom_evaluate`` on the ``configs/tiny.cfg`` test set with fixed noisy predictions.

    The digests were taken from the per-sample re-solve on a 64-bit x86
    host; a change to the re-solve's or the velocity's rounding shows here.
    """

    @pytest.fixture(scope="class")
    def test_set(self):
        cfg = ExperimentConfig.from_file(Path(__file__).resolve().parent.parent / "configs" / "tiny.cfg")
        return generate_dataset(cfg.grid(), cfg.test_samples, seed=cfg.seed + 1, bounds=cfg.bounds())

    @pytest.mark.parametrize(
        "variant, reference, digest",
        [
            ("Conv3D", "u", "63efb6c4719a1c5c9d29837a0b656068149d6b7b8d44c4f744124e9b582205de"),
            ("Conv1D_Boundary", "boundary_u",
             "0bb8ad3a28cfd86e9d5d1f256feaea199295f628326d0a5acf9158723803247c"),
        ],
    )
    def test_eps_pt_digest(self, test_set, variant, reference, digest):
        ref = test_set.stack(reference)
        noise = np.random.default_rng(15).standard_normal(ref.shape)
        pred = ref + 1e-2 * np.max(np.abs(ref)) * noise
        result = zoom_evaluate(VariantSpec(variant), {"u": pred}, test_set)
        got = hashlib.sha256(result.eps_u.eps_pt.tobytes() + result.eps_v.eps_pt.tobytes())
        assert got.hexdigest() == digest

    @pytest.mark.parametrize("variant, reference", [("Conv3D", "u"), ("Conv1D_Boundary", "boundary_u")])
    def test_predictions_are_only_read(self, test_set, variant, reference):
        pred = test_set.stack(reference)
        pred.flags.writeable = False
        zoom_evaluate(VariantSpec(variant), {"u": pred}, test_set)


class TestTraceExtractionConsistency:
    def test_prediction_ring_matches_extract_boundary(self, data):
        _, test_ds, _, _ = data
        ii, jj = np.divmod(ring_index(GRID), GRID.zoom_ny)
        full = solve_wave(test_ds.samples[0].params, GRID)
        ring_a = extract_boundary(full, GRID)
        ring_b = restrict(full, GRID)[:, ii, jj]
        assert np.array_equal(ring_a, ring_b)
