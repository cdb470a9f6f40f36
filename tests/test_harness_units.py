"""Variant taxonomy, result tables, config parsing, error indicator."""

import dataclasses
import re
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from sepconvwave.harness import (
    ExperimentConfig,
    ResultCell,
    VariantSpec,
    classify_table,
    emit_tables,
    error_indicator,
    format_text_table,
    parse_config_text,
    parse_regularization,
    zero_baseline,
)
from sepconvwave.harness.tables import CSV_HEADER, parse_results_csv, results_to_csv

ROOT = Path(__file__).resolve().parent.parent


class TestVariants:
    def test_known_names_construct(self):
        from sepconvwave.harness import VARIANT_NAMES

        for name in VARIANT_NAMES:
            spec = VariantSpec(name)
            assert spec.input_dim in (3, 4)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            VariantSpec("Conv9D")

    def test_regularization_parsing(self):
        assert parse_regularization("Basic") == ()
        assert parse_regularization("BN") == ("BN",)
        assert parse_regularization("E&SL") == ("E", "SL")
        assert parse_regularization("SL&E") == ("E", "SL")

    def test_bn_euler_rejected(self):
        with pytest.raises(ValueError):
            parse_regularization("BN&E")
        with pytest.raises(ValueError):
            VariantSpec("Conv2D", ("BN", "E"))

    def test_unknown_flag_rejected(self):
        with pytest.raises(ValueError):
            parse_regularization("DROPOUT")

    def test_flags(self):
        spec = VariantSpec("Conv1D_t_Boundary", ("SL",))
        assert spec.time_conditioned
        assert spec.boundary
        assert spec.shared
        assert not spec.batch_norm
        assert spec.input_dim == 4

    def test_cell_key_filesystem_safe(self):
        spec = VariantSpec("Conv2.5Db", ("BN", "SL"))
        key = spec.cell_key()
        assert "/" not in key and "&" not in key and "." not in key


class TestTables:
    def cells(self):
        return [
            ResultCell("A", "Basic", "eps", 0.7),
            ResultCell("A", "BN", "eps", 0.2),
            ResultCell("B", "Basic", "eps", 0.4),
            ResultCell("B", "BN", "eps", 0.2),
        ]

    def test_exactly_one_best_with_tie(self):
        table = classify_table(self.cells(), threshold=0.5)
        assert [c.klass for c in table] == ["unacceptable", "best", "acceptable", "acceptable"]

    def test_single_cell_best(self):
        table = classify_table([ResultCell("A", "Basic", "m", 123.0)], threshold=0.5)
        assert table[0].klass == "best"

    @pytest.mark.parametrize("values, classes", [
        ([float("nan"), 0.1, 0.2], ["unacceptable", "best", "acceptable"]),
        ([0.3, float("nan"), 0.1], ["acceptable", "unacceptable", "best"]),
        ([float("nan"), float("nan")], ["unacceptable", "unacceptable"]),
    ], ids=["nan_first", "nan_between", "all_nan"])
    def test_nan_never_best(self, values, classes):
        # error_indicator gives NaN when no time slice is valid
        table = classify_table([ResultCell("A", r, "eps", v) for r, v in zip("XYZ", values)], 0.5)
        assert [c.klass for c in table] == classes

    def test_csv_round_trip_identical_values(self):
        table = classify_table(self.cells(), threshold=0.5)
        text = results_to_csv(table)
        parsed = parse_results_csv(text)
        assert parsed == table
        assert results_to_csv(parsed) == text

    def test_reclassification_idempotent(self):
        table = classify_table(self.cells(), threshold=0.5)
        again = classify_table(table, threshold=0.5)
        assert again == table

    def test_text_table_marks(self):
        table = classify_table(self.cells(), threshold=0.5)
        text = format_text_table("eps", table)
        assert "*0.2" in text
        assert "!0.7" in text

    def test_malformed_csv(self):
        with pytest.raises(ValueError):
            parse_results_csv("not,a,results,file\n")

    @pytest.mark.parametrize("row, message", [
        ("A,BN,eps", r"line 4: 3 fields, expected 5: 'A,BN,eps'"),
        ("A,BN,eps,0.2,best,extra", r"line 4: 6 fields, expected 5"),
        ("A,BN,eps,,best", r"line 4: value '' is not a float"),
        ("A,Basic,eps,0.2,best", r"line 4: repeated cell A,Basic,eps"),
    ], ids=["cut", "extra", "empty_value", "repeated"])
    def test_malformed_row_names_its_line(self, row, message):
        # line 2 is blank: line numbers count every line of the file
        text = f"{CSV_HEADER}\n\nA,Basic,eps,0.7,unacceptable\n{row}\n"
        with pytest.raises(ValueError, match=message):
            parse_results_csv(text)

    def test_failed_write_keeps_previous_results(self, tmp_path, monkeypatch):
        import sepconvwave.harness.tables as tables_module

        emit_tables(self.cells(), 0.5, tmp_path)
        before = (tmp_path / "results.csv").read_bytes()
        real = tables_module.atomic_write

        class HalfThenFail:
            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError("disk full")

        @contextmanager
        def failing(path):
            with real(path) as fh:
                yield HalfThenFail(fh)

        monkeypatch.setattr(tables_module, "atomic_write", failing)
        changed = [dataclasses.replace(c, value=c.value + 1.0) for c in self.cells()]
        with pytest.raises(OSError, match="disk full"):
            emit_tables(changed, 0.5, tmp_path)
        assert (tmp_path / "results.csv").read_bytes() == before
        assert sorted(q.name for q in tmp_path.iterdir()) == ["results.csv", "tables.txt"]


class TestConfig:
    def test_parse_sections_comments(self):
        text = """
# comment
[grid]
nx = 32  # trailing comment
ny = 32

[training]
variant = Conv2.5D
"""
        sections = parse_config_text(text)
        assert sections["grid"]["nx"] == "32"
        assert sections["training"]["variant"] == "Conv2.5D"

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown section"):
            parse_config_text("[nope]\nx = 1\n")

    def test_key_outside_section_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            parse_config_text("x = 1\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config_text("[grid]\nnx 32\n")

    @pytest.mark.parametrize("text, message", [
        ("[grid]\nnx = 32\nny = 32\nnx = 48\n", r"line 4: repeated key \[grid\] nx"),
        ("[zoo]\nconv3d.nf = 4\n[grid]\nnx = 32\n[zoo]\nconv3d.nf = 8\n",
         r"line 6: repeated key \[zoo\] conv3d\.nf"),
    ])
    def test_repeated_key_rejected(self, text, message):
        # the later value would silently win; across a repeated header too
        with pytest.raises(ValueError, match=message):
            parse_config_text(text)

    def test_same_key_in_two_sections_allowed(self):
        sections = parse_config_text("[grid]\nnx = 32\n[sampling]\nnx = 1\n")
        assert sections["grid"]["nx"] == "32"

    @pytest.mark.parametrize("name", ["desk", "sweep", "tiny"])
    def test_snapshot_bytes_of_committed_configs(self, name):
        # the run_config.cfg contract: every train writes exactly these bytes
        cfg = ExperimentConfig.from_file(ROOT / "configs" / f"{name}.cfg")
        golden = (ROOT / "tests" / "golden" / f"{name}.run_config.cfg").read_bytes()
        assert cfg.to_text().encode() == golden

    def test_defaults_round_trip(self):
        cfg = ExperimentConfig()
        cfg.validate()
        text = cfg.to_text()
        back = ExperimentConfig.from_text(text)
        assert back == cfg

    def test_round_trip_with_overrides(self):
        cfg = ExperimentConfig.from_text(
            "[grid]\nnx = 32\nny = 32\nzoom_nx = 8\nzoom_ny = 8\nnt = 16\n"
            "[training]\nvariant = Conv3D\nregularization = SL\nepochs = 5\ndecay = true\n"
            "[zoo]\nconv3d.nf = 12\nconv3d.kt = 5\nconv3d.ks = 3\nconv3d.up_t = 2\n"
        )
        assert cfg.nx == 32 and cfg.epochs == 5 and cfg.decay is True
        assert cfg.zoo_widths["conv3d.nf"] == 12
        back = ExperimentConfig.from_text(cfg.to_text())
        assert back == cfg

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_text("[training]\nvariant = Conv9D\n")

    def test_bn_euler_combo_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_text("[training]\nregularization = BN&E\n")

    def test_bad_int_rejected(self):
        with pytest.raises(ValueError, match="cannot parse"):
            ExperimentConfig.from_text("[grid]\nnx = many\n")

    @pytest.mark.parametrize("text, where", [
        ("[training]\nlambda_eulr = 0.5\n", r"\[training\] lambda_eulr"),
        ("[io]\nout_dir = elsewhere\n", r"\[io\] out_dir"),
    ])
    def test_misspelt_key_rejected(self, text, where):
        with pytest.raises(ValueError, match="unknown key " + where):
            ExperimentConfig.from_text(text)

    @pytest.mark.parametrize("line, key", [
        ("lr0 = 0", "lr0"),
        ("lr_final = -1e-4", "lr_final"),
        ("batch_size = -1", "batch_size"),
        ("lambda_euler = -0.1", "lambda_euler"),
    ])
    def test_invalid_training_value_rejected(self, line, key):
        # a negative batch size would mean full batch; a negative final rate
        # with decay would make the schedule complex
        with pytest.raises(ValueError, match=rf"\[training\] {key} must be"):
            ExperimentConfig.from_text(f"[training]\ndecay = true\n{line}\n")

    @pytest.mark.parametrize("text, message", [
        ("[training]\nlr0 = inf\n", r"\[training\] lr0 must be finite and > 0, got inf"),
        ("[training]\nlr_final = inf\n", r"\[training\] lr_final must be finite and > 0, got inf"),
        ("[training]\nlambda_euler = inf\n",
         r"\[training\] lambda_euler must be finite and >= 0, got inf"),
        ("[training]\nlambda_euler = nan\n",
         r"\[training\] lambda_euler must be finite and >= 0, got nan"),
        ("[sampling]\nomega_min = -inf\n", r"\[sampling\] omega_min must be finite, got -inf"),
        ("[sampling]\nomega_max = inf\n", r"\[sampling\] omega_max must be finite, got inf"),
        ("[sampling]\nomega_max = nan\n", r"\[sampling\] omega_max must be finite, got nan"),
        ("[sampling]\nomega_min = -1e308\nomega_max = 1e308\n",
         r"\[sampling\] omega_max - omega_min must be finite, got 1e\+308 - -1e\+308"),
        ("[sampling]\nomega_min = 2.0\nomega_max = 2.0\n",
         r"\[sampling\] omega_max must be > omega_min = 2.0, got 2.0"),
    ], ids=["lr0", "lr_final", "lambda_euler_inf", "lambda_euler_nan", "omega_min",
            "omega_max_inf", "omega_max_nan", "omega_span", "omega_order"])
    def test_non_finite_rate_or_frequency_bound_rejected(self, text, message):
        # inf used to pass "> 0" and fail later: a NaN loss, or numpy's range error
        with pytest.raises(ValueError, match=rf"^{message}$"):
            ExperimentConfig.from_text(text)

    @pytest.mark.parametrize("text, label", [
        ("[sweep]\nvariants = FC_t, FC_t\nregularizations = Basic\n", "FC_t[Basic]"),
        ("[sweep]\nvariants = Conv2D, FC_t\nregularizations = BN&SL, Basic, SL&BN\n",
         "Conv2D[BN&SL]"),
        ("[sweep]\nvariants = Conv3D\nregularizations = basic, Basic\n", "Conv3D[Basic]"),
    ], ids=["variant", "flag_order", "basic_case"])
    def test_sweep_cell_named_twice_rejected(self, text, label):
        with pytest.raises(ValueError, match=rf"^\[sweep\] names cell {re.escape(label)} more than once$"):
            ExperimentConfig.from_text(text)

    def test_empty_sweep_loads(self):
        # only the sweep command needs a cell; generate, train and evaluate do not
        cfg = ExperimentConfig.from_text("[sweep]\nvariants =\n")
        assert cfg.sweep_cells() == []

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^\[training\] seed must be >= 0, got -2$"):
            ExperimentConfig.from_text("[training]\nseed = -2\n")
        cfg = ExperimentConfig()
        cfg.seed = -3
        with pytest.raises(ValueError, match=r"^\[training\] seed must be >= 0, got -3$"):
            cfg.validate()

    def test_cells(self):
        cfg = ExperimentConfig.from_text(
            "[training]\nvariant = Conv3D\nregularization = E&SL\n"
            "[sweep]\nvariants = Conv2D, FC_t\nregularizations = Basic, BN\n"
        )
        assert cfg.cell() == VariantSpec("Conv3D", ("E", "SL"))
        assert cfg.compress_spec() == cfg.cell()
        assert cfg.sweep_cells() == [
            VariantSpec("Conv2D"), VariantSpec("Conv2D", ("BN",)),
            VariantSpec("FC_t"), VariantSpec("FC_t", ("BN",)),
        ]
        cfg.compress_cell = "Conv2.5Db"
        assert cfg.compress_spec() == VariantSpec("Conv2.5Db")
        cfg.compress_cell = "Conv2.5Db:BN"
        assert cfg.compress_spec() == VariantSpec("Conv2.5Db", ("BN",))

    def test_readme_names_every_schema_key(self):
        # the README's config section lists each section's keys in one bullet
        readme = (ROOT / "README.md").read_text()
        section = readme.split("### Config format", 1)[1].split("\n### ", 1)[0]
        bullets = {}
        for bullet in section.split("\n- ")[1:]:
            name, _, rest = bullet.partition("]")
            bullets[name.strip("`[")] = re.findall(r"\w+", rest.split("—")[0])
        schema = [f for f in dataclasses.fields(ExperimentConfig) if f.name != "zoo_widths"]
        for f in schema:
            section, key = f.metadata["section"], f.metadata["key"] or f.name
            assert key in bullets.get(section, ()), f"[{section}] {key}"


class TestErrorIndicator:
    def test_exact_prediction_zero(self):
        rng = np.random.default_rng(70)
        ref = rng.standard_normal((3, 5, 4, 4))
        out = error_indicator(ref.copy(), ref)
        assert out.scalar == 0.0

    def test_two_node_hand_case(self):
        # U = {1, -2} on two nodes, M = U + 1: mean|diff| = 1, max|U| = 2
        ref = np.array([[[1.0, -2.0]]])
        pred = ref + 1.0
        out = error_indicator(pred, ref)
        assert abs(out.eps_pt[0, 0] - 0.5) < 1e-15
        assert abs(out.scalar - 0.5) < 1e-15

    def test_double_field_algebraic(self):
        rng = np.random.default_rng(71)
        ref = rng.standard_normal((2, 3, 6, 6))
        out = error_indicator(2.0 * ref, ref)
        for p in range(2):
            for t in range(3):
                expected = np.mean(np.abs(ref[p, t])) / np.max(np.abs(ref[p, t]))
                assert abs(out.eps_pt[p, t] - expected) < 1e-12

    def test_scale_property(self):
        # eps(alpha*M + (1-alpha)*U, U) == alpha * eps(M, U)
        rng = np.random.default_rng(72)
        ref = rng.standard_normal((2, 4, 5, 5))
        pred = rng.standard_normal((2, 4, 5, 5))
        base = error_indicator(pred, ref).scalar
        for alpha in (0.0, 0.25, 0.5, 1.0):
            blend = alpha * pred + (1 - alpha) * ref
            got = error_indicator(blend, ref).scalar
            assert abs(got - alpha * base) < 1e-12

    def test_quiet_slices_skipped(self):
        ref = np.zeros((1, 3, 4, 4))
        ref[0, 1] = 1.0
        pred = np.full_like(ref, 0.5)
        out = error_indicator(pred, ref)
        assert not out.valid[0, 0] and not out.valid[0, 2]
        assert out.valid[0, 1]
        assert abs(out.scalar - 0.5) < 1e-15

    def test_zero_baseline_value(self):
        ref = np.zeros((1, 2, 2, 2))
        ref[0, 1] = [[1.0, 2.0], [3.0, 4.0]]
        assert abs(zero_baseline(ref) - np.mean([1, 2, 3, 4]) / 4.0) < 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            error_indicator(np.zeros((1, 2, 3)), np.zeros((1, 2, 4)))

    def test_inputs_are_only_read(self):
        # read-only inputs: writing the error into pred or ref would raise
        rng = np.random.default_rng(73)
        pred, ref = rng.standard_normal((2, 2, 3, 4, 4))
        pred.flags.writeable = ref.flags.writeable = False
        out = error_indicator(pred, ref)
        assert np.array_equal(out.eps_pt, np.mean(np.abs(pred - ref), axis=(2, 3))
                              / np.max(np.abs(ref), axis=(2, 3)))
