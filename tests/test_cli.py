"""CLI dispatch: subcommands, exit codes, determinism contract."""

import os
import re
import shutil
import struct
import subprocess
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import pytest

from sepconvwave.harness.cli import main
from sepconvwave.harness.tables import CSV_HEADER
from sepconvwave.wave import load_dataset

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = CONFIGS.parent / "src"
TINY = str(CONFIGS / "tiny.cfg")


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    assert main(["generate", "--config", TINY, "--out", str(out)]) == 0
    assert main(["train", "--config", TINY, "--out", str(out)]) == 0
    return out


def _with_data(run, out):
    """``out`` holding copies of ``run``'s datasets and nothing else."""
    out.mkdir()
    for name in ("train.wds", "test.wds"):
        shutil.copy(run / name, out / name)
    return out


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate", "--config", TINY]) == 1

    def test_unknown_flag_is_usage_error(self):
        assert main(["generate", "--config", TINY, "--frotz"]) == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["generate", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[grid]\nnx = fish\n")
        assert main(["generate", "--config", str(bad)]) == 1

    def test_bn_and_euler_config_rejected(self, tmp_path):
        bad = tmp_path / "bn_e.cfg"
        bad.write_text(Path(TINY).read_text().replace(
            "regularization = SL", "regularization = BN&E"))
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("line", ["rank = 0", "cell = Conv9D:XX"])
    def test_bad_compress_section_is_configuration_error(self, tmp_path, capsys, line):
        bad = tmp_path / "compress.cfg"
        bad.write_text(Path(TINY).read_text() + f"\n[compress]\n{line}\n")
        assert main(["compress", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_misspelt_key_is_configuration_error(self, tmp_path, capsys):
        bad = tmp_path / "typo.cfg"
        bad.write_text(Path(TINY).read_text().replace("epochs = 5", "epoch = 5"))
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "unknown key [training] epoch" in capsys.readouterr().err

    def test_unparsable_zoo_width_names_section_and_key(self, tmp_path, capsys):
        bad = tmp_path / "zoo.cfg"
        bad.write_text(Path(TINY).read_text().replace("conv3d.nf = 4", "conv3d.nf = many"))
        assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "[zoo] conv3d.nf = 'many': cannot parse as int" in capsys.readouterr().err

    def test_repeated_key_is_configuration_error(self, tmp_path, capsys):
        # an earlier [zoo] block whose value the committed block would override
        bad = tmp_path / "repeat.cfg"
        bad.write_text(Path(TINY).read_text().replace("[zoo]\n", "[zoo]\nconv3d.nf = many\n[zoo]\n"))
        assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "repeated key [zoo] conv3d.nf" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new", [
        ("\nnx = 24\n", "\nnx = 1\n"),
        ("[grid]\n", "[grid]\nc = 0\n"),
        ("[grid]\n", "[grid]\nlx = 0\n"),
        ("[training]\n", "[training]\ndecay = true\nlr_final = -1e-4\n"),
        ("[training]\n", "[training]\nbatch_size = -1\n"),
        ("\nnt = 16\n", "\nnt = 2\n"),
        ("[sampling]\n", "[sampling]\nsource_half_x = 3.0\n"),
        ("[sampling]\n", "[sampling]\nsource_half_x = -0.5\n"),
        ("[sampling]\n", "[sampling]\nsource_half_y = nan\n"),
        ("conv3d.nf = 4", "conv3d.nf = 0"),
        ("conv3d.up_t = 2", "conv3d.up_t = 0"),
    ], ids=["nx", "c", "lx", "lr_final", "batch_size", "nt", "source_half_x_wide",
            "source_half_x_negative", "source_half_y_nan", "zoo_nf_zero", "zoo_up_t_zero"])
    def test_invalid_value_is_one_configuration_error_line(self, tmp_path, capsys, old, new):
        # a degenerate grid used to divide by zero before any check ran
        bad = tmp_path / "bad.cfg"
        bad.write_text(Path(TINY).read_text().replace(old, new))
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and len(err.splitlines()) == 1
        assert "Traceback" not in err and "repeated key" not in err

    @pytest.mark.parametrize("command", ["generate", "train"])
    @pytest.mark.parametrize("old, new, message", [
        ("[training]\n", "[training]\nlambda_euler = inf\n",
         "[training] lambda_euler must be finite and >= 0, got inf"),
        ("[training]\n", "[training]\nlr0 = inf\n", "[training] lr0 must be finite and > 0, got inf"),
        ("[sampling]\n", "[sampling]\nomega_max = inf\n",
         "[sampling] omega_max must be finite, got inf"),
    ], ids=["lambda_euler", "lr0", "omega_max"])
    def test_non_finite_rate_or_frequency_bound_is_one_configuration_error_line(
            self, tmp_path, capsys, command, old, new, message):
        # inf used to reach training as a NaN loss, or the sampler as numpy's range error
        bad = tmp_path / "inf.cfg"
        bad.write_text(Path(TINY).read_text().replace(old, new))
        assert main([command, "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("old, new, label", [
        ("variants = FC_t, Conv2.5Db", "variants = FC_t, FC_t", "FC_t[Basic]"),
        ("regularizations = Basic, SL", "regularizations = BN&SL, SL&BN", "FC_t[BN&SL]"),
    ], ids=["variant", "regularization"])
    def test_sweep_cell_named_twice_is_configuration_error(
            self, trained_run, tmp_path, capsys, old, new, label):
        # it used to train the cell twice and write results.csv rows that tables refuses
        bad = tmp_path / "twice.cfg"
        bad.write_text(Path(TINY).read_text().replace(old, new))
        out = _with_data(trained_run, tmp_path / "o")
        for command in ("generate", "sweep"):
            assert main([command, "--config", str(bad), "--out", str(out)]) == 1
            assert capsys.readouterr().err == (
                f"configuration error: [sweep] names cell {label} more than once\n")
        assert sorted(q.name for q in out.iterdir()) == ["test.wds", "train.wds"]

    def test_sweep_of_no_cell_is_configuration_error(self, trained_run, tmp_path, capsys):
        # it used to exit 2 with "no trained cells ...; run train or sweep"
        bad = tmp_path / "empty.cfg"
        bad.write_text(Path(TINY).read_text().replace("variants = FC_t, Conv2.5Db", "variants ="))
        out = _with_data(trained_run, tmp_path / "o")
        assert main(["sweep", "--config", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("configuration error: [sweep] names no cell: "
                                           "variants and regularizations must each list one\n")
        assert sorted(q.name for q in out.iterdir()) == ["test.wds", "train.wds"]

    def test_source_box_inside_zoom_window_is_configuration_error(self, tmp_path, capsys):
        # the config loads; the sampler refuses the box once generate draws the sources
        bad = tmp_path / "box.cfg"
        bad.write_text(Path(TINY).read_text().replace(
            "[sampling]\n", "[sampling]\nsource_half_x = 0.1\nsource_half_y = 0.1\n"))
        assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: [sampling] source_half_x = 0.1, source_half_y = 0.1")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["generate", "train", "sweep", "evaluate", "compress", "tables"])
    def test_negative_seed_flag_is_one_configuration_error_line(self, trained_run, capsys, command):
        # with data present, train used to fail at run time on the seed
        assert main([command, "--config", TINY, "--seed", "-3", "--out", str(trained_run)]) == 1
        assert capsys.readouterr().err == "configuration error: [training] seed must be >= 0, got -3\n"

    def test_negative_seed_in_the_file_is_one_configuration_error_line(self, tmp_path, capsys):
        bad = tmp_path / "seed.cfg"
        bad.write_text(Path(TINY).read_text().replace("seed = 0", "seed = -2"))
        assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "configuration error: [training] seed must be >= 0, got -2\n"
        assert not (tmp_path / "o").exists()

    def test_train_without_dataset_is_runtime_error(self, tmp_path):
        assert main(["train", "--config", TINY, "--out", str(tmp_path / "empty")]) == 2

    def test_train_on_truncated_dataset_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["generate", "--config", TINY, "--out", str(out)]) == 0
        train = out / "train.wds"
        train.write_bytes(train.read_bytes()[:-5])
        assert main(["train", "--config", TINY, "--out", str(out)]) == 2
        assert "train.wds: truncated at byte" in capsys.readouterr().err

    def test_train_on_dataset_disagreeing_with_its_grid_is_runtime_error(
        self, tmp_path, capsys, write_wds
    ):
        out = tmp_path / "run"
        assert main(["generate", "--config", TINY, "--out", str(out)]) == 0
        train = out / "train.wds"
        ds = load_dataset(train)
        write_wds(train, ds.grid, ds.params, ds.u[:, :3])
        assert main(["train", "--config", TINY, "--out", str(out)]) == 2
        assert "train.wds: u at byte 264 has shape (6, 3, 8, 8)" in capsys.readouterr().err

    @pytest.mark.parametrize("name, field, sample, column", [
        ("train.wds", "params", 1, 0),  # omega
        ("test.wds", "u", 2, 5),
    ])
    def test_dataset_with_a_non_finite_value_is_runtime_error(
        self, tmp_path, capsys, write_wds, name, field, sample, column
    ):
        out = tmp_path / "run"
        assert main(["generate", "--config", TINY, "--out", str(out)]) == 0
        path = out / name
        ds = load_dataset(path)
        arrays = {"params": ds.params.copy(), "u": ds.u.copy()}
        arrays[field][sample].flat[column] = float("nan")
        write_wds(path, ds.grid, *arrays.values())
        assert main(["train", "--config", TINY, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {path}: {field} of sample {sample} is not finite"]

    def test_dataset_whose_velocity_overflows_is_runtime_error(self, tmp_path, capsys, write_wds):
        out = tmp_path / "run"
        assert main(["generate", "--config", TINY, "--out", str(out)]) == 0
        path = out / "train.wds"
        ds = load_dataset(path)
        u = ds.u.copy()
        u[3, 4, 2, 2], u[3, 6, 2, 2] = 1e308, -1e308  # finite, but v at step 5 is not
        write_wds(path, ds.grid, ds.params, u)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", "--config", TINY, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {path}: v of sample 3 is not finite"]

    def test_train_on_dataset_with_invalid_grid_block_is_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["generate", "--config", TINY, "--out", str(out)]) == 0
        train = out / "train.wds"
        data = bytearray(train.read_bytes())
        data[32:40] = struct.pack("<d", 0.0)  # dt, the grid block's fourth float64
        train.write_bytes(bytes(data))
        assert main(["train", "--config", TINY, "--out", str(out)]) == 2
        assert "train.wds: grid block: grid needs finite lx, ly, c, dt > 0, got dt = 0.0" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("row, message", [
        ("FC_t,SL,train_eps_u", "line 3: 3 fields, expected 5"),
        ("FC_t,SL,train_eps_u,fish,best", "line 3: value 'fish' is not a float"),
        ("FC_t,SL,params,2.0,best", "line 3: repeated cell FC_t,SL,params"),
    ], ids=["cut", "not_a_float", "repeated"])
    def test_tables_on_malformed_results_is_runtime_error(self, tmp_path, capsys, row, message):
        out = tmp_path / "run"
        out.mkdir()
        (out / "results.csv").write_text(f"{CSV_HEADER}\nFC_t,SL,params,1.0,best\n{row}\n")
        assert main(["tables", "--config", TINY, "--out", str(out)]) == 2
        assert f"results.csv: {message}" in capsys.readouterr().err
        assert not (out / "tables.txt").exists()

    @pytest.mark.parametrize("row", ["1,abc", "1"], ids=["not_a_float", "one_field"])
    def test_evaluate_on_a_malformed_timing_row_is_runtime_error(
        self, trained_run, tmp_path, capsys, row
    ):
        out = tmp_path / "run"
        shutil.copytree(trained_run, out)
        (timing,) = out.glob("*/timing.csv")
        timing.write_text(f"epoch,seconds\n0,0.5\n{row}\n")
        capsys.readouterr()
        assert main(["evaluate", "--config", TINY, "--out", str(out)]) == 2
        assert f"{timing}: line 3: {row!r} is not epoch,seconds" in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


class TestGenerate:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--config", TINY, "--seed", "7", "--out", str(a)]) == 0
        assert main(["generate", "--config", TINY, "--seed", "7", "--out", str(b)]) == 0
        assert (a / "train.wds").read_bytes() == (b / "train.wds").read_bytes()
        assert (a / "test.wds").read_bytes() == (b / "test.wds").read_bytes()

    def test_seed_changes_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--config", TINY, "--seed", "1", "--out", str(a)]) == 0
        assert main(["generate", "--config", TINY, "--seed", "2", "--out", str(b)]) == 0
        assert (a / "train.wds").read_bytes() != (b / "train.wds").read_bytes()


class TestTrain:
    def test_outputs_present(self, trained_run):
        cell = trained_run / "FC_t_SL"
        for name in ("checkpoint.scnn", "history.csv", "run_config.cfg", "timing.csv"):
            assert (cell / name).exists()

    def test_deterministic_primary_outputs(self, trained_run, tmp_path):
        other = tmp_path / "again"
        other.mkdir()
        shutil.copy(trained_run / "train.wds", other / "train.wds")
        shutil.copy(trained_run / "test.wds", other / "test.wds")
        assert main(["train", "--config", TINY, "--out", str(other)]) == 0
        for name in ("checkpoint.scnn", "history.csv", "run_config.cfg"):
            assert (other / "FC_t_SL" / name).read_bytes() == (
                trained_run / "FC_t_SL" / name
            ).read_bytes(), name

    def test_deterministic_separable_outputs(self, tmp_path):
        # the separable path (banded depthwise stages, BatchNorm) under the same contract
        cfg = tmp_path / "sep.cfg"
        cfg.write_text(Path(TINY).read_text().replace("variant = FC_t", "variant = Conv2.5Db")
                       .replace("regularization = SL", "regularization = BN"))
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["generate", "--config", str(cfg), "--out", str(first)]) == 0
        again.mkdir()
        for name in ("train.wds", "test.wds"):
            shutil.copy(first / name, again / name)
        for out in (first, again):
            assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("checkpoint.scnn", "history.csv"):
            assert (again / "Conv2p5Db_BN" / name).read_bytes() == (
                first / "Conv2p5Db_BN" / name
            ).read_bytes(), name

    def test_one_and_two_blas_threads_give_the_same_bytes(self, tmp_path):
        # the contract holds per thread count; this cell's bytes agree across the two
        cfg = tmp_path / "conv3d_bn.cfg"
        cfg.write_text(Path(TINY).read_text().replace("variant = FC_t", "variant = Conv3D")
                       .replace("regularization = SL", "regularization = BN"))
        path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(path)}
            for command in ("generate", "train"):
                subprocess.run([sys.executable, "-m", "sepconvwave.harness.cli", command,
                                "--config", str(cfg), "--out", str(tmp_path / threads)],
                               env=env, check=True, capture_output=True)
        for name in ("train.wds", "test.wds", "Conv3D_BN/checkpoint.scnn", "Conv3D_BN/history.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name

    def test_failed_history_write_keeps_previous_file(self, trained_run, tmp_path, monkeypatch, capsys):
        import sepconvwave.harness.tables as tables_module

        out = tmp_path / "run"
        shutil.copytree(trained_run, out)
        cell = out / "FC_t_SL"
        before = (cell / "history.csv").read_bytes()
        real = tables_module.atomic_write

        @contextmanager
        def failing(path):
            with real(path) as fh:
                if Path(path).name == "history.csv":
                    fh.write(before[: len(before) // 2])
                    raise OSError("disk full")
                yield fh

        monkeypatch.setattr(tables_module, "atomic_write", failing)
        # another seed: the history it would write differs from the one on disk
        assert main(["train", "--config", TINY, "--seed", "1", "--out", str(out)]) == 2
        assert "disk full" in capsys.readouterr().err
        assert (cell / "history.csv").read_bytes() == before
        assert not [q.name for q in cell.iterdir() if q.name.endswith(".tmp")]

    def test_history_header(self, trained_run):
        text = (trained_run / "FC_t_SL" / "history.csv").read_text().splitlines()
        assert text[0] == "epoch,loss,mse_u,mse_v,euler,lr"
        assert len(text) == 1 + 5  # header + 5 epochs

    def test_run_config_round_trips(self, trained_run):
        from sepconvwave.harness import ExperimentConfig

        snap = (trained_run / "FC_t_SL" / "run_config.cfg").read_text()
        cfg = ExperimentConfig.from_text(snap)
        assert cfg.variant == "FC_t"
        assert cfg.to_text() == snap


class TestSweep:
    def test_each_cell_reports_its_time_and_an_eta(self, trained_run, tmp_path, capsys):
        for name in ("train.wds", "test.wds"):
            shutil.copy(trained_run / name, tmp_path / name)
        capsys.readouterr()
        assert main(["sweep", "--config", TINY, "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        # tiny.cfg sweeps FC_t and Conv2.5Db, each with Basic and SL
        progress = [line for line in lines if line.startswith("(")]
        assert len(progress) == 4
        for n, line in enumerate(progress, start=1):
            assert re.fullmatch(rf"\(\d+\.\d s; cell {n} of 4, ETA \d+ s\)", line), line
            assert lines[lines.index(line) - 1].endswith("(5 epochs)")
        assert progress[-1].endswith("ETA 0 s)")


class TestEvaluateCompressTables:
    def test_evaluate_then_tables(self, trained_run):
        assert main(["evaluate", "--config", TINY, "--out", str(trained_run)]) == 0
        results = trained_run / "results.csv"
        assert results.exists()
        before = results.read_text()
        assert main(["tables", "--config", TINY, "--out", str(trained_run)]) == 0
        assert results.read_text() == before  # idempotent re-emission
        text = (trained_run / "tables.txt").read_text()
        assert "params" in text and "FC_t" in text

    def test_results_parse_back(self, trained_run):
        from sepconvwave.harness.tables import parse_results_csv

        cells = parse_results_csv((trained_run / "results.csv").read_text())
        metrics = {c.metric for c in cells}
        assert {"params", "train_eps_u", "test_eps_u", "test_zoom_eps_u"} <= metrics

    def test_evaluate_on_a_misshapen_checkpoint_is_runtime_error(self, tmp_path, capsys):
        from sepconvwave.nn.checkpoint import load_tensors, save_tensors

        cfg = tmp_path / "bn.cfg"
        cfg.write_text(Path(TINY).read_text().replace("variant = FC_t", "variant = Conv2.5D")
                       .replace("regularization = SL", "regularization = BN"))
        out = tmp_path / "run"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        ckpt = out / "Conv2p5D_BN" / "checkpoint.scnn"
        tensors = load_tensors(ckpt)
        name = "head_u.04.batchnorm.running_mean"
        tensors[name] = tensors[name].reshape(1, -1)  # same element count
        save_tensors(ckpt, tensors)
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"checkpoint.scnn: shape mismatch for '{name}'" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_evaluate_on_a_negative_running_variance_is_runtime_error(self, tmp_path, capsys):
        # it used to warn from the folded layer's sqrt and write nan into results.csv
        from sepconvwave.nn.checkpoint import load_tensors, save_tensors

        cfg = tmp_path / "bn.cfg"
        cfg.write_text(Path(TINY).read_text().replace("variant = FC_t", "variant = Conv2.5D")
                       .replace("regularization = SL", "regularization = BN"))
        out = tmp_path / "run"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        ckpt = out / "Conv2p5D_BN" / "checkpoint.scnn"
        tensors = load_tensors(ckpt)
        name = "head_u.04.batchnorm.running_var"
        tensors[name] = tensors[name].copy()
        tensors[name][0] = -1.0
        save_tensors(ckpt, tensors)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {ckpt}: tensor '{name}' has a negative variance"]
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("command, report", [("evaluate", "results.csv"),
                                                 ("compress", "Conv3D_Basic/compress.csv")],
                             ids=["evaluate", "compress"])
    def test_checkpoint_with_a_non_finite_tensor_is_runtime_error(self, tmp_path, capsys, command, report):
        from sepconvwave.nn.checkpoint import load_tensors, save_tensors

        cfg = tmp_path / "conv3d.cfg"
        cfg.write_text(Path(TINY).read_text().replace("variant = FC_t", "variant = Conv3D")
                       .replace("regularization = SL", "regularization = Basic"))
        out = tmp_path / "run"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        ckpt = out / "Conv3D_Basic" / "checkpoint.scnn"
        tensors = load_tensors(ckpt)
        name = "head_u.03.conv.kernel"
        tensors[name] = tensors[name].copy()
        tensors[name].flat[7] = float("nan")
        save_tensors(ckpt, tensors)
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {ckpt}: tensor '{name}' is not finite"]
        assert not (out / report).exists()

    def test_compress_reports_zero_residual_for_rank1_kernels(self, tmp_path):
        # a Conv2.5Db cell checkpoint has no full kernels; use Conv2D via
        # the sweep config's training override instead
        cfg_text = Path(TINY).read_text().replace(
            "variant = FC_t", "variant = Conv2D_Boundary"
        ).replace("regularization = SL", "regularization = Basic")
        cfg = tmp_path / "conv.cfg"
        cfg.write_text(cfg_text)
        out = tmp_path / "run"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0

        # overwrite the trained kernels with rank-1 kernels, then compress
        import numpy as np

        from sepconvwave.harness import ExperimentConfig, VariantSpec, build_model
        from sepconvwave.nn import Conv
        from sepconvwave.nn.checkpoint import load_model, save_model

        exp = ExperimentConfig.from_file(cfg)
        spec = VariantSpec("Conv2D_Boundary")
        model = build_model(spec, exp.grid(), exp.zoo_widths, seed=exp.seed)
        ckpt = out / spec.cell_key() / "checkpoint.scnn"
        load_model(ckpt, model)
        rng = np.random.default_rng(0)
        for layer in model.all_layers():
            if isinstance(layer, Conv) and len(layer.extents) == 2:
                for j in range(layer.n_f):
                    layer.kernel.value[j] = np.outer(
                        rng.standard_normal(layer.extents[0]),
                        rng.standard_normal(layer.extents[1]),
                    )
        save_model(ckpt, model)
        assert main(["compress", "--config", str(cfg), "--out", str(out)]) == 0
        report = (out / spec.cell_key() / "compress.csv").read_text().splitlines()
        rows = [r.split(",") for r in report[1:] if not r.startswith("eps")]
        assert rows, "no kernel rows in compress report"
        assert all(abs(float(r[2])) < 1e-9 for r in rows)
        eps_rows = {r.split(",")[0]: float(r.split(",")[2]) for r in report[1:] if r.startswith("eps")}
        assert abs(eps_rows["eps_before"] - eps_rows["eps_after"]) < 1e-9

    def test_compress_without_full_kernels_predicts_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        import sepconvwave.harness.cli as cli

        cfg = tmp_path / "sep.cfg"
        cfg.write_text(Path(TINY).read_text().replace("variant = FC_t", "variant = Conv2.5Db")
                       .replace("regularization = SL", "regularization = Basic"))
        out = tmp_path / "run"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        calls = []
        predict = cli.predict_fields
        monkeypatch.setattr(cli, "predict_fields", lambda *a, **k: calls.append(1) or predict(*a, **k))
        capsys.readouterr()
        assert main(["compress", "--config", str(cfg), "--out", str(out)]) == 0
        assert calls == []
        assert not (out / "Conv2p5Db_Basic" / "compress.csv").exists()
        assert "Conv2.5Db[Basic]: no full 2D/3D convolution layers to compress" in capsys.readouterr().out
