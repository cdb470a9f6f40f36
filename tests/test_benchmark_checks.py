"""The benchmark's output checks pass on a tiny dataset and model.

``benchmarks/workloads.py`` reads the dataset API (``samples``, each
sample's ``params`` and arrays, ``load_dataset``), the checkpoint API
and ``kernel_decomp``; ``benchmarks/tracing.py`` wraps the library's
public functions by name.  Both files are loaded by path, unchanged, so
a library change that breaks one of their checks or names fails here
first, not in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import sepconvwave.harness.cli  # noqa: F401  (its module-level references are wrapped too)
from sepconvwave import harness, wave

ROOT = Path(__file__).resolve().parent.parent


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "benchmarks" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look themselves up there
    spec.loader.exec_module(module)
    return module


def _library_attributes():
    return {(name, attr): value for name, module in list(sys.modules.items())
            if module is not None and (name == "sepconvwave" or name.startswith("sepconvwave."))
            for attr, value in vars(module).items()}


def test_tracer_install_wraps_the_library_and_uninstall_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))  # it imports ``flops`` by name
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    before = _library_attributes()
    tracer = tracing.Tracer("tier1")
    try:
        tracer.install()  # resolves every wrapped name, or raises
        during = _library_attributes()
    finally:
        tracer.uninstall()
    wrapped = {key for key, value in before.items() if during[key] is not value}
    assert {("sepconvwave.kernel_decomp", "decompose_2d"), ("sepconvwave.kernel_decomp", "decompose_3d"),
            ("sepconvwave.kernel_decomp", "svd_small"), ("sepconvwave.harness.cli", "decompose_3d"),
            ("sepconvwave.wave", "solve_wave"), ("sepconvwave.harness", "train")} <= wrapped
    after = _library_attributes()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


@pytest.mark.parametrize("variant", ["Conv3D", "Conv2D_Boundary"])
def test_compression_check_passes_on_full_kernels(monkeypatch, variant):
    workloads = _load_workloads(monkeypatch)
    cfg = harness.ExperimentConfig.from_file(ROOT / "configs" / "tiny.cfg")
    model = harness.build_model(harness.VariantSpec(variant), cfg.grid(), cfg.zoo_widths, seed=cfg.seed)
    rec = workloads.Record()
    workloads.check_compression(rec, model, cfg.compress_rank)
    assert rec.attempted == sum(layer.n_f for layer in model.all_layers()
                                if layer.kind == "conv" and len(layer.extents) >= 2) > 0
    assert rec.failed == 0, rec.failures


def test_dataset_submodel_and_checkpoint_checks_pass(tmp_path, monkeypatch):
    workloads = _load_workloads(monkeypatch)
    cfg = harness.ExperimentConfig.from_file(ROOT / "configs" / "tiny.cfg")
    grid = cfg.grid()
    dataset = wave.generate_dataset(grid, 3, seed=cfg.seed, bounds=cfg.bounds())
    path = tmp_path / "data.wds"
    wave.save_dataset(path, dataset)
    spec = harness.VariantSpec("Conv2.5D", ("BN",))
    model = harness.build_model(spec, grid, cfg.zoo_widths, seed=cfg.seed)
    fresh = harness.build_model(spec, grid, cfg.zoo_widths, seed=cfg.seed + 1)

    rec = workloads.Record()
    workloads.check_dataset_roundtrip(rec, dataset, path)
    workloads.check_submodel_identity(rec, dataset)
    workloads.check_checkpoint_roundtrip(rec, model, fresh, tmp_path / "cell.scnn")
    assert rec.attempted == 3
    assert rec.failed == 0, rec.failures
