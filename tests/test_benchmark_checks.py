"""The benchmark's output checks pass on a tiny dataset and model.

``benchmarks/workloads.py`` reads the dataset API (``samples``, each
sample's ``params`` and arrays, ``load_dataset``) and the checkpoint
API.  The file is loaded by path, unchanged, so a library change that
breaks one of its checks fails here first, not in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

from sepconvwave import harness, wave

ROOT = Path(__file__).resolve().parent.parent


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "benchmarks" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look themselves up there
    spec.loader.exec_module(module)
    return module


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
