"""Command-line entry points.

Subcommands: ``generate`` (datasets), ``train`` (one variant x
regularization cell), ``sweep`` (grid of cells), ``evaluate`` (metrics
and tables from checkpoints), ``compress`` (a-posteriori kernel
decomposition of a trained cell), ``tables`` (re-emit tables from result
files).  Shared flags: ``--config``, ``--seed``, ``--out``.  Exit codes:
0 success, 1 usage or configuration error, 2 runtime failure.

Determinism contract: ``generate`` and ``train`` write byte-identical
primary outputs (datasets, checkpoint, history, config snapshot) for a
fixed config and seed; wall-clock timings go to a separate
``timing.csv`` that is excluded from that contract.  Every output file
is replaced atomically, so a failed write leaves the previous file.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from ..kernel_decomp import decompose_2d, decompose_3d, reconstruct, residual_norm
from ..nn import Conv, count_params
from ..nn.checkpoint import load_model, save_model
from ..wave import Scaler, generate_dataset, load_dataset, save_dataset
from .config import ExperimentConfig
from .evaluation import error_indicator, predict_fields, zoom_evaluate
from .tables import ResultCell, atomic_write_text, emit_tables, parse_results_csv
from .training import (
    ParamScaler,
    TrainSettings,
    euler_spec_for,
    prepare_inputs,
    prepare_targets,
    train,
)
from .variants import format_regularization
from .zoo import build_model

HISTORY_HEADER = "epoch,loss,mse_u,mse_v,euler,lr"


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="sepconvwave",
        description="separable-convolution wave surrogates: data, training, evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("generate", "simulate train/test datasets from the config"),
        ("train", "train one variant x regularization cell"),
        ("sweep", "train and evaluate a grid of cells"),
        ("evaluate", "compute error tables from existing checkpoints"),
        ("compress", "a-posteriori decompose a trained cell's kernels"),
        ("tables", "re-emit classified tables from results.csv"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
    return parser.parse_args(argv)


def _load_setup(args):
    cfg = ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.outdir = args.out
    cfg.validate()
    return cfg


def _dataset_paths(cfg):
    out = Path(cfg.outdir)
    return out / "train.wds", out / "test.wds"


def _load_data(cfg):
    """The train and test sets and the scalers fit on train."""
    paths = _dataset_paths(cfg)
    for p in paths:
        if not p.exists():
            raise FileNotFoundError(f"{p} not found; run `generate` first")
    train_ds, test_ds = (load_dataset(p) for p in paths)
    return train_ds, test_ds, Scaler().fit(train_ds), ParamScaler().fit(train_ds.params)


class _ConfigError(ValueError):
    """A configuration that loaded but that the command cannot run: exit code 1."""


def cmd_generate(cfg) -> None:
    grid = cfg.grid()
    try:
        train_ds = generate_dataset(grid, cfg.train_samples, seed=cfg.seed, bounds=cfg.bounds())
        test_ds = generate_dataset(grid, cfg.test_samples, seed=cfg.seed + 1, bounds=cfg.bounds())
    except ValueError as exc:
        # generate reads nothing but a validated config, so its one ValueError is
        # the sampler's refusal to place the sources outside the zoom window
        raise _ConfigError(f"[sampling] source_half_x = {cfg.source_half_x}, "
                           f"source_half_y = {cfg.source_half_y}: {exc}") from None
    train_path, test_path = _dataset_paths(cfg)
    train_path.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(train_path, train_ds)
    save_dataset(test_path, test_ds)
    print(f"wrote {train_path} ({len(train_ds)} samples) and {test_path} ({len(test_ds)})")


def _history_csv(history) -> str:
    names = HISTORY_HEADER.split(",")
    rows = [",".join(repr(rec[name]) for name in names) for rec in history]
    return "\n".join([HISTORY_HEADER, *rows]) + "\n"


def _train_cell(cfg, spec, train_ds, scaler, pscaler) -> Path:
    cell_dir = Path(cfg.outdir) / spec.cell_key()
    cell_dir.mkdir(parents=True, exist_ok=True)
    model = build_model(spec, train_ds.grid, cfg.zoo_widths, seed=cfg.seed)
    inputs = prepare_inputs(spec, train_ds, pscaler)
    targets = prepare_targets(spec, train_ds, scaler)
    settings = TrainSettings(
        epochs=cfg.epochs, lr0=cfg.lr0, lr_final=cfg.lr_final, decay=cfg.decay,
        batch_size=cfg.batch_size, lambda_euler=cfg.lambda_euler, seed=cfg.seed,
    )
    euler = euler_spec_for(spec, train_ds, scaler) if spec.euler else None
    result = train(model, inputs, targets, settings, euler=euler)
    save_model(cell_dir / "checkpoint.scnn", model)
    atomic_write_text(cell_dir / "history.csv", _history_csv(result.history))
    atomic_write_text(cell_dir / "run_config.cfg", cfg.to_text())
    timing = ["epoch,seconds"] + [f"{i},{s!r}" for i, s in enumerate(result.epoch_seconds)]
    atomic_write_text(cell_dir / "timing.csv", "\n".join(timing) + "\n")
    if result.history:
        print(f"{spec.label()}: final loss {result.final_loss:.6f} ({cfg.epochs} epochs)")
    else:
        print(f"{spec.label()}: 0 epochs, model saved untrained")
    return cell_dir


def cmd_train(cfg) -> None:
    train_ds, _, scaler, pscaler = _load_data(cfg)
    _train_cell(cfg, cfg.cell(), train_ds, scaler, pscaler)


def cmd_sweep(cfg) -> None:
    specs = cfg.sweep_cells()
    if not specs:
        raise _ConfigError("[sweep] names no cell: variants and regularizations must each list one")
    train_ds, test_ds, scaler, pscaler = _load_data(cfg)
    start = time.perf_counter()
    for n, spec in enumerate(specs, start=1):
        cell_start = time.perf_counter()
        _train_cell(cfg, spec, train_ds, scaler, pscaler)
        now = time.perf_counter()
        eta = (now - start) / n * (len(specs) - n)
        print(f"({now - cell_start:.1f} s; cell {n} of {len(specs)}, ETA {eta:.0f} s)")
    cells = _evaluate_cells(cfg, specs, train_ds, test_ds, scaler, pscaler)
    paths = emit_tables(cells, cfg.threshold, cfg.outdir)
    print(f"wrote {paths['csv']} and {paths['text']}")


def _mean_epoch_seconds(cell_dir: Path) -> float | None:
    timing = cell_dir / "timing.csv"
    if not timing.exists():
        return None
    seconds = []
    for n, row in enumerate(timing.read_text().splitlines()[1:], start=2):
        try:
            _, value = row.split(",")
            seconds.append(float(value))
        except ValueError:
            raise ValueError(f"{timing}: line {n}: {row!r} is not epoch,seconds") from None
    if len(seconds) < 2:
        return float(np.mean(seconds)) if seconds else None
    return float(np.mean(seconds[1:]))  # epoch 1 excluded as warm-up


def _evaluate_cells(cfg, specs, train_ds, test_ds, scaler, pscaler):
    cells = []
    grid = train_ds.grid
    specs = [s for s in specs if (Path(cfg.outdir) / s.cell_key() / "checkpoint.scnn").exists()]
    if not specs:
        raise FileNotFoundError(f"no trained cells under {cfg.outdir}; run `train` or `sweep`")
    for spec in specs:
        cell_dir = Path(cfg.outdir) / spec.cell_key()
        model = build_model(spec, grid, cfg.zoo_widths, seed=cfg.seed)
        load_model(cell_dir / "checkpoint.scnn", model)
        reg = format_regularization(spec.regularization)

        def add(metric, value):
            cells.append(ResultCell(spec.name, reg, metric, value))

        add("params", float(count_params(model).decomposed_count))
        for split, ds in (("train", train_ds), ("test", test_ds)):
            preds = predict_fields(model, spec, ds, scaler, pscaler)
            for head in ("u", "v"):
                ref = ds.stack(spec.reference_field(head))
                add(f"{split}_eps_{head}", error_indicator(preds[head], ref).scalar)
            zoom = zoom_evaluate(spec, preds, ds)
            add(f"{split}_zoom_eps_u", zoom.eps_u.scalar)
            add(f"{split}_zoom_eps_v", zoom.eps_v.scalar)
        secs = _mean_epoch_seconds(cell_dir)
        if secs is not None:
            add("epoch_seconds", secs)
    return cells


def cmd_evaluate(cfg) -> None:
    specs = cfg.sweep_cells()
    if cfg.cell() not in specs:
        specs.append(cfg.cell())
    cells = _evaluate_cells(cfg, specs, *_load_data(cfg))
    paths = emit_tables(cells, cfg.threshold, cfg.outdir)
    print(f"wrote {paths['csv']} and {paths['text']}")


def cmd_compress(cfg) -> None:
    spec = cfg.compress_spec()
    train_ds, test_ds, scaler, pscaler = _load_data(cfg)
    cell_dir = Path(cfg.outdir) / spec.cell_key()
    ckpt = cell_dir / "checkpoint.scnn"
    if not ckpt.exists():
        raise FileNotFoundError(f"{ckpt} not found; train the cell first")
    model = build_model(spec, train_ds.grid, cfg.zoo_widths, seed=cfg.seed)
    load_model(ckpt, model)
    eligible = [
        (idx, layer)
        for idx, layer in enumerate(model.all_layers())
        if isinstance(layer, Conv) and len(layer.extents) >= 2
    ]
    if not eligible:
        print(f"{spec.label()}: no full 2D/3D convolution layers to compress")
        return

    def test_eps():
        pred = predict_fields(model, spec, test_ds, scaler, pscaler)["u"]
        return error_indicator(pred, test_ds.stack(spec.reference_field("u"))).scalar

    before = test_eps()

    r = cfg.compress_rank
    lines = ["layer,filter,residual,kernel_norm"]
    for idx, layer in eligible:
        kernels = layer.kernel.value
        for j in range(kernels.shape[0]):
            k = kernels[j]
            rank = min(r, k.shape[0], k.size // k.shape[0])  # the unfolding's bound
            decomp = decompose_2d(k, rank) if k.ndim == 2 else decompose_3d(k, rank)
            res = residual_norm(k, decomp)
            lines.append(f"{idx},{j},{res!r},{float(np.sqrt(np.sum(k * k)))!r}")
            layer.kernel.value[j] = reconstruct(decomp)
    after = test_eps()

    lines.append(f"eps_before,,{before!r},")
    lines.append(f"eps_after,,{after!r},")
    report = cell_dir / "compress.csv"
    atomic_write_text(report, "\n".join(lines) + "\n")
    print(
        f"{spec.label()}: rank-{r} truncation, test eps {before:.6f} -> {after:.6f}; "
        f"report at {report}"
    )


def cmd_tables(cfg) -> None:
    path = Path(cfg.outdir) / "results.csv"
    if not path.exists():
        raise FileNotFoundError(f"{path} not found; run `evaluate` or `sweep` first")
    try:
        cells = parse_results_csv(path.read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    paths = emit_tables(cells, cfg.threshold, cfg.outdir)
    print(f"re-emitted {paths['csv']} and {paths['text']}")


_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "sweep": cmd_sweep,
    "evaluate": cmd_evaluate,
    "compress": cmd_compress,
    "tables": cmd_tables,
}


def main(argv=None) -> int:
    try:
        args = _parse_args(argv if argv is not None else sys.argv[1:])
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        cfg = _load_setup(args)
    except (ValueError, FileNotFoundError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    try:
        _COMMANDS[args.command](cfg)
    except _ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure contract: exit code 2
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
