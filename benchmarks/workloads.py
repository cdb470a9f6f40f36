"""The benchmark's workloads and the output checks they run.

A workload runs a fixed amount of work as a number of rounds.  Each round
runs every phase once, in this order:

* ``generate``: the train and test sets simulated and written
  (``wave.generate_dataset`` plus ``wave.save_dataset``);
* ``train``: every cell trained from its initial state for a fixed number
  of epochs, so every round must reach the same final losses;
* ``infer``: eval-mode ``harness.predict_fields`` passes over the test set;
* ``zoom``: ``harness.zoom_evaluate`` passes over the last predictions;
* ``report``: what the CLI does with a trained cell, through the library:
  the checkpoint saved and loaded into a freshly built model, the error
  indicators written as result tables, and every full 2D/3D kernel
  decomposed at the config's compress rank.

The host's speed drifts over seconds, so the phases are interleaved: each
metric then samples the whole run, not one stretch of it.  Set-up (scaler
fits, model builds, one warm-up step per cell) runs in the first round,
between ``generate`` and ``train``, several times, and belongs to no phase.
All files go to the temporary directory the caller passes.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sepconvwave import harness, kernel_decomp, nn, wave
from sepconvwave.nn import checkpoint

SETUP_REPEATS = 3
# the quotas below are sized so that --seconds 30 times about 30 s of work
# on a 2-vCPU x86 host with numpy 2.4 / OpenBLAS 0.3.31; the number of
# rounds scales with --seconds, the work inside a round does not
REFERENCE_SECONDS = 30


@dataclass(frozen=True)
class Plan:
    cells: tuple[str, ...]  # "Variant:Regularization"
    rounds: int
    epochs: int  # per cell and round
    infer_passes: int  # per round
    zoom_passes: int  # per round


CONFIG = "configs/desk.cfg"
TRAIN_SAMPLES = 25  # at the config's full batch, one epoch is one step of criterion 8's shape

PLANS = {
    # separable path: SeparableConv stages with ~14 MB intermediates
    "desk-sep": Plan(("Conv2.5D:BN", "Conv2.5Db:Basic"), rounds=9, epochs=3, infer_passes=2,
                     zoom_passes=3),
    # full-kernel path: Conv's im2col matrix products, and the only cell with
    # full kernels for the report phase to decompose
    "desk-full": Plan(("Conv3D:Basic",), rounds=9, epochs=4, infer_passes=2, zoom_passes=4),
}


@dataclass
class Record:
    """What one pass over a workload measured and checked."""

    import_s: float = 0.0
    config_s: float = 0.0
    setup_s: list = field(default_factory=list)
    phases: dict = field(default_factory=lambda: defaultdict(float))
    step_s: dict = field(default_factory=lambda: defaultdict(list))  # per cell label
    train_samples: int = 0
    generate_pass_s: list = field(default_factory=list)
    generate_samples: int = 0  # per pass
    infer_cycle_s: list = field(default_factory=list)
    infer_samples: int = 0  # per cycle
    zoom_cycle_s: list = field(default_factory=list)
    zoom_samples: int = 0  # per cycle
    final_losses: list = field(default_factory=list)  # per round, per cell
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, what: str, ok, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{what}: {detail}" if detail else what)


@dataclass
class Cell:
    spec: harness.VariantSpec
    model: nn.Model
    inputs: np.ndarray | None = None
    targets: dict | None = None
    euler: harness.EulerSpec | None = None
    initial: dict | None = None


class _Phase:
    """Times a block into ``rec.phases[name]`` inside a ``bench.<name>`` span."""

    def __init__(self, rec, span, name):
        self.rec, self.name, self.span = rec, name, span(f"bench.{name}")

    def __enter__(self):
        self.span.__enter__()
        self.t0 = time.perf_counter()

    def __exit__(self, *exc):
        self.rec.phases[self.name] += time.perf_counter() - self.t0
        self.span.__exit__(*exc)


def _null_span(_name):
    return contextlib.nullcontext()


def _parse_cell(text: str) -> harness.VariantSpec:
    name, _, reg = text.partition(":")
    return harness.VariantSpec(name.strip(), harness.parse_regularization(reg or "Basic"))


def _settings(cfg, epochs: int) -> harness.TrainSettings:
    return harness.TrainSettings(
        epochs=epochs, lr0=cfg.lr0, lr_final=cfg.lr_final, decay=cfg.decay,
        batch_size=cfg.batch_size, lambda_euler=cfg.lambda_euler, seed=cfg.seed,
    )


def _same_bits(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape and a[k].tobytes() == b[k].tobytes()
        for k in a
    )


def run(workload: str, seed: int, seconds: int, tmp: Path, rec: Record, tracer=None) -> None:
    plan = PLANS[workload]
    rounds = max(2, round(plan.rounds * seconds / REFERENCE_SECONDS))
    span = tracer.span if tracer is not None else _null_span
    t0 = time.perf_counter()
    cfg = harness.ExperimentConfig.from_file(CONFIG)
    cfg.seed = seed
    cfg.train_samples = TRAIN_SAMPLES
    rec.config_s = time.perf_counter() - t0

    grid = cfg.grid()
    specs = [_parse_cell(c) for c in plan.cells]
    train_path, test_path = tmp / "train.wds", tmp / "test.wds"
    rec.generate_samples = cfg.train_samples + cfg.test_samples
    settings = _settings(cfg, plan.epochs)
    for r in range(rounds):
        with _Phase(rec, span, "generate"):
            t0 = time.perf_counter()
            train_ds = wave.generate_dataset(grid, cfg.train_samples, seed=cfg.seed,
                                             bounds=cfg.bounds())
            test_ds = wave.generate_dataset(grid, cfg.test_samples, seed=cfg.seed + 1,
                                            bounds=cfg.bounds())
            wave.save_dataset(train_path, train_ds)
            wave.save_dataset(test_path, test_ds)
            rec.generate_pass_s.append(time.perf_counter() - t0)
        if r == 0:
            with span("bench.checks"):
                check_dataset_roundtrip(rec, train_ds, train_path)
                check_dataset_roundtrip(rec, test_ds, test_path)
                check_submodel_identity(rec, test_ds)
            cells, scaler, pscaler = _setup(rec, cfg, specs, train_ds, span)

        losses = []
        with _Phase(rec, span, "train"):
            for c in cells:
                c.model.load_state_dict(c.initial)
                result = harness.train(c.model, c.inputs, c.targets, settings, c.euler)
                rec.step_s[c.spec.label()].extend(result.epoch_seconds)
                rec.train_samples += len(train_ds) * plan.epochs
                losses.append(result.final_loss)
                for h in result.history:
                    rec.check("finite loss", np.isfinite(h["loss"]), f"{c.spec.label()}: {h['loss']}")
        rec.final_losses.append(losses)
        preds, zooms = _infer_and_zoom(plan, rec, span, cells, test_ds, scaler, pscaler)
        _report(rec, span, cfg, cells, test_ds, preds, zooms, tmp)

    with span("bench.checks"):
        first = rec.final_losses[0]
        rec.check("final loss equal in every round",
                  all(r == first for r in rec.final_losses[1:]), f"{rec.final_losses}")
        check_separable_equals_full(rec, seed)


def _setup(rec, cfg, specs, train_ds, span):
    """Fit scalers, build, prepare and warm up every cell; repeated, the last kept."""
    for _ in range(SETUP_REPEATS):
        with span("bench.setup"):
            t0 = time.perf_counter()
            scaler = wave.Scaler().fit(train_ds)
            pscaler = harness.ParamScaler().fit(train_ds.param_matrix())
            cells = []
            for spec in specs:
                model = harness.build_model(spec, train_ds.grid, cfg.zoo_widths, seed=cfg.seed)
                cell = Cell(spec, model)
                cell.inputs = harness.prepare_inputs(spec, train_ds, pscaler)
                cell.targets = harness.prepare_targets(spec, train_ds, scaler)
                if spec.euler:
                    cell.euler = harness.euler_spec_for(spec, train_ds, scaler)
                cell.initial = {k: v.copy() for k, v in model.state_dict().items()}
                harness.train(model, cell.inputs, cell.targets, _settings(cfg, 1), cell.euler)
                model.load_state_dict(cell.initial)
                cells.append(cell)
            rec.setup_s.append(time.perf_counter() - t0)
    return cells, scaler, pscaler


def _infer_and_zoom(plan, rec, span, cells, test_ds, scaler, pscaler):
    preds, zooms = [], []
    rec.infer_samples = rec.zoom_samples = len(test_ds) * len(cells)
    with _Phase(rec, span, "infer"):
        for _ in range(plan.infer_passes):
            t0 = time.perf_counter()
            preds = [harness.predict_fields(c.model, c.spec, test_ds, scaler, pscaler) for c in cells]
            rec.infer_cycle_s.append(time.perf_counter() - t0)
            rec.check("finite predictions",
                      all(np.isfinite(a).all() for p in preds for a in p.values()))
    with _Phase(rec, span, "zoom"):
        for _ in range(plan.zoom_passes):
            t0 = time.perf_counter()
            zooms = [harness.zoom_evaluate(c.spec, p, test_ds) for c, p in zip(cells, preds)]
            rec.zoom_cycle_s.append(time.perf_counter() - t0)
            rec.check("finite zoom indicator",
                      all(np.isfinite([z.eps_u.scalar, z.eps_v.scalar]).all() for z in zooms))
    return preds, zooms


def _report(rec, span, cfg, cells, test_ds, preds, zooms, tmp):
    """Checkpoint, result tables and kernel compression of the trained cells, as the CLI does."""
    with _Phase(rec, span, "report"):
        results = []
        for i, (c, p, z) in enumerate(zip(cells, preds, zooms)):
            fresh = harness.build_model(c.spec, test_ds.grid, cfg.zoo_widths, seed=cfg.seed + 1)
            check_checkpoint_roundtrip(rec, c.model, fresh, tmp / f"cell{i}.scnn")
            reg = harness.format_regularization(c.spec.regularization)
            for field_name in ("u", "v"):
                ref = test_ds.stack(f"boundary_{field_name}" if c.spec.boundary else field_name)
                eps = harness.error_indicator(p[field_name], ref).scalar
                results.append(harness.ResultCell(c.spec.name, reg, f"test_eps_{field_name}", eps))
            results.append(harness.ResultCell(c.spec.name, reg, "test_zoom_eps_u", z.eps_u.scalar))
            results.append(harness.ResultCell(c.spec.name, reg, "test_zoom_eps_v", z.eps_v.scalar))
        paths = harness.emit_tables(results, cfg.threshold, tmp / "tables")
        rec.check("result tables written", all(Path(q).is_file() for q in paths.values()))
        with span("bench.compress"):
            for c in cells:
                check_compression(rec, c.model, cfg.compress_rank)


# -- output checks -------------------------------------------------------------


def check_dataset_roundtrip(rec, dataset, path) -> None:
    """``save_dataset`` -> ``load_dataset`` gives back the same bits."""
    loaded = wave.load_dataset(path)
    fields = ("u", "v", "boundary_u", "boundary_v")
    ok = loaded.grid == dataset.grid and len(loaded) == len(dataset) and all(
        tuple(a.params) == tuple(b.params)
        and _same_bits({f: getattr(a, f) for f in fields}, {f: getattr(b, f) for f in fields})
        for a, b in zip(loaded.samples, dataset.samples)
    )
    rec.check("dataset round trip bit-exact", ok, str(path.name))


def check_checkpoint_roundtrip(rec, model, fresh, path) -> None:
    """``save_model`` -> ``load_model`` into a differently seeded model gives the same bits."""
    checkpoint.save_model(path, model)
    checkpoint.load_model(path, fresh)
    rec.check("checkpoint round trip bit-exact", _same_bits(model.state_dict(), fresh.state_dict()),
              model.variant)


def check_submodel_identity(rec, dataset) -> None:
    """Reference ring traces drive the window re-solve onto the reference field."""
    worst = 0.0
    for s in dataset.samples:
        resolved = wave.submodel_solve(s.boundary_u, s.params, dataset.grid)
        scale = float(np.max(np.abs(s.u))) or 1.0  # a window the wave never reaches is all zero
        worst = max(worst, float(np.max(np.abs(resolved - s.u))) / scale)
    rec.check("submodel re-solve reproduces the reference window", worst < 1e-8, f"rel {worst:.3e}")


def check_compression(rec, model, rank: int) -> None:
    """Decompose every full 2D/3D kernel filter by filter, as the CLI's ``compress`` does.

    A truncated decomposition can never be further from the kernel than
    the zero kernel, so each residual must be finite and at most the
    kernel's norm.
    """
    for layer in model.all_layers():
        if not isinstance(layer, nn.Conv) or len(layer.extents) < 2:
            continue
        for k in layer.kernel.value:
            r = min(rank, k.shape[0], k.shape[1])
            decomp = kernel_decomp.decompose_2d(k, r) if k.ndim == 2 else kernel_decomp.decompose_3d(k, r)
            residual = kernel_decomp.residual_norm(k, decomp)
            norm = float(np.sqrt(np.sum(k * k)))
            rec.check("compression residual within the kernel norm",
                      np.isfinite(residual) and residual <= norm * (1 + 1e-12),
                      f"{model.variant}: {residual!r} > {norm!r}")


def check_separable_equals_full(rec, seed: int) -> None:
    """A desk-sized SeparableConv equals the Conv built from its equivalent kernels.

    The layer is the largest-input separable layer of Conv2.5D at the
    desk widths, fed a random batch of 25.
    """
    cfg = harness.ExperimentConfig.from_file(CONFIG)
    model = harness.build_model(harness.VariantSpec("Conv2.5D"), cfg.grid(), cfg.zoo_widths, seed=seed)
    shape, best = model.input_shape, None
    for layer in model.heads["u"]:
        if layer.kind == "sepconv" and (best is None or np.prod(shape) > np.prod(best[1])):
            best = (layer, shape)
        shape = layer.output_shape(shape)
    sep, in_shape = best
    rng = np.random.default_rng(seed)
    full = nn.Conv(sep.c_in, sep.n_f, sep.extents, rng)
    full.kernel.value[...] = sep.equivalent_kernels()
    full.bias.value[...] = sep.bias.value
    x = rng.standard_normal((25,) + tuple(in_shape))
    got, want = sep.forward(x), full.forward(x)
    diff = float(np.max(np.abs(got - want)) / max(1.0, float(np.max(np.abs(want)))))
    rec.check("separable conv equals its full-kernel conv", diff < 1e-10, f"rel {diff:.3e}")
