"""Span tracing for the traced benchmark run, and the per-layer metrics.

The library has no timing hooks yet, so the traced run wraps, for its
duration, the public functions of ``wave``, ``harness``, ``nn``,
``kernel_decomp`` and ``tensor_core`` wherever a ``sepconvwave`` module
holds a reference to them, plus the ``forward``/``backward`` methods of
every model and layer instance that ``harness.build_model`` returns and the
``step`` method of every ``Adam`` instance.  ``Tracer.uninstall`` puts the
originals back.  An untraced run installs nothing.

A span is (name, start, end, parent, run id); spans are kept in memory and
written as JSON lines when the run ends.  Counters (operations, bytes,
output sizes) are recorded at the same boundaries.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from time import perf_counter

from flops import layer_cost

LAYER_KINDS = ("conv", "sepconv", "batchnorm", "dense", "tanh", "upsample", "reshape")
LOSS_SPANS = ("nn.mse", "nn.mse_grad", "nn.euler_residual", "nn.euler_residual_grads")
# warm-up steps run under this span; per-step figures and counters leave them out
SETUP_SPAN = "bench.setup"


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._in_setup = 0

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self._in_setup += name == SETUP_SPAN
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()
        self._in_setup -= self.spans[idx][0] == SETUP_SPAN

    def count(self, name: str, value: float) -> None:
        if not self._in_setup:
            self.counts[name] += value

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, fn, name: str, after=None):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap the library's public entry points (see the module docstring)."""
        import sepconvwave.kernel_decomp as kernel_decomp
        import sepconvwave.nn.checkpoint as checkpoint
        import sepconvwave.tensor_core as tensor_core
        from sepconvwave import harness, nn, wave

        targets = [
            (wave.lhs_sample, "wave.lhs_sample", None),
            (wave.solve_wave, "wave.solve_wave", None),
            (wave.submodel_solve, "wave.submodel_solve", None),
            (wave.generate_dataset, "wave.generate_dataset", None),
            (wave.save_dataset, "wave.save_dataset", self._count_file),
            (wave.load_dataset, "wave.load_dataset", None),
            (harness.build_model, "harness.build_model",
             lambda _args, _kwargs, model: self.instrument_model(model)),
            (harness.prepare_inputs, "harness.prepare_inputs", None),
            (harness.prepare_targets, "harness.prepare_targets", None),
            (harness.train, "harness.train", None),
            (harness.predict_fields, "harness.predict_fields", None),
            (harness.zoom_evaluate, "harness.zoom_evaluate", None),
            (harness.error_indicator, "harness.error_indicator", None),
            (harness.emit_tables, "harness.emit_tables", None),
            (checkpoint.save_model, "nn.checkpoint.save_model", None),
            (checkpoint.load_model, "nn.checkpoint.load_model", None),
            (nn.mse, "nn.mse", None),
            (nn.mse_grad, "nn.mse_grad", None),
            (nn.euler_residual, "nn.euler_residual", None),
            (nn.euler_residual_grads, "nn.euler_residual_grads", None),
            (kernel_decomp.decompose_2d, "kernel_decomp.decompose_2d", None),
            (kernel_decomp.decompose_3d, "kernel_decomp.decompose_3d", None),
            (tensor_core.svd_small, "tensor_core.svd_small", None),
        ]
        replacements = [(fn, self.wrap(fn, name, after)) for fn, name, after in targets]
        replacements.append((nn.Adam, self._traced_adam(nn.Adam)))
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "sepconvwave" or n.startswith("sepconvwave."))]
        for original, wrapper in replacements:
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is original]:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _traced_adam(self, adam_cls):
        def make(*args, **kwargs):
            opt = adam_cls(*args, **kwargs)
            opt.step = self.wrap(opt.step, "nn.adam.step")
            return opt

        return make

    def _count_file(self, args, kwargs, _out) -> None:
        path = kwargs.get("path", args[0] if args else None)
        self.counts["wave.dataset_bytes"] += os.path.getsize(path)
        self.counts["wave.dataset_files"] += 1

    def instrument_model(self, model) -> None:
        """Wrap a model's and its layers' forward/backward on the instances."""
        if "forward" in vars(model):
            return
        forward, backward = model.forward, model.backward

        def model_forward(x, training=False):
            idx = self.begin("nn.model.forward" if training else "nn.model.forward_eval")
            try:
                return forward(x, training)
            finally:
                self.end(idx)

        model.forward = model_forward
        model.backward = self.wrap(backward, "nn.model.backward")
        for layer in model.all_layers():
            if "forward" not in vars(layer):
                self._instrument_layer(layer)

    def _instrument_layer(self, layer) -> None:
        forward, backward, kind = layer.forward, layer.backward, layer.kind
        costed = kind in ("conv", "sepconv")
        last_shape = []

        def layer_forward(x, training=False):
            idx = self.begin(f"nn.{kind}.fwd" if training else f"nn.{kind}.fwd_eval")
            try:
                out = forward(x, training)
            finally:
                self.end(idx)
            if training:
                self.count("nn.activation_bytes", out.nbytes)
                if costed:
                    last_shape[:] = [x.shape]
                    cost = layer_cost(layer, x.shape)[0]
                    self.count(f"nn.{kind}.flop", cost.flop)
                    self.count(f"nn.{kind}.bytes", cost.bytes)
            return out

        def layer_backward(grad):
            idx = self.begin(f"nn.{kind}.bwd")
            try:
                out = backward(grad)
            finally:
                self.end(idx)
            if costed:
                cost = layer_cost(layer, last_shape[0])[1]
                self.count(f"nn.{kind}.flop", cost.flop)
                self.count(f"nn.{kind}.bytes", cost.bytes)
            return out

        layer.forward = layer_forward
        layer.backward = layer_backward

    # -- output -----------------------------------------------------------

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"run": self.run_id, **header}) + "\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.idx = self.tracer.begin(self.name)

    def __exit__(self, *exc):
        self.tracer.end(self.idx)


def span_totals(spans, skip_setup=False) -> tuple[dict, dict, dict]:
    """Per span name: total seconds, total self seconds and call count.

    With ``skip_setup``, spans inside a set-up span are left out.
    """
    child = [0.0] * len(spans)
    in_setup = [False] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
        # a parent is always recorded before its children
        in_setup[i] = name == SETUP_SPAN or (parent >= 0 and in_setup[parent])
    total, self_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for i, (name, start, end, _parent) in enumerate(spans):
        if skip_setup and in_setup[i]:
            continue
        total[name] += end - start
        self_s[name] += end - start - child[i]
        calls[name] += 1
    return total, self_s, calls


def per_layer_metrics(tracer: Tracer, traced_pipeline_s: float, untraced_pipeline_s: float):
    """Per-layer metrics of one traced run: ``{name: (value, unit)}``.

    The training figures (model forward/backward, Adam, losses, layer
    kinds, FLOPs, bytes, activations, ``harness.train`` self time) are per
    training step, that is per model forward in training mode outside
    set-up; ``kernel_decomp`` and ``tensor_core`` are per round's
    compression of the trained cells;
    the other ``*_ms`` figures are per call.
    """
    total, self_s, calls = span_totals(tracer.spans)
    step_total, step_self, step_calls = span_totals(tracer.spans, skip_setup=True)
    counts = tracer.counts
    steps = step_calls["nn.model.forward"]

    def per_step(seconds):
        return 1e3 * seconds / steps if steps else 0.0

    def per_call(name, seconds=None):
        n = calls[name]
        return 1e3 * (total[name] if seconds is None else seconds) / n if n else 0.0

    m = {
        "nn.model.forward_ms": (per_step(step_total["nn.model.forward"]), "ms"),
        "nn.model.backward_ms": (per_step(step_total["nn.model.backward"]), "ms"),
        "nn.model.forward_eval_ms": (per_call("nn.model.forward_eval"), "ms"),
        "nn.adam.step_ms": (per_step(step_total["nn.adam.step"]), "ms"),
        "nn.losses_ms": (per_step(sum(step_total[n] for n in LOSS_SPANS)), "ms"),
    }
    for kind in LAYER_KINDS:
        m[f"nn.{kind}.fwd_ms"] = (per_step(step_total[f"nn.{kind}.fwd"]), "ms")
        m[f"nn.{kind}.bwd_ms"] = (per_step(step_total[f"nn.{kind}.bwd"]), "ms")
    for kind in ("conv", "sepconv"):
        flop, moved = counts[f"nn.{kind}.flop"], counts[f"nn.{kind}.bytes"]
        busy = step_total[f"nn.{kind}.fwd"] + step_total[f"nn.{kind}.bwd"]
        m[f"nn.{kind}.mflop"] = (flop / 1e6 / steps if steps else 0.0, "MFLOP")
        m[f"nn.{kind}.mb_moved"] = (moved / 1e6 / steps if steps else 0.0, "MB")
        m[f"nn.{kind}.flop_per_byte"] = (flop / moved if moved else 0.0, "flop/B")
        m[f"nn.{kind}.gflops"] = (flop / 1e9 / busy if busy else 0.0, "GFLOP/s")
    m["nn.activation_mb"] = (counts["nn.activation_bytes"] / 1e6 / steps if steps else 0.0, "MB")
    m["nn.checkpoint.save_ms"] = (per_call("nn.checkpoint.save_model"), "ms")
    m["nn.checkpoint.load_ms"] = (per_call("nn.checkpoint.load_model"), "ms")
    for name in ("solve_wave", "submodel_solve", "lhs_sample", "save_dataset", "load_dataset"):
        m[f"wave.{name}_ms"] = (per_call(f"wave.{name}"), "ms")
    files = counts["wave.dataset_files"]
    m["wave.dataset_mb"] = (counts["wave.dataset_bytes"] / 1e6 / files if files else 0.0, "MB")
    m["harness.train.self_ms"] = (per_step(step_self["harness.train"]), "ms")
    for name in ("predict_fields", "zoom_evaluate"):
        m[f"harness.{name}.self_ms"] = (per_call(f"harness.{name}", self_s[f"harness.{name}"]), "ms")
    for name in ("error_indicator", "emit_tables", "build_model"):
        m[f"harness.{name}_ms"] = (per_call(f"harness.{name}"), "ms")
    prep = total["harness.prepare_inputs"] + total["harness.prepare_targets"]
    n_prep = calls["harness.prepare_inputs"] + calls["harness.prepare_targets"]
    m["harness.prepare_ms"] = (1e3 * prep / n_prep if n_prep else 0.0, "ms")
    # decompose_3d calls decompose_2d per slice: count only the outermost call
    decomp = ("kernel_decomp.decompose_2d", "kernel_decomp.decompose_3d")
    outer = [end - start for name, start, end, parent in tracer.spans
             if name in decomp and (parent < 0 or tracer.spans[parent][0] not in decomp)]
    runs = calls["bench.compress"]
    m["kernel_decomp.decompose_ms"] = (1e3 * sum(outer) / runs if runs else 0.0, "ms")
    m["kernel_decomp.calls"] = (len(outer) / runs if runs else 0.0, "count")
    m["tensor_core.svd_small_ms"] = (1e3 * total["tensor_core.svd_small"] / runs if runs else 0.0, "ms")
    m["tensor_core.svd_small_calls"] = (calls["tensor_core.svd_small"] / runs if runs else 0.0, "count")
    m["trace.pipeline_s"] = (traced_pipeline_s, "s")
    m["trace.overhead_s"] = (traced_pipeline_s - untraced_pipeline_s, "s")
    return m
