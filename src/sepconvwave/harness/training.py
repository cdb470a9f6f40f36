"""Training jobs: data preparation, joint two-field optimization.

A job always trains the displacement and velocity heads together on the
summed mean-squared error of the scaled fields; with the time
regularization active, the forward-difference residual of the physical
fields (normalized by the velocity spread so it lives on the same scale
as the MSE terms) is added with a fixed weight.  Training is
deterministic given the seed: initialization, shuffling and batching all
draw from one generator.

The MSE is scored in block form: each head's coarse training output
(:meth:`~sepconvwave.nn.Model.output_repeat`) against the block means of
its targets, which :func:`train` computes once per call.  The time
residual needs the full fields: an ``Upsample`` of the head's factors
repeats the coarse outputs and block-sums the gradients back.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..nn import Adam, Model, Upsample, block_mse, block_targets, lr_schedule
from ..nn.losses import euler_residual, euler_residual_grads
from ..wave import Scaler, WaveDataset
from .variants import VariantSpec

__all__ = [
    "TrainSettings",
    "ParamScaler",
    "EulerSpec",
    "prepare_inputs",
    "prepare_targets",
    "euler_spec_for",
    "train",
]


@dataclass
class TrainSettings:
    epochs: int = 1000
    lr0: float = 1e-3
    lr_final: float = 1e-4
    decay: bool = False
    batch_size: int = 0  # 0 = full batch
    lambda_euler: float = 0.1
    seed: int = 0


class ParamScaler:
    """Column-wise standardization of the network inputs."""

    _GUARD = 1e-12

    def __init__(self):
        self.mean = None
        self.std = None

    def fit(self, params: np.ndarray) -> "ParamScaler":
        self.mean = params.mean(axis=0)
        std = params.std(axis=0)
        self.std = np.where(std > self._GUARD, std, 1.0)
        return self

    def transform(self, params: np.ndarray) -> np.ndarray:
        return (params - self.mean) / self.std


@dataclass(frozen=True)
class EulerSpec:
    """Everything the loss needs to form the physical time residual.

    Scaled outputs map to (physical / velocity std) via ``u_scale`` on
    the displacement and an offset on the velocity, so the residual
    magnitude is comparable to the scaled MSE terms.
    """

    dt: float
    u_scale: float
    v_offset: float
    group: tuple[int, int] | None = None  # (n_p, n_t) for slice-wise models


def euler_spec_for(spec: VariantSpec, dataset: WaveDataset, scaler: Scaler) -> EulerSpec:
    mean_u, std_u = scaler.stats["u"]
    mean_v, std_v = scaler.stats["v"]
    group = (len(dataset), dataset.grid.nt) if spec.time_conditioned else None
    return EulerSpec(
        dt=dataset.grid.dt,
        u_scale=std_u / std_v,
        v_offset=mean_v / std_v,
        group=group,
    )


def prepare_inputs(spec: VariantSpec, dataset: WaveDataset, param_scaler: ParamScaler) -> np.ndarray:
    """Network inputs: scaled p, or (scaled p, normalized t) rows.

    Slice-wise variants get one row per (sample, time step), ordered
    sample-major, with t mapped to [0, 1].
    """
    p = param_scaler.transform(dataset.param_matrix())
    if not spec.time_conditioned:
        return p
    grid = dataset.grid
    t_norm = grid.times() / grid.t_final
    n_p, n_t = len(dataset), grid.nt
    rows = np.empty((n_p * n_t, 4))
    rows[:, :3] = np.repeat(p, n_t, axis=0)
    rows[:, 3] = np.tile(t_norm, n_p)
    return rows


def prepare_targets(spec: VariantSpec, dataset: WaveDataset, scaler: Scaler) -> dict[str, np.ndarray]:
    """Scaled regression targets per head.

    Boundary traces are displacement/velocity values on the ring, so
    they share the field scalers.
    """
    targets = {}
    for head in ("u", "v"):
        t = scaler.transform(dataset.stack(spec.reference_field(head)), head)
        # [n_p, n_t, ...] -> one slice per row, sample-major
        targets[head] = t.reshape((-1,) + t.shape[2:]) if spec.time_conditioned else t
    return targets


def _euler_terms(out_u, out_v, espec: EulerSpec, weight: float):
    """Loss value and output gradients of the weighted time residual.

    Slice-wise rows come sample-major, ``espec.group[1]`` per sample, and
    are regrouped into one time series per sample.
    """
    if espec.group is not None:
        n_t = espec.group[1]
        u = out_u.reshape((-1, n_t) + out_u.shape[1:])
        v = out_v.reshape((-1, n_t) + out_v.shape[1:])
    else:
        u, v = out_u, out_v
    ut = espec.u_scale * u
    vt = v + espec.v_offset
    value = euler_residual(ut, vt, espec.dt)
    gu, gv = euler_residual_grads(ut, vt, espec.dt)
    gu = weight * espec.u_scale * gu
    gv = weight * gv
    if espec.group is not None:
        gu = gu.reshape(out_u.shape)
        gv = gv.reshape(out_v.shape)
    return value, gu, gv


@dataclass
class TrainResult:
    history: list[dict] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.history[-1]["loss"] if self.history else float("nan")


def train(
    model: Model,
    inputs: np.ndarray,
    targets: dict[str, np.ndarray],
    settings: TrainSettings,
    euler: EulerSpec | None = None,
) -> TrainResult:
    """Optimize in place; returns per-epoch history and wall times.

    The unit of batching is one sample, or one whole (sample x time
    grid) group for slice-wise models under the time residual, which
    needs complete time series.  Each head's MSE scores its coarse
    output against block means of ``targets`` (:func:`block_mse`); the
    time residual repeats the coarse outputs onto the full fields and
    block-sums its gradients back.  Aborts on non-finite loss.
    """
    opt = Adam(model.parameters(), lr=settings.lr0)
    rng = np.random.default_rng(settings.seed)
    if euler is not None and euler.group is not None:
        n_units, rows = euler.group
    else:
        n_units, rows = inputs.shape[0], 1
    batch_units = n_units if settings.batch_size <= 0 else min(settings.batch_size, n_units)
    blocks, repeats = {}, {}
    for head in model.head_names:
        shape, factors = model.output_repeat(head)
        repeat = repeats[head] = Upsample(factors)
        t = targets[head]
        means, spread = block_targets(t.reshape((len(t),) + repeat.output_shape(shape)), factors)
        blocks[head] = means, spread, int(np.prod(factors))

    result = TrainResult()
    for epoch in range(settings.epochs):
        started = time.perf_counter()
        lr = lr_schedule(epoch, settings.epochs, settings.lr0, settings.lr_final, settings.decay)
        if batch_units < n_units:
            order = rng.permutation(n_units)
        else:
            order = np.arange(n_units)
        sums = {"loss": 0.0, "euler": 0.0}
        sums.update({f"mse_{h}": 0.0 for h in targets})
        for start in range(0, n_units, batch_units):
            units = order[start : start + batch_units]
            idx = (units[:, None] * rows + np.arange(rows)).ravel()
            x = inputs[idx]
            model.zero_grad()
            out = model.forward(x, training=True)
            grads = {}
            losses = {}
            for head in out:
                means, spread, m = blocks[head]
                losses[head], grads[head] = block_mse(out[head], means[idx], spread[idx], m)
            e_val = 0.0
            if euler is not None:
                if set(out) != {"u", "v"}:
                    raise ValueError("the time residual needs both field heads")
                full = {h: repeats[h].forward(out[h]) for h in ("u", "v")}
                u, v = (full[h].reshape((len(x),) + targets[h].shape[1:]) for h in ("u", "v"))
                e_val, gu, gv = _euler_terms(u, v, euler, settings.lambda_euler)
                for h, g in (("u", gu), ("v", gv)):
                    grads[h] = grads[h] + repeats[h].backward(g.reshape(full[h].shape))
            total = sum(losses.values()) + settings.lambda_euler * e_val
            if not np.isfinite(total):
                raise RuntimeError(f"training diverged at epoch {epoch}: loss={total}")
            model.backward(grads)
            opt.step(lr)
            w = len(units) / n_units
            sums["loss"] += w * total
            sums["euler"] += w * e_val
            for head, value in losses.items():
                sums[f"mse_{head}"] += w * value
        record = {"epoch": epoch, "lr": lr}
        record.update(sums)
        result.history.append(record)
        result.epoch_seconds.append(time.perf_counter() - started)
    return result
