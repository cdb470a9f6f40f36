"""Relative error indicator and the boundary-driven zoom evaluation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import Model
from ..wave import (
    Scaler,
    WaveDataset,
    boundary_index_arrays,
    submodel_solve_batch,
    velocity_field,
)
from .training import ParamScaler, prepare_inputs
from .variants import VariantSpec

__all__ = [
    "ErrorIndicator",
    "error_indicator",
    "zero_baseline",
    "predict_fields",
    "zoom_evaluate",
]

_DENOM_GUARD = 1e-14
_CHUNK_ROWS = 4096  # rows per eval forward in predict_fields


@dataclass(frozen=True)
class ErrorIndicator:
    """Relative error per (sample, time), per time, and time-averaged.

    A time slice enters the averages only when the reference field's
    spatial max magnitude exceeds the guard (the first steps of every
    solve are exactly zero).
    """

    eps_pt: np.ndarray  # [n_p, n_t], NaN where the slice is skipped
    valid: np.ndarray  # [n_p, n_t] bool
    eps_t: np.ndarray  # [n_t], NaN where no sample is valid
    scalar: float


def error_indicator(pred: np.ndarray, ref: np.ndarray) -> ErrorIndicator:
    """Space-mean absolute error over space-max reference magnitude.

    ``pred`` and ``ref`` are physical-unit fields ``[n_p, n_t, *space]``.
    """
    if pred.shape != ref.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {ref.shape}")
    space_axes = tuple(range(2, pred.ndim))
    # one new buffer holds |pred - ref| and then |ref|: multi-MB
    # temporaries freed together go back to the OS and fault in again on
    # the next call
    buf = np.subtract(pred, ref)
    num = np.mean(np.abs(buf, out=buf), axis=space_axes)
    den = np.max(np.abs(ref, out=buf), axis=space_axes)
    valid = den >= _DENOM_GUARD
    eps_pt = np.full(num.shape, np.nan)
    np.divide(num, den, out=eps_pt, where=valid)
    counts = valid.sum(axis=0)
    sums = np.where(valid, eps_pt, 0.0).sum(axis=0)
    eps_t = np.full(counts.shape, np.nan)
    defined = counts > 0
    eps_t[defined] = sums[defined] / counts[defined]
    scalar = float(np.mean(eps_t[defined])) if defined.any() else float("nan")
    return ErrorIndicator(eps_pt=eps_pt, valid=valid, eps_t=eps_t, scalar=scalar)


def zero_baseline(refs: np.ndarray) -> float:
    """Error of the all-zero predictor; the floor any model must beat."""
    return error_indicator(np.zeros_like(refs), refs).scalar


def predict_fields(
    model: Model,
    spec: VariantSpec,
    dataset: WaveDataset,
    scaler: Scaler,
    param_scaler: ParamScaler,
) -> dict[str, np.ndarray]:
    """Physical-unit predictions, one array per head.

    Field variants give ``[n_p, nt, zx, zy]``, boundary variants
    ``[n_p, nt, n_boundary]``; slice-wise models are run over the whole
    time grid and reassembled.  Evaluation mode (running statistics) is
    used throughout.
    """
    inputs = prepare_inputs(spec, dataset, param_scaler)
    chunks = []
    for start in range(0, inputs.shape[0], _CHUNK_ROWS):
        chunks.append(model.forward(inputs[start : start + _CHUNK_ROWS], training=False))
    out = {h: np.concatenate([c[h] for c in chunks], axis=0) for h in model.head_names}
    grid = dataset.grid
    result = {}
    for head, arr in out.items():
        if spec.time_conditioned:
            arr = arr.reshape((len(dataset), grid.nt) + arr.shape[1:])
        result[head] = scaler.inverse(arr, head)
    return result


def _traces_from_prediction(spec, pred_u: np.ndarray, dataset: WaveDataset) -> np.ndarray:
    grid = dataset.grid
    space = (grid.n_boundary,) if spec.boundary else (grid.zoom_nx, grid.zoom_ny)
    expected = (len(dataset), grid.nt) + space
    if pred_u.shape != expected:
        raise ValueError(
            f"{spec.label()}: predictions['u'] has shape {pred_u.shape}, expected {expected}"
        )
    if spec.boundary:
        return pred_u
    ii, jj = boundary_index_arrays(grid)
    return pred_u[:, :, ii, jj]


@dataclass(frozen=True)
class ZoomResult:
    eps_u: ErrorIndicator
    eps_v: ErrorIndicator


def zoom_evaluate(
    spec: VariantSpec,
    predictions: dict[str, np.ndarray],
    dataset: WaveDataset,
) -> ZoomResult:
    """Drive the window submodel with predicted boundary traces.

    Field models contribute the ring of their predicted zoom field;
    boundary models their direct trace output.  All samples are re-solved
    in one batch.  The re-solved field is compared against the reference
    restriction, and its time derivative against the reference velocity.
    ``predictions["u"]`` must have the shape :func:`predict_fields` gives
    the variant, else ``ValueError``.
    """
    grid = dataset.grid
    traces = _traces_from_prediction(spec, predictions["u"], dataset)
    resolved = submodel_solve_batch(traces, [s.params for s in dataset.samples], grid)
    resolved_v = velocity_field(resolved, grid.dt)
    return ZoomResult(
        eps_u=error_indicator(resolved, dataset.stack("u")),
        eps_v=error_indicator(resolved_v, dataset.stack("v")),
    )
