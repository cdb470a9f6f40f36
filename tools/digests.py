"""Print the sha256 of every primary output of ``generate``, ``train``, ``evaluate`` and ``compress``.

Runs the command-line entry point in a temporary directory:

* ``generate`` on ``configs/{desk,sweep,tiny}.cfg`` at seeds 0, 1 and 2;
* ``train`` on ``configs/tiny.cfg`` at seed 0 for Conv3D, Conv2.5D and
  Conv2.5Db, each with Basic, BN and SL regularization (SL covers the
  shared trunk's draw order), from temporary copies of the config;
  then FC_t and Conv1D_Boundary, whose heads end without a repeat, and
  Conv2.5D with the time residual (E), which repeats the coarse outputs;
* ``train`` on ``configs/desk.cfg`` at seed 0 for one epoch of
  Conv2D_t[E], Conv2D_Boundary[Basic] and Conv1D_t_Boundary[E], whose
  stage-0 layers run in more than one batch chunk at the desk training
  batch (the time residual batches whole time series, 25 x 64 rows);
* ``evaluate`` over the first nine cells;
* ``compress`` of the tiny Conv3D[Basic] cell, whose kernels are 3-way,
  and of the desk Conv2D_Boundary[Basic] cell, whose kernels are 2-way.

It prints one ``sha256  relative/path`` line per primary output
(``*.wds``, ``checkpoint.scnn``, ``history.csv``, ``run_config.cfg``),
the files the determinism contract covers, and per ``compress.csv``;
``timing.csv`` is left out.
Each ``*.wds`` also gets a ``sha256  relative/path:arrays`` line over its
loaded ``params``, ``u``, ``v``, ``boundary_u`` and ``boundary_v`` (shape
and float64 bytes; the last three are derived from ``u`` on load), which
stays the same across a change of the file's layout when the data does
not change.  ``results.csv`` gets one ``sha256
relative/path:no-epoch_seconds`` line over its rows other than
``epoch_seconds``, which come from the timings; it covers the
prediction, the ring traces and the zoom re-solve.  Running it in two
checkouts and diffing the outputs checks that a change keeps those
bytes:

    python tools/digests.py > digests.txt

The package is imported from this checkout's ``src``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from sepconvwave.harness.cli import main  # noqa: E402
from sepconvwave.wave import load_dataset  # noqa: E402

CONFIGS = ("desk", "sweep", "tiny")
SEEDS = (0, 1, 2)
VARIANTS = ("Conv3D", "Conv2.5D", "Conv2.5Db")
REGULARIZATIONS = ("Basic", "BN", "SL")
EXTRA_CELLS = (("FC_t", "Basic"), ("Conv1D_Boundary", "Basic"), ("Conv2.5D", "E"))
DESK_CELLS = (("Conv2D_t", "E"), ("Conv2D_Boundary", "Basic"), ("Conv1D_t_Boundary", "E"))
COMPRESSED = (("tiny", "Conv3D"), ("desk", "Conv2D_Boundary"))  # each trained above, Basic
PRIMARY = ("*.wds", "checkpoint.scnn", "history.csv", "run_config.cfg", "compress.csv")
DATASET_FIELDS = ("u", "v", "boundary_u", "boundary_v")


def _run(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    if code:
        raise SystemExit(f"{' '.join(argv)} exited {code}")


def _arrays_digest(path: Path) -> str:
    dataset = load_dataset(path)
    digest = hashlib.sha256()
    for array in (dataset.param_matrix(), *(dataset.stack(f) for f in DATASET_FIELDS)):
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _results_digest(path: Path) -> str:
    rows = path.read_text().splitlines(keepends=True)
    kept = [row for row in rows if row.split(",")[2:3] != ["epoch_seconds"]]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


def _config(path: Path, base: str = "tiny", **keys: str) -> Path:
    """A copy of ``configs/<base>.cfg`` at ``path`` with ``keys`` set."""
    text = (ROOT / "configs" / f"{base}.cfg").read_text()
    for key, value in keys.items():
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    path.write_text(text)
    return path


def main_digests() -> None:
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for config in CONFIGS:
            for seed in SEEDS:
                _run("generate", "--config", str(ROOT / "configs" / f"{config}.cfg"),
                     "--seed", str(seed), "--out", str(tmp / config / f"seed{seed}"))
        run = tmp / "tiny" / "seed0"
        trained = [(v, r) for v in VARIANTS for r in REGULARIZATIONS] + list(EXTRA_CELLS)
        for variant, regularization in trained:
            cell = _config(tmp / f"tiny_{variant}_{regularization}.cfg",
                           variant=variant, regularization=regularization)
            _run("train", "--config", str(cell), "--seed", "0", "--out", str(run))
        cells = _config(tmp / "tiny_evaluate.cfg", variants=", ".join(VARIANTS),
                        regularizations=", ".join(REGULARIZATIONS))
        _run("evaluate", "--config", str(cells), "--seed", "0", "--out", str(run))
        for variant, regularization in DESK_CELLS:
            cell = _config(tmp / f"desk_{variant}.cfg", base="desk", variant=variant,
                           regularization=regularization, epochs="1")
            _run("train", "--config", str(cell), "--seed", "0", "--out", str(tmp / "desk" / "seed0"))
        for base, variant in COMPRESSED:
            cell = _config(tmp / f"{base}_{variant}_compress.cfg", base=base, variant=variant,
                           regularization="Basic")
            _run("compress", "--config", str(cell), "--seed", "0", "--out", str(tmp / base / "seed0"))
        outputs = sorted({p for pattern in PRIMARY for p in tmp.rglob(pattern)})
        for path in outputs:
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(tmp)}")
            if path.suffix == ".wds":
                print(f"{_arrays_digest(path)}  {path.relative_to(tmp)}:arrays")
        results = run / "results.csv"
        print(f"{_results_digest(results)}  {results.relative_to(tmp)}:no-epoch_seconds")


if __name__ == "__main__":
    main_digests()
