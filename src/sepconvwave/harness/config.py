"""Experiment configuration: plain-text ``key = value`` files.

Grammar: ``[section]`` headers, one ``key = value`` per line, ``#`` starts
a comment, blank lines ignored.  Each field of :class:`ExperimentConfig`
declares its ``[section] key`` once; the type of its default reads and
writes the value.  Unknown sections or keys, and a key repeated in its
section (even under a repeated header), are rejected so typos fail loudly
(``[zoo]`` keys by ``resolve_widths``).  A parsed configuration can be
serialized back to a canonical snapshot that parses to the same experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from ..wave import GridSpec, make_grid
from .variants import VariantSpec, parse_regularization
from .zoo import resolve_widths

__all__ = ["parse_config_text", "ExperimentConfig"]


def parse_config_text(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SECTIONS:
                raise ValueError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ValueError(f"line {lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        if key in sections[current]:
            raise ValueError(f"line {lineno}: repeated key [{current}] {key}")
        sections[current][key] = value
    return sections


_BOOLS = {**dict.fromkeys(("true", "1", "yes", "on"), True),
          **dict.fromkeys(("false", "0", "no", "off"), False)}
# how a value is read and written, by the type of its field's default
_CODECS = {
    int: (int, str),
    float: (float, repr),
    bool: (lambda raw: _BOOLS[raw.lower()], lambda value: str(value).lower()),
    str: (str, str),
    tuple: (lambda raw: tuple(v.strip() for v in raw.split(",") if v.strip()), ", ".join),
}


def _parse_value(section: str, key: str, raw: str, kind: type):
    """``raw`` read as ``kind``; a value that does not parse names its section and key."""
    try:
        return _CODECS[kind][0](raw)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"[{section}] {key} = {raw!r}: cannot parse as {kind.__name__}") from exc


def _key(section: str, default, key: str | None = None, snapshot: bool = True):
    """A field read from ``[section] key``; the key defaults to the field name.

    ``snapshot=False`` leaves it out of :meth:`ExperimentConfig.to_text`.
    """
    return field(default=default, metadata={"section": section, "key": key, "snapshot": snapshot})


@dataclass
class ExperimentConfig:
    nx: int = _key("grid", 64)
    ny: int = _key("grid", 64)
    zoom_nx: int = _key("grid", 16)
    zoom_ny: int = _key("grid", 16)
    nt: int = _key("grid", 64)
    lx: float = _key("grid", 1.0)
    ly: float = _key("grid", 1.0)
    c: float = _key("grid", 1.0)
    cfl_margin: float = _key("grid", 0.9)
    train_samples: int = _key("sampling", 100)
    test_samples: int = _key("sampling", 25)
    omega_min: float = _key("sampling", math.pi)
    omega_max: float = _key("sampling", 4.0 * math.pi)
    # source box half-extents; 0 means the full domain
    source_half_x: float = _key("sampling", 0.0)
    source_half_y: float = _key("sampling", 0.0)
    variant: str = _key("training", "Conv2.5D")
    regularization: str = _key("training", "BN")
    epochs: int = _key("training", 1000)
    lr0: float = _key("training", 1e-3)
    lr_final: float = _key("training", 1e-4)
    decay: bool = _key("training", False)
    batch_size: int = _key("training", 0)
    lambda_euler: float = _key("training", 0.1)
    seed: int = _key("training", 0)
    sweep_variants: tuple[str, ...] = _key(
        "sweep", ("Conv2D", "Conv3D", "Conv2.5D", "Conv2.5Db"), key="variants")
    sweep_regularizations: tuple[str, ...] = _key("sweep", ("Basic", "BN"), key="regularizations")
    threshold: float = _key("evaluation", 0.5)
    compress_rank: int = _key("compress", 1, key="rank")
    # "Variant:Reg"; empty means the [training] cell
    compress_cell: str = _key("compress", "", key="cell")
    outdir: str = _key("io", "out", snapshot=False)
    zoo_widths: dict = field(default_factory=dict)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        sections = parse_config_text(text)
        zoo = sections.pop("zoo", {})
        cfg = cls(zoo_widths={k: _parse_value("zoo", k, v, int) for k, v in zoo.items()})
        for section, entries in sections.items():
            for key, raw in entries.items():
                f = _SCHEMA.get((section, key))
                if f is None:
                    raise ValueError(f"unknown key [{section}] {key}")
                setattr(cfg, f.name, _parse_value(section, key, raw, type(f.default)))
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_text(Path(path).read_text())

    def validate(self) -> None:
        self.grid()  # grid invariants (CFL, window) checked at construction
        if self.nt < 3:  # the velocity field's differences need three time steps
            raise ValueError(f"[grid] nt must be >= 3, got {self.nt}")
        # a wider box clamps sources onto the walls, where the solver drops them
        for key, extent in (("source_half_x", self.lx), ("source_half_y", self.ly)):
            value = getattr(self, key)
            if not 0 <= value <= extent:
                raise ValueError(f"[sampling] {key} must be in [0, {extent}], got {value}")
        resolve_widths(self.zoo_widths)
        self.cell()
        cells = self.sweep_cells()
        for n, spec in enumerate(cells):
            if spec in cells[:n]:
                raise ValueError(f"[sweep] names cell {spec.label()} more than once")
        self.compress_spec()
        if self.train_samples < 1 or self.test_samples < 1:
            raise ValueError("need at least one train and one test sample")
        for key in ("omega_min", "omega_max"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"[sampling] {key} must be finite, got {getattr(self, key)}")
        if not self.omega_min < self.omega_max:
            raise ValueError(f"[sampling] omega_max must be > omega_min = {self.omega_min}, "
                             f"got {self.omega_max}")
        if not math.isfinite(self.omega_max - self.omega_min):  # the sampler draws over the span
            raise ValueError(f"[sampling] omega_max - omega_min must be finite, got "
                             f"{self.omega_max} - {self.omega_min}")
        # "not 0 < value < inf" also rejects NaN; a batch size of 0 means full batch
        for key in ("lr0", "lr_final"):
            value = getattr(self, key)
            if not 0 < value < math.inf:
                raise ValueError(f"[training] {key} must be finite and > 0, got {value}")
        if not 0 <= self.lambda_euler < math.inf:
            raise ValueError(f"[training] lambda_euler must be finite and >= 0, "
                             f"got {self.lambda_euler}")
        for key in ("epochs", "batch_size", "seed"):
            if not getattr(self, key) >= 0:
                raise ValueError(f"[training] {key} must be >= 0, got {getattr(self, key)}")
        if self.compress_rank < 1:
            raise ValueError("[compress] rank must be >= 1")

    def cell(self) -> VariantSpec:
        """The ``[training]`` cell."""
        return VariantSpec(self.variant, parse_regularization(self.regularization))

    def sweep_cells(self) -> list[VariantSpec]:
        """Every ``[sweep]`` variant with every regularization, variant-major."""
        return [
            VariantSpec(name, parse_regularization(reg))
            for name in self.sweep_variants
            for reg in self.sweep_regularizations
        ]

    def compress_spec(self) -> VariantSpec:
        """The ``[compress]`` cell, ``Variant`` or ``Variant:Reg``; if unset, :meth:`cell`."""
        if not self.compress_cell:
            return self.cell()
        name, _, reg = self.compress_cell.partition(":")
        return VariantSpec(name.strip(), parse_regularization(reg))

    def grid(self) -> GridSpec:
        return make_grid(
            nx=self.nx, ny=self.ny, zoom_nx=self.zoom_nx, zoom_ny=self.zoom_ny,
            nt=self.nt, lx=self.lx, ly=self.ly, c=self.c, cfl_margin=self.cfl_margin,
        )

    def bounds(self) -> list[tuple[float, float]]:
        hx = self.source_half_x if self.source_half_x > 0 else self.lx
        hy = self.source_half_y if self.source_half_y > 0 else self.ly
        return [(self.omega_min, self.omega_max), (-hx, hx), (-hy, hy)]

    def to_text(self) -> str:
        """Canonical experiment snapshot: every key in field order, then ``[zoo]`` sorted.

        The output directory is invocation-specific and deliberately left
        out, so snapshots of identical experiments are byte-identical.
        """
        lines = []
        for (section, key), f in _SCHEMA.items():
            if f.metadata["snapshot"]:
                if f"[{section}]" not in lines:
                    lines += ["", f"[{section}]"]
                lines.append(f"{key} = {_CODECS[type(f.default)][1](getattr(self, f.name))}")
        if self.zoo_widths:
            lines += ["", "[zoo]"] + [f"{k} = {v}" for k, v in sorted(self.zoo_widths.items())]
        return "\n".join(lines[1:]) + "\n"


# every field but the width table, by its [section] key
_SCHEMA = {
    (f.metadata["section"], f.metadata["key"] or f.name): f
    for f in fields(ExperimentConfig)
    if f.name != "zoo_widths"
}
_SECTIONS = tuple(dict.fromkeys(section for section, _ in _SCHEMA)) + ("zoo",)
