"""Model variant taxonomy and regularization legality.

Variant names encode how each model consumes space and time: a ``_t``
suffix means the model takes (parameters, time) and emits a single time
slice; ``Boundary`` variants emit ring traces instead of zoom fields;
``N.5D`` variants replace full kernels with a-priori separable stacks
(2.5D: 2D spatial + 1D temporal stage, 2.5Db / 1.5D: 1D stages only).
Regularizations combine freely except batch normalization with the
time-difference penalty.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "VARIANT_NAMES",
    "REGULARIZATION_COLUMNS",
    "VariantSpec",
    "parse_regularization",
    "format_regularization",
]

VARIANT_NAMES = (
    "FC_t",
    "Conv2D",
    "Conv2D_t",
    "Conv3D",
    "Conv2.5D",
    "Conv2.5Db",
    "FC_t_Boundary",
    "Conv1D_Boundary",
    "Conv1D_t_Boundary",
    "Conv2D_Boundary",
    "Conv1.5D_Boundary",
)

REGULARIZATION_COLUMNS = ("Basic", "BN", "E", "SL", "BN&SL", "E&SL")

_KNOWN_FLAGS = ("BN", "E", "SL")


def parse_regularization(text: str) -> tuple[str, ...]:
    """Parse a column label like ``Basic``, ``BN`` or ``E&SL``."""
    text = text.strip()
    if text.lower() in ("", "basic"):
        return ()
    flags = []
    for token in text.split("&"):
        token = token.strip()
        if token not in _KNOWN_FLAGS:
            raise ValueError(f"unknown regularization {token!r} (expected BN, E, SL)")
        if token in flags:
            raise ValueError(f"duplicate regularization flag {token!r}")
        flags.append(token)
    ordered = tuple(f for f in _KNOWN_FLAGS if f in flags)
    if "BN" in ordered and "E" in ordered:
        raise ValueError(
            "BN and E cannot be combined: batch statistics corrupt the "
            "time-difference residual"
        )
    return ordered


def format_regularization(flags: tuple[str, ...]) -> str:
    return "&".join(flags) if flags else "Basic"


@dataclass(frozen=True)
class VariantSpec:
    name: str
    regularization: tuple[str, ...] = ()

    def __post_init__(self):
        if self.name not in VARIANT_NAMES:
            raise ValueError(f"unknown variant {self.name!r}; known: {VARIANT_NAMES}")
        # normalizes and re-validates flag combinations
        object.__setattr__(
            self, "regularization", parse_regularization(format_regularization(self.regularization))
        )

    @property
    def time_conditioned(self) -> bool:
        """Consumes (p, t) and emits one time slice."""
        return "_t" in self.name

    @property
    def boundary(self) -> bool:
        return self.name.endswith("Boundary")

    @property
    def shared(self) -> bool:
        return "SL" in self.regularization

    @property
    def batch_norm(self) -> bool:
        return "BN" in self.regularization

    @property
    def euler(self) -> bool:
        return "E" in self.regularization

    @property
    def input_dim(self) -> int:
        return 4 if self.time_conditioned else 3

    def reference_field(self, head: str) -> str:
        """The dataset field head ``u`` or ``v`` predicts: the ring trace for boundary variants."""
        return f"boundary_{head}" if self.boundary else head

    def label(self) -> str:
        return f"{self.name}[{format_regularization(self.regularization)}]"

    def cell_key(self) -> str:
        """Filesystem-safe identifier for output directories."""
        reg = format_regularization(self.regularization).replace("&", "+")
        return f"{self.name.replace('.', 'p')}_{reg}"
