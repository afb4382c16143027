"""Machine-checkable verdicts produced by the comparison and search oracles."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

VERDICTS = ("equivalent", "distinct", "contradiction")


def _json_safe(obj: Any) -> Any:
    """Recursively convert to plain JSON types.

    Non-finite floats pass through unchanged, for the strict
    (``allow_nan=False``) dump to reject.
    """
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (int,)):
        return int(obj)
    if isinstance(obj, float):
        return float(obj)
    if obj is None or isinstance(obj, str):
        return obj
    if hasattr(obj, "tolist"):  # numpy array or scalar
        return _json_safe(obj.tolist())
    if hasattr(obj, "item"):  # other array-like scalars
        return _json_safe(obj.item())
    return str(obj)


@dataclass(frozen=True)
class Certificate:
    """Outcome of a verification: a verdict plus the numbers backing it.

    residual is the quantity the verdict rests on (its meaning is
    operation-specific and documented there); witness carries the
    counterexample or extremal datum when one exists.
    """

    verdict: str
    residual: float
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"verdict must be one of {VERDICTS}, got {self.verdict!r}")

    @property
    def positive(self) -> bool:
        """True for the affirming verdict, False for distinct/contradiction."""
        return self.verdict == "equivalent"

    def to_json_dict(self) -> dict:
        return _json_safe(
            {
                "verdict": self.verdict,
                "residual": self.residual,
                "witness": self.witness,
                "details": self.details,
            }
        )
