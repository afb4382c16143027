"""Machine-checkable verdicts produced by the comparison and search oracles."""

from __future__ import annotations

from dataclasses import dataclass, field

VERDICTS = ("equivalent", "distinct", "contradiction")


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
        """The four fields as built, from plain JSON types; a non-finite
        number is left for the strict (``allow_nan=False``) dump to reject."""
        return {
            "verdict": self.verdict,
            "residual": self.residual,
            "witness": self.witness,
            "details": self.details,
        }
