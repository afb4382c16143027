"""Machine-checkable verdicts produced by the comparison and search oracles."""

from __future__ import annotations

from collections import namedtuple

VERDICTS = ("equivalent", "distinct", "contradiction")


class Certificate(namedtuple("Certificate", "verdict residual witness details")):
    """Outcome of a verification: a verdict plus the numbers backing it.

    residual is the quantity the verdict rests on (its meaning is
    operation-specific and documented there); witness carries the
    counterexample or extremal datum when one exists; details defaults to
    a fresh empty dict.

    A named tuple: read-only fields, equal to the plain tuple of them;
    _make and _replace skip the checks of __new__.
    """

    __slots__ = ()

    def __new__(cls, verdict: str, residual: float, witness: dict | None = None, details=None):
        if verdict not in VERDICTS:
            raise ValueError(f"verdict must be one of {VERDICTS}, got {verdict!r}")
        return super().__new__(cls, verdict, residual, witness, {} if details is None else details)

    @property
    def positive(self) -> bool:
        """True for the affirming verdict, False for distinct/contradiction."""
        return self.verdict == "equivalent"

    def to_json_dict(self) -> dict:
        """The four fields as built, from plain JSON types; a non-finite
        number is left for the strict (``allow_nan=False``) dump to reject."""
        return self._asdict()
