"""Shared result vocabulary: answers, no-majority certificates, and the
error raised when a run breaks its own contract."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Answer", "Certificate", "ContractViolation"]


class ContractViolation(RuntimeError):
    """A run broke a bound or invariant it promises (comparison cap, depth,
    baseline cost, certificate shape).  Raised explicitly rather than by
    ``assert`` so the checks also hold under ``python -O``."""


@dataclass(frozen=True)
class Answer:
    """Exact verdict for a multiset of balls.

    kind is "majority" or "no_majority".  A majority answer names a witness
    ball and the exact count of its color in the multiset the algorithm was
    asked about.
    """

    kind: str
    witness: int | None = None
    multiplicity: int | None = None

    @staticmethod
    def majority(witness: int, multiplicity: int) -> "Answer":
        return Answer("majority", witness, multiplicity)

    @staticmethod
    def no_majority() -> "Answer":
        return Answer("no_majority")

    @property
    def is_majority(self) -> bool:
        return self.kind == "majority"

    def __repr__(self) -> str:
        if self.is_majority:
            return f"Majority(ball={self.witness}, multiplicity={self.multiplicity})"
        return "NoMajority"


@dataclass(frozen=True, eq=False)
class Certificate:
    """Transcript-backed evidence for a no-majority verdict.

    pairs: disjoint ball pairs, each provably of different colors, as one
        read-only ``(k, 2)`` int64 array with a pair per row.  Any sequence
        of pairs (or nothing, for no pairs) is accepted and copied into that
        form once, at construction; a read-only int64 array is shared.  A
        width other than 2, ragged rows or a ball beyond int64 raise
        ValueError.
    triangle: optional mutually-unequal triple; only needed when n is odd,
        where one triangle replaces one pair in a full cover.
    candidate: optional ball whose color class carries the counting argument
        for certificates that do not cover every ball with pairs.

    Majority verdicts need no separate structure: the checker validates them
    straight off the transcript (see certify.check_majority_claim).
    """

    pairs: np.ndarray = ()
    triangle: tuple[int, int, int] | None = None
    candidate: int | None = None

    def __post_init__(self) -> None:
        pairs = self.pairs
        if not (
            isinstance(pairs, np.ndarray)
            and pairs.dtype == np.int64
            and not pairs.flags.writeable
        ):
            try:
                pairs = np.array(pairs, dtype=np.int64, order="C")
            except OverflowError as exc:
                raise ValueError(f"a certificate ball is beyond int64: {exc}") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"certificate pairs are not a (k, 2) table: {exc}") from None
            if pairs.shape == (0,):
                pairs = pairs.reshape(0, 2)
            pairs.flags.writeable = False
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"certificate pairs must have shape (k, 2), got {pairs.shape}")
        object.__setattr__(self, "pairs", pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Certificate):
            return NotImplemented
        return (
            np.array_equal(self.pairs, other.pairs)
            and self.triangle == other.triangle
            and self.candidate == other.candidate
        )

    __hash__ = None  # type: ignore[assignment]  # pairs is an array

    def units(self) -> int:
        """Number of cover units; the triangle counts as one."""
        return len(self.pairs) + (1 if self.triangle is not None else 0)
