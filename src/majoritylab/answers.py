"""Shared result vocabulary: answers, no-majority certificates, and the
error raised when a run breaks its own contract."""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Certificate:
    """Transcript-backed evidence for a no-majority verdict.

    pairs: disjoint ball pairs, each provably of different colors.
    triangle: optional mutually-unequal triple; only needed when n is odd,
        where one triangle replaces one pair in a full cover.
    candidate: optional ball whose color class carries the counting argument
        for certificates that do not cover every ball with pairs.

    Majority verdicts need no separate structure: the checker validates them
    straight off the transcript (see certify.check_majority_claim).
    """

    pairs: tuple[tuple[int, int], ...] = ()
    triangle: tuple[int, int, int] | None = None
    candidate: int | None = None

    def units(self) -> int:
        """Number of cover units; the triangle counts as one."""
        return len(self.pairs) + (1 if self.triangle is not None else 0)

    def covered_balls(self) -> list[int]:
        balls = [b for pair in self.pairs for b in pair]
        if self.triangle is not None:
            balls.extend(self.triangle)
        return balls
