"""Certificate auditing: replay a comparison transcript and check claims.

The auditor is deliberately dumber than the algorithms it checks.  From a
transcript it builds equality classes (union-find over "equal" records) and
class-level conflict edges ("unequal" records).  Two balls are *provably
unequal* only when their classes are joined by a recorded conflict edge.
No multi-edge inference is performed here: reasoning like "x differs from
two balls that differ from each other, so..." belongs to adversary-style
arguments over binary alphabets, not to an auditor that must stay sound for
arbitrary alphabets.

A majority claim is accepted when the witness's class has exactly the claimed
size, the size clears n/2, and every other class conflicts with the witness's
class.  A no-majority claim is accepted from a Certificate: disjoint provably
unequal pairs (plus, for odd n, one mutually-unequal triangle) and, when the
pairs do not cover everything, counting conditions around an optional
candidate class.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .answers import Answer, Certificate
from .core import ComparisonRecord, Instance

__all__ = [
    "InconsistentTranscript",
    "EqStructure",
    "CheckResult",
    "build_eq_structure",
    "check_majority_claim",
    "check_no_majority_claim",
    "verify_run",
    "brute_force_majority",
    "answer_matches_brute_force",
]


class InconsistentTranscript(Exception):
    """The transcript asserts both equality and inequality for one pair."""


@dataclass(frozen=True)
class CheckResult:
    accepted: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.accepted


class EqStructure:
    """Union-find over balls 1..n plus class-level conflict edges."""

    def __init__(self, n: int):
        self.n = n
        self._parent = list(range(n + 1))  # index 0 unused
        self._size = [1] * (n + 1)
        self._conflicts: set[frozenset[int]] = set()

    def root(self, x: int) -> int:
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def _union(self, x: int, y: int) -> None:
        rx, ry = self.root(x), self.root(y)
        if rx == ry:
            return
        if self._size[rx] < self._size[ry]:
            rx, ry = ry, rx
        self._parent[ry] = rx
        self._size[rx] += self._size[ry]

    def same_class(self, x: int, y: int) -> bool:
        return self.root(x) == self.root(y)

    def provably_unequal(self, x: int, y: int) -> bool:
        rx, ry = self.root(x), self.root(y)
        return rx != ry and frozenset((rx, ry)) in self._conflicts

    def class_size(self, x: int) -> int:
        return self._size[self.root(x)]

    def class_roots(self) -> list[int]:
        return [b for b in range(1, self.n + 1) if self.root(b) == b]

    def conflict_roots_of(self, x: int) -> set[int]:
        rx = self.root(x)
        out = set()
        for edge in self._conflicts:
            if rx in edge:
                other = next(iter(edge - {rx}), rx)
                out.add(other)
        return out


def build_eq_structure(n: int, transcript: Iterable[ComparisonRecord]) -> EqStructure:
    """Replay a transcript into classes and conflicts.

    Equalities are applied first so that a later equality can never silently
    invalidate an already-registered conflict: if any unequal record ends up
    inside one class, the transcript is contradictory and we raise.
    """
    eq = EqStructure(n)
    records = list(transcript)
    for rec in records:
        if not (1 <= rec.left <= n and 1 <= rec.right <= n):
            raise ValueError(f"transcript references ball out of range: {rec}")
        if rec.equal:
            eq._union(rec.left, rec.right)
    for rec in records:
        if not rec.equal:
            rx, ry = eq.root(rec.left), eq.root(rec.right)
            if rx == ry:
                raise InconsistentTranscript(
                    f"balls {rec.left} and {rec.right} are both equal and unequal"
                )
            eq._conflicts.add(frozenset((rx, ry)))
    return eq


# ----------------------------------------------------------------------
# Claim checking
# ----------------------------------------------------------------------


def check_majority_claim(eq: EqStructure, answer: Answer, n: int) -> CheckResult:
    """Accept iff the transcript proves the claimed majority outright."""
    if not answer.is_majority:
        return CheckResult(False, "not a majority answer")
    v = answer.witness
    if v is None or not 1 <= v <= n:
        return CheckResult(False, f"witness {v} out of range")
    mult = answer.multiplicity
    if mult is None or mult <= n // 2:
        return CheckResult(False, f"claimed multiplicity {mult} does not clear {n // 2}")
    if eq.class_size(v) != mult:
        return CheckResult(
            False,
            f"witness class has {eq.class_size(v)} proven members, claim says {mult}",
        )
    rv = eq.root(v)
    conflicts = eq.conflict_roots_of(v)
    for r in eq.class_roots():
        if r != rv and r not in conflicts:
            return CheckResult(False, f"class of ball {r} is not proven unequal to witness")
    return CheckResult(True)


def check_no_majority_claim(eq: EqStructure, cert: Certificate, n: int) -> CheckResult:
    """Accept iff the certificate proves every color is capped at n//2."""
    half = n // 2
    covered: set[int] = set()

    for a, b in cert.pairs:
        for ball in (a, b):
            if not 1 <= ball <= n:
                return CheckResult(False, f"pair ball {ball} out of range")
            if ball in covered:
                return CheckResult(False, f"ball {ball} covered twice")
            covered.add(ball)
        if not eq.provably_unequal(a, b):
            return CheckResult(False, f"pair ({a}, {b}) is not provably unequal")

    if cert.triangle is not None:
        t = cert.triangle
        for ball in t:
            if not 1 <= ball <= n:
                return CheckResult(False, f"triangle ball {ball} out of range")
            if ball in covered:
                return CheckResult(False, f"ball {ball} covered twice")
            covered.add(ball)
        for i in range(3):
            for j in range(i + 1, 3):
                if not eq.provably_unequal(t[i], t[j]):
                    return CheckResult(
                        False, f"triangle edge ({t[i]}, {t[j]}) is not provably unequal"
                    )

    units = cert.units()
    uncovered = [b for b in range(1, n + 1) if b not in covered]

    if cert.candidate is None:
        # Pure matching certificate: every color hits each unit at most once
        # and may own every uncovered ball.
        if units + len(uncovered) > half:
            return CheckResult(
                False,
                f"{units} units + {len(uncovered)} uncovered exceeds {half}",
            )
        return CheckResult(True)

    v = cert.candidate
    if not 1 <= v <= n:
        return CheckResult(False, f"candidate {v} out of range")
    rv = eq.root(v)
    conflict_roots = eq.conflict_roots_of(v)

    def in_class(ball: int) -> bool:
        return eq.root(ball) == rv

    def unequal_to_v(ball: int) -> bool:
        return eq.root(ball) in conflict_roots

    # (a) caps every color other than the candidate's: one per unit, plus
    # any uncovered ball not pinned to the candidate class.
    uncovered_not_class = sum(1 for b in uncovered if not in_class(b))
    if units + uncovered_not_class > half:
        return CheckResult(
            False,
            f"non-candidate bound fails: {units} units + {uncovered_not_class} loose",
        )

    # (b) caps the candidate's color: proven class members, plus units that
    # might be hiding one more, plus unresolved uncovered balls.
    class_size = eq.class_size(v)
    unit_groups: list[tuple[int, ...]] = list(cert.pairs)
    if cert.triangle is not None:
        unit_groups.append(cert.triangle)
    suspicious_units = 0
    for group in unit_groups:
        if any(in_class(b) for b in group):
            continue
        if any(not unequal_to_v(b) for b in group):
            suspicious_units += 1
    unresolved = sum(1 for b in uncovered if not in_class(b) and not unequal_to_v(b))
    if class_size + suspicious_units + unresolved > half:
        return CheckResult(
            False,
            f"candidate bound fails: {class_size} proven + {suspicious_units} units"
            f" + {unresolved} unresolved exceeds {half}",
        )
    return CheckResult(True)


def verify_run(
    n: int,
    transcript: Sequence[ComparisonRecord],
    answer: Answer,
    certificate: Certificate | None,
) -> CheckResult:
    """Audit one run: build the knowledge structure and check the claim."""
    try:
        eq = build_eq_structure(n, transcript)
    except InconsistentTranscript as exc:
        return CheckResult(False, f"inconsistent transcript: {exc}")
    if answer.is_majority:
        return check_majority_claim(eq, answer, n)
    if certificate is None:
        return CheckResult(False, "no-majority answer without a certificate")
    return check_no_majority_claim(eq, certificate, n)


# ----------------------------------------------------------------------
# Ground truth (reads colors directly; zero comparisons -- test privilege)
# ----------------------------------------------------------------------


def brute_force_majority(instance: Instance, balls: Sequence[int] | None = None) -> Answer:
    """Exact answer by direct counting; the reference oracle for all tests."""
    if balls is None:
        colors = instance.colors
        indices = range(1, instance.n + 1)
    else:
        colors = tuple(instance.color_of(b) for b in balls)
        indices = tuple(balls)
    m = len(colors)
    if m == 0:
        return Answer.no_majority()
    counts = Counter(colors)
    color, count = counts.most_common(1)[0]
    if count > m // 2:
        witness = next(b for b, c in zip(indices, colors) if c == color)
        return Answer.majority(witness, count)
    return Answer.no_majority()


def answer_matches_brute_force(
    answer: Answer, instance: Instance, balls: Sequence[int] | None = None
) -> bool:
    """Kind and multiplicity must match; the witness may be any ball of the
    majority color."""
    truth = brute_force_majority(instance, balls)
    if answer.kind != truth.kind:
        return False
    if not answer.is_majority:
        return True
    if answer.multiplicity != truth.multiplicity:
        return False
    return instance.color_of(answer.witness) == instance.color_of(truth.witness)

