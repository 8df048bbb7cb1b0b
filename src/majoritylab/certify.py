"""Certificate auditing: replay a comparison transcript and check claims.

The auditor is deliberately dumber than the algorithms it checks.  It
freezes a transcript into one class label per ball (union-find over the
"equal" records, every ball compressed to its final root) and a set of
conflicts, each "unequal" record stored as the ordered pair of the two
labels it separates.  Two balls are *provably unequal* only when their
labels form a recorded conflict pair.  No multi-edge inference is performed
here: reasoning like "x differs from two balls that differ from each other,
so..." belongs to adversary-style arguments over binary alphabets, not to
an auditor that must stay sound for arbitrary alphabets.

A majority claim is accepted when the witness's class has exactly the claimed
size, the size clears n/2, and every other class conflicts with the witness's
class.  A no-majority claim is accepted from a Certificate: disjoint provably
unequal units (pairs plus, for odd n, one mutually-unequal triangle) and,
when the units do not cover everything, counting conditions around an
optional candidate class.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .answers import Answer, Certificate
from .core import ComparisonRecord, Instance, Transcript

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


@dataclass(frozen=True)
class EqStructure:
    """A transcript frozen into class labels and conflicting label pairs.

    ``label[x]`` names the equality class of ball x (index 0 unused); a
    label is one ball of its class.  ``size[l]`` is the size of the class
    labelled l.  ``conflicts`` holds each unequal record as the label pair
    (min, max) of the two classes it separates.
    """

    n: int
    label: list[int]
    size: list[int]
    conflicts: set[tuple[int, int]]

    def same_class(self, x: int, y: int) -> bool:
        return self.label[x] == self.label[y]

    def provably_unequal(self, x: int, y: int) -> bool:
        lx, ly = self.label[x], self.label[y]
        return ((lx, ly) if lx < ly else (ly, lx)) in self.conflicts

    def class_size(self, x: int) -> int:
        return self.size[self.label[x]]

    def class_roots(self) -> list[int]:
        return [b for b in range(1, self.n + 1) if self.label[b] == b]

    def conflict_roots_of(self, x: int) -> set[int]:
        lx = self.label[x]
        return {b if a == lx else a for a, b in self.conflicts if lx in (a, b)}


def _columns(transcript: Iterable[ComparisonRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(left, right, equal) arrays of a Transcript or of any record iterable."""
    if isinstance(transcript, Transcript):
        return transcript.columns()
    table = np.array([tuple(rec) for rec in transcript], dtype=np.int64).reshape(-1, 3)
    return table[:, 0], table[:, 1], table[:, 2] != 0


def build_eq_structure(n: int, transcript: Iterable[ComparisonRecord]) -> EqStructure:
    """Replay a transcript into class labels and conflicts.

    Equalities are applied first (union by size, path halving), then every
    ball is compressed to its final root, which becomes its label.  Only
    then are the unequal records keyed, so a later equality can never
    silently invalidate an already-registered conflict: if any unequal
    record ends up inside one class, the transcript is contradictory and
    we raise.  The records are read as columns, never one object each.
    """
    left, right, equal = _columns(transcript)
    if len(left) and (min(left.min(), right.min()) < 1 or max(left.max(), right.max()) > n):
        i = np.flatnonzero((left < 1) | (left > n) | (right < 1) | (right > n))[0]
        rec = ComparisonRecord(int(left[i]), int(right[i]), bool(equal[i]))
        raise ValueError(f"transcript references ball out of range: {rec}")

    parent = list(range(n + 1))  # index 0 unused
    size = [1] * (n + 1)
    for x, y in zip(left[equal].tolist(), right[equal].tolist()):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        while parent[y] != y:
            parent[y] = parent[parent[y]]
            y = parent[y]
        if x == y:
            continue
        if size[x] < size[y]:
            x, y = y, x
        parent[y] = x
        size[x] += size[y]

    for b in range(1, n + 1):
        root = parent[b]
        while parent[root] != root:
            root = parent[root]
        parent[b] = root
    label = parent

    labels = np.array(label, dtype=np.int64)
    unequal = ~equal
    a, b = labels[left[unequal]], labels[right[unequal]]
    clash = a == b
    if clash.any():
        i = np.flatnonzero(clash)[0]
        raise InconsistentTranscript(
            f"balls {left[unequal][i]} and {right[unequal][i]} are both equal and unequal"
        )
    conflicts = set(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))
    return EqStructure(n, label, size, conflicts)


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
    proven = eq.class_size(v)
    if proven != mult:
        return CheckResult(False, f"witness class has {proven} proven members, claim says {mult}")
    lv = eq.label[v]
    rivals = eq.conflict_roots_of(v)
    for r in eq.class_roots():
        if r != lv and r not in rivals:
            return CheckResult(False, f"class of ball {r} is not proven unequal to witness")
    return CheckResult(True)


def check_no_majority_claim(eq: EqStructure, cert: Certificate, n: int) -> CheckResult:
    """Accept iff the certificate proves every color is capped at n//2.

    Each unit (a pair, or the triangle) must lie in range, share no ball
    with another unit and be provably unequal in every pair of its balls,
    so it holds at most one ball of any color.
    """
    half = n // 2
    units: list[tuple[int, ...]] = list(cert.pairs)
    if cert.triangle is not None:
        units.append(cert.triangle)
    covered: set[int] = set()
    for unit in units:
        for i, ball in enumerate(unit):
            if not 1 <= ball <= n:
                return CheckResult(False, f"ball {ball} of unit {unit} out of range")
            if ball in covered:
                return CheckResult(False, f"ball {ball} covered twice")
            covered.add(ball)
            for other in unit[:i]:
                if not eq.provably_unequal(other, ball):
                    return CheckResult(
                        False, f"({other}, {ball}) of unit {unit} is not provably unequal"
                    )
    uncovered = [b for b in range(1, n + 1) if b not in covered]

    if cert.candidate is None:
        # Pure matching certificate: every color hits each unit at most once
        # and may own every uncovered ball.
        if len(units) + len(uncovered) > half:
            return CheckResult(
                False,
                f"{len(units)} units + {len(uncovered)} uncovered exceeds {half}",
            )
        return CheckResult(True)

    v = cert.candidate
    if not 1 <= v <= n:
        return CheckResult(False, f"candidate {v} out of range")
    label = eq.label
    lv = label[v]
    rivals = eq.conflict_roots_of(v)  # labels of classes proven unequal to v's

    # (a) caps every color other than the candidate's: one per unit, plus
    # any uncovered ball not pinned to the candidate class.
    loose = sum(1 for b in uncovered if label[b] != lv)
    if len(units) + loose > half:
        return CheckResult(
            False, f"non-candidate bound fails: {len(units)} units + {loose} loose"
        )

    # (b) caps the candidate's color: proven class members, plus units that
    # might be hiding one more, plus unresolved uncovered balls.
    class_size = eq.class_size(v)
    suspicious = 0
    for unit in units:
        labels = {label[b] for b in unit}
        if lv not in labels and not labels <= rivals:
            suspicious += 1
    unresolved = sum(1 for b in uncovered if label[b] != lv and label[b] not in rivals)
    if class_size + suspicious + unresolved > half:
        return CheckResult(
            False,
            f"candidate bound fails: {class_size} proven + {suspicious} units"
            f" + {unresolved} unresolved exceeds {half}",
        )
    return CheckResult(True)


def verify_run(
    n: int,
    transcript: Iterable[ComparisonRecord],
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

