"""Certificate auditing: replay a comparison transcript and check claims.

The auditor is deliberately dumber than the algorithms it checks.  It
freezes a transcript into two arrays.  ``label`` gives every ball the
smallest ball of its equality class, found by an array union-find over the
"equal" records.  ``keys`` holds each "unequal" record as one sorted,
deduplicated int64 key ``min * (n + 1) + max`` over the labels of the two
classes it separates.  Two balls are *provably unequal* only when their
labels form a recorded key.  No multi-edge inference is performed here:
reasoning like "x differs from two balls that differ from each other,
so..." belongs to adversary-style arguments over binary alphabets, not to
an auditor that must stay sound for arbitrary alphabets.

A majority claim is accepted when the witness's class has exactly the claimed
size, the size clears n/2, and every other class conflicts with the witness's
class.  A no-majority claim is accepted from a Certificate: disjoint provably
unequal units (pairs plus, for odd n, one mutually-unequal triangle) and,
when the units do not cover everything, counting conditions around an
optional candidate class.  Both checks run as array operations over every
ball and every unit at once, with one code path for every size.  The
auditor shares no code with the solvers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
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


@dataclass(frozen=True, eq=False)
class EqStructure:
    """A transcript frozen into class labels and sorted conflict keys.

    ``label[x]`` (an int64 array, index 0 unused) names the equality class
    of ball x by its smallest ball, so ``label[x] <= x`` and x labels a
    class exactly when ``label[x] == x``.  ``size[l]`` is the size of the
    class labelled l.  ``keys`` holds each unequal record once, as
    ``min * (n + 1) + max`` of the labels of the two classes it separates,
    sorted ascending and closed by ``(n + 1) ** 2``.  That last key is above
    every label pair and names none, so a lookup never runs off the end.
    """

    n: int
    label: np.ndarray
    size: np.ndarray
    keys: np.ndarray

    def same_class(self, x: int, y: int) -> bool:
        return bool(self.label[x] == self.label[y])

    def provably_unequal(self, x: int, y: int) -> bool:
        lx, ly = int(self.label[x]), int(self.label[y])
        key = min(lx, ly) * (self.n + 1) + max(lx, ly)
        return int(self.keys[self.keys.searchsorted(key)]) == key

    def class_size(self, x: int) -> int:
        return int(self.size[self.label[x]])

    def class_roots(self) -> list[int]:
        return np.flatnonzero(self.label == np.arange(self.n + 1))[1:].tolist()

    def conflict_roots_of(self, x: int) -> set[int]:
        return set(self.rivals(int(self.label[x])).tolist())

    def rivals(self, lx: int) -> np.ndarray:
        """Labels of the classes a recorded conflict separates from class lx.

        Keys are unique and each names its two labels in order, so no
        label appears twice.  The closing key names no ball's label."""
        lo, hi = np.divmod(self.keys, self.n + 1)
        return np.concatenate((hi[lo == lx], lo[hi == lx]))


def _columns(transcript: Iterable[ComparisonRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(left, right, equal) arrays of a Transcript or of any record iterable."""
    if isinstance(transcript, Transcript):
        return transcript.columns()
    table = np.array([tuple(rec) for rec in transcript], dtype=np.int64).reshape(-1, 3)
    return table[:, 0], table[:, 1], table[:, 2] != 0


def build_eq_structure(n: int, transcript: Iterable[ComparisonRecord]) -> EqStructure:
    """Replay a transcript into class labels and conflict keys.

    The equal records are applied first, by an array union-find.  Each
    round hooks the larger label of every equal record that still joins
    two classes onto the smaller one, then jumps pointers until every ball
    points at its class's smallest ball.  Rounds repeat until no equal
    record joins two classes.  Only then are the unequal records keyed, so
    a later equality can never silently invalidate an already-registered
    conflict: if any unequal record ends up inside one class, the
    transcript is contradictory and we raise.
    """
    left, right, equal = _columns(transcript)
    outside = (left < 1) | (left > n) | (right < 1) | (right > n)
    if np.count_nonzero(outside):
        i = outside.nonzero()[0][0]
        rec = ComparisonRecord(int(left[i]), int(right[i]), bool(equal[i]))
        raise ValueError(f"transcript references ball out of range: {rec}")

    # A ball only ever points at a smaller one, so hooking never makes a
    # cycle, and each round removes at least one class.  From the second
    # round on, a and b hold the labels the records had after the round
    # before; once pointers are jumped, label[a] is the label of every ball
    # that a labelled.
    label = np.arange(n + 1)
    a, b = left[equal], right[equal]
    while len(a):
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = label[label]
            if not np.count_nonzero(jumped != label):
                break
            label = jumped
        a, b = label[a], label[b]
        split = a != b
        a, b = a[split], b[split]

    unequal = ~equal
    a, b = label[left[unequal]], label[right[unequal]]
    clash = a == b
    if np.count_nonzero(clash):
        i = clash.nonzero()[0][0]
        raise InconsistentTranscript(
            f"balls {left[unequal][i]} and {right[unequal][i]} are both equal and unequal"
        )
    keys = np.concatenate((np.minimum(a, b) * (n + 1) + np.maximum(a, b), [(n + 1) ** 2]))
    keys.sort()
    repeat = np.zeros(len(keys), dtype=bool)
    repeat[1:] = keys[1:] == keys[:-1]
    return EqStructure(n, label, np.bincount(label, minlength=n + 1), keys[~repeat])


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
    # Every rival is the label of another class, so the witness conflicts
    # with every other class exactly when the counts agree.
    lv = int(eq.label[v])
    roots = eq.label == np.arange(n + 1)
    rivals = eq.rivals(lv)
    if len(rivals) == np.count_nonzero(roots) - 2:  # less ball 0 and the witness's class
        return CheckResult(True)
    roots[[0, lv]] = False
    roots[rivals] = False
    r = int(roots.nonzero()[0][0])
    return CheckResult(False, f"class of ball {r} is not proven unequal to witness")


def check_no_majority_claim(eq: EqStructure, cert: Certificate, n: int) -> CheckResult:
    """Accept iff the certificate proves every color is capped at n//2.

    Each unit (a pair, or the triangle) must lie in range, share no ball
    with another unit and be provably unequal in every pair of its balls,
    so it holds at most one ball of any color.  The balls of all units are
    checked as one array; a rejection names the failure a ball-by-ball walk
    of the certificate meets first.
    """
    half = n // 2
    units = (*cert.pairs, cert.triangle) if cert.triangle is not None else tuple(cert.pairs)
    sizes = np.fromiter(map(len, units), dtype=np.int64, count=len(units))
    try:
        balls = np.fromiter(chain.from_iterable(units), dtype=np.int64)
    except OverflowError:
        return CheckResult(False, "a ball of a unit is out of range")
    owner = np.arange(len(units)).repeat(sizes)  # the unit of each ball

    inside = (balls >= 1) & (balls <= n)
    safe = balls * inside  # out-of-range balls become ball 0
    cover = np.bincount(safe, minlength=n + 1)
    cover[0] = 1  # ball 0 is never free, and out-of-range balls fail the range check
    labels = eq.label[safe]
    # checks[d - 1] tests each ball against the ball d places before it in its unit
    checks = []
    for d in range(1, np.maximum.reduce(sizes, initial=0)):
        paired = owner[d:] == owner[:-d]
        a, b = labels[d:][paired], labels[:-d][paired]
        key = np.minimum(a, b) * (n + 1) + np.maximum(a, b)
        proven = eq.keys[eq.keys.searchsorted(key)] == key
        checks.append((paired, proven))
    if (
        np.count_nonzero(inside) < len(balls)
        or np.count_nonzero(cover) <= len(balls)  # some ball covered twice
        or any(np.count_nonzero(proven) < len(proven) for _, proven in checks)
    ):
        return CheckResult(False, _first_unit_failure(units, safe, owner, inside, checks))
    free = cover == 0

    if cert.candidate is None:
        # Pure matching certificate: every color hits each unit at most once
        # and may own every uncovered ball.
        uncovered = n - len(balls)
        if len(units) + uncovered > half:
            return CheckResult(False, f"{len(units)} units + {uncovered} uncovered exceeds {half}")
        return CheckResult(True)

    v = cert.candidate
    if not 1 <= v <= n:
        return CheckResult(False, f"candidate {v} out of range")
    lv = int(eq.label[v])
    rival = np.zeros(n + 1, dtype=bool)  # classes proven unequal to v's
    rival[eq.rivals(lv)] = True

    # (a) caps every color other than the candidate's: one per unit, plus
    # any uncovered ball not pinned to the candidate class.
    loose_balls = free & (eq.label != lv)
    loose = np.count_nonzero(loose_balls)
    if len(units) + loose > half:
        return CheckResult(False, f"non-candidate bound fails: {len(units)} units + {loose} loose")

    # (b) caps the candidate's color: proven class members, plus units that
    # might be hiding one more, plus unresolved uncovered balls.  A unit is
    # suspicious when one of its balls is unresolved and none is pinned.
    class_size = int(eq.size[lv])
    suspect = np.zeros(len(units), dtype=bool)
    suspect[owner[~rival[labels]]] = True
    suspect[owner[labels == lv]] = False
    suspicious = np.count_nonzero(suspect)
    unresolved = np.count_nonzero(loose_balls & ~rival[eq.label])
    if class_size + suspicious + unresolved > half:
        return CheckResult(
            False,
            f"candidate bound fails: {class_size} proven + {suspicious} units"
            f" + {unresolved} unresolved exceeds {half}",
        )
    return CheckResult(True)


def _first_unit_failure(units, safe, owner, inside, checks) -> str:
    """The first failed unit check in certificate order, ball by ball.

    At each ball a walk checks its range, then that no earlier ball is the
    same, then that it is provably unequal to each earlier ball of its
    unit, first to last.  Every ball before the first failing one passed
    all of its checks, so only the order of checks within one ball matters.
    """
    _, first = np.unique(safe, return_index=True)
    repeated = inside.copy()
    repeated[first] = False
    unproven = np.zeros(len(safe), dtype=np.int64)  # largest failing distance back
    for d, (paired, proven) in enumerate(checks, start=1):
        unproven[paired.nonzero()[0][~proven] + d] = d
    j = int((~inside | repeated | (unproven > 0)).nonzero()[0][0])
    u = int(owner[j])
    unit, i = units[u], j - int(owner.searchsorted(u))
    ball = unit[i]
    if not inside[j]:
        return f"ball {ball} of unit {unit} out of range"
    if repeated[j]:
        return f"ball {ball} covered twice"
    return f"({unit[i - int(unproven[j])]}, {ball}) of unit {unit} is not provably unequal"


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

