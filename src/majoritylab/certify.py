"""Certificate auditing: replay a comparison transcript and check claims.

The auditor is deliberately dumber than the algorithms it checks.  It
freezes a transcript into two arrays.  ``label`` gives every ball the
smallest ball of its equality class, found by an array union-find over the
"equal" records.  ``keys`` holds one int64 key ``min * (n + 1) + max`` per
"unequal" record, in record order, over the labels of the two classes it
separates.  Two balls are *provably unequal* only when their labels form a
recorded key.  No multi-edge inference is performed here: reasoning like
"x differs from two balls that differ from each other, so..." belongs to
adversary-style arguments over binary alphabets, not to an auditor that
must stay sound for arbitrary alphabets.

A majority claim is accepted when the witness's class has exactly the claimed
size, the size clears n/2, and every other class conflicts with the witness's
class; the rival classes are marked in a boolean table, so the keys need no
order.  A no-majority claim is accepted from a Certificate: disjoint provably
unequal units (pairs plus, for odd n, one mutually-unequal triangle) and,
when the units do not cover everything, counting conditions around an
optional candidate class.  Its unit checks look every pair up in one sorted
copy of the keys that the check makes and drops.  Both checks run as array
operations over every ball and every unit at once, with one code path for
every size.  The auditor shares no code with the solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .answers import Answer, Certificate
from .core import ComparisonRecord, CountingOracle, Instance, Transcript
from .core import _integer, _require_integers

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
    """A transcript frozen into class labels and conflict keys.

    ``label[x]`` (an int64 array, index 0 unused) names the equality class
    of ball x by its smallest ball, so ``label[x] <= x`` and x labels a
    class exactly when ``label[x] == x``.  ``size[l]`` is the size of the
    class labelled l, and 0 where l labels no class.  ``keys`` holds one
    int64 key ``min * (n + 1) + max`` per unequal record, over the labels
    of the two classes it separates, in record order: a conflict recorded
    twice is keyed twice.
    """

    n: int
    label: np.ndarray
    size: np.ndarray
    keys: np.ndarray

    def provably_unequal(self, x: int, y: int) -> bool:
        """Whether a recorded conflict separates the classes of x and y.

        One scan of the keys: checks that ask many times sort them once."""
        lx, ly = int(self.label[x]), int(self.label[y])
        key = min(lx, ly) * (self.n + 1) + max(lx, ly)
        return bool(np.count_nonzero(self.keys == key))

    def class_size(self, x: int) -> int:
        return int(self.size[self.label[x]])

    def class_roots(self) -> list[int]:
        return np.flatnonzero(self.size)[1:].tolist()

    def rivals(self, lx: int) -> np.ndarray:
        """Labels of the classes a recorded conflict separates from class lx,
        ascending and each once."""
        lo = self.keys // (self.n + 1)
        hi = lo * (self.n + 1)
        np.subtract(self.keys, hi, out=hi)
        rival = np.zeros(self.n + 1, dtype=bool)
        rival[hi[lo == lx]] = True
        rival[lo[hi == lx]] = True
        return rival.nonzero()[0]


def _columns(transcript: Iterable[ComparisonRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(left, right, equal) arrays of a Transcript or of any record iterable."""
    if isinstance(transcript, Transcript):
        return transcript.columns()
    records = [tuple(rec) for rec in transcript]
    if any(len(rec) != 3 or not isinstance(rec[2], (bool, np.bool_)) for rec in records):
        raise ValueError("transcript records must be two balls and a bool flag")
    balls = [ball for rec in records for ball in rec[:2]]
    _require_integers(balls, "transcript balls")
    table = np.array(balls, dtype=np.int64).reshape(-1, 2)
    return table[:, 0], table[:, 1], np.array([rec[2] for rec in records], dtype=bool)


def _rows(mask: np.ndarray, *columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """The entries of each column where ``mask`` holds.

    Gathered by index (nonzero, then take): on a mask of unpredictable
    density that is several times faster than boolean indexing, and the
    index is freed on return.
    """
    index = mask.nonzero()[0]
    return tuple(col.take(index) for col in columns)


# The largest n with (n + 1) ** 2 < 2**63, so that every conflict key fits int64.
_MAX_N = 3_037_000_498


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

    Raises ValueError, before anything is read or allocated, when n is not
    an integer (a bool is not one), is negative, or is too large for the
    keys: they and the closing key of the no-majority check reach
    (n + 1) ** 2, which must stay below 2**63; or when a record is not two
    integer balls and a bool flag.
    """
    n = _integer(n, "n")
    if not 0 <= n <= _MAX_N:
        raise ValueError(f"n must lie in 0..{_MAX_N}, where conflict keys fit int64, got {n}")
    left, right, equal = _columns(transcript)
    if len(left) and (min(left.min(), right.min()) < 1 or max(left.max(), right.max()) > n):
        outside = (left < 1) | (left > n) | (right < 1) | (right > n)
        i = outside.nonzero()[0][0]
        rec = ComparisonRecord(int(left[i]), int(right[i]), bool(equal[i]))
        raise ValueError(f"transcript references ball out of range: {rec}")

    # A ball only ever points at a smaller one, so hooking never makes a
    # cycle, and each round removes at least one class.  A ball whose
    # parent is a root never moves again, so after one jump over every
    # ball only the balls that moved are jumped.  From the second round
    # on, a and b hold the labels the records had after the round before;
    # once pointers are jumped, label[a] is the label of every ball that a
    # labelled.
    label = np.arange(n + 1)
    a, b = _rows(equal, left, right)
    while len(a):
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        jumped = label.take(label)
        moved = (jumped != label).nonzero()[0]
        label = jumped
        while len(moved):
            parent = label.take(moved)
            grand = label.take(parent)
            moved, grand = _rows(grand != parent, moved, grand)
            label[moved] = grand
        a, b = label.take(a), label.take(b)
        a, b = _rows(a != b, a, b)

    lo, hi = _rows(~equal, left, right)
    a, b = label[lo], label[hi]
    clash = a == b
    if np.count_nonzero(clash):
        i = clash.nonzero()[0][0]
        raise InconsistentTranscript(f"balls {lo[i]} and {hi[i]} are both equal and unequal")
    return EqStructure(n, label, np.bincount(label, minlength=n + 1), _pair_keys(a, b, n))


# ----------------------------------------------------------------------
# Claim checking
# ----------------------------------------------------------------------


def check_majority_claim(eq: EqStructure, answer: Answer, n: int) -> CheckResult:
    """Accept iff the transcript proves the claimed majority outright; n must be eq's."""
    if n != eq.n:
        raise ValueError(f"n is {n}, but eq was built for n = {eq.n}")
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
    roots = eq.size > 0
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
    so it holds at most one ball of any color.  The pairs are checked as
    one array against a sorted copy of the conflict keys, and the triangle
    by one lookup per edge; a rejection names the failure a ball-by-ball
    walk of the certificate meets first.  n must be eq's (ValueError).
    """
    if n != eq.n:  # the keys' multiplier is n + 1
        raise ValueError(f"n is {n}, but eq was built for n = {eq.n}")
    half = n // 2
    units = cert.units()
    tri = np.array([b if 1 <= b <= n else 0 for b in cert.triangle or ()], dtype=np.int64)
    flat = cert.pairs.ravel()
    inside = np.concatenate(((flat >= 1) & (flat <= n), tri > 0))
    safe = np.concatenate((flat, tri)) * inside  # out-of-range balls become ball 0
    cover = np.bincount(safe, minlength=n + 1)
    cover[0] = 1  # ball 0 is never free, and out-of-range balls fail the range check
    labels = eq.label[safe]
    base = len(flat)  # where the triangle's balls start
    first, second = labels[0:base:2], labels[1:base:2]
    # The conflict keys sorted into one local array, closed by (n + 1) ** 2:
    # that key is above every label pair and names none, so a lookup never
    # runs off the end.  The pairs' keys are sorted in place: ascending
    # needles let each binary search start from the one before.
    known = np.concatenate((eq.keys, [(n + 1) ** 2]))
    known.sort()
    key = _pair_keys(first, second, n)
    key.sort()
    found = known.searchsorted(key)
    # In place: "clip" skips the copy of the output that "raise" makes, and
    # no index passes the closing key.
    known.take(found, out=found, mode="clip")
    # back[i]: how far before triangle ball i its first unproven partner sits
    back = [
        next((i - j for j in range(i) if not eq.provably_unequal(tri[j], tri[i])), 0)
        for i in range(len(tri))
    ]
    if (
        np.count_nonzero(inside) < len(safe)
        or np.count_nonzero(cover) <= len(safe)  # some ball covered twice
        or np.count_nonzero(found != key)
        or any(back)
    ):
        return CheckResult(False, _first_unit_failure(known, cert, safe, inside, labels, back, n))
    free = cover == 0

    if cert.candidate is None:
        # Pure matching certificate: every color hits each unit at most once
        # and may own every uncovered ball.
        uncovered = n - len(safe)
        if units + uncovered > half:
            return CheckResult(False, f"{units} units + {uncovered} uncovered exceeds {half}")
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
    if units + loose > half:
        return CheckResult(False, f"non-candidate bound fails: {units} units + {loose} loose")

    # (b) caps the candidate's color: proven class members, plus units that
    # might be hiding one more, plus unresolved uncovered balls.  A unit is
    # suspicious when one of its balls is unresolved and none is pinned.
    class_size = int(eq.size[lv])
    suspect = ~(rival[first] & rival[second]) & (first != lv) & (second != lv)
    corner = labels[base:]
    suspicious = np.count_nonzero(suspect) + (
        cert.triangle is not None and not (corner == lv).any() and not rival[corner].all()
    )
    unresolved = np.count_nonzero(loose_balls & ~rival[eq.label])
    if class_size + suspicious + unresolved > half:
        return CheckResult(
            False,
            f"candidate bound fails: {class_size} proven + {suspicious} units"
            f" + {unresolved} unresolved exceeds {half}",
        )
    return CheckResult(True)


def _pair_keys(first: np.ndarray, second: np.ndarray, n: int) -> np.ndarray:
    """The conflict key of each label pair (first[i], second[i])."""
    key = np.minimum(first, second)
    key *= n + 1
    key += np.maximum(first, second)
    return key


def _first_unit_failure(known, cert, safe, inside, labels, back, n) -> str:
    """The first failed unit check in certificate order, ball by ball.

    At each ball a walk checks its range, then that no earlier ball is the
    same, then that it is provably unequal to each earlier ball of its
    unit, first to last.  Every ball before the first failing one passed
    all of its checks, so only the order of checks within one ball matters.
    """
    _, first = np.unique(safe, return_index=True)
    repeated = inside.copy()
    repeated[first] = False
    base = 2 * len(cert.pairs)
    key = _pair_keys(labels[0:base:2], labels[1:base:2], n)
    unproven = np.zeros(len(safe), dtype=np.int64)  # distance back to the first unproven partner
    unproven[1:base:2] = known[known.searchsorted(key)] != key
    unproven[base:] = back
    j = int((~inside | repeated | (unproven > 0)).nonzero()[0][0])
    if j < base:
        unit, i = tuple(cert.pairs[j // 2].tolist()), j % 2
    else:
        unit, i = cert.triangle, j - base
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
    """Exact answer by direct counting; the reference oracle for all tests.

    A strict majority color fills the middle of the sorted colors, so the
    median found by a partition is the only candidate, and one count of
    its class decides.  The witness is the candidate's first ball.  Given
    balls may repeat; they are checked as the oracle checks its balls, so
    one that is not an integer raises ValueError and one outside 1..n
    IndexError.
    """
    if balls is None:
        colors = instance.color_array
    else:
        balls, idx = CountingOracle(instance)._indices("brute_force_majority", balls)
        colors = instance.color_array[idx]
    m = len(colors)
    if m == 0:
        return Answer.no_majority()
    median = np.partition(colors, m // 2)[m // 2]
    same = colors == median
    count = int(np.count_nonzero(same))
    if count > m // 2:
        first = int(same.argmax())
        return Answer.majority(first + 1 if balls is None else int(balls[first]), count)
    return Answer.no_majority()


def answer_matches_brute_force(
    answer: Answer, instance: Instance, balls: Sequence[int] | None = None
) -> bool:
    """Kind and multiplicity must match; the witness may be any of the balls
    of the majority color, and a witness outside 1..n or not among the
    given balls does not match."""
    truth = brute_force_majority(instance, balls)
    if answer.kind != truth.kind:
        return False
    if not answer.is_majority:
        return True
    if answer.multiplicity != truth.multiplicity:
        return False
    witness = answer.witness
    if witness is None or not 1 <= witness <= instance.n:
        return False
    if balls is not None and witness not in balls:
        return False
    return instance.color_of(witness) == instance.color_of(truth.witness)

