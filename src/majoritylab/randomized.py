"""Randomized exact majority finding with certified answers.

Every level above the cutoff (64 balls by default) shuffles its balls into
disjoint pairs and chooses between two strategies from a sample of that
pairing.  The sample is the first k = min(m//2, 2*isqrt(m)) pairs: an
equal pair of colour i turns up with probability q_i^2, so censusing the
equal survivors of the sample estimates the top colour's frequency q1 and
its share f of the squared frequencies.  The census runs in doubling
batches of survivors, from 64, and stops as soon as the share it has seen
rules out f >= 4/5 for every class, so a fair-coin level of more than
about 4096 balls pays 63 comparisons for it instead of about sqrt(m).  A
level whose top colour is heavy (its estimated q1 reaches
``beta_interval()[0]`` and f >= 4/5) runs a direct census on it; every
other level finishes the pairing step: keep one survivor of each equal
pair, recurse on the survivors, then settle the level.  A no-majority
verdict below is lifted through the pairs; a survivor majority is checked
against the unequal pairs with a deficit count that stops as soon as the
candidate can no longer reach a majority.

The share test keeps fair coins on the pairing step.  On two colours
f >= 4/5 needs q1 >= 2/3, so the censused class is the majority; a census
on a minority candidate would cost about 3.25n through the Boyer-Moore
fallback.  And with f >= 4/5 and q1 >= beta the census costs at most
about 1.09n, below the pairing step's 7n/6.

``heavy`` is the census strategy: census the candidate, and when it falls
short, finish the no-majority certificate by pairing off the rest in the
order the balls arrive, which a dispatching level has already shuffled.
A level that its sample sends to the census asks nothing twice.  Its
candidate is a sampled survivor, and the sample has settled every survivor
against it, so each sampled equal pair lies in or out of the class whole.
Of a sampled unequal pair only the first ball is censused, and when it
joins the second is out; a sampled unequal pair whose balls both missed is
already an unequal pair for the certificate.  The auditor needs nothing
new: its union-find joins a mate to the class through its survivor, and a
recorded conflict between two classes proves every cross pair unequal.
On near-tie inputs at 2^18 the census asks about 0.0028n fewer questions
and the pair scan about 0.001n fewer.

Balls travel between levels as int64 arrays, and certificates carry their
pairs as one ``(k, 2)`` int64 array, in the pair order the leftover probe
walks.  A pairing level keeps its pairs as rows from the shuffle on: the
shuffled balls viewed as ``(m//2, 2)``, split into the equal and the
unequal rows by one row gather each.  The unequal rows are the pairs the
deficit scan walks and the certificate holds, with no restacking.  The
sampled pairs, the rest of the pairing and each survivor census are one
``CountingOracle.cmp_many`` batch each; the census of a level asks the
first balls of its sampled unequal pairs, the second balls of those that
missed and the rest of the level, a contiguous view, as one batch each.
The deficit scan, heavy's pair scan and an odd level's two leftover walks
are one oracle scan each, which bills exactly the comparisons of the
pair-by-pair scan and stops where it stops; only an odd level's leftover
probes compare one pair at a time.

Every path is Las Vegas: answers are always exact, randomness moves only
the comparison count.  No-majority answers carry a certificate that an
independent checker can validate against the comparison transcript alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .answers import Answer, Certificate, ContractViolation
from .boyer_moore import _two_pass
from .core import CountingOracle, _integer
from .lowerbound import beta_interval
from .rng import RandomStream

__all__ = [
    "Params",
    "RunStats",
    "LevelStats",
    "majority",
    "heavy",
]


@dataclass(frozen=True)
class Params:
    """The value the driver reads.

    cutoff - at or below this size a level hands off to boyer_moore.  On
             fair coins the base levels cost about 0.001n at n = 2^16 with
             the default 64, against 0.016n at 1024.
    """

    cutoff: int = 64

    def __post_init__(self) -> None:
        object.__setattr__(self, "cutoff", _integer(self.cutoff, "cutoff"))
        if self.cutoff < 2:
            raise ValueError(f"cutoff must be at least 2, got {self.cutoff}")


# A run may make at most this many comparisons per ball.
_CAP_FACTOR = 8


# A level samples the first min(m//2, _SAMPLE_ROOTS * isqrt(m)) pairs of its
# pairing: o(m) comparisons, and about 2 sqrt(m) q1^2 equal pairs of the top
# colour to estimate q1 from.
_SAMPLE_ROOTS = 2

# A sampled class is dominant when its equal pairs number at least this many
# times those of every other class together: f >= 4/5, q1^2 >= 4 sum_{j>1} q_j^2.
_DOMINANCE = 4

# The survivor census covers this many survivors with its first batch and
# doubles the survivors covered with each next one, so a sample of at most
# this many survivors is censused whole.  _MARGIN is the number of standard
# errors by which _no_class_dominant wants the top share clear of 1/5, 4/5.
_FIRST_BATCH = 64
_MARGIN = 3

# The census threshold on the estimated q1: the low end of the paper's
# admissible interval, below which pairing is the cheaper strategy.
_BETA = beta_interval()[0]


@dataclass
class LevelStats:
    """Per-recursion-level accounting.

    ``branch`` is "balanced" for a level that pairs, "heavy" for one that
    runs the census (chosen by its sample, or by ``heavy``) and "base" for
    one at or below the cutoff.  The comparison fields are branch specific:
    ``sample`` is the survivor census of the sampled pairs, plus the sampled
    pairs themselves when the level goes to the census; ``pairing`` is the
    random pairing pass (for heavy, its pair scan of the census leftovers),
    ``scan`` is the candidate-versus-others pass (for heavy, the census),
    ``leftover`` covers odd-size resolution probes, ``fallback`` the
    terminal boyer_moore rerun.  ``reused`` counts the census answers a
    level took from its sample instead of asking, so on a census level
    scan + reused = m - 1; it is 0 on every other level and under ``heavy``.

    The sample fields describe a level above the cutoff that ``majority``
    reached.  ``sample_pairs`` is k, and the s equal sampled pairs each
    leave one survivor.  ``sample_censused`` is how many of the survivors
    the census covered: all s, or fewer when it stopped early.  Among those
    survivors, ``sample_hits`` is the size of the largest class censused
    and ``top_share`` is hits / censused.  ``q1_estimate`` scales that share
    back to the k pairs: sqrt(top_share * s / k), which is sqrt(hits / k)
    after a full census.  These four are 0 when no sampled pair is equal.
    ``leftover_exit`` names how an odd level whose even part had no
    majority was settled: "triangle", "class" (the leftover's class won) or
    "candidate" (the inherited candidate's certificate).
    """

    branch: str
    m: int
    sample_comparisons: int = 0
    pairing_comparisons: int = 0
    scan_comparisons: int = 0
    leftover_comparisons: int = 0
    fallback_comparisons: int = 0
    x_size: int = 0
    y_pairs: int = 0
    sample_pairs: int = 0
    sample_censused: int = 0
    sample_hits: int = 0
    q1_estimate: float = 0.0
    top_share: float = 0.0
    leftover_exit: str | None = None
    reused: int = 0

    @property
    def total_comparisons(self) -> int:
        return (
            self.sample_comparisons
            + self.pairing_comparisons
            + self.scan_comparisons
            + self.leftover_comparisons
            + self.fallback_comparisons
        )


@dataclass(frozen=True)
class RunStats:
    comparisons: int
    depth: int
    branch_trace: tuple[str, ...]
    levels: tuple[LevelStats, ...]


class _Run:
    """Mutable state threaded through one driver invocation."""

    __slots__ = ("oracle", "params", "rng", "levels", "_np_gen")

    def __init__(self, oracle: CountingOracle, params: Params, rng: RandomStream):
        self.oracle = oracle
        self.params = params
        self.rng = rng
        self.levels: list[LevelStats] = []
        self._np_gen = None

    def permuted(self, balls: np.ndarray) -> np.ndarray:
        """Uniform permutation; vectorized because runs shuffle millions.

        The generator is seeded once per run by consuming scalar draws, so
        determinism and run-to-run independence both come from the stream.
        """
        if self._np_gen is None:
            self._np_gen = self.rng.numpy_child()
        return self._np_gen.permutation(balls)


def _no_class_dominant(hits: int, censused: int) -> bool:
    """Whether a top class of ``hits`` among ``censused`` survivors rules out dominance.

    True when its share lies inside (1/5, 4/5) by _MARGIN standard errors,
    taken at the interval's ends: then it is not dominant, and the
    survivors outside it are too few for another class to be.
    """
    low = 1 / (1 + _DOMINANCE)
    slack = 0.5 - low - _MARGIN * math.sqrt(low * (1 - low) / censused)
    return abs(hits / censused - 0.5) < slack


def _sample(
    oracle: CountingOracle, lv: LevelStats, pairs: np.ndarray
) -> tuple[np.ndarray, int | None, np.ndarray]:
    """Compare the level's first k pairs and pick a census candidate, if any.

    The first survivor of an equal sampled pair is censused against the
    other survivors in batches: the first covers _FIRST_BATCH survivors and
    each next one doubles the survivors covered.  The census stops early,
    and the level pairs, once its class's share rules out a dominant class.
    After a full census, when the survivors outside its class could still
    hold a dominant class, the first of them is censused among them too.
    The largest class found is the estimate of the top colour; the level
    goes to the census on it when it is dominant and its q1 estimate
    reaches beta.  A candidate is only picked after a full census, so every
    survivor is then settled against it: directly, or, when the top
    switched to the first of the others, through the first survivor, which
    the candidate missed.

    Returns the equal flags of the k pairs, the candidate, or None, and
    ``member``: which sampled pairs are equal with a survivor in the
    candidate's class (meaningful only with a candidate).  The survivor
    census is billed to the sample, and so are the k pairs when the level
    goes to the census; otherwise they are billed to the pairing.
    """
    k = min(lv.m // 2, _SAMPLE_ROOTS * math.isqrt(lv.m))
    start = oracle.comparisons
    equal = oracle.cmp_many(pairs[:k, 0], pairs[:k, 1])
    paired = oracle.comparisons - start
    survivors = pairs[:k, 1][equal]
    s = len(survivors)
    top, hits, censused = None, 0, 0
    same = np.ones(s, dtype=bool)
    if s:
        top = int(survivors[0])
        hits = censused = 1
        while censused < s and not _no_class_dominant(hits, censused):
            hi = min(s, max(_FIRST_BATCH, 2 * censused))
            same[censused:hi] = oracle.cmp_many(top, survivors[censused:hi])
            hits += int(np.count_nonzero(same[censused:hi]))
            censused = hi
        # Reached only after a full census: an early stop leaves the share above 1/5.
        if censused - hits >= _DOMINANCE * hits:
            others = (~same).nonzero()[0]
            joined = oracle.cmp_many(int(survivors[others[0]]), survivors[others[1:]])
            found = 1 + int(np.count_nonzero(joined))
            if found > hits:
                top, hits = int(survivors[others[0]]), found
                same[:] = False
                same[others[0]] = True
                same[others[1:]] = joined
    lv.sample_pairs, lv.sample_censused, lv.sample_hits = k, censused, hits
    lv.q1_estimate = math.sqrt(hits * s / (censused * k)) if s else 0.0
    lv.top_share = hits / censused if s else 0.0
    # An early stop leaves the share below 4/5, so it never picks a candidate.
    if hits < _DOMINANCE * (censused - hits) or lv.q1_estimate < _BETA:
        top = None
    lv.sample_comparisons = oracle.comparisons - start - (paired if top is None else 0)
    lv.pairing_comparisons = paired if top is None else 0
    member = np.zeros(k, dtype=bool)
    member[equal] = same
    return equal, top, member


def _pair_up(
    oracle: CountingOracle, pairs: np.ndarray, sampled: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Compare the pairs after the sampled ones and split all of them.

    Returns the equal and the unequal rows of ``pairs``.  Column 1 of the
    equal rows holds the survivors and column 0 their mates, which is
    what certificate lifting needs to undouble the survivor set.  The
    unequal rows are read-only, so a certificate holds them as they are.
    The flags and indices are freed on return, before the level recurses.
    """
    k = len(sampled)
    equal = sampled
    if k < len(pairs):
        equal = np.concatenate((sampled, oracle.cmp_many(pairs[k:, 0], pairs[k:, 1])))
    # Split by index: on an unpredictable split, take beats boolean masks.
    same = pairs.take(equal.nonzero()[0], axis=0)
    unequal = pairs.take((~equal).nonzero()[0], axis=0)
    unequal.flags.writeable = False
    return same, unequal


def _resolve_leftover(
    run: _Run,
    lv: LevelStats,
    balls: np.ndarray,
    leftover: int,
    cert: Certificate,
    m: int,
) -> tuple[Answer, Certificate | None]:
    """Settle an odd instance whose even part certified no-majority.

    The even part caps every class at (m-1)/2, so the only class that can
    still reach a majority is the leftover's own.  After probing the
    candidate, the leftover walks the certificate's pairs (a double miss
    yields a rainbow triangle) and then its uncovered balls, one oracle
    scan each, tracking an upper bound on the class: its members so far
    plus one slot per unprobed pair or ball.  Each walk stops where the
    bound falls to m//2 and the class can no longer win.  The bound never
    falls below the class, so once the class passes m//2 both walks run to
    the end and count it exactly.  ``lv.leftover_exit`` records which of
    the three verdicts settled the level.
    """
    if cert.triangle is not None:
        raise ContractViolation("leftover resolution expects a triangle-free certificate")
    oracle = run.oracle
    start = oracle.comparisons
    half = m // 2
    pairs, candidate = cert.pairs, cert.candidate
    seen = np.zeros(int(balls.max()) + 1, dtype=bool)
    seen[pairs] = True
    seen[leftover] = True
    joined = False
    if candidate is not None:
        seen[candidate] = True
        joined = oracle.cmp(leftover, candidate)
    uncovered = balls[~seen[balls]]
    members = 1 + joined  # the leftover and the candidate, once it joined
    potential = members + len(pairs) + len(uncovered)

    row = None  # the first double miss: the pair that the triangle replaces
    if potential > half:
        events, misses = oracle._scan(leftover, pairs[:, 0], pairs[:, 1], potential - half)
        walked, double = len(events), int(np.count_nonzero(events))
        potential -= double
        members += walked - double
        if double:
            row = int(events.argmax())
        if joined:  # counted once, also where a pair's probe matched it again
            matched = np.where(misses, pairs[:walked, 1], pairs[:walked, 0])
            members -= int(np.count_nonzero(matched == candidate))
    if potential > half:
        lefts = np.full(len(uncovered), leftover)
        missed = oracle.scan_until(None, lefts, uncovered, potential - half)
        members += len(missed) - int(np.count_nonzero(missed))
    lv.leftover_comparisons += oracle.comparisons - start

    if members > half:
        lv.leftover_exit = "class"
        return Answer.majority(leftover, members), None
    if row is not None:
        lv.leftover_exit = "triangle"
        return Answer.no_majority(), Certificate(
            pairs=np.concatenate((pairs[:row], pairs[row + 1 :])),
            triangle=(leftover, int(pairs[row, 0]), int(pairs[row, 1])),
            candidate=candidate,
        )
    # Without a triangle every pair holds one ball of the leftover's class,
    # so its misses among the uncovered balls push a certificate anchored at
    # the leftover past m//2: only the inherited candidate's can stand.
    if candidate is None:
        raise ContractViolation("no anchor has slack for the leftover certificate")
    lv.leftover_exit = "candidate"
    return Answer.no_majority(), cert


def _lift_certificate(cert: Certificate, survivors: np.ndarray, mates: np.ndarray) -> Certificate:
    """Map a survivor-level certificate back to the balls of the level.

    Each survivor x stands for the equal pair (x, partner[x]), where
    ``partner`` maps survivors to their mates.  A certified pair (a, b)
    therefore yields the mirror pair (partner[a], partner[b]) right after
    it, for free, and a certified triangle yields three cross pairs covering
    all six balls, placed last, so the lifted certificate never carries a
    triangle.
    """
    partner = np.zeros(int(survivors.max(initial=0)) + 1, dtype=np.int64)
    partner[survivors] = mates
    # Row i of the concatenation is (a, b, partner[a], partner[b]).
    pairs = np.concatenate((cert.pairs, partner[cert.pairs]), axis=1).reshape(-1, 2)
    if cert.triangle is not None:
        t1, t2, t3 = cert.triangle
        cross = ((t1, partner[t2]), (t2, partner[t3]), (t3, partner[t1]))
        pairs = np.concatenate((pairs, cross))
    pairs.flags.writeable = False  # fresh, so the certificate holds it as it is
    return Certificate(pairs=pairs, candidate=cert.candidate)


def _deficit_scan(
    oracle: CountingOracle, v: int, cnt: int, unequal: np.ndarray, m: int
) -> tuple[Answer, Certificate | None]:
    """Settle a level's candidate v against its unequal pairs, one per row.

    ``cnt`` is v's class size minus m//2 if every unprobed pair held one
    more of it, so a pair that misses v twice lowers it by one, and the
    scan stops at the cnt-th double miss, where no-majority is already
    forced.
    """
    cnt -= int(np.count_nonzero(oracle.scan_until(v, unequal[:, 0], unequal[:, 1], cnt)))
    if cnt == 0:
        return Answer.no_majority(), Certificate(pairs=unequal, candidate=v)
    return Answer.majority(v, m // 2 + cnt), None


def _balanced(run: _Run, balls: np.ndarray) -> tuple[Answer, Certificate | None]:
    """One level above the cutoff: sample, then census or pair and recurse.

    The level shuffles its balls into pairs and samples the first of them.
    A level the sample sends to the census hands ``_heavy`` its shuffled
    balls and what the sample settled.  Otherwise it compares the rest of
    the pairs and recurses on the survivors.  A no-majority verdict below
    is lifted through the pairs.  A survivor majority v is checked against
    the leftover, then against the unequal pairs with the deficit scan.
    """
    m = len(balls)
    lv = LevelStats("balanced", m)
    run.levels.append(lv)
    oracle = run.oracle

    order = run.permuted(balls)
    pairs = order[: m - m % 2].reshape(-1, 2)
    sampled, candidate, member = _sample(oracle, lv, pairs)
    if candidate is not None:
        lv.branch = "heavy"
        return _heavy(run, lv, order, candidate, order[2 * len(sampled) :], sampled, member)

    start = oracle.comparisons
    same, unequal = _pair_up(oracle, pairs, sampled)
    lv.pairing_comparisons += oracle.comparisons - start
    leftover = int(order[-1]) if m % 2 else None
    del order, pairs, sampled  # not needed below; free them before recursing
    mates, survivors = same[:, 0], same[:, 1]
    lv.x_size = len(survivors)
    lv.y_pairs = len(unequal)

    if len(survivors):
        sub_answer, sub_cert = _solve(run, survivors)
    else:
        sub_answer, sub_cert = Answer.no_majority(), Certificate()

    if not sub_answer.is_majority:
        if sub_cert is None:
            raise ContractViolation("no-majority answer without a certificate")
        lifted = _lift_certificate(sub_cert, survivors, mates)
        pairs = np.concatenate((unequal, lifted.pairs))
        pairs.flags.writeable = False
        cert = Certificate(pairs=pairs, candidate=lifted.candidate)
        if leftover is None:
            return Answer.no_majority(), cert
        return _resolve_leftover(run, lv, balls, leftover, cert, m)

    v = sub_answer.witness
    cnt = 2 * sub_answer.multiplicity - len(survivors)
    if cnt < 1:
        raise ContractViolation("survivor majority does not lead its survivors")
    if leftover is not None:
        start = oracle.comparisons
        if oracle.cmp(v, leftover):
            cnt += 1
        lv.leftover_comparisons = oracle.comparisons - start

    start = oracle.comparisons
    verdict = _deficit_scan(oracle, v, cnt, unequal, m)
    lv.scan_comparisons = oracle.comparisons - start
    return verdict


def _unequal_pairs(
    oracle: CountingOracle, order: np.ndarray, need: int
) -> tuple[np.ndarray, np.ndarray]:
    """Compare the disjoint pairs of ``order`` until ``need`` are unequal.

    Returns the unequal pairs found as rows, fewer than ``need`` only when
    the pairs run out, and the other balls of ``order`` in their order.
    """
    pairs = order[: len(order) - len(order) % 2].reshape(-1, 2)
    unequal = oracle.scan_until(None, pairs[:, 0], pairs[:, 1], need)
    walked = pairs[: len(unequal)]
    # The balls of the equal pairs walked, then those of the pairs not walked.
    rest = np.concatenate((walked[~unequal].ravel(), order[2 * len(walked) :]))
    return walked[unequal], rest


def _heavy(
    run: _Run,
    lv: LevelStats,
    balls: np.ndarray,
    candidate: int,
    rest: np.ndarray,
    equal: np.ndarray,
    member: np.ndarray,
) -> tuple[Answer, Certificate | None]:
    """Census ``candidate`` over the level's balls, which arrive shuffled.

    The first k = len(equal) rows of ``balls`` are the sampled pairs, and
    ``equal`` and ``member`` are what the sample settled about them: a
    sampled equal pair lies in the candidate's class (``member``) or out of
    it with its censused survivor, at no cost.  Of a sampled unequal pair
    only the first ball is censused, and when it joins the second is out
    for free.  ``rest``, the other balls (after the sampled rows, and never
    the candidate), is one census batch.  ``lv.reused`` counts the census
    answers taken from the sample, so scan_comparisons + reused = m - 1.

    When the census falls short of a majority, the balls outside the
    candidate's class must hold enough unequal pairs to cap every class.
    A sampled unequal pair whose balls both missed is one already; the
    rest are found by pairing off the censused others in the order they
    arrive.  The sampled equal pairs out of the class are never paired,
    since their balls are known to be equal: they go to the cross pairs.
    """
    m = len(balls)
    oracle = run.oracle
    k = len(equal)
    rows = balls[: 2 * k].reshape(-1, 2)

    start = oracle.comparisons
    split = rows[~equal]
    first = oracle.cmp_many(candidate, split[:, 0])
    missed = split[~first]
    second = oracle.cmp_many(candidate, missed[:, 1])
    joined = oracle.cmp_many(candidate, rest)
    lv.scan_comparisons = oracle.comparisons - start

    inside = rows[member].ravel()
    inside = inside[inside != candidate]
    outside = rows[equal & ~member].ravel()
    lv.reused = len(inside) + len(outside) + int(np.count_nonzero(first))
    # The candidate's class, from the sample and the census.  The census is
    # split by index, as in _pair_up, and only once it falls short.
    hits = joined.nonzero()[0]
    head = np.concatenate(([candidate], inside, split[first, 0], missed[second, 1]))
    cnt = len(head) + len(hits)
    if cnt > m // 2:
        return Answer.majority(candidate, cnt), None
    klass = np.concatenate((head, rest.take(hits)))

    # Every other ball already conflicts with the candidate's class, so each
    # unequal pair found among the others frees two cover slots.  Needing
    # zero pairs (even m, census exactly half) closes with cross pairs.
    need = m // 2 - cnt + (1 if m % 2 else 0)
    known = missed[~second]
    found, spare = known[:need], known[need:].ravel()
    misses = rest.take((~joined).nonzero()[0])
    others = np.concatenate((split[first, 1], missed[second, 0], misses))
    if len(found) < need:
        start = oracle.comparisons
        more, others = _unequal_pairs(oracle, others, need - len(found))
        lv.pairing_comparisons = oracle.comparisons - start
        found = np.concatenate((found, more))

    if len(found) < need:
        # Unlucky pair scan; rerun the deterministic baseline on the whole
        # level.  Rare by construction and still within the comparison cap.
        start = oracle.comparisons
        answer, cert = _two_pass(oracle, balls)
        lv.fallback_comparisons = oracle.comparisons - start
        return answer, cert

    triangle = None
    if m % 2:
        a, b = found[-1].tolist()
        triangle = (a, b, int(klass[-1]))
        found, klass = found[:-1], klass[:-1]
    others = np.concatenate((others, spare, outside))
    if len(others) != len(klass):
        raise ContractViolation("census leftovers and class balls do not pair up")
    # Filled in place: column_stack and a concatenation cost several times more.
    pairs = np.empty((len(found) + len(klass), 2), dtype=np.int64)
    pairs[: len(found)] = found
    pairs[len(found) :, 0], pairs[len(found) :, 1] = others, klass
    pairs.flags.writeable = False
    return Answer.no_majority(), Certificate(pairs=pairs, triangle=triangle)


def _base(run: _Run, balls: np.ndarray) -> tuple[Answer, Certificate | None]:
    lv = LevelStats("base", len(balls))
    run.levels.append(lv)
    start = run.oracle.comparisons
    answer, cert = _two_pass(run.oracle, balls)
    lv.scan_comparisons = run.oracle.comparisons - start
    return answer, cert


def _solve(run: _Run, balls: np.ndarray) -> tuple[Answer, Certificate | None]:
    if len(balls) <= run.params.cutoff:
        return _base(run, balls)
    return _balanced(run, balls)


def _drive(
    oracle: CountingOracle,
    balls: Sequence[int] | None,
    params: Params | None,
    rng: RandomStream | None,
    top: Callable[[_Run, np.ndarray], tuple[Answer, Certificate | None]],
) -> tuple[Answer, Certificate | None, RunStats]:
    """Run ``top`` on the balls and enforce the contract on the result.

    Balls travel between levels as int64 arrays.  Given balls must be
    distinct and in range (ValueError, before any comparison).  The
    comparison cap (_CAP_FACTOR per ball) and the depth bound are
    checked with ContractViolation, so they hold under ``python -O`` too.
    """
    if balls is None:
        balls = np.arange(1, oracle.instance.n + 1, dtype=np.int64)
    else:
        balls = oracle.distinct_balls(balls)
    if not len(balls):
        return Answer.no_majority(), Certificate(), RunStats(0, 0, (), ())
    run = _Run(
        oracle,
        Params() if params is None else params,
        RandomStream(0, "majority") if rng is None else rng,
    )
    start = oracle.comparisons
    answer, cert = top(run, balls)

    m = len(balls)
    used = oracle.comparisons - start
    cap = _CAP_FACTOR * m
    if used > cap:
        raise ContractViolation(f"comparison cap breached: {used} > {cap}")
    if len(run.levels) > math.log2(max(2, m)) + 1:
        raise ContractViolation(f"recursion too deep: {len(run.levels)} levels")
    trace: list[str] = []
    for lv in run.levels:
        trace.append(lv.branch)
        # A fallback reruns boyer_moore on two or more balls, so it always costs.
        if lv.fallback_comparisons > 0:
            trace.append("fallback")
    stats = RunStats(
        comparisons=used,
        depth=len(run.levels),
        branch_trace=tuple(trace),
        levels=tuple(run.levels),
    )
    return answer, cert, stats


def majority(
    oracle: CountingOracle,
    balls: Sequence[int] | None = None,
    params: Params | None = None,
    rng: RandomStream | None = None,
) -> tuple[Answer, Certificate | None, RunStats]:
    """Exact majority of the given balls; Las Vegas comparison count.

    Returns (answer, certificate, stats).  The certificate accompanies
    no-majority answers; majority answers are checkable from the transcript
    alone.  Total comparisons are capped at 8 * len(balls).
    """
    return _drive(oracle, balls, params, rng, _solve)


def heavy(
    oracle: CountingOracle,
    candidate: int,
    balls: Sequence[int] | None = None,
    params: Params | None = None,
    rng: RandomStream | None = None,
) -> tuple[Answer, Certificate | None, RunStats]:
    """Census the given candidate unconditionally at the top level.

    The balls are shuffled once, so the pair scan of the census leftovers
    meets them in random order.  A candidate that is not an integer, or not
    one of the balls, raises ValueError before any comparison.
    """
    candidate = _integer(candidate, "heavy candidate")

    def census(run: _Run, balls: np.ndarray) -> tuple[Answer, Certificate | None]:
        lv = LevelStats("heavy", len(balls))
        run.levels.append(lv)
        order = run.permuted(balls)
        keep = order != candidate
        if keep.all():
            raise ValueError("heavy candidate must be one of the balls")
        nothing = np.zeros(0, dtype=bool)
        return _heavy(run, lv, order, candidate, order[keep], nothing, nothing)

    return _drive(oracle, balls, params, rng, census)
