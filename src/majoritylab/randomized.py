"""Randomized exact majority finding with certified answers.

Every level above the cutoff shuffles its balls into disjoint pairs and
chooses between two strategies from a sample of that pairing.  The sample
is the first k = min(m//2, 2*isqrt(m)) pairs: an equal pair of colour i
turns up with probability q_i^2, so censusing the equal survivors of the
sample estimates the top colour's frequency q1 and its share f of the
squared frequencies.  A level whose top colour is heavy (its estimated q1
reaches ``beta_interval()[0]`` and f >= 4/5) runs a direct census on it;
every other level finishes the pairing step: keep one survivor of each
equal pair, recurse on the survivors, then settle the level.  A
no-majority verdict below is lifted through the pairs; a survivor majority
is checked against the unequal pairs with a deficit count that stops as
soon as the candidate can no longer reach a majority.

The share test keeps fair coins on the pairing step.  On two colours
f >= 4/5 needs q1 >= 2/3, so the censused class is the majority; a census
on a minority candidate would cost about 3.25n through the Boyer-Moore
fallback.  And with f >= 4/5 and q1 >= beta the census costs at most
about 1.09n, below the pairing step's 7n/6.

``heavy`` is the census strategy: census the candidate, and when it falls
short, finish the no-majority certificate by pairing off the rest in the
order the balls arrive, which a dispatching level has already shuffled.

Balls travel between levels as int64 arrays, and certificates carry their
pairs as one ``(k, 2)`` int64 array, in the pair order the leftover probe
walks.  A pairing level keeps its pairs as rows from the shuffle on: the
shuffled balls viewed as ``(m//2, 2)``, split into the equal and the
unequal rows by one row gather each.  The unequal rows are the pairs the
deficit scan walks and the certificate holds, with no restacking.  The
sampled pairs, the rest of the pairing and each census are one
``CountingOracle.cmp_many`` batch each.  The deficit scan and heavy's pair
scan are one ``CountingOracle.scan_until`` call each, which bills exactly
the comparisons of the pair-by-pair scan and stops where it stops.

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
    """The two values the driver reads.

    cutoff     - at or below this size a level hands off to boyer_moore.
    cap_factor - hard comparison cap, cap_factor * n per run.
    """

    cutoff: int = 1024
    cap_factor: int = 8

    def __post_init__(self) -> None:
        # Numpy integers become ints, so that cap_factor * n cannot wrap.
        for name in ("cutoff", "cap_factor"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.cutoff < 2:
            raise ValueError(f"cutoff must be at least 2, got {self.cutoff}")
        if self.cap_factor < 1:
            raise ValueError("cap_factor must be positive")


# A level samples the first min(m//2, _SAMPLE_ROOTS * isqrt(m)) pairs of its
# pairing: o(m) comparisons, and about 2 sqrt(m) q1^2 equal pairs of the top
# colour to estimate q1 from.
_SAMPLE_ROOTS = 2

# A sampled class is dominant when its equal pairs number at least this many
# times those of every other class together: f >= 4/5, q1^2 >= 4 sum_{j>1} q_j^2.
_DOMINANCE = 4

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
    terminal boyer_moore rerun.

    The sample fields describe a level above the cutoff that ``majority``
    reached: ``sample_pairs`` is k, ``sample_hits`` the equal sampled pairs
    of the largest class censused, ``q1_estimate`` is sqrt(hits / k) and
    ``top_share`` is hits over all equal sampled pairs (0 when there are
    none).  ``leftover_exit`` names how an odd level whose even part had no
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
    sample_hits: int = 0
    q1_estimate: float = 0.0
    top_share: float = 0.0
    leftover_exit: str | None = None

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


def _sample(
    oracle: CountingOracle, lv: LevelStats, pairs: np.ndarray
) -> tuple[np.ndarray, int | None]:
    """Compare the level's first k pairs and pick a census candidate, if any.

    The first survivor of an equal sampled pair is censused against the
    other survivors.  When the survivors outside its class could still hold
    a dominant class, the first of them is censused among them too.  The
    largest class found is the estimate of the top colour; the level goes to
    the census on it when it is dominant and its q1 estimate reaches beta.

    Returns the equal flags of the k pairs and the candidate, or None.  The
    survivor census is billed to the sample, and so are the k pairs when the
    level goes to the census; otherwise they are billed to the pairing.
    """
    k = min(lv.m // 2, _SAMPLE_ROOTS * math.isqrt(lv.m))
    start = oracle.comparisons
    equal = oracle.cmp_many(pairs[:k, 0], pairs[:k, 1])
    paired = oracle.comparisons - start
    survivors = pairs[:k, 1][equal]
    s = len(survivors)
    top, hits = None, 0
    if s:
        top = int(survivors[0])
        same = oracle.cmp_many(top, survivors[1:])
        hits = 1 + int(np.count_nonzero(same))
        if s - hits >= _DOMINANCE * hits:
            others = survivors[1:][~same]
            found = 1 + int(np.count_nonzero(oracle.cmp_many(int(others[0]), others[1:])))
            if found > hits:
                top, hits = int(others[0]), found
    lv.sample_pairs, lv.sample_hits = k, hits
    lv.q1_estimate = math.sqrt(hits / k)
    lv.top_share = hits / s if s else 0.0
    if hits < _DOMINANCE * (s - hits) or lv.q1_estimate < _BETA:
        top = None
    lv.sample_comparisons = oracle.comparisons - start - (paired if top is None else 0)
    lv.pairing_comparisons = paired if top is None else 0
    return equal, top


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
    still reach a majority is the leftover's own.  The leftover probes the
    certificate's pairs (a double miss yields a rainbow triangle) and then
    its uncovered balls, tracking an upper bound on the class: its members
    so far plus one slot per unprobed pair or ball.  Both walks stop the
    moment the bound falls to m//2, where the class can no longer win.  The
    bound never falls below the class, so once the class passes m//2 both
    walks run to the end and count it exactly.  ``lv.leftover_exit``
    records which of the three verdicts settled the level.
    """
    if cert.triangle is not None:
        raise ContractViolation("leftover resolution expects a triangle-free certificate")
    oracle = run.oracle
    start = oracle.comparisons
    half = m // 2
    klass = {leftover}
    seen = np.zeros(int(balls.max()) + 1, dtype=bool)
    seen[cert.pairs] = True
    seen[leftover] = True
    pairs = cert.pairs.tolist()
    potential = 1 + len(pairs)
    if cert.candidate is not None:
        seen[cert.candidate] = True
        if oracle.cmp(leftover, cert.candidate):
            klass.add(cert.candidate)
            potential += 1
    uncovered = balls[~seen[balls]].tolist()
    potential += len(uncovered)

    triangle: tuple[int, int, int] | None = None
    row = 0  # the pair that the triangle replaces
    for i, (a, b) in enumerate(pairs):
        if potential <= half:
            break
        if oracle.cmp(leftover, a):
            klass.add(a)
        elif oracle.cmp(leftover, b):
            klass.add(b)
        else:
            potential -= 1
            if triangle is None:
                triangle, row = (leftover, a, b), i
    for b in uncovered:
        if potential <= half:
            break
        if oracle.cmp(leftover, b):
            klass.add(b)
        else:
            potential -= 1
    lv.leftover_comparisons += oracle.comparisons - start

    if len(klass) > half:
        lv.leftover_exit = "class"
        return Answer.majority(leftover, len(klass)), None
    if triangle is not None:
        lv.leftover_exit = "triangle"
        return Answer.no_majority(), Certificate(
            pairs=np.concatenate((cert.pairs[:row], cert.pairs[row + 1 :])),
            triangle=triangle,
            candidate=cert.candidate,
        )
    # Without a triangle every pair holds one ball of the leftover's class,
    # so its misses among the uncovered balls push a certificate anchored at
    # the leftover past m//2: only the inherited candidate's can stand.
    if cert.candidate is None:
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
    balls.  Otherwise it compares the rest of the pairs and recurses on the
    survivors.  A no-majority verdict below is lifted through the pairs.  A
    survivor majority v is checked against the leftover, then against the
    unequal pairs with the deficit scan.
    """
    m = len(balls)
    lv = LevelStats("balanced", m)
    run.levels.append(lv)
    oracle = run.oracle

    order = run.permuted(balls)
    pairs = order[: m - m % 2].reshape(-1, 2)
    sampled, candidate = _sample(oracle, lv, pairs)
    if candidate is not None:
        lv.branch = "heavy"
        return _heavy(run, lv, order, candidate)

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
    found = oracle.scan_until(None, pairs[:, 0], pairs[:, 1], need).nonzero()[0]
    paired = np.zeros(len(order), dtype=bool)
    paired[2 * found] = paired[2 * found + 1] = True
    return pairs.take(found, axis=0), order[~paired]


def _heavy(
    run: _Run, lv: LevelStats, balls: np.ndarray, candidate: int
) -> tuple[Answer, Certificate | None]:
    """Census ``candidate`` over the level's balls, which arrive shuffled.

    When the census falls short of a majority, the balls outside the
    candidate's class are paired off in the order they arrive until enough
    pairs are unequal to cap every class.
    """
    m = len(balls)
    oracle = run.oracle
    keep = balls != candidate
    if keep.all():
        raise ValueError("heavy candidate must be one of the balls")

    start = oracle.comparisons
    census = balls[keep]
    same = oracle.cmp_many(candidate, census)
    # the candidate's class, censused directly, and the rest
    mates, others = census.take(same.nonzero()[0]), census.take((~same).nonzero()[0])
    cnt = 1 + len(mates)
    lv.scan_comparisons = oracle.comparisons - start

    if cnt > m // 2:
        return Answer.majority(candidate, cnt), None

    # The census leaves cnt class balls and m - cnt others; every other ball
    # already conflicts with the candidate's class, so each unequal pair
    # found among the others frees two cover slots.  Needing zero pairs
    # (even m, census exactly half) closes immediately with cross pairs.
    need = m // 2 - cnt + (1 if m % 2 else 0)
    klass = np.concatenate(([candidate], mates))
    if need == 0:
        if not len(others) == len(klass) == m // 2:
            raise ContractViolation("census cross pairs do not cover the level")
        return Answer.no_majority(), Certificate(pairs=np.column_stack((others, klass)))

    start = oracle.comparisons
    found, rest = _unequal_pairs(oracle, others, need)
    lv.pairing_comparisons = oracle.comparisons - start

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
    if len(rest) != len(klass):
        raise ContractViolation("census leftovers and class balls do not pair up")
    pairs = np.concatenate((found, np.column_stack((rest, klass))))
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
    comparison cap (params.cap_factor per ball) and the depth bound are
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
    cap = run.params.cap_factor * m
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
    alone.  Total comparisons are capped at params.cap_factor * len(balls).
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
    meets them in random order.
    """

    def census(run: _Run, balls: np.ndarray) -> tuple[Answer, Certificate | None]:
        lv = LevelStats("heavy", len(balls))
        run.levels.append(lv)
        return _heavy(run, lv, run.permuted(balls), candidate)

    return _drive(oracle, balls, params, rng, census)
