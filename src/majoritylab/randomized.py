"""Randomized exact majority finding with certified answers.

Every level above the cutoff runs one pairing step: pair the balls at
random, keep one survivor of each equal pair, recurse on the survivors,
then settle the level.  A no-majority verdict below is lifted through the
pairs; a survivor majority is checked against the unequal pairs with a
deficit count that stops as soon as the candidate can no longer reach a
majority.  ``majority`` draws no sample and makes no dispatch decision.

``heavy`` is a second strategy, run directly on a given candidate: census
it, and when it falls short, finish the no-majority certificate by pairing
off the rest.  ``estimate_frequencies`` is the sampler a dispatching level
would build on.

Balls travel between levels as int64 arrays, and certificates carry their
pairs as one ``(k, 2)`` int64 array that every producer builds by stacking
columns, in the pair order the leftover probe walks.  The pairing and heavy's
census are one ``CountingOracle.cmp_many`` batch each.  The deficit scan
and heavy's pair scan are one ``CountingOracle.scan_until`` call each,
which bills exactly the comparisons of the pair-by-pair scan and stops
where it stops.

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
from .boyer_moore import boyer_moore
from .core import CountingOracle
from .rng import RandomStream

__all__ = [
    "Params",
    "SampleEstimate",
    "RunStats",
    "LevelStats",
    "estimate_frequencies",
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
        if self.cutoff < 2:
            raise ValueError(f"cutoff must be at least 2, got {self.cutoff}")
        if self.cap_factor < 1:
            raise ValueError("cap_factor must be positive")


@dataclass(frozen=True)
class SampleEstimate:
    """Frequency estimate from a without-replacement sample.

    Classes are ordered by decreasing sample frequency, ties broken by
    first appearance; ``representatives[i]`` is the first sampled ball of
    the i-th class.
    """

    representatives: tuple[int, ...]
    frequencies: tuple[float, ...]
    sample_size: int
    comparisons: int


@dataclass
class LevelStats:
    """Per-recursion-level accounting.

    The comparison fields are branch specific: ``pairing`` is the random
    pairing pass (for heavy, its pair scan of the census leftovers),
    ``scan`` is the candidate-versus-others pass (for heavy, the census),
    ``leftover`` covers odd-size resolution probes, ``fallback`` the
    terminal boyer_moore rerun.  ``sample`` stays 0: the driver draws no
    sample.
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


def estimate_frequencies(oracle: CountingOracle, sample: Sequence[int]) -> SampleEstimate:
    """Classify the sample against first-seen representatives.

    Each ball is compared against the representatives found so far until it
    matches one or founds its own class, so the cost is at most
    len(sample) * (number of distinct classes) comparisons.
    """
    start = oracle.comparisons
    reps: list[int] = []
    sizes: list[int] = []
    for b in sample:
        for i, r in enumerate(reps):
            if oracle.cmp(b, r):
                sizes[i] += 1
                break
        else:
            reps.append(b)
            sizes.append(1)
    total = len(sample)
    order = sorted(range(len(reps)), key=lambda i: -sizes[i])
    return SampleEstimate(
        representatives=tuple(reps[i] for i in order),
        frequencies=tuple(sizes[i] / total for i in order),
        sample_size=total,
        comparisons=oracle.comparisons - start,
    )


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


def _pair_up(run: _Run, balls: np.ndarray):
    """Shuffle and compare disjoint pairs; exactly len(balls)//2 comparisons.

    Returns (survivors, mates, unequal, leftover).  The second ball of each
    equal pair survives and ``mates`` holds the first, which is what
    certificate lifting needs to undouble the survivor set; ``unequal`` is
    the (firsts, seconds) columns of the unequal pairs.
    """
    order = run.permuted(balls)
    half = len(order) // 2
    firsts, seconds = order[0 : 2 * half : 2], order[1 : 2 * half : 2]
    equal = run.oracle.cmp_many(firsts, seconds)
    leftover = int(order[-1]) if len(order) % 2 else None
    return seconds[equal], firsts[equal], (firsts[~equal], seconds[~equal]), leftover


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
    so far plus one slot per unprobed pair or ball.  The pair walk stops the
    moment the bound falls to m//2, and so does the ball walk once it holds
    a triangle.  The bound never falls below the class, so once the class
    passes m//2 both walks run to the end and count it exactly.
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
    # Without a triangle the ball walk runs to the end even once the bound
    # has fallen to m//2; the seeded comparison counts are pinned to it.
    for b in uncovered:
        if triangle is not None and potential <= half:
            break
        if oracle.cmp(leftover, b):
            klass.add(b)
        else:
            potential -= 1
    lv.leftover_comparisons += oracle.comparisons - start

    if len(klass) > half:
        return Answer.majority(leftover, len(klass)), None
    if triangle is not None:
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
    return Certificate(pairs=pairs, candidate=cert.candidate)


def _deficit_scan(
    oracle: CountingOracle, v: int, cnt: int, unequal: tuple[np.ndarray, np.ndarray], m: int
) -> tuple[Answer, Certificate | None]:
    """Settle a level's candidate v against its unequal pairs.

    ``cnt`` is v's class size minus m//2 if every unprobed pair held one
    more of it, so a pair that misses v twice lowers it by one, and the
    scan stops at the cnt-th double miss, where no-majority is already
    forced.
    """
    cnt -= int(np.count_nonzero(oracle.scan_until(v, *unequal, cnt)))
    if cnt == 0:
        return Answer.no_majority(), Certificate(pairs=np.column_stack(unequal), candidate=v)
    return Answer.majority(v, m // 2 + cnt), None


def _balanced(run: _Run, balls: np.ndarray) -> tuple[Answer, Certificate | None]:
    """One pairing level: pair, recurse on the survivors, settle the verdict.

    A no-majority verdict below is lifted through the pairs.  A survivor
    majority v is checked against the leftover, then against the unequal
    pairs with the deficit scan.
    """
    m = len(balls)
    lv = LevelStats("balanced", m)
    run.levels.append(lv)
    oracle = run.oracle

    start = oracle.comparisons
    survivors, mates, unequal, leftover = _pair_up(run, balls)
    lv.pairing_comparisons = oracle.comparisons - start
    lv.x_size = len(survivors)
    lv.y_pairs = len(unequal[0])

    if len(survivors):
        sub_answer, sub_cert = _solve(run, survivors)
    else:
        sub_answer, sub_cert = Answer.no_majority(), Certificate()

    if not sub_answer.is_majority:
        if sub_cert is None:
            raise ContractViolation("no-majority answer without a certificate")
        lifted = _lift_certificate(sub_cert, survivors, mates)
        pairs = np.concatenate((np.column_stack(unequal), lifted.pairs))
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

    Returns the (firsts, seconds) columns of the unequal pairs found, fewer
    than ``need`` only when the pairs run out.
    """
    half = len(order) // 2
    firsts, seconds = order[0 : 2 * half : 2], order[1 : 2 * half : 2]
    unequal = oracle.scan_until(None, firsts, seconds, need)
    walked = len(unequal)
    return firsts[:walked][unequal], seconds[:walked][unequal]


def _heavy(run: _Run, balls: np.ndarray, candidate: int) -> tuple[Answer, Certificate | None]:
    m = len(balls)
    lv = LevelStats("heavy", m)
    run.levels.append(lv)
    oracle = run.oracle
    if not (balls == candidate).any():
        raise ValueError("heavy candidate must be one of the balls")

    start = oracle.comparisons
    census = balls[balls != candidate]
    same = oracle.cmp_many(candidate, census)
    mates, others = census[same], census[~same]  # candidate's class, censused directly
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
    firsts, seconds = _unequal_pairs(oracle, run.permuted(others), need)
    lv.pairing_comparisons = oracle.comparisons - start

    if len(firsts) < need:
        # Unlucky pair scan; rerun the deterministic baseline on the whole
        # level.  Rare by construction and still within the comparison cap.
        start = oracle.comparisons
        answer, cert = boyer_moore(oracle, balls.tolist())
        lv.fallback_comparisons = oracle.comparisons - start
        return answer, cert

    rest = others[~np.isin(others, np.concatenate((firsts, seconds)))]
    triangle = None
    if m % 2:
        triangle = (int(firsts[-1]), int(seconds[-1]), int(klass[-1]))
        firsts, seconds, klass = firsts[:-1], seconds[:-1], klass[:-1]
    if len(rest) != len(klass):
        raise ContractViolation("census leftovers and class balls do not pair up")
    pairs = np.column_stack((np.concatenate((firsts, rest)), np.concatenate((seconds, klass))))
    return Answer.no_majority(), Certificate(pairs=pairs, triangle=triangle)


def _base(run: _Run, balls: np.ndarray) -> tuple[Answer, Certificate | None]:
    lv = LevelStats("base", len(balls))
    run.levels.append(lv)
    start = run.oracle.comparisons
    answer, cert = boyer_moore(run.oracle, balls.tolist())
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

    Balls travel between levels as int64 arrays.  The comparison cap
    (params.cap_factor per ball) and the depth bound are checked with
    ContractViolation, so they hold under ``python -O`` too.
    """
    if balls is None:
        balls = np.arange(1, oracle.instance.n + 1, dtype=np.int64)
    else:
        balls = np.fromiter(balls, dtype=np.int64)
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
    """Census the given candidate unconditionally at the top level."""
    return _drive(oracle, balls, params, rng, lambda run, b: _heavy(run, b, candidate))
