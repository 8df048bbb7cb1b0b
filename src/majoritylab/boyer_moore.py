"""Classic two-pass majority vote over a comparison oracle.

Pass one, ``CountingOracle.vote``, keeps a candidate and its lead: adopting
a fresh candidate at a lead of zero costs nothing, every other element
costs one comparison, and the oracle reports which balls joined the
candidate.  The oracle steps each segment's start through a counter loop
over a memoryview of the colours, with no list copy, closes a two-ball
segment (a fresh candidate and one unequal ball) without that loop, and
finishes a segment whose lead grows long with array windows, so a long
lead costs numpy steps, not Python ones.  Pass two recounts the
surviving candidate against all other balls as one ``cmp_many`` batch.
Total cost is at most 2n - 2 comparisons, checked on every run.

Pass one also yields no-majority evidence for free: the k-th ball that
cancelled is paired with the k-th ball that joined.  Every closed segment
of pass one holds as many joins as cancels, so that join has the colour
its canceller was found unequal to, a provably-unequal pair.  Those pairs
plus the pass-two census form the certificate for a no-majority verdict.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .answers import Answer, Certificate, ContractViolation
from .core import CountingOracle

__all__ = ["boyer_moore"]


def boyer_moore(
    oracle: CountingOracle, balls: Sequence[int] | None = None
) -> tuple[Answer, Certificate | None]:
    """Exact answer for the given balls (defaults to the whole instance).

    Returns (answer, certificate); the certificate is present exactly when
    the answer is no-majority.  Majority answers are validated straight off
    the transcript, so they carry no extra structure.  Given balls must be
    distinct (ValueError, before any comparison).
    """
    if balls is None:
        balls = np.arange(1, oracle.instance.n + 1, dtype=np.int64)
    else:
        balls = oracle.distinct_balls(balls)
    return _two_pass(oracle, balls)


def _two_pass(oracle: CountingOracle, balls: np.ndarray) -> tuple[Answer, Certificate | None]:
    """``boyer_moore`` on distinct, in-range balls given as an int64 array."""
    m = len(balls)
    if m == 0:
        return Answer.no_majority(), Certificate()

    start = oracle.comparisons
    candidate, joined = oracle.vote(balls)
    # Pass two never adapts, so it is one batch in the loop's order.
    count = 1 + int(np.count_nonzero(oracle.cmp_many(candidate, balls[balls != candidate])))

    used = oracle.comparisons - start
    if used > max(0, 2 * m - 2):
        raise ContractViolation(f"comparison bound breached: {used} > {2 * m - 2}")

    if count > m // 2:
        return Answer.majority(candidate, count), None
    pairs = _cancelled_pairs(balls, joined, candidate)
    return Answer.no_majority(), Certificate(pairs=pairs, candidate=candidate)


def _cancelled_pairs(balls: np.ndarray, joined: np.ndarray, candidate: int) -> np.ndarray:
    """The (class ball, ball that cancelled it) pairs of pass one, in canceller order.

    The k-th canceller is paired with the k-th ball that joined.  A lead
    left at the end means more joins than cancels; the last candidate is
    then dropped from the joins, so it is never paired.
    """
    # Integer indices: a mask this irregular gathers far more slowly.
    joins = joined.nonzero()[0]
    cancellers = (~joined).nonzero()[0]
    if len(joins) > len(cancellers):
        joins = joins[balls[joins] != candidate]
    return np.column_stack((balls[joins[: len(cancellers)]], balls[cancellers]))
