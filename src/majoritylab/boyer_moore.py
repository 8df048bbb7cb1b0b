"""Classic two-pass majority vote over a comparison oracle.

Pass one, ``CountingOracle.vote``, keeps a candidate and its lead: adopting
a fresh candidate at a lead of zero costs nothing, every other element
costs one comparison, and the oracle reports which balls joined the
candidate.  The oracle steps each segment's start through a counter loop
and finishes a segment whose lead grows long with array windows, so a
long lead costs numpy steps, not Python ones.  Pass two recounts the
surviving candidate against all other balls as one ``cmp_many`` batch.
Total cost is at most 2n - 2 comparisons, checked on every run.

Pass one also yields no-majority evidence for free: every cancellation
matches one unmatched ball of the current candidate's class against the
ball that cancelled it, a provably-unequal pair.  Those pairs plus the
pass-two census form the certificate for a no-majority verdict.  They are
derived from the joined flags, and only when the verdict needs them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .answers import Answer, Certificate, ContractViolation
from .core import CountingOracle

__all__ = ["boyer_moore"]

# _cancelled_pairs packs a stack depth and a position, each below 2**31, into
# one int64 key.
_MAX_BALLS = 1 << 31


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
    """``boyer_moore`` on distinct, in-range balls given as an int64 array.

    Raises ValueError, before anything is billed or allocated, for 2**31
    balls or more, where the cancelled pairs' keys would not fit int64.
    """
    m = len(balls)
    if m >= _MAX_BALLS:
        raise ValueError(f"boyer_moore: {m} balls; its pair keys need fewer than 2**31")
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
    pairs = _cancelled_pairs(balls, joined)
    return Answer.no_majority(), Certificate(pairs=pairs, candidate=candidate)


def _cancelled_pairs(balls: np.ndarray, joined: np.ndarray) -> np.ndarray:
    """The (class ball, ball that cancelled it) pairs of pass one, in canceller order.

    Pass one keeps the unmatched class balls on a stack: a joiner pushes and
    a canceller pops the latest one.  A joiner's level is the stack depth
    after its step and a canceller's the depth before it, so in (level,
    position) order each level alternates push, pop, push, ... and every
    canceller directly follows the ball it cancels.  Both parts fit one
    int64 key while there are fewer than 2**31 balls.
    """
    m = len(balls)
    cancels = ~joined
    shift = m.bit_length()
    key = np.subtract(joined, cancels, dtype=np.int64)
    np.cumsum(key, out=key)  # the depth after each step
    key += cancels
    key <<= shift
    key |= np.arange(m)
    key.sort()
    key &= (1 << shift) - 1  # now the positions in (level, position) order
    popped = cancels[key].nonzero()[0]
    mate = np.empty_like(key)
    mate[key[popped]] = key[popped - 1]
    # Integer indices: a mask this irregular gathers far more slowly.
    cancellers = cancels.nonzero()[0]
    return np.column_stack((balls[mate[cancellers]], balls[cancellers]))
