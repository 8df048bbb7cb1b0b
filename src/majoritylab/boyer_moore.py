"""Classic two-pass majority vote over a comparison oracle.

Pass one, ``CountingOracle.vote``, maintains a candidate and the stack of
its unmatched class balls; adopting a fresh candidate on an empty stack
costs nothing, every other element costs one comparison.  Pass two
recounts the surviving candidate against all other balls as one
``cmp_many`` batch.  Total cost is at most 2n - 2 comparisons, checked on
every run.

Pass one also yields no-majority evidence for free: every cancellation
matches one ball of the current candidate's class against the ball that
cancelled it, a provably-unequal pair.  Those pairs plus the pass-two census
form the certificate for a no-majority verdict.
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
    candidate, cancelled = oracle.vote(balls)
    # Pass two never adapts, so it is one batch in the loop's order.
    count = 1 + int(np.count_nonzero(oracle.cmp_many(candidate, balls[balls != candidate])))

    used = oracle.comparisons - start
    if used > max(0, 2 * m - 2):
        raise ContractViolation(f"comparison bound breached: {used} > {2 * m - 2}")

    if count > m // 2:
        return Answer.majority(candidate, count), None
    pairs = np.array(cancelled, dtype=np.int64).reshape(-1, 2)
    return Answer.no_majority(), Certificate(pairs=pairs, candidate=candidate)
