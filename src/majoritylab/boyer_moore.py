"""Classic two-pass majority vote over a comparison oracle.

Pass one maintains a candidate and a counter; adopting a fresh candidate at
counter zero costs nothing, every other element costs one comparison.  Pass
two recounts the surviving candidate against all other balls.  Total cost is
at most 2n - 2 comparisons, checked on every run.

Pass one also yields no-majority evidence for free: every counter decrement
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
    the transcript, so they carry no extra structure.
    """
    if balls is None:
        balls = range(1, oracle.instance.n + 1)
    balls = list(balls)
    m = len(balls)
    start = oracle.comparisons

    if m == 0:
        return Answer.no_majority(), Certificate()

    candidate = balls[0]
    counter = 1
    stack = [balls[0]]  # unmatched balls of the current candidate's class
    # cancelled pairs as two flat columns: a class ball and the ball that cancelled it
    lefts: list[int] = []
    rights: list[int] = []
    for b in balls[1:]:
        if counter == 0:
            candidate = b
            counter = 1
            stack.append(b)
        elif oracle.cmp(candidate, b):
            counter += 1
            stack.append(b)
        else:
            counter -= 1
            lefts.append(stack.pop())
            rights.append(b)

    count = 1
    for b in balls:
        if b == candidate:
            continue
        if oracle.cmp(candidate, b):
            count += 1

    used = oracle.comparisons - start
    if used > max(0, 2 * m - 2):
        raise ContractViolation(f"comparison bound breached: {used} > {2 * m - 2}")

    if count > m // 2:
        return Answer.majority(candidate, count), None
    pairs = np.array((lefts, rights), dtype=np.int64).T
    return Answer.no_majority(), Certificate(pairs=pairs, candidate=candidate)
