"""The counting reference: ``brute_force_majority`` must agree with it.

It counts colors with a ``Counter`` over the instance's ``colors`` tuple,
the way brute force did before it read the color array, and names the
first ball of the majority color as the witness.
"""

from __future__ import annotations

from collections import Counter

from majoritylab import Answer, Instance


def counter_majority(instance: Instance, balls=None) -> Answer:
    indices = range(1, instance.n + 1) if balls is None else tuple(balls)
    colors = [instance.color_of(b) for b in indices]
    if not colors:
        return Answer.no_majority()
    color, count = Counter(colors).most_common(1)[0]
    if count > len(colors) // 2:
        witness = next(b for b, c in zip(indices, colors) if c == color)
        return Answer.majority(witness, count)
    return Answer.no_majority()
