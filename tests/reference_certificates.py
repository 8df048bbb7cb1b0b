"""The tuple certificate lift and leftover resolution: the array versions in
``majoritylab.randomized`` must reproduce them pair for pair.

Certificates here are plain tuples of ``(a, b)`` pairs, walked in order.
The order matters: the leftover probe walks the pairs in certificate order,
so a lift that reorders them moves seeded comparison counts.
"""

from __future__ import annotations

from majoritylab import Answer, ContractViolation


def lift_certificate(pairs, triangle, partner: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """Each pair (a, b) followed by its mirror (partner[a], partner[b]);
    a triangle's three cross pairs go last."""
    lifted: list[tuple[int, int]] = []
    for a, b in pairs:
        lifted.extend(((a, b), (partner[a], partner[b])))
    if triangle is not None:
        t1, t2, t3 = triangle
        lifted.extend(((t1, partner[t2]), (t2, partner[t3]), (t3, partner[t1])))
    return tuple(lifted)


def resolve_leftover(oracle, balls: list[int], leftover: int, pairs, candidate, m: int):
    """Settle an odd level whose even part certified no-majority.

    Returns (answer, pairs, triangle, candidate); the certificate fields are
    None for a majority answer."""
    half = m // 2
    klass = {leftover}
    excluded: set[int] = set()
    covered = {b for pair in pairs for b in pair}
    uncovered = [b for b in balls if b != leftover and b not in covered and b != candidate]
    potential = 1 + len(pairs) + len(uncovered)
    if candidate is not None:
        potential += 1
        if oracle.cmp(leftover, candidate):
            klass.add(candidate)
        else:
            excluded.add(candidate)
            potential -= 1

    triangle = None
    kept: list[tuple[int, int]] = []
    i = 0
    while i < len(pairs) and len(klass) <= half and potential > half:
        a, b = pairs[i]
        i += 1
        if oracle.cmp(leftover, a):
            klass.add(a)
            excluded.add(b)
            kept.append((a, b))
        elif oracle.cmp(leftover, b):
            klass.add(b)
            excluded.add(a)
            kept.append((a, b))
        else:
            excluded.update((a, b))
            potential -= 1
            if triangle is None:
                triangle = (leftover, a, b)
            else:
                kept.append((a, b))

    j = 0
    while (
        j < len(uncovered)
        and len(klass) <= half
        and (triangle is None or potential > half)
    ):
        b = uncovered[j]
        j += 1
        if oracle.cmp(leftover, b):
            klass.add(b)
        else:
            excluded.add(b)
            potential -= 1

    if len(klass) > half:
        for a, b in pairs[i:]:
            if oracle.cmp(leftover, a):
                klass.add(a)
            elif oracle.cmp(leftover, b):
                klass.add(b)
        for b in uncovered[j:]:
            if oracle.cmp(leftover, b):
                klass.add(b)
        return Answer.majority(leftover, len(klass)), None, None, None

    if triangle is not None:
        return Answer.no_majority(), tuple(kept) + tuple(pairs[i:]), triangle, candidate

    sigma = sum(1 for b in excluded if b not in covered)
    if len(pairs) + sigma <= m // 2:
        anchor = leftover
    elif candidate is not None:
        anchor = candidate
    else:
        raise ContractViolation("no anchor has slack for the leftover certificate")
    return Answer.no_majority(), tuple(pairs), None, anchor
