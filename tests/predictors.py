"""Analytic comparison-cost models for the census and pairing strategies.

Both predictors work from an instance's true class counts (test privilege)
and model expected costs level by level.  They are written independently of
the implementation and deliberately use only the algorithms' published
structure: census size, pairing totals, survivor expectations, geometric
waiting times.  Tests freeze them as the reference the measured costs must
match within a few percent.
"""

from __future__ import annotations

import math
from collections import Counter

from majoritylab import Instance, Params


def class_counts(instance: Instance, color_of_interest: int | None = None):
    counts = Counter(instance.colors)
    ordered = sorted(counts.values(), reverse=True)
    if color_of_interest is None:
        return ordered
    first = counts[color_of_interest]
    rest = sorted(
        (v for c, v in counts.items() if c != color_of_interest), reverse=True
    )
    return [first] + rest


def predict_heavy(counts: list[int]) -> float:
    """Expected comparisons for a direct census of the largest class.

    counts[0] is the censused class.  Census costs m - 1.  When the census
    falls short of a majority, the scan over the remaining balls looks at
    disjoint random pairs until it has found ``need`` unequal ones; each
    look costs one comparison and succeeds with the two-distinct-colors
    probability of the leftover pool, so the expected number of looks is
    need over that probability (treating the pool as unchanging, which is
    accurate while need is small against the pool).
    """
    m = sum(counts)
    c1 = counts[0]
    census = m - 1
    if c1 > m // 2:
        return float(census)
    need = m // 2 - c1 + (1 if m % 2 else 0)
    if need == 0:
        return float(census)
    pool = m - c1
    same = sum(c * (c - 1) for c in counts[1:])
    p_unequal = 1.0 - same / (pool * (pool - 1))
    return census + need / p_unequal


def expected_boyer_moore(counts: list[float]) -> float:
    """Expected cost of the two-pass baseline on an exchangeable sequence.

    Pass 2 always pays m - 1.  In pass 1 an adoption is free and each other
    ball costs one comparison; with match probability p = sum of squared
    frequencies, an excursion between adoptions survives 1/(1 - 2p) paid
    steps, so the paid fraction is E/(1 + E).  Near p = 1/2 the walk stops
    returning and pass 1 approaches m - 1.
    """
    m = sum(counts)
    if m <= 1:
        return 0.0
    p_match = sum((c / m) ** 2 for c in counts)
    if p_match >= 0.499:
        pass1 = m - 1.0
    else:
        excursion = 1.0 / (1.0 - 2.0 * p_match)
        pass1 = m * (excursion / (1.0 + excursion))
        pass1 = min(pass1, m - 1.0)
    return pass1 + (m - 1.0)


def predict_light(counts: list[int]) -> float:
    """Expected comparisons for the pairing strategy on a no-majority profile.

    Each level pays its pairing pass and a couple of probes when sizes go
    odd; survivors of class i arrive in proportion to picking two of that
    class, and the recursion bottoms out in the baseline below the default
    cutoff.  No scan term: with every class far from half, the recursive
    verdict is no-majority and the strategy certifies instead of scanning.
    """
    cutoff = Params().cutoff
    sizes = [float(c) for c in counts]
    total = 0.0
    while sum(sizes) > cutoff:
        m = sum(sizes)
        total += m / 2.0  # pairing plus the occasional odd-leftover probes
        pairs = math.floor(m / 2.0)
        sizes = [pairs * c * (c - 1.0) / (m * (m - 1.0)) for c in sizes]
        total += 2.0  # odd-size resolution probes, a fixed nominal charge
    total += expected_boyer_moore(sizes)
    return total
