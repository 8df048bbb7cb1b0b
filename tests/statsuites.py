"""Statistical suites for the concentration claims the analysis leans on.

Each suite runs a fixed-seed Monte Carlo experiment and returns a SuiteResult:
the fraction of trials that landed within the stated deviation bound, plus
sharper companion checks (mean against the exact expectation, spread against
the theoretical spread) because several of the stated bounds are loose at
desk scale and would pass vacuously on their own.

Deviation bounds use the natural logarithm throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from majoritylab import CountingOracle, RandomStream, generate, majority


@dataclass(frozen=True)
class SuiteResult:
    name: str
    trials: int
    fraction_within: float
    companions_ok: bool
    detail: str

    @property
    def passed(self) -> bool:
        return self.fraction_within >= 0.99 and self.companions_ok


def _gen(seed: int, purpose: str) -> np.random.Generator:
    return RandomStream(seed, purpose).numpy_generator()


def sampling_accuracy(
    n: int = 10**5, marked: int = 30_000, k: int = 1_000, trials: int = 10_000, seed: int = 1001
) -> SuiteResult:
    """Hit frequency of a without-replacement sample tracks the population.

    Claim under test: |hits/k - marked/n| stays within k^(-1/2) * ln n.
    Companions: the mean matches the hypergeometric expectation within
    three standard errors and the spread matches the hypergeometric sigma
    within five percent.
    """
    gen = _gen(seed, "suite/sampling")
    hits = gen.hypergeometric(marked, n - marked, k, size=trials)
    q = hits / k
    p = marked / n
    bound = k**-0.5 * math.log(n)
    within = float(np.mean(np.abs(q - p) <= bound))

    sigma = math.sqrt(p * (1 - p) / k * (n - k) / (n - 1))
    mean_ok = abs(q.mean() - p) <= 3 * sigma / math.sqrt(trials)
    spread_ok = abs(q.std(ddof=1) / sigma - 1) <= 0.05

    return SuiteResult(
        name="sampling_accuracy",
        trials=trials,
        fraction_within=within,
        companions_ok=mean_ok and spread_ok,
        detail=(
            f"bound={bound:.4f} mean_gap={q.mean() - p:+.2e} "
            f"sigma_ratio={q.std(ddof=1) / sigma:.3f}"
        ),
    )


def pair_collision_count(
    n: int = 10**5, x: int = 30_000, trials: int = 2_000, seed: int = 1002
) -> SuiteResult:
    """Pairs landing inside a marked subset under a random perfect matching.

    Claim under test: |u - x^2/(2n)| stays within sqrt(x) * ln n.
    Companions: the mean matches x(x-1)/(2(n-1)) within three empirical
    standard errors; a subset covering everything pairs exactly n/2 times.
    """
    gen = _gen(seed, "suite/pairs")
    marks = np.zeros(n, dtype=bool)
    marks[:x] = True
    target = x * x / (2 * n)
    bound = math.sqrt(x) * math.log(n)
    counts = np.empty(trials)
    for t in range(trials):
        perm = gen.permutation(marks)
        counts[t] = np.count_nonzero(perm[0::2] & perm[1::2])
    within = float(np.mean(np.abs(counts - target) <= bound))

    exact_mean = x * (x - 1) / (2 * (n - 1))
    se = counts.std(ddof=1) / math.sqrt(trials)
    mean_ok = abs(counts.mean() - exact_mean) <= 3 * se

    # total cover: every pair is a collision when everything is marked
    full = np.ones(n, dtype=bool)
    total_ok = int(np.count_nonzero(full[0::2] & full[1::2])) == n // 2

    return SuiteResult(
        name="pair_collision_count",
        trials=trials,
        fraction_within=within,
        companions_ok=mean_ok and total_ok,
        detail=f"bound={bound:.0f} mean_gap={counts.mean() - exact_mean:+.2f} se={se:.2f}",
    )


def partition_pair_total(
    n: int = 10**5, trials: int = 2_000, seed: int = 1003
) -> SuiteResult:
    """Total same-class pairs across a partition under a random matching.

    Claim under test: |sum_i u_ii - sum_i c_i^2/(2n)| within n^(2/3) * ln n.
    Companion: the mean matches sum_i c_i(c_i-1)/(2(n-1)) within three
    empirical standard errors.
    """
    gen = _gen(seed, "suite/partition")
    sizes = [40_000, 30_000, 20_000, 10_000]
    assert sum(sizes) == n
    colors = np.repeat(np.arange(len(sizes)), sizes)
    target = sum(c * c for c in sizes) / (2 * n)
    bound = n ** (2 / 3) * math.log(n)
    counts = np.empty(trials)
    for t in range(trials):
        perm = gen.permutation(colors)
        counts[t] = np.count_nonzero(perm[0::2] == perm[1::2])
    within = float(np.mean(np.abs(counts - target) <= bound))

    exact_mean = sum(c * (c - 1) for c in sizes) / (2 * (n - 1))
    se = counts.std(ddof=1) / math.sqrt(trials)
    mean_ok = abs(counts.mean() - exact_mean) <= 3 * se

    return SuiteResult(
        name="partition_pair_total",
        trials=trials,
        fraction_within=within,
        companions_ok=mean_ok,
        detail=f"bound={bound:.0f} mean_gap={counts.mean() - exact_mean:+.2f} se={se:.2f}",
    )


def draws_until_quota(
    n: int = 10**5, marked: int = 10_000, quota: int = 100, trials: int = 2_000, seed: int = 1004
) -> SuiteResult:
    """Draws without replacement needed to hit a quota of marked elements.

    Claim under test: draws stay below (n/marked) * quota + (n/sqrt(marked)) * ln n.
    Companion: the mean matches the negative hypergeometric expectation
    quota * (n+1)/(marked+1) within three empirical standard errors.
    """
    gen = _gen(seed, "suite/quota")
    draws = np.empty(trials)
    for t in range(trials):
        positions = gen.permutation(n)[:marked]
        draws[t] = np.partition(positions, quota - 1)[quota - 1] + 1
    bound = (n / marked) * quota + (n / math.sqrt(marked)) * math.log(n)
    within = float(np.mean(draws <= bound))

    exact_mean = quota * (n + 1) / (marked + 1)
    se = draws.std(ddof=1) / math.sqrt(trials)
    mean_ok = abs(draws.mean() - exact_mean) <= 3 * se

    return SuiteResult(
        name="draws_until_quota",
        trials=trials,
        fraction_within=within,
        companions_ok=mean_ok,
        detail=f"bound={bound:.0f} mean={draws.mean():.1f} exact={exact_mean:.1f}",
    )


def dispatch_sample_estimate(
    n: int = 10**5, trials: int = 300, seed: int = 1005
) -> SuiteResult:
    """The root level's sample, the estimate its dispatch reads.

    A level compares the first k = 2 isqrt(n) pairs of its random pairing;
    each is an equal pair of the top colour with probability
    p = c1 (c1 - 1) / (n (n - 1)), so hits/k estimates p and q1_estimate
    = sqrt(hits/k) estimates q1.  On profile:0.45,rest=1000 the top colour
    is the class the sample censuses.  Claim under test: |hits/k - p|
    stays within sqrt(ln n / (2k)), Hoeffding's bound at failure
    probability 2/n for k near-independent pairs.  Companions: the mean of
    hits/k matches p within three standard errors, its spread matches the
    binomial sigma sqrt(p (1 - p) / k) within 15 percent (about 3.5
    standard errors of a 300-run spread), the mean of q1_estimate matches
    sqrt(p) within three standard errors, and q1_estimate is sqrt(hits/k).
    """
    inst = generate("profile:0.45,rest=1000", n, RandomStream(seed, "suite/dispatch-inst"))
    c1 = int(np.bincount(inst.color_array).max())
    p = c1 * (c1 - 1) / (n * (n - 1))
    rates = np.empty(trials)
    q1 = np.empty(trials)
    for t in range(trials):
        _, _, stats = majority(CountingOracle(inst), rng=RandomStream(seed, "suite/dispatch", t))
        root = stats.levels[0]
        rates[t] = root.sample_hits / root.sample_pairs
        q1[t] = root.q1_estimate
    k = root.sample_pairs
    bound = math.sqrt(math.log(n) / (2 * k))
    within = float(np.mean(np.abs(rates - p) <= bound))

    sigma = math.sqrt(p * (1 - p) / k)
    mean_ok = abs(rates.mean() - p) <= 3 * sigma / math.sqrt(trials)
    spread_ok = abs(rates.std(ddof=1) / sigma - 1) <= 0.15
    q1_ok = abs(q1.mean() - math.sqrt(p)) <= 3 * q1.std(ddof=1) / math.sqrt(trials)
    read_ok = bool(np.allclose(q1, np.sqrt(rates), rtol=0, atol=1e-12))

    return SuiteResult(
        name="dispatch_sample_estimate",
        trials=trials,
        fraction_within=within,
        companions_ok=mean_ok and spread_ok and q1_ok and read_ok,
        detail=(
            f"k={k} bound={bound:.4f} mean={rates.mean():.4f} p={p:.4f} "
            f"sd={rates.std(ddof=1):.4f} sigma={sigma:.4f} q1_mean={q1.mean():.4f}"
        ),
    )


ALL_SUITES = (
    sampling_accuracy,
    pair_collision_count,
    partition_pair_total,
    draws_until_quota,
    dispatch_sample_estimate,
)
