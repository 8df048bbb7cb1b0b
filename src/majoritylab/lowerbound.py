"""Adversary-world laboratory for the cost of majority on binary inputs.

An all-knowing observer watches a comparison algorithm run on a uniformly
random two-coloring.  Its knowledge is a set of components, each split into
two internally-equal parts of opposite colors; comparing balls from two
components merges them, same-part or crossed with equal probability.  The
squared part-size difference ("balance") summed over components is a
martingale, and the inferred (never directly compared) equalities created by
merges are what a verifying algorithm later has to pay for.

This module has the merge game's one engine, which runs many trials in
lockstep over numpy arrays (a scalar model in tests/reference_merge.py
replays it merge by merge), the closed-form probability bound for a part
holding the overall majority color, the resulting cost constant (about
1.0191289) in closed form, and the interval of admissible heavy-branch
thresholds.

The two-sided inference here is deliberately separate from the certificate
checker: with three or more colors an unequal comparison implies nothing
about third parties, so the checker must not share this code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _integer
from .rng import RandomStream

__all__ = [
    "BalanceStats",
    "simulate_balance",
    "predict_bound",
    "lower_bound_constant",
    "beta_interval",
    "normal_cdf",
    "STRATEGIES",
]

STRATEGIES = ("uniform", "smallest-first", "largest-first")


@dataclass(frozen=True)
class BalanceStats:
    """Trial statistics from simulate_balance."""

    n: int
    strategy: str
    trials: int
    terminal_balance_mean: float
    terminal_balance_var: float
    inferred_edges_mean: float
    inferred_majority_edges_mean: float
    majority_rate: float
    checkpoints: tuple[int, ...]
    nonzero_count_mean: tuple[float, ...]  # N_k at each checkpoint
    max_balance_mean: tuple[float, ...]  # M_k at each checkpoint


# simulate_balance records its trajectory at this many evenly spaced steps.
_CHECKPOINTS = 41


def _checkpoint_grid(n: int) -> list[int]:
    ks = sorted({int(round(x)) for x in np.linspace(0, n - 1, _CHECKPOINTS)})
    return [k for k in ks if 0 <= k <= n - 1]


def simulate_balance(
    n: int,
    strategy: str = "uniform",
    trials: int = 100,
    rng: RandomStream | None = None,
) -> BalanceStats:
    """Run ``trials`` independent merge processes to a single component.

    Strategies pick which components to merge next: "uniform" a random
    pair, "smallest-first" the two smallest components (a tournament),
    "largest-first" the two largest (a running chain).  The merge schedule
    never depends on comparison outcomes, so all trials advance in lockstep
    over numpy arrays; per-trial coins come from the colors, drawn once at
    the start.  Compared sides are the larger parts, ties toward part A.

    A component is kept as its size, the difference d = |a - b| of its part
    sizes and the color c of its compared part.  Comparing two components
    merges them to d_i + d_j with color c_i when their compared colors
    agree, else to |d_i - d_j| with the color of the side whose d is larger
    (c_i on a tie); a component is single-colored exactly when d equals its
    size.
    """
    n = _integer(n, "n")
    trials = _integer(trials, "trials")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; pick one of {STRATEGIES}")
    if n < 1 or trials < 1:
        raise ValueError("n and trials must be positive")
    if rng is None:
        rng = RandomStream(0, "balance")
    gen = rng.numpy_generator()

    # Slot k of trial r is element k * trials + r: slot k of every trial is
    # one contiguous run, so a size-ordered pick merges two whole runs.
    color = gen.integers(0, 2, size=(trials, n), dtype=np.int8).T.flatten()
    size = np.ones(n * trials, dtype=np.int64)
    d = np.ones(n * trials, dtype=np.int64)
    # The last component's parts are the two color classes, so each trial's
    # majority color is fixed by its draw; -1 where there is none.
    ones = color.reshape(n, trials).sum(axis=0)
    major = np.where(n - ones > n // 2, 0, np.where(ones > n // 2, 1, -1))
    inferred = np.zeros(trials, dtype=np.int64)
    inferred_major = np.zeros(trials, dtype=np.int64)
    rows = np.arange(trials)

    def slot(k: int) -> slice:
        return slice(k * trials, (k + 1) * trials)

    grid = _checkpoint_grid(n)
    want = set(grid)
    nk_mean: dict[int, float] = {}
    mk_mean: dict[int, float] = {}

    def record(k: int, live: int) -> None:
        head = d[: live * trials].reshape(live, trials)
        nk_mean[k] = float(np.count_nonzero(head, axis=0).mean())
        mk_mean[k] = float((head.max(axis=0) ** 2).mean())

    if 0 in want:
        record(0, n)

    for t in range(n - 1):
        live = n - t
        if strategy == "uniform":
            i = gen.integers(0, live, size=trials)
            j = gen.integers(0, live - 1, size=trials)
            at_i, at_j = i * trials + rows, (j + (j >= i)) * trials + rows
        else:
            order = size[: live * trials : trials]  # identical across trials by schedule
            if strategy == "largest-first":
                order = -order
            pick = np.argpartition(order, 1)[:2] if live > 2 else (0, 1)
            at_i, at_j = slot(int(pick[0])), slot(int(pick[1]))

        di, dj = d[at_i], d[at_j]
        ci, cj = color[at_i], color[at_j]
        mono_i, mono_j = di == size[at_i], dj == size[at_j]
        equal = ci == cj

        # Inferred equalities, by merge shape: two two-color components link
        # their far parts, once (color 1 - c_i) on an equal answer and once
        # per color on an unequal one; a single-color component joining a
        # two-color one on an unequal answer links to its far part, in its
        # own color.  Two single-color components infer nothing.
        both = ~mono_i & ~mono_j
        joined = (mono_i ^ mono_j) & ~equal
        inferred += np.where(equal, 1, 2) * both + joined
        inferred_major += both & np.where(equal, 1 - ci == major, major >= 0)
        inferred_major += joined & (np.where(mono_i, ci, cj) == major)

        merged_d = np.where(equal, di + dj, np.abs(di - dj))
        color[at_i] = np.where(equal | (di >= dj), ci, 1 - ci)
        d[at_i] = merged_d
        size[at_i] += size[at_j]

        # swap-remove slot j; the merged slot i survives even when i == live-1
        # because the copy reads it first
        last = slot(live - 1)
        d[at_j] = d[last]
        color[at_j] = color[last]
        size[at_j] = size[last]

        k = t + 1
        if k in want:
            record(k, live - 1)

    terminal = (d[:trials] * d[:trials]).astype(np.float64)
    grid = [k for k in grid if k in nk_mean]
    return BalanceStats(
        n=n,
        strategy=strategy,
        trials=trials,
        terminal_balance_mean=float(terminal.mean()),
        terminal_balance_var=float(terminal.var(ddof=1)) if trials > 1 else 0.0,
        inferred_edges_mean=float(inferred.mean()),
        inferred_majority_edges_mean=float(inferred_major.mean()),
        majority_rate=float((major >= 0).mean()),
        checkpoints=tuple(grid),
        nonzero_count_mean=tuple(nk_mean[k] for k in grid),
        max_balance_mean=tuple(mk_mean[k] for k in grid),
    )


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the library erf (absolute error ~1e-16)."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def predict_bound(k: float, n: float) -> float:
    """Upper bound on the chance that a larger part holds the majority color.

    Phi(sqrt((3k/2) / (n - 3k/2))) after k merge steps on n balls; the
    argument blows up as k approaches 2n/3, so the bound saturates at 1
    there and beyond.  Nondecreasing in k.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if k < 0:
        raise ValueError("k must be nonnegative")
    t = 1.5 * k
    if t >= n:
        return 1.0
    return normal_cdf(math.sqrt(t / (n - t)))


def lower_bound_constant() -> float:
    """The cost constant 1 + integral of the truncated edge-cost bound.

    The integral is int_0^{2/3} (1/6)(1 - Phi(sqrt((3x/2)/(1 - 3x/2)))) dx.
    Substituting u = 3x/2 and t = sqrt(u/(1 - u)) and integrating by parts
    turns it into (1/9)(1/2 - int_0^inf phi(t)/(1 + t^2) dt), and that last
    integral is sqrt(pi e/2)(1 - Phi(1)).  The constant is about 1.0191289.
    """
    return 1.0 + (0.5 - math.sqrt(math.pi * math.e / 2.0) * (1.0 - normal_cdf(1.0))) / 9.0


def beta_interval() -> tuple[float, float]:
    """Admissible range for the heavy-branch threshold.

    The low end is 1 - 1/sqrt(3); the high end is the root in (0, 1) of
    p^3 - 19 p^2 - 8 p + 8, whose other two roots lie near -0.87 and 19.4.
    """
    beta1 = 1.0 - 1.0 / math.sqrt(3.0)
    roots = np.roots([1.0, -19.0, -8.0, 8.0]).real
    return beta1, float(roots[(0.0 < roots) & (roots < 1.0)][0])
