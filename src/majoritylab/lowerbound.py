"""Adversary-world laboratory for the cost of majority on binary inputs.

An all-knowing observer watches a comparison algorithm run on a uniformly
random two-coloring.  Its knowledge is a set of components, each split into
two internally-equal parts of opposite colors; comparing balls from two
components merges them, same-part or crossed with equal probability.  The
squared part-size difference ("balance") summed over components is a
martingale, and the inferred (never directly compared) equalities created by
merges are what a verifying algorithm later has to pay for.

This module has a faithful single-step operation for small worlds, a
vectorized trial engine for statistics at scale, the closed-form probability
bound for a part holding the overall majority color, the quadrature that
evaluates the resulting cost constant (about 1.0191289), and the interval of
admissible heavy-branch thresholds.

The two-sided inference here is deliberately separate from the certificate
checker: with three or more colors an unequal comparison implies nothing
about third parties, so the checker must not share this code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rng import RandomStream

__all__ = [
    "ComponentState",
    "AdversaryWorld",
    "BalanceStats",
    "merge_step",
    "simulate_balance",
    "predict_bound",
    "lower_bound_constant",
    "beta_interval",
    "normal_cdf",
    "ConvergenceError",
    "STRATEGIES",
]

STRATEGIES = ("uniform", "smallest-first", "largest-first")


class ConvergenceError(RuntimeError):
    """Quadrature failed to reach the requested tolerance."""


@dataclass
class ComponentState:
    """One knowledge component: part sizes plus the true color of part A.

    color_a is simulation bookkeeping (the observer knows the actual
    coloring); it is meaningful only when a > 0.
    """

    a: int
    b: int = 0
    color_a: int = 0

    def __post_init__(self) -> None:
        if self.a + self.b < 1:
            raise ValueError("component must hold at least one ball")
        if self.a < 0 or self.b < 0:
            raise ValueError("part sizes must be nonnegative")

    @property
    def size(self) -> int:
        return self.a + self.b

    @property
    def delta(self) -> int:
        return abs(self.a - self.b)

    @property
    def balance(self) -> int:
        return (self.a - self.b) ** 2

    @property
    def monochromatic(self) -> bool:
        return self.a == 0 or self.b == 0

    def part_color(self, side: str) -> int:
        return self.color_a if side == "a" else 1 - self.color_a

    def larger_side(self) -> str:
        return "a" if self.a >= self.b else "b"


@dataclass
class AdversaryWorld:
    """Mutable world state for the scalar merge process."""

    components: list[ComponentState]
    steps: int = 0
    inferred_edges: int = 0
    inferred_by_color: list[int] = field(default_factory=lambda: [0, 0])
    merges_mono_mono: int = 0
    merges_mixed: int = 0
    merges_di_di: int = 0

    @classmethod
    def fresh(cls, n: int, rng: RandomStream) -> "AdversaryWorld":
        """n singleton components with independent uniform colors."""
        if n < 1:
            raise ValueError("need at least one ball")
        return cls([ComponentState(1, 0, int(rng.bernoulli(0.5))) for _ in range(n)])

    @property
    def n(self) -> int:
        return sum(c.size for c in self.components)

    @property
    def total_balance(self) -> int:
        return sum(c.balance for c in self.components)

    @property
    def nonzero_balance_count(self) -> int:
        return sum(1 for c in self.components if c.balance != 0)

    @property
    def max_balance(self) -> int:
        return max(c.balance for c in self.components)

    def color_counts(self) -> tuple[int, int]:
        zeros = sum(c.a if c.color_a == 0 else c.b for c in self.components)
        return zeros, self.n - zeros

    def majority_color(self) -> int | None:
        zeros, ones = self.color_counts()
        if zeros > (zeros + ones) // 2:
            return 0
        if ones > (zeros + ones) // 2:
            return 1
        return None

    def inferred_majority_edges(self) -> int:
        """Inferred-equality edges of the strict majority color (0 on a tie)."""
        maj = self.majority_color()
        return 0 if maj is None else self.inferred_by_color[maj]


def merge_step(
    world: AdversaryWorld,
    i: int,
    j: int,
    rng: RandomStream | None = None,
    sides: tuple[str, str] | None = None,
) -> AdversaryWorld:
    """Compare a ball of component i against one of component j and merge.

    ``sides`` names the parts the compared balls come from ("a" or "b" for
    each); by default the larger part of each component, which is where a
    majority-hunting algorithm picks its representatives.  Colors were fixed
    when the world was created, so each cross-component comparison is a
    fresh fair coin and the merged balance lands on (delta_i + delta_j)^2 or
    (delta_i - delta_j)^2 with equal probability.  i == j is a no-op: the
    outcome of an intra-component comparison is already determined.

    The inferred-edge tallies follow the three merge shapes: two
    single-color components infer nothing; a two-color component absorbing a
    single-color one on an unequal answer links the newcomer to its far part
    (one inferred edge); two two-color components always link their far
    sides, one inferred edge on an equal answer and one per color on an
    unequal answer.  Mutates ``world`` and returns it.
    """
    if i == j:
        return world
    ci, cj = world.components[i], world.components[j]
    if sides is None:
        si, sj = ci.larger_side(), cj.larger_side()
    else:
        si, sj = sides
        if ci.size > 0 and (ci.a if si == "a" else ci.b) == 0:
            raise ValueError("compared side of component i is empty")
        if cj.size > 0 and (cj.a if sj == "a" else cj.b) == 0:
            raise ValueError("compared side of component j is empty")
    color_i, color_j = ci.part_color(si), cj.part_color(sj)
    equal = color_i == color_j

    mono_i, mono_j = ci.monochromatic, cj.monochromatic
    if mono_i and mono_j:
        world.merges_mono_mono += 1
    elif mono_i != mono_j:
        world.merges_mixed += 1
        if not equal:
            # The single-color part is inferred equal to the far part of the
            # two-color component; the new edge carries the newcomer's color.
            mono_color = color_i if mono_i else color_j
            world.inferred_edges += 1
            world.inferred_by_color[mono_color] += 1
    else:
        world.merges_di_di += 1
        if equal:
            world.inferred_edges += 1
            world.inferred_by_color[1 - color_i] += 1
        else:
            world.inferred_edges += 2
            world.inferred_by_color[0] += 1
            world.inferred_by_color[1] += 1

    si_size = ci.a if si == "a" else ci.b
    opp_i = ci.size - si_size
    sj_size = cj.a if sj == "a" else cj.b
    opp_j = cj.size - sj_size
    if equal:
        merged = ComponentState(si_size + sj_size, opp_i + opp_j, color_i)
    else:
        merged = ComponentState(si_size + opp_j, opp_i + sj_size, color_i)

    k, g = (i, j) if i < j else (j, i)
    world.components[k] = merged
    world.components[g] = world.components[-1]
    world.components.pop()
    world.steps += 1
    return world


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
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; pick one of {STRATEGIES}")
    if n < 1 or trials < 1:
        raise ValueError("n and trials must be positive")
    if rng is None:
        rng = RandomStream(0, "balance")
    gen = rng.numpy_generator()

    a = np.ones((trials, n), dtype=np.int64)
    b = np.zeros((trials, n), dtype=np.int64)
    col = gen.integers(0, 2, size=(trials, n), dtype=np.int8)
    inferred = np.zeros(trials, dtype=np.int64)
    by_color = np.zeros((trials, 2), dtype=np.int64)
    rows = np.arange(trials)

    grid = _checkpoint_grid(n)
    want = set(grid)
    nk_mean: dict[int, float] = {}
    mk_mean: dict[int, float] = {}

    def record(k: int, live: int) -> None:
        d = a[:, :live] - b[:, :live]
        nk_mean[k] = float((d != 0).sum(axis=1).mean())
        mk_mean[k] = float((d * d).max(axis=1).mean())

    if 0 in want:
        record(0, n)

    sizes = np.full(n, 1, dtype=np.int64)  # identical across trials by schedule
    for t in range(n - 1):
        live = n - t
        if strategy == "uniform":
            i = gen.integers(0, live, size=trials)
            j = gen.integers(0, live - 1, size=trials)
            j = j + (j >= i)
        else:
            order = sizes[:live]
            if strategy == "smallest-first":
                pick = np.argpartition(order, 1)[:2] if live > 2 else np.array([0, 1])
            else:
                pick = np.argpartition(-order, 1)[:2] if live > 2 else np.array([0, 1])
            i = np.full(trials, int(pick[0]))
            j = np.full(trials, int(pick[1]))

        ai, bi = a[rows, i], b[rows, i]
        aj, bj = a[rows, j], b[rows, j]
        ci, cj = col[rows, i], col[rows, j]
        side_i_a = ai >= bi
        side_j_a = aj >= bj
        col_si = np.where(side_i_a, ci, 1 - ci)
        col_sj = np.where(side_j_a, cj, 1 - cj)
        equal = col_si == col_sj

        mono_i = (ai == 0) | (bi == 0)
        mono_j = (aj == 0) | (bj == 0)
        di_di = ~mono_i & ~mono_j
        mixed = mono_i ^ mono_j
        inferred += (di_di & equal) + 2 * (di_di & ~equal) + (mixed & ~equal)
        edge_a = di_di & equal
        by_color[rows, 1 - col_si] += edge_a
        both = di_di & ~equal
        by_color[:, 0] += both
        by_color[:, 1] += both
        mono_color = np.where(mono_i, col_si, col_sj)
        edge_c = mixed & ~equal
        by_color[rows, mono_color] += edge_c

        si_sz = np.where(side_i_a, ai, bi)
        opp_i = np.where(side_i_a, bi, ai)
        sj_sz = np.where(side_j_a, aj, bj)
        opp_j = np.where(side_j_a, bj, aj)
        a[rows, i] = si_sz + np.where(equal, sj_sz, opp_j)
        b[rows, i] = opp_i + np.where(equal, opp_j, sj_sz)
        col[rows, i] = col_si

        # swap-remove slot j; the merged slot i survives even when i == live-1
        # because the copy reads it first
        a[rows, j] = a[:, live - 1]
        b[rows, j] = b[:, live - 1]
        col[rows, j] = col[:, live - 1]

        if strategy != "uniform":
            # mirror the slot shuffle on the (trial-independent) size table,
            # in the same write order as the arrays above
            merged_size = int(si_sz[0] + opp_i[0] + sj_sz[0] + opp_j[0])
            sizes[int(pick[0])] = merged_size
            sizes[int(pick[1])] = sizes[live - 1]

        k = t + 1
        if k in want:
            record(k, live - 1)

    deltas = a[:, 0] - b[:, 0]
    terminal = (deltas * deltas).astype(np.float64)
    zeros = np.where(col[:, 0] == 0, a[:, 0], b[:, 0])
    ones = n - zeros
    maj0 = zeros > n // 2
    maj1 = ones > n // 2
    nv_major = np.where(maj0, by_color[:, 0], np.where(maj1, by_color[:, 1], 0))

    grid = [k for k in grid if k in nk_mean]
    return BalanceStats(
        n=n,
        strategy=strategy,
        trials=trials,
        terminal_balance_mean=float(terminal.mean()),
        terminal_balance_var=float(terminal.var(ddof=1)) if trials > 1 else 0.0,
        inferred_edges_mean=float(inferred.mean()),
        inferred_majority_edges_mean=float(nv_major.mean()),
        majority_rate=float((maj0 | maj1).mean()),
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


def _cost_integrand(x: float) -> float:
    # (1/6) * (1 - Phi(...)) with the x = 2/3 endpoint taken as its limit 0.
    if x >= 2.0 / 3.0:
        return 0.0
    return (1.0 - normal_cdf(math.sqrt(1.5 * x / (1.0 - 1.5 * x)))) / 6.0


def _adaptive_simpson(f, a, b, fa, fm, fb, whole, eps, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if abs(left + right - whole) <= 15.0 * eps:
        return left + right + (left + right - whole) / 15.0
    if depth <= 0:
        raise ConvergenceError("adaptive quadrature did not converge")
    return _adaptive_simpson(
        f, a, m, fa, flm, fm, left, eps / 2.0, depth - 1
    ) + _adaptive_simpson(f, m, b, fm, frm, fb, right, eps / 2.0, depth - 1)


def integrate(f, a: float, b: float, tolerance: float, max_depth: int = 60) -> float:
    """Adaptive Simpson quadrature to the given absolute tolerance."""
    if not 0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive_simpson(f, a, b, fa, fm, fb, whole, tolerance, max_depth)


def lower_bound_constant(tolerance: float = 1e-8) -> float:
    """The cost constant 1 + integral of the truncated edge-cost bound.

    Evaluates 1 + int_0^{2/3} (1/6)(1 - Phi(sqrt((3x/2)/(1 - 3x/2)))) dx,
    which is approximately 1.0191289.
    """
    if not 0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    return 1.0 + integrate(_cost_integrand, 0.0, 2.0 / 3.0, tolerance / 2.0)


def beta_interval(precision: float = 1e-9) -> tuple[float, float]:
    """Admissible range for the heavy-branch threshold.

    The low end is 1 - 1/sqrt(3); the high end is the unique root of
    p^3 - 19 p^2 - 8 p + 8 in (0, 1), found by bisection to ``precision``.
    """
    beta1 = 1.0 - 1.0 / math.sqrt(3.0)

    def poly(p: float) -> float:
        return ((p - 19.0) * p - 8.0) * p + 8.0

    lo, hi = 0.0, 1.0
    while hi - lo > precision:
        mid = 0.5 * (lo + hi)
        if poly(lo) * poly(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return beta1, 0.5 * (lo + hi)
