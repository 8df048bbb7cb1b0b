"""The adversary-world lab: merges, the balance process, and the constants."""

import math

import numpy as np
import pytest

from majoritylab import (
    STRATEGIES,
    RandomStream,
    beta_interval,
    lower_bound_constant,
    normal_cdf,
    predict_bound,
    simulate_balance,
)
from majoritylab import randomized

from reference_merge import AdversaryWorld, ComponentState, merge_step


def test_component_state_validation():
    with pytest.raises(ValueError):
        ComponentState(0, 0)
    with pytest.raises(ValueError):
        ComponentState(-1, 2)
    c = ComponentState(3, 1, color_a=1)
    assert c.size == 4 and c.delta == 2 and c.balance == 4
    assert not c.monochromatic
    assert c.part_color("a") == 1 and c.part_color("b") == 0
    assert c.larger_side() == "a"


def world_of(*components):
    return AdversaryWorld(components=[ComponentState(*c) for c in components])


def test_merge_mono_mono_infers_nothing():
    # Same color: both balls land in one part, no new knowledge beyond the
    # compared pair itself.
    w = world_of((1, 0, 1), (1, 0, 1))
    merge_step(w, 0, 1)
    assert len(w.components) == 1
    assert w.components[0].monochromatic and w.components[0].size == 2
    assert w.inferred_edges == 0 and w.merges_mono_mono == 1

    # Different colors: a two-part component, still no inferred edge.
    w = world_of((1, 0, 1), (1, 0, 0))
    merge_step(w, 0, 1)
    assert w.components[0].balance == 0
    assert w.inferred_edges == 0 and w.merges_mono_mono == 1


def test_merge_mixed_unequal_infers_one_edge():
    # A mono component joining the far side of a two-part component links it
    # to every ball there except the one it was compared with... which is
    # one inferred edge for the pre-existing far ball.
    w = world_of((2, 1, 1), (1, 0, 1))  # compare side a (color 1) vs mono color 1
    merge_step(w, 0, 1, sides=("a", "a"))
    assert w.merges_mixed == 1 and w.inferred_edges == 0  # equal answer

    w = world_of((2, 1, 1), (1, 0, 0))  # mono color 0 against side color 1
    merge_step(w, 0, 1, sides=("a", "a"))
    assert w.merges_mixed == 1
    assert w.inferred_edges == 1
    assert w.inferred_by_color == [1, 0]  # the edge carries the newcomer's color


def test_merge_di_di_edge_counts():
    # Equal answer: far sides fuse, one inferred edge of the opposite color.
    w = world_of((2, 1, 1), (1, 1, 1))
    merge_step(w, 0, 1, sides=("a", "a"))
    assert w.merges_di_di == 1
    assert w.inferred_edges == 1 and w.inferred_by_color == [1, 0]

    # Unequal answer: both cross fusions happen, one edge per color.
    w = world_of((2, 1, 1), (1, 1, 0))
    merge_step(w, 0, 1, sides=("a", "a"))
    assert w.inferred_edges == 2 and w.inferred_by_color == [1, 1]


def test_merge_balance_identity():
    # The merged squared difference is (d_i + d_j)^2 on one outcome and
    # (d_i - d_j)^2 on the other, depending only on color agreement.
    w = world_of((3, 1, 1), (2, 0, 1))  # deltas 2 and 2, equal colors
    merge_step(w, 0, 1, sides=("a", "a"))
    assert w.components[0].balance == (2 + 2) ** 2

    w = world_of((3, 1, 1), (2, 0, 0))  # deltas 2 and 2, opposite colors
    merge_step(w, 0, 1, sides=("a", "a"))
    assert w.components[0].balance == (2 - 2) ** 2


def test_merge_self_is_noop():
    w = world_of((2, 1, 1), (1, 0, 0))
    merge_step(w, 0, 0)
    assert w.steps == 0 and len(w.components) == 2


def test_merge_rejects_empty_side():
    w = world_of((2, 0, 1), (1, 0, 0))
    with pytest.raises(ValueError):
        merge_step(w, 0, 1, sides=("b", "a"))


def test_simulate_balance_shapes_and_martingale():
    stats = simulate_balance(400, "uniform", trials=60, rng=RandomStream(3, "sb"))
    assert stats.n == 400 and stats.trials == 60
    assert len(stats.checkpoints) == len(stats.nonzero_count_mean)
    assert stats.checkpoints[0] == 0 and stats.checkpoints[-1] == 399
    assert stats.nonzero_count_mean[0] == 400.0
    # terminal squared-difference mean sits near n (martingale, E = n)
    assert 0.7 * 400 < stats.terminal_balance_mean < 1.3 * 400
    # the count of unbalanced components can only shrink
    for earlier, later in zip(stats.nonzero_count_mean, stats.nonzero_count_mean[1:]):
        assert later <= earlier + 1e-9


def replay_through_merge_step(n, strategy, rng):
    """simulate_balance(n, strategy, trials=1, rng) one scalar merge_step at a time.

    The colours and the uniform picks come from the same generator, in the
    same order; the size-ordered picks from the same argpartition.
    """
    gen = rng.numpy_generator()
    colors = gen.integers(0, 2, size=(1, n), dtype=np.int8)[0]
    world = AdversaryWorld([ComponentState(1, 0, int(c)) for c in colors])
    for live in range(n, 1, -1):
        if strategy == "uniform":
            i = int(gen.integers(0, live, size=1)[0])
            j = int(gen.integers(0, live - 1, size=1)[0])
            j += j >= i
        elif live == 2:
            i, j = 0, 1
        else:
            sizes = np.array([c.size for c in world.components], dtype=np.int64)
            order = sizes if strategy == "smallest-first" else -sizes
            i, j = np.argpartition(order, 1)[:2].tolist()
        merge_step(world, i, j)
        # merge_step leaves the merged component in the lower slot and moves
        # the last one into the higher; simulate_balance leaves it in slot i
        # and moves the last one into slot j.
        if j < i < live - 1:
            world.components[i], world.components[j] = world.components[j], world.components[i]
    return world


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_simulate_balance_replays_through_merge_step(strategy):
    # One merge rule: the vectorised engine and the scalar step agree on
    # every trajectory they share.
    for n in range(1, 40):
        for seed in range(5):
            stats = simulate_balance(n, strategy, trials=1, rng=RandomStream(seed, "replay", n))
            world = replay_through_merge_step(n, strategy, RandomStream(seed, "replay", n))
            (last,) = world.components
            assert stats.terminal_balance_mean == last.balance
            assert stats.inferred_edges_mean == world.inferred_edges
            assert stats.inferred_majority_edges_mean == world.inferred_majority_edges()


def test_simulate_balance_strategies_agree_on_expectation():
    for strategy in ("smallest-first", "largest-first"):
        stats = simulate_balance(200, strategy, trials=80, rng=RandomStream(4, strategy))
        assert 0.6 * 200 < stats.terminal_balance_mean < 1.4 * 200


def test_simulate_balance_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        simulate_balance(10, "sideways", trials=2, rng=RandomStream(5))
    for n, trials in ((2.5, 2), (10, 2.0), (True, 2), (10, True), (0, 2), (10, 0)):
        with pytest.raises(ValueError):
            simulate_balance(n, "uniform", trials=trials, rng=RandomStream(5))


def test_normal_cdf_reference_points():
    assert normal_cdf(0.0) == pytest.approx(0.5)
    assert normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-12)
    assert normal_cdf(-1.0) == pytest.approx(1 - normal_cdf(1.0), abs=1e-12)


def test_predict_bound_endpoints_and_monotonicity():
    assert predict_bound(0, 100) == pytest.approx(0.5)
    assert predict_bound(67, 100) == 1.0  # at and past 2n/3 the bound saturates
    assert predict_bound(1000, 100) == 1.0
    values = [predict_bound(k, 100) for k in range(0, 70, 5)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo
    with pytest.raises(ValueError):
        predict_bound(-1, 100)
    with pytest.raises(ValueError):
        predict_bound(1, 0)


def test_lower_bound_constant_value():
    # The paper's integrand, integrated here by Gauss-Legendre after x = s^2,
    # which smooths the square root at 0; 1 - Phi(t) is erfc(t / sqrt 2) / 2.
    def integrand(x):
        return math.erfc(math.sqrt(1.5 * x / (1.0 - 1.5 * x)) / math.sqrt(2.0)) / 12.0

    nodes, weights = np.polynomial.legendre.leggauss(100)
    half = math.sqrt(2.0 / 3.0) / 2.0
    s = half * (nodes + 1.0)
    integral = half * sum(w * integrand(x * x) * 2.0 * x for w, x in zip(weights, s))
    assert abs(lower_bound_constant() - (1.0 + integral)) <= 1e-9
    assert lower_bound_constant() == pytest.approx(1.0191289143, abs=1e-10)


def test_beta_interval_values():
    lo, hi = beta_interval()
    assert lo == 1.0 - 1.0 / math.sqrt(3.0)
    assert randomized._BETA == lo
    # the upper end is the root of p^3 - 19 p^2 - 8 p + 8 in (0, 1)
    assert 0.0 < hi < 1.0
    assert abs(((hi - 19.0) * hi - 8.0) * hi + 8.0) <= 1e-13
    assert hi == pytest.approx(0.47579949323375736, abs=1e-15)
