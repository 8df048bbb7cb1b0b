"""The seeded stream: determinism, derivation, and draw primitives."""

import numpy as np
import pytest

from majoritylab import RandomStream


def test_same_identity_same_sequence():
    a = RandomStream(42, "x", 3)
    b = RandomStream(42, "x", 3)
    assert [a.next_u32() for _ in range(10)] == [b.next_u32() for _ in range(10)]


def test_different_identities_diverge():
    base = [RandomStream(42, "x", 3).next_u32() for _ in range(8)]
    for other in (RandomStream(43, "x", 3), RandomStream(42, "y", 3), RandomStream(42, "x", 4)):
        assert [other.next_u32() for _ in range(8)] != base


def test_derive_matches_fresh_construction():
    parent = RandomStream(7, "parent")
    child = parent.derive("sub", 5)
    fresh = RandomStream(7, "parent/sub", 5)
    assert [child.next_u32() for _ in range(6)] == [fresh.next_u32() for _ in range(6)]


def test_random_unit_interval():
    rng = RandomStream(1)
    draws = [rng.random() for _ in range(1000)]
    assert all(0.0 <= d < 1.0 for d in draws)
    assert 0.4 < sum(draws) / len(draws) < 0.6


def test_randrange_bounds_and_coverage():
    rng = RandomStream(2)
    draws = [rng.randrange(7) for _ in range(2000)]
    assert set(draws) == set(range(7))
    with pytest.raises(ValueError):
        rng.randrange(0)


def test_randint_inclusive():
    rng = RandomStream(3)
    draws = {rng.randint(2, 5) for _ in range(500)}
    assert draws == {2, 3, 4, 5}


def test_bernoulli_edge_probabilities():
    rng = RandomStream(4)
    assert not any(rng.bernoulli(0.0) for _ in range(100))
    assert all(rng.bernoulli(1.0) for _ in range(100))


def test_shuffle_is_permutation():
    rng = RandomStream(5)
    items = list(range(50))
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items  # astronomically unlikely to be identity


def test_numpy_generator_is_reproducible():
    a = RandomStream(9, "bulk").numpy_generator()
    b = RandomStream(9, "bulk").numpy_generator()
    assert np.array_equal(a.permutation(32), b.permutation(32))


def test_numpy_child_consumes_state():
    rng = RandomStream(9, "bulk")
    first = rng.numpy_child().permutation(64)
    second = rng.numpy_child().permutation(64)
    assert not np.array_equal(first, second)
    # but the whole construction replays identically from the same seed
    rng2 = RandomStream(9, "bulk")
    assert np.array_equal(rng2.numpy_child().permutation(64), first)
    assert np.array_equal(rng2.numpy_child().permutation(64), second)
