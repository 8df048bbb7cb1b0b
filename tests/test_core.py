"""Instances, the counting oracle, and the distribution grammar."""

import hashlib
import pickle
from collections import Counter

import numpy as np
import pytest

from majoritylab import (
    ComparisonRecord,
    CountingOracle,
    Instance,
    Params,
    RandomStream,
    generate,
    majority,
    parse_distribution,
    read_instance,
    relabel,
    verify_run,
    write_instance,
)


def test_instance_basics():
    inst = Instance((5, 5, 7))
    assert inst.n == 3
    assert inst.color_of(1) == 5
    assert inst.color_of(3) == 7


@pytest.mark.parametrize(
    "colors", [(3, 0, 3), [3, 0, 3], np.array([3, 0, 3]), np.array([3, 0, 3], dtype=np.uint8)]
)
def test_instance_is_one_read_only_int64_array(colors):
    inst = Instance(colors)
    assert inst == Instance((3, 0, 3)) and hash(inst) == hash(Instance((3, 0, 3)))
    assert inst != Instance((3, 0, 4)) and inst != Instance((3, 0))
    assert inst.color_array.dtype == np.int64 and inst.color_array.tolist() == [3, 0, 3]
    assert inst.colors == (3, 0, 3) and inst.n == 3
    with pytest.raises(ValueError):
        inst.color_array[0] = 1
    with pytest.raises(AttributeError):
        inst.color_array = np.zeros(3, dtype=np.int64)
    copied = pickle.loads(pickle.dumps(inst))
    assert copied == inst and not copied.color_array.flags.writeable
    if isinstance(colors, np.ndarray):
        colors[0] = 9  # a writeable array is copied, not adopted
        assert inst.color_of(1) == 3 and colors.flags.writeable


def test_instance_of_no_balls_and_bad_ids():
    empty = Instance(())
    assert empty.n == 0 and empty.colors == () and empty == Instance([])
    for bad in ((1, -1), np.array([0, -5]), (2**70, -(2**70))):
        with pytest.raises(ValueError, match="unsigned"):
            Instance(bad)
    for nested in (
        np.ones((2, 2), dtype=np.int64),
        np.array([[2**63, 1]], dtype=np.uint64),
        np.array([[2**70, 1]], dtype=object),
    ):
        with pytest.raises(ValueError, match="one-dimensional"):
            Instance(nested)


@pytest.mark.parametrize(
    "bad",
    [[1.5, 1.2], np.array([1.5, 1.2]), ["1", "2"], np.array(["1", "2"]), [True, False],
     np.array([1, 2.5], dtype=object)],
    ids=["floats", "float-array", "strings", "string-array", "bools", "object-float"],
)
def test_instance_rejects_non_integer_ids(bad):
    # Converted to int64, 1.5 and 1.2 would both read as colour 1.
    with pytest.raises(ValueError, match="integers"):
        Instance(bad)


def test_instance_keeps_object_and_huge_integer_ids():
    assert Instance([2**63, 1, 2**63]).colors == (2**63, 1, 2**63)
    objects = Instance(np.array([2**70, 3, 2**70], dtype=object))
    assert objects.colors == (2**70, 3, 2**70)
    renamed = relabel(objects, RandomStream(9))
    assert sorted(Counter(renamed.colors).values()) == [1, 2]


def test_uint64_ids_past_int64_are_kept_as_ranks():
    # Cast to int64, 2**63 would wrap to a negative id.
    wide = Instance(np.array([2**63, 1, 2**64 - 1, 2**63], dtype=np.uint64))
    assert wide == Instance([2**63, 1, 2**64 - 1, 2**63])
    assert hash(wide) == hash(Instance([2**63, 1, 2**64 - 1, 2**63]))
    assert [wide.color_of(b) for b in range(1, 5)] == [2**63, 1, 2**64 - 1, 2**63]
    assert wide.color_array.tolist() == [1, 0, 2, 1]
    assert Instance(np.array([2**63 - 1, 0], dtype=np.uint64)).color_array.tolist() == [
        2**63 - 1,
        0,
    ]


def test_oracle_counts_every_call():
    oracle = CountingOracle(Instance((1, 1, 2)))
    assert oracle.cmp(1, 2) is True
    assert oracle.cmp(1, 3) is False
    assert oracle.cmp(1, 3) is False  # repeats are charged again
    assert oracle.cmp(2, 2) is True  # self-comparison costs too
    assert oracle.comparisons == 4


def test_oracle_rejects_out_of_range():
    oracle = CountingOracle(Instance((1, 2)))
    with pytest.raises(IndexError):
        oracle.cmp(0, 1)
    with pytest.raises(IndexError):
        oracle.cmp(1, 3)


@pytest.mark.parametrize(
    "x, y",
    [(1.0, 3), (True, 3), (1, 3.0), (3, False), (np.float64(1), 3), ("1", 3), (None, 3)],
    ids=["float", "bool", "float-right", "bool-right", "numpy-float", "string", "none"],
)
def test_cmp_rejects_balls_that_are_not_integers_before_billing(x, y):
    # As ball 1, True would bill and answer a comparison of ball 1.
    oracle = CountingOracle(Instance((1, 2, 1)), record_transcript=True)
    with pytest.raises(ValueError, match="integer"):
        oracle.cmp(x, y)
    assert oracle.comparisons == 0
    assert len(oracle.transcript) == 0


def test_cmp_takes_numpy_integer_balls_as_ints():
    oracle = CountingOracle(Instance((1, 2, 1)), record_transcript=True)
    assert oracle.cmp(np.int64(1), np.uint64(3)) is True
    assert oracle.cmp(np.int32(2), 1) is False
    with pytest.raises(IndexError):
        oracle.cmp(np.uint64(2**64 - 1), 1)
    assert oracle.comparisons == 2
    assert list(oracle.transcript) == [(1, 3, True), (2, 1, False)]


def test_oracle_transcript_recording():
    oracle = CountingOracle(Instance((1, 2, 1)), record_transcript=True)
    oracle.cmp(1, 2)
    oracle.cmp(1, 3)
    assert [(r.left, r.right, r.equal) for r in oracle.transcript] == [
        (1, 2, False),
        (1, 3, True),
    ]
    bare = CountingOracle(Instance((1, 2)))
    assert not bare.recording
    with pytest.raises(ValueError):
        bare.transcript


def test_cmp_many_bills_every_pair_and_nothing_for_an_empty_batch():
    oracle = CountingOracle(Instance((1, 1, 2, 2)), record_transcript=True)
    assert oracle.cmp_many(1, np.array([2, 3, 4, 1])).tolist() == [True, False, False, True]
    assert oracle.comparisons == 4
    assert oracle.cmp_many(np.array([3, 1]), np.array([4, 3])).tolist() == [True, False]
    assert oracle.comparisons == 6
    empty = np.array([], dtype=np.int64)
    assert oracle.cmp_many(1, empty).size == 0
    assert oracle.cmp_many(empty, empty).size == 0
    assert oracle.comparisons == 6
    assert len(oracle.transcript) == 6


@pytest.mark.parametrize(
    "xs,ys",
    [
        (1, [2, 5]),
        (1, [0, 2]),
        (1, [3, -1]),
        (0, [1, 2]),
        (5, [1, 2]),
        ([1, 5], [2, 3]),
        ([0, 2], [3, 4]),
        ([1, 2], [3, 9]),
    ],
)
def test_cmp_many_rejects_a_bad_index_before_billing_or_recording(xs, ys):
    oracle = CountingOracle(Instance((1, 2, 1, 2)), record_transcript=True)
    oracle.cmp(1, 2)
    left = np.array(xs) if isinstance(xs, list) else xs
    with pytest.raises(IndexError):
        oracle.cmp_many(left, np.array(ys))
    assert oracle.comparisons == 1
    assert list(oracle.transcript) == [(1, 2, False)]


def test_cmp_many_rejects_mismatched_batches():
    oracle = CountingOracle(Instance((1, 2, 1)))
    with pytest.raises(ValueError):
        oracle.cmp_many(np.array([1, 2]), np.array([3]))
    assert oracle.comparisons == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda o: o.cmp_many(np.array([1.7]), np.array([2.2])),
        lambda o: o.cmp_many(1, np.array([2.2])),
        lambda o: o.cmp_many(1.5, np.array([2])),
        lambda o: o.cmp_many(True, np.array([2])),
        lambda o: o.cmp_many(np.array([True]), np.array([False])),
        lambda o: o.cmp_many([1], [2.5]),
        lambda o: o.scan_until(None, np.array([1.5]), np.array([2.5]), 1),
        lambda o: o.scan_until(1.5, np.array([2]), np.array([3]), 1),
        lambda o: o.scan_until(None, np.array([True]), np.array([False]), 1),
        lambda o: o.scan_until(1, [2], [3.0], 1),
        lambda o: o.vote(np.array([1.9, 2.1, 3.0])),
        lambda o: o.vote(np.array([True, False, True])),
        lambda o: o.vote([1, 2.5]),
    ],
    ids=[
        "cmp_many-floats",
        "cmp_many-one-ball-float-batch",
        "cmp_many-float-ball",
        "cmp_many-bool-ball",
        "cmp_many-bools",
        "cmp_many-float-list",
        "scan_until-floats",
        "scan_until-float-ball",
        "scan_until-bools",
        "scan_until-float-list",
        "vote-floats",
        "vote-bools",
        "vote-float-list",
    ],
)
def test_array_primitives_reject_balls_that_are_not_integers(call):
    # Truncated, balls 1.7 and 2.2 would read as 1 and 2 and bill a
    # comparison nobody asked for; bools would read as balls 0 and 1.
    oracle = CountingOracle(Instance((1, 2, 1)), record_transcript=True)
    with pytest.raises(ValueError, match="integer"):
        call(oracle)
    assert oracle.comparisons == 0
    assert len(oracle.transcript) == 0


def test_a_uint64_ball_past_int64_is_named_by_its_own_value():
    big = np.array([2**64 - 1], dtype=np.uint64)
    oracle = CountingOracle(Instance((1, 2, 1)), record_transcript=True)
    for call in (
        lambda: oracle.cmp_many(big, np.array([1])),
        lambda: oracle.cmp_many(1, big),
        lambda: oracle.cmp_many(big[0], np.array([1])),
        lambda: oracle.scan_until(None, np.array([1]), big, 1),
        lambda: oracle.scan_until(big[0], np.array([1]), np.array([2]), 1),
        lambda: oracle.vote(big),
        lambda: oracle.cmp_many([1], [2**64 - 1]),
    ):
        with pytest.raises(IndexError, match=f"got {2**64 - 1} with n=3"):
            call()
    with pytest.raises(ValueError, match=f"got {2**64 - 1}"):
        oracle.distinct_balls(big)
    assert oracle.comparisons == 0
    assert len(oracle.transcript) == 0


def _read_only(values):
    base = np.array(values, dtype=np.int64)
    view = base.view()
    view.flags.writeable = False
    return view, base


def _strided(values):
    base = np.zeros(2 * len(values), dtype=np.int64)
    base[::2] = values
    return base[::2], base


def _listed(values):
    listed = list(values)
    return listed, listed


@pytest.mark.parametrize(
    "make", [_read_only, _strided, _listed], ids=["read-only", "strided", "list"]
)
@pytest.mark.parametrize(
    "call",
    [
        lambda o, xs, ys: o.cmp_many(xs, ys),
        lambda o, xs, ys: o.cmp_many(1, ys),
        lambda o, xs, ys: o.scan_until(None, xs, ys, 3),
        lambda o, xs, ys: o.scan_until(1, xs, ys, 3),
        lambda o, xs, ys: o.vote(xs),
    ],
    ids=["cmp_many", "cmp_many-one-ball", "scan_until", "scan_until-ball", "vote"],
)
def test_array_primitives_leave_their_inputs_untouched(make, call):
    # The colours are gathered into the primitives' own index arrays, and
    # the transcript keeps its own copies of the balls.
    oracle = CountingOracle(Instance((1, 2, 1, 2, 1, 1, 2, 2)), record_transcript=True)
    firsts, seconds = [1, 3, 5, 7], [2, 4, 6, 8]
    (xs, xs_base), (ys, ys_base) = make(firsts), make(seconds)
    call(oracle, xs, ys)
    assert list(xs) == firsts and list(ys) == seconds
    recorded = [column.copy() for column in oracle.transcript.columns()]
    assert len(recorded[0]) == oracle.comparisons > 0
    xs_base[:] = [9] * len(xs_base)
    ys_base[:] = [9] * len(ys_base)
    for column, before in zip(oracle.transcript.columns(), recorded):
        np.testing.assert_array_equal(column, before)


def test_transcript_keeps_call_order_across_scalar_and_batched_calls():
    oracle = CountingOracle(Instance((1, 2, 1, 2, 1)), record_transcript=True)
    oracle.cmp(1, 2)
    oracle.cmp_many(3, np.array([4, 5]))
    oracle.cmp(2, 4)
    assert list(oracle.transcript) == [(1, 2, False), (3, 4, False), (3, 5, True), (2, 4, True)]
    oracle.cmp(5, 1)
    oracle.cmp_many(np.array([1, 2]), np.array([3, 3]))
    oracle.cmp(4, 3)
    expected = [
        (1, 2, False),
        (3, 4, False),
        (3, 5, True),
        (2, 4, True),
        (5, 1, True),
        (1, 3, True),
        (2, 3, False),
        (4, 3, False),
    ]
    records = list(oracle.transcript)
    assert records == expected
    assert len(oracle.transcript) == len(expected) == oracle.comparisons
    assert all(type(r) is ComparisonRecord for r in records)
    assert all(type(r.left) is int and type(r.equal) is bool for r in records)
    left, right, equal = oracle.transcript.columns()
    assert list(zip(left.tolist(), right.tolist(), equal.tolist())) == expected


# Pairs (2,3) hit ball 1's colour on the first ball, (4,5) on the second,
# (6,7) and (8,9) miss it twice; as plain pairs, all four are unequal but
# the first.  Ball 1 stands alone.
SCAN = Instance((1, 1, 1, 2, 1, 3, 2, 3, 2))
FIRSTS, SECONDS = np.array([2, 4, 6, 8]), np.array([3, 5, 7, 9])


def test_scan_until_without_a_ball_stops_on_the_kth_unequal_pair():
    oracle = CountingOracle(SCAN, record_transcript=True)
    assert oracle.scan_until(None, FIRSTS, SECONDS, 2).tolist() == [False, True, True]
    assert oracle.comparisons == 3
    assert list(oracle.transcript) == [(2, 3, True), (4, 5, False), (6, 7, False)]


def test_scan_until_with_a_ball_asks_the_second_only_after_a_miss():
    oracle = CountingOracle(SCAN, record_transcript=True)
    assert oracle.scan_until(1, FIRSTS, SECONDS, 1).tolist() == [False, False, True]
    # (1, 3) is never asked: ball 2 already hit.
    assert list(oracle.transcript) == [
        (1, 2, True),
        (1, 4, False),
        (1, 5, True),
        (1, 6, False),
        (1, 7, False),
    ]
    assert oracle.comparisons == 5


@pytest.mark.parametrize(
    "v,k,walked,billed", [(None, 3, 4, 4), (None, 9, 4, 4), (1, 2, 4, 7), (1, 3, 4, 7)]
)
def test_scan_until_walks_every_pair_when_k_is_not_reached(v, k, walked, billed):
    oracle = CountingOracle(SCAN, record_transcript=True)
    assert len(oracle.scan_until(v, FIRSTS, SECONDS, k)) == walked
    assert oracle.comparisons == len(oracle.transcript) == billed


def test_scan_until_bills_nothing_for_no_pairs():
    oracle = CountingOracle(SCAN, record_transcript=True)
    empty = np.array([], dtype=np.int64)
    assert oracle.scan_until(None, empty, empty, 1).size == 0
    assert oracle.scan_until(1, empty, empty, 1).size == 0
    assert oracle.comparisons == len(oracle.transcript) == 0


@pytest.mark.parametrize(
    "v,firsts,seconds",
    [
        (0, [2], [3]),
        (10, [2], [3]),
        (1, [0, 4], [3, 5]),
        (1, [2, 4], [3, 10]),
        (None, [-1], [3]),
        (None, [2], [10]),
        (1, [6, 2], [7, 99]),  # past the stop: the first pair misses twice
        (None, [4, 2], [5, -3]),
    ],
)
def test_scan_until_rejects_a_bad_index_before_billing_or_recording(v, firsts, seconds):
    oracle = CountingOracle(SCAN, record_transcript=True)
    oracle.cmp(1, 2)
    with pytest.raises(IndexError):
        oracle.scan_until(v, np.array(firsts), np.array(seconds), 1)
    assert oracle.comparisons == 1
    assert list(oracle.transcript) == [(1, 2, True)]


@pytest.mark.parametrize("firsts,seconds,k", [([2, 4], [3], 1), ([2], [3], 0), ([2], [3], -1)])
def test_scan_until_rejects_mismatched_pairs_and_k_below_one(firsts, seconds, k):
    oracle = CountingOracle(SCAN, record_transcript=True)
    for v in (None, 1):
        with pytest.raises(ValueError):
            oracle.scan_until(v, np.array(firsts), np.array(seconds), k)
    assert oracle.comparisons == len(oracle.transcript) == 0


def test_scan_until_records_in_call_order_with_scalar_calls():
    oracle = CountingOracle(SCAN, record_transcript=True)
    oracle.cmp(1, 9)
    oracle.scan_until(1, FIRSTS[1:], SECONDS[1:], 1)
    oracle.cmp(3, 2)
    oracle.scan_until(None, FIRSTS, SECONDS, 1)
    oracle.cmp(8, 8)
    assert list(oracle.transcript) == [
        (1, 9, False),
        (1, 4, False),
        (1, 5, True),
        (1, 6, False),
        (1, 7, False),
        (3, 2, True),
        (2, 3, True),
        (4, 5, False),
        (8, 8, True),
    ]
    assert oracle.comparisons == 9


def scalar_scan(oracle, v, firsts, seconds, k):
    """The pair-by-pair loop that scan_until must bill and record."""
    events = []
    for a, b in zip(firsts.tolist(), seconds.tolist()):
        if v is None:
            events.append(not oracle.cmp(a, b))
        else:
            events.append(not oracle.cmp(v, a) and not oracle.cmp(v, b))
        k -= events[-1]
        if k == 0:
            break
    return events


@pytest.mark.parametrize("v", [None, 1])
@pytest.mark.parametrize("k", [1, 600, 1000, 1500, 2100, 2500, 10**6])
def test_scan_until_matches_the_loop_across_windows(v, k):
    # 5,000 pairs over three colors: the stops land in each of the windows
    # (1,024, 2,048, 4,096 and 5,000 pairs), and a k past the last event
    # walks every pair.
    inst = generate("uniform:k=3", 10_001, RandomStream(13))
    firsts, seconds = np.arange(2, 10_001, 2), np.arange(3, 10_002, 2)
    oracle = CountingOracle(inst, record_transcript=True)
    scalar = CountingOracle(inst, record_transcript=True)
    assert oracle.scan_until(v, firsts, seconds, k).tolist() == scalar_scan(
        scalar, v, firsts, seconds, k
    )
    assert oracle.comparisons == scalar.comparisons
    assert list(oracle.transcript) == list(scalar.transcript)


# -- distribution grammar ----------------------------------------------


def test_parse_binary():
    spec = parse_distribution("binary:p=0.3")
    assert spec.kind == "binary" and spec.p == 0.3
    assert parse_distribution("binary").p == 0.5


def test_parse_profile_fractions_and_rest():
    spec = parse_distribution("profile:0.48,rest=100")
    assert spec.kind == "profile"
    assert spec.fractions == (0.48,)
    assert spec.rest_colors == 100


def test_parse_profile_counts():
    spec = parse_distribution("profile:7,5")
    assert spec.counts == (7, 5)


def test_parse_distinct_and_uniform():
    assert parse_distribution("distinct").kind == "distinct"
    assert parse_distribution("uniform:k=64").k == 64
    assert parse_distribution("uniform:k=n").k is None
    assert parse_distribution("uniform").k is None


@pytest.mark.parametrize(
    "bad",
    [
        "nope",
        "binary:q=0.5",
        "binary:p=1.5",
        "uniform:k=0",
        "profile:",
        "profile:0.6,0.6",
        "profile:3,rest=4",
        "profile:-1,2",
        "distinct:3",
    ],
)
def test_parse_rejects_bad_specs(bad):
    with pytest.raises(ValueError):
        parse_distribution(bad)


def test_describe_round_trips():
    for text in ("binary:p=0.3", "profile:7,5", "distinct", "uniform:k=64"):
        spec = parse_distribution(text)
        assert parse_distribution(spec.describe()) == spec


# -- generation --------------------------------------------------------


@pytest.mark.parametrize("spec", ["distinct", "binary:p=0.5", "uniform:k=3", "profile:2,1", "profile:0.5,0.5"])
@pytest.mark.parametrize("n", [2.5, 3.0, True, False, "3", None, np.float64(3)])
def test_generate_rejects_sizes_that_are_not_integers(spec, n):
    with pytest.raises(ValueError, match="n must be an integer"):
        generate(spec, n, RandomStream(1))


def test_generate_takes_a_numpy_integer_size():
    assert generate("profile:2,1", np.int64(3), RandomStream(1)).n == 3
    assert generate("distinct", np.uint8(255), RandomStream(1)).n == 255


def test_generate_profile_counts_exact():
    inst = generate("profile:7,5", 12, RandomStream(0))
    assert sorted(Counter(inst.colors).values(), reverse=True) == [7, 5]


def test_generate_profile_counts_must_sum_to_n():
    with pytest.raises(ValueError):
        generate("profile:7,5", 13, RandomStream(0))


def test_generate_profile_fractions_rounding():
    inst = generate("profile:0.48,rest=4", 1000, RandomStream(1))
    counts = Counter(inst.colors)
    assert sum(counts.values()) == 1000
    assert counts[1] == 480
    assert len(counts) == 5


def test_generate_distinct_all_different():
    inst = generate("distinct", 30, RandomStream(2))
    assert len(set(inst.colors)) == 30


def test_generate_uniform_respects_k():
    inst = generate("uniform:k=3", 500, RandomStream(3))
    assert set(inst.colors) <= {1, 2, 3}
    assert len(set(inst.colors)) == 3


def test_generate_binary_mix():
    inst = generate("binary:p=0.5", 400, RandomStream(4))
    counts = Counter(inst.colors)
    assert set(counts) <= {1, 2}
    assert 120 < counts[1] < 280


def test_generate_deterministic_per_stream():
    a = generate("binary:p=0.5", 100, RandomStream(7, "g", 1))
    b = generate("binary:p=0.5", 100, RandomStream(7, "g", 1))
    assert a.colors == b.colors


# sha256 of generate(spec, n, RandomStream(11, spec, n)).color_array.tobytes(),
# derived before the in-place profile shuffle and the array-only Instance:
# neither may move a single generated color.
GENERATED = (
    ("binary:p=0.5", 12, "91ab9d08186e7582f4b53e12f2b96c2434d4dfdce8b149011fd66d0e1a192767"),
    ("binary:p=0.5", 4096, "06d7530918291f77b88263e1ada5ee17533992c06231b552e63beb5a59c03693"),
    ("uniform:k=3", 12, "ce65eff02a0fb25c254968b99b78ee8a323b65a64859c1fa8dd51c3e5f537764"),
    ("uniform:k=3", 4096, "d00f48a7f0f36e61d829ffe9536f9c7ea27403f524a2fdf8a01d97dcb6afb95c"),
    ("uniform:k=n", 12, "099f3577d87866383eaf712bdc94a103264e7e05bb360a32b5065dc361f5b75f"),
    ("uniform:k=n", 4096, "6406222dedfce7f014ebbb4f44229410efec7c6ce7bab849ee2d43f9285f9e83"),
    ("profile:0.48,rest=100", 12, "ac4640c8126f5cf57ceab8c48f4d0fd3e285592b73f77a34f6e513b27465d51d"),
    ("profile:0.48,rest=100", 4096, "e2d08d848314ca2d501f85176e0eaaa6d59d556f7b70e53903de5462603ac28d"),
    ("profile:7,5", 12, "c3b4b103a11f16ff8b92b2e10d4bbd23a555b8e9de20a90e7add82283509af3e"),
    ("distinct", 12, "a2a5d426b0027a8e8cc28cfd6ee59b118d01d66a1a21c92c874e5f85902cba2e"),
    ("distinct", 4096, "040ee168517e5e406b3de1b12c34bdaf0bf154eba3e5ead4419676648f041559"),
)


@pytest.mark.parametrize("spec,n,digest", GENERATED)
def test_generated_colors_are_pinned(spec, n, digest):
    inst = generate(spec, n, RandomStream(11, spec, n))
    assert hashlib.sha256(inst.color_array.tobytes()).hexdigest() == digest


def test_generated_instance_keeps_its_color_array():
    inst = generate("uniform:k=5", 200, RandomStream(9))
    assert inst == Instance(inst.colors) and hash(inst) == hash(Instance(inst.colors))
    assert type(inst.colors) is tuple
    assert inst.color_array.dtype == np.int64
    assert inst.color_array.tolist() == list(inst.colors)
    assert not inst.color_array.flags.writeable
    assert Instance(inst.colors).color_array.tolist() == list(inst.colors)


@pytest.mark.parametrize("spec", ["binary:p=0.6", "profile:0.48,rest=3"])
def test_huge_color_ids_match_their_small_relabelling(tmp_path, spec):
    small = generate(spec, 3001, RandomStream(41, spec))
    path = tmp_path / "huge.txt"
    path.write_text(f"{small.n}\n" + "".join(f"{2**70 + 2**64 * c}\n" for c in small.colors))
    huge = read_instance(str(path))
    assert min(huge.colors) >= 2**64
    runs = []
    for inst in (small, huge):
        oracle = CountingOracle(inst, record_transcript=True)
        answer, cert, _ = majority(oracle, params=Params(cutoff=64), rng=RandomStream(42))
        assert verify_run(inst.n, oracle.transcript, answer, cert).accepted
        runs.append((answer, cert, oracle.comparisons))
    assert runs[0] == runs[1]


def test_relabel_preserves_class_sizes():
    inst = generate("profile:5,4,3", 12, RandomStream(5))
    renamed = relabel(inst, RandomStream(6))
    assert sorted(Counter(inst.colors).values()) == sorted(
        Counter(renamed.colors).values()
    )


def test_instance_file_round_trip(tmp_path):
    inst = generate("uniform:k=5", 40, RandomStream(8))
    path = str(tmp_path / "inst.txt")
    write_instance(inst, path)
    assert read_instance(path) == inst


def test_read_instance_validates(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n1\n2\n")
    with pytest.raises(ValueError):
        read_instance(str(path))
    path.write_text("2\n1\n\nx\n")
    with pytest.raises(ValueError, match="line 4: expected an integer, got 'x'"):
        read_instance(str(path))
