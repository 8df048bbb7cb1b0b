"""The deterministic baseline: exactness, cost bound, certificates."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from majoritylab import (
    Answer,
    Certificate,
    CountingOracle,
    Instance,
    RandomStream,
    boyer_moore,
    generate,
    verify_run,
)

from majoritylab.boyer_moore import _two_pass
from majoritylab.core import _FIRST_WINDOW, _WALK_LEAD
from support import all_colorings, assert_run_ok, run_boyer_moore


def test_empty_instance():
    answer, cert = boyer_moore(CountingOracle(Instance(())))
    assert answer == Answer.no_majority()
    assert cert == Certificate()


def test_single_ball():
    oracle = CountingOracle(Instance((3,)))
    answer, cert = boyer_moore(oracle)
    assert answer == Answer.majority(1, 1)
    assert cert is None
    assert oracle.comparisons == 0


def test_two_balls():
    answer, _ = boyer_moore(CountingOracle(Instance((1, 1))))
    assert answer.is_majority and answer.multiplicity == 2
    answer, cert = boyer_moore(CountingOracle(Instance((1, 2))))
    assert not answer.is_majority
    assert cert.units() == 1


def test_exhaustive_small_instances():
    for n in range(1, 7):
        for inst in all_colorings(n, 3):
            answer, cert, comparisons, audit_ok = run_boyer_moore(inst)
            assert comparisons <= max(0, 2 * n - 2)
            assert_run_ok(inst, answer, cert, audit_ok)


def test_cost_bound_on_random_instances():
    for trial in range(50):
        rng = RandomStream(11, "bm", trial)
        n = rng.randint(1, 400)
        inst = generate("uniform:k=3", n, rng)
        _, _, comparisons, _ = run_boyer_moore(inst, audit=False)
        assert comparisons <= max(0, 2 * n - 2)


def test_subset_of_balls():
    inst = Instance((1, 2, 1, 2, 2, 9))
    oracle = CountingOracle(inst, record_transcript=True)
    balls = [2, 4, 5]  # three balls of color 2
    answer, cert = boyer_moore(oracle, balls)
    assert answer.is_majority
    assert inst.color_of(answer.witness) == 2
    assert answer.multiplicity == 3


def test_no_majority_certificate_is_checkable():
    inst = Instance((1, 1, 2, 2, 3, 3))
    oracle = CountingOracle(inst, record_transcript=True)
    answer, cert = boyer_moore(oracle)
    assert not answer.is_majority
    result = verify_run(inst.n, oracle.transcript, answer, cert)
    assert result.accepted, result.reason


def test_worst_case_alternation_hits_bound():
    # Strict alternation keeps the cancel stack busy; stays within 2n - 2.
    inst = Instance(tuple(1 if i % 2 else 2 for i in range(20)))
    _, _, comparisons, audit_ok = run_boyer_moore(inst)
    assert comparisons <= 2 * 20 - 2
    assert audit_ok


def scalar_boyer_moore(oracle, balls):
    """Both passes one cmp at a time: the order boyer_moore must record."""
    candidate, counter, stack, cancelled = balls[0], 1, [balls[0]], []
    for b in balls[1:]:
        if counter == 0:
            candidate, counter = b, 1
            stack.append(b)
        elif oracle.cmp(candidate, b):
            counter += 1
            stack.append(b)
        else:
            counter -= 1
            cancelled.append((stack.pop(), b))
    count = 1 + sum(oracle.cmp(candidate, b) for b in balls if b != candidate)
    if count > len(balls) // 2:
        return Answer.majority(candidate, count), None
    pairs = np.array(cancelled, dtype=np.int64).reshape(-1, 2)
    return Answer.no_majority(), Certificate(pairs=pairs, candidate=candidate)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    colors=st.lists(st.integers(1, 4), min_size=1, max_size=40),
    picks=st.none() | st.lists(st.integers(0, 10**6), min_size=1, max_size=40),
)
@example(colors=[1], picks=None)
@example(colors=[1, 2, 1, 2, 1, 2], picks=[5, 0, 3])
def test_recorded_transcript_matches_scalar_two_pass_reference(colors, picks):
    inst = Instance(colors)
    balls = list(range(1, inst.n + 1)) if picks is None else list(
        dict.fromkeys(p % inst.n + 1 for p in picks)
    )
    oracle = CountingOracle(inst, record_transcript=True)
    scalar = CountingOracle(inst, record_transcript=True)
    assert boyer_moore(oracle, balls) == scalar_boyer_moore(scalar, balls)
    assert oracle.comparisons == scalar.comparisons
    assert list(oracle.transcript) == list(scalar.transcript)


@pytest.mark.parametrize(
    "spec",
    [
        "binary:p=0.5",
        "profile:0.48,rest=100",
        "uniform:k=3",
        "uniform:k=n",
        "binary:p=0.9",  # a deep stack
        "profile:0.5,0.5",  # an exact tie: no majority with a deep stack
        "distinct",
    ],
)
@pytest.mark.parametrize("subset", [False, True])
def test_vote_matches_scalar_two_pass_reference_at_scale(spec, subset):
    n = 2**14
    inst = generate(spec, n, RandomStream(14, "bm-scale", spec))
    balls = list(range(1, n + 1))
    if subset:
        balls = (np.random.default_rng(14).permutation(n)[: n // 2 + 1] + 1).tolist()
    oracle = CountingOracle(inst, record_transcript=True)
    scalar = CountingOracle(inst, record_transcript=True)
    got = boyer_moore(oracle, balls if subset else None)
    assert got == scalar_boyer_moore(scalar, balls)
    assert oracle.comparisons == scalar.comparisons
    for column, expected in zip(oracle.transcript.columns(), scalar.transcript.columns()):
        np.testing.assert_array_equal(column, expected)


def test_vote_keeps_call_order_after_pending_scalar_records():
    inst = Instance((1, 2, 2, 1, 2, 2))
    oracle = CountingOracle(inst, record_transcript=True)
    oracle.cmp(1, 4)
    oracle.cmp(2, 1)
    candidate, joined = oracle.vote(np.array([1, 2, 3, 5, 6]))
    oracle.cmp(6, 6)
    assert (candidate, joined.tolist()) == (3, [True, False, True, True, True])
    assert list(oracle.transcript) == [
        (1, 4, True),
        (2, 1, False),
        (1, 2, False),
        (3, 5, True),
        (3, 6, True),
        (6, 6, True),
    ]
    assert oracle.comparisons == 6


@pytest.mark.parametrize(
    "balls, error", [([1, 2, 7], IndexError), ([0, 1, 2], IndexError), ([], ValueError)]
)
def test_vote_rejects_bad_balls_before_billing_or_recording(balls, error):
    oracle = CountingOracle(Instance((1, 1, 2, 2, 1, 1)), record_transcript=True)
    with pytest.raises(error):
        oracle.vote(np.array(balls, dtype=np.int64))
    assert oracle.comparisons == 0
    assert len(oracle.transcript) == 0


def test_two_pass_rejects_2_31_balls_before_billing():
    # The cancelled pairs' keys need fewer than 2**31 balls.  A zero-stride
    # view gives the length without allocating the balls.
    balls = np.broadcast_to(np.int64(1), (2**31,))
    oracle = CountingOracle(Instance((1, 2)), record_transcript=True)
    with pytest.raises(ValueError, match=r"2\*\*31"):
        _two_pass(oracle, balls)
    assert oracle.comparisons == 0
    assert len(oracle.transcript) == 0


@settings(derandomize=True, max_examples=100, deadline=None)
@given(colors=st.lists(st.integers(1, 3), min_size=1, max_size=60))
def test_vote_bills_the_same_recorded_or_not(colors):
    inst = Instance(colors)
    balls = np.arange(1, inst.n + 1)
    plain, recorded = CountingOracle(inst), CountingOracle(inst, record_transcript=True)
    (plain_candidate, plain_joined), (candidate, joined) = plain.vote(balls), recorded.vote(balls)
    assert plain_candidate == candidate
    np.testing.assert_array_equal(plain_joined, joined)
    assert plain.comparisons == recorded.comparisons == len(recorded.transcript)
    assert boyer_moore(plain) == boyer_moore(recorded)
    assert plain.comparisons == recorded.comparisons == len(recorded.transcript)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    runs=st.lists(st.tuples(st.sampled_from([1, 2]), st.integers(1, 40)), min_size=1, max_size=12),
    data=st.data(),
)
def test_two_colour_runs_match_scalar_two_pass_reference(runs, data):
    # Long runs of one colour build deep stacks of unmatched class balls,
    # so the cancelled pairs reach far back into pass one.
    inst = Instance([color for color, length in runs for _ in range(length)])
    everyone = list(range(1, inst.n + 1))
    picks = data.draw(st.none() | st.lists(st.sampled_from(everyone), min_size=1, unique=True))
    balls = everyone if picks is None else picks
    oracle = CountingOracle(inst, record_transcript=True)
    scalar = CountingOracle(inst, record_transcript=True)
    # Certificates compare their pairs in order.
    assert boyer_moore(oracle, picks) == scalar_boyer_moore(scalar, balls)
    assert oracle.comparisons == scalar.comparisons
    for column, expected in zip(oracle.transcript.columns(), scalar.transcript.columns()):
        np.testing.assert_array_equal(column, expected)


def pass_one(colors, balls):
    """Pass one straight off the colours: (candidate, joined flags, comparisons)."""
    candidate, lead, joined, fresh = None, 0, [], 0
    for b in balls:
        if not lead:
            candidate, lead, fresh = b, 1, fresh + 1
            joined.append(True)
        elif colors[b - 1] == colors[candidate - 1]:
            lead += 1
            joined.append(True)
        else:
            lead -= 1
            joined.append(False)
    return candidate, joined, len(balls) - fresh


def from_runs(*pairs):
    """Colours from (colour, run length) pairs."""
    return [color for color, length in pairs for _ in range(length)]


def assert_vote_matches_scalar(colors, balls=None):
    """vote and boyer_moore against pass_one and scalar_boyer_moore: candidate,
    joined flags, answer, certificate, comparisons and every transcript column."""
    inst = Instance(colors)
    picked = list(range(1, inst.n + 1)) if balls is None else [int(b) for b in balls]
    voter = CountingOracle(inst)
    candidate, joined = voter.vote(np.array(picked) if balls is None else balls)
    assert (candidate, joined.tolist(), voter.comparisons) == pass_one(colors, picked)
    oracle = CountingOracle(inst, record_transcript=True)
    scalar = CountingOracle(inst, record_transcript=True)
    assert boyer_moore(oracle, balls) == scalar_boyer_moore(scalar, picked)
    assert oracle.comparisons == scalar.comparisons
    for column, expected in zip(oracle.transcript.columns(), scalar.transcript.columns()):
        np.testing.assert_array_equal(column, expected)


# vote steps a segment ball by ball until its lead reaches _WALK_LEAD, then
# walks windows of _FIRST_WINDOW, 2 * _FIRST_WINDOW, ... balls.  A segment
# that starts at ball 1 reaches that lead at ball _WALK_LEAD at the earliest,
# so its first window ends at ball _WALK_LEAD + _FIRST_WINDOW.  A segment
# always ends an odd number of balls after it starts and a window starts an
# even number after, so a segment cannot end on a window's first ball; the
# nearest it can come is the second.
LEAD, WINDOW = _WALK_LEAD, _FIRST_WINDOW
HALF = (LEAD + WINDOW) // 2


@pytest.mark.parametrize(
    "colors",
    [
        from_runs((1, LEAD)),
        from_runs((1, LEAD - 1)),
        from_runs((2, 3), (1, 3), (1, LEAD)),
        from_runs((1, 20), (2, 20), (1, LEAD)),
        from_runs((1, HALF), (2, HALF)),
        from_runs((1, HALF), (2, HALF), (1, 5), (2, 2)),
        from_runs((1, HALF), (2, HALF), (2, LEAD), (1, 3)),
        from_runs((1, HALF + 1), (2, HALF + 1), (2, 4)),
        from_runs((1, HALF + 1), (2, HALF + 1), (1, 1), (3, 1), (2, LEAD + 2)),
        from_runs((1, 20)) + [2, 1] * (3 * WINDOW + 100) + from_runs((2, 5)),
        from_runs((1, 20)) + [2, 1] * (3 * WINDOW + 100) + from_runs((2, 19)),
        from_runs((1, 20)) + [2, 1] * (3 * WINDOW + 100) + from_runs((2, 20)),
        from_runs((1, 600), (2, 600), (2, 700), (1, 700), (1, 2), (2, 30)),
        from_runs((3, LEAD), (1, 9 * WINDOW)),
    ],
    ids=[
        "lead-reached-on-the-last-ball",
        "lead-one-short-at-the-end",
        "lead-reached-on-the-last-ball-after-a-segment",
        "lead-reached-on-the-last-ball-after-a-walk",
        "ends-on-a-window's-last-ball",
        "ends-on-a-window's-last-ball-then-more",
        "ends-on-a-window's-last-ball-then-another-walk",
        "ends-on-the-next-window's-second-ball",
        "ends-on-the-next-window's-second-ball-then-more",
        "open-at-the-end-across-windows",
        "open-at-the-end-with-lead-one",
        "ends-on-the-last-ball-across-windows",
        "long-segment-then-another-at-once",
        "one-segment-over-several-windows",
    ],
)
def test_vote_walk_edges_match_scalar_reference(colors):
    assert_vote_matches_scalar(colors)


@pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.int32])
def test_vote_walk_over_ball_subsets_matches_scalar_reference(dtype):
    # Every other ball of a run-structured instance, then a shuffled subset:
    # the walk gathers the given balls' colours, not the instance's.
    colors = from_runs((1, 700), (2, 1500), (1, 2200), (3, 40), (2, 900))
    n = len(colors)
    every_other = np.arange(1, n + 1, 2, dtype=dtype)
    assert_vote_matches_scalar(colors, every_other)
    shuffled = np.random.default_rng(17).permutation(n)[: 2 * n // 3] + 1
    assert_vote_matches_scalar(colors, shuffled.astype(dtype))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    spans=st.lists(
        st.tuples(st.sampled_from([1, 2, 3]), st.integers(1, 3 * _FIRST_WINDOW)),
        min_size=1,
        max_size=6,
    ),
    flips=st.integers(0, 64),
)
def test_long_runs_match_scalar_reference(spans, flips):
    # Runs long enough to cross window edges, with some balls flipped so that
    # segments end at varied places.
    colors = from_runs(*spans)
    rng = np.random.default_rng(flips)
    for position in rng.integers(0, len(colors), size=flips):
        colors[position] = 1 + colors[position] % 3
    assert_vote_matches_scalar(colors)
