"""The randomized driver: dispatch, branches, certificates, accounting."""

import math
import os
import subprocess
import sys
from math import isqrt
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_certificates

from majoritylab import (
    Answer,
    Certificate,
    ContractViolation,
    CountingOracle,
    Instance,
    LevelStats,
    Params,
    RandomStream,
    RunStats,
    answer_matches_brute_force,
    boyer_moore,
    generate,
    heavy,
    majority,
    verify_run,
)

from majoritylab import randomized
from majoritylab.randomized import (
    _deficit_scan,
    _lift_certificate,
    _resolve_leftover,
    _unequal_pairs,
)
from support import all_colorings, assert_run_ok, claim_is_true, mutate, run_randomized


# -- params and sampling -------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        Params(cutoff=1)


@pytest.mark.parametrize("field", ["cutoff"])
@pytest.mark.parametrize("value", [2.5, 1.5, 64.0, True, "64", None, np.float64(8)])
def test_params_reject_values_that_are_not_integers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        Params(**{field: value})


def test_params_take_numpy_integers():
    inst = generate("binary:p=0.5", 300, RandomStream(3))
    params = Params(cutoff=np.int64(64))
    assert type(params.cutoff) is int
    answer, _, _ = majority(CountingOracle(inst), params=params, rng=RandomStream(4))
    expected, _ = boyer_moore(CountingOracle(inst))
    assert (answer.kind, answer.multiplicity) == (expected.kind, expected.multiplicity)


# -- sampled dispatch ------------------------------------------------------

# One-heavy-colour and two-colour inputs around the census threshold.
GATE_SPECS = (
    *(f"profile:{a},rest=1000" for a in (0.4, 0.45, 0.49, 0.5, 0.501, 0.55, 0.6, 0.7)),
    "profile:0.45,0.3,rest=1000",
    *(f"binary:p={p}" for p in (0.5, 0.4, 0.3, 0.1)),
)


def test_paper_bound_holds_across_the_heavy_threshold():
    # 7n/6 + o(n) on every input.  At n = 2^16 the o(n) slack is
    # delta = 0.008.  Fair coins are the costliest input here, and both
    # lower-order terms are theirs: the pairing step's and the sample's,
    # whose batched census pays about 63 comparisons on each level above
    # 4096 balls.  30 seeded runs with a majority (seeds 0-30 of this
    # test's streams; seed 5 draws an exact tie) average 7/6 + 0.0042 with
    # a per-run sd of 0.0013, so a mean of 3 stays below
    # 7/6 + 0.0042 + 4 * 0.00077 = 7/6 + 0.0073.
    n = 1 << 16
    delta = 0.008
    means = {}
    for spec in GATE_SPECS:
        total = 0
        for seed in range(3):
            inst = generate(spec, n, RandomStream(seed, "gate", spec))
            _, _, stats = majority(CountingOracle(inst), rng=RandomStream(seed, "gate/run", spec))
            total += stats.comparisons
        means[spec] = total / 3 / n
    worst = max(means, key=means.get)
    assert means[worst] <= 7 / 6 + delta, (worst, means)


# Mean cmp/ball over 8 seeds at cutoff 64, measured when the sample still
# censused every survivor: n -> one value per spec of FLOOR_SPECS.
FLOOR_SPECS = (
    "binary:p=0.5",
    "profile:0.48,rest=100",
    "profile:0.5,rest=1000",
    "binary:p=0.4",
    "binary:p=0.3",
    "binary:p=0.9",
)
FLOOR_TABLE = {
    1 << 12: (1.201263, 1.058319, 1.068939, 1.152130, 1.054779, 1.059784),
    1 << 16: (1.175154, 1.029797, 1.009821, 1.138023, 1.012901, 1.014208),
}


def _mean_cost(spec: str, n: int, params: Params | None, seeds: int = 8) -> float:
    total = 0
    for seed in range(seeds):
        inst = generate(spec, n, RandomStream(seed, "floor", spec))
        _, _, stats = majority(
            CountingOracle(inst), params=params, rng=RandomStream(seed, "floor/run", spec)
        )
        total += stats.comparisons
    return total / seeds / n


@pytest.mark.slow
def test_fair_coins_within_0005_of_the_paper_bound_and_no_floor_row_rises():
    # Fair coins at 2^16 with default parameters, mean of 8 seeds, within
    # 0.005 of 7n/6; and no cell of the floor table more than 0.002 above
    # the value it had before the census ran in batches.
    assert _mean_cost("binary:p=0.5", 1 << 16, None) <= 7 / 6 + 0.005
    for n, row in FLOOR_TABLE.items():
        for spec, before in zip(FLOOR_SPECS, row):
            assert _mean_cost(spec, n, Params(cutoff=64)) <= before + 0.002, (spec, n)


def test_near_tie_root_goes_to_the_census_and_fair_coins_never_do():
    n = 1 << 18
    for seed in range(10):
        for spec, census in (("profile:0.48,rest=100", True), ("binary:p=0.5", False)):
            inst = generate(spec, n, RandomStream(seed, "dispatch", spec))
            _, _, stats = majority(CountingOracle(inst), rng=RandomStream(seed, "dispatch/run"))
            if census:
                assert stats.levels[0].branch == "heavy"
            else:
                assert "heavy" not in stats.branch_trace


def test_sample_billing_and_record():
    # A level that stays on pairing bills its sampled pairs to the pairing
    # and the survivor census to the sample; a level that goes to the
    # census bills both to the sample.
    n = 1 << 14
    k = 2 * 128
    inst = generate("binary:p=0.5", n, RandomStream(3, "bill"))
    _, _, stats = majority(CountingOracle(inst), rng=RandomStream(4, "bill"))
    root = stats.levels[0]
    assert root.branch == "balanced" and root.pairing_comparisons == n // 2
    # About 128 survivors: the census stops after its first batch of 64.
    assert root.sample_pairs == k and root.sample_censused == 64
    assert root.sample_comparisons == 63
    assert root.top_share == root.sample_hits / 64
    assert 0.35 < root.top_share < 0.65  # no class can be dominant
    assert 0.5 < root.q1_estimate < 0.9  # sqrt(top_share * survivors / k)

    inst = generate("profile:0.48,rest=100", n, RandomStream(5, "bill"))
    _, _, stats = majority(CountingOracle(inst), rng=RandomStream(6, "bill"))
    root = stats.levels[0]
    assert stats.branch_trace == ("heavy",)
    assert root.q1_estimate >= randomized._BETA and root.top_share >= 0.8
    survivors = round(root.sample_hits / root.top_share)
    assert root.sample_censused == survivors  # a dominant class: censused whole
    assert root.sample_comparisons == k + survivors - 1
    # The census asks about the balls the sample left open: each survivor
    # settles its pair, and a sampled first ball that joined settles its mate.
    assert root.scan_comparisons + root.reused == n - 1
    assert (root.scan_comparisons, root.reused) == (16215, 168)
    assert root.reused >= 2 * survivors - 1 and root.x_size == root.y_pairs == 0
    assert stats.comparisons == sum(lv.total_comparisons for lv in stats.levels)


def _sampled(survivors: list[int], k: int) -> list[tuple[int, int]]:
    """Pairs whose k-pair sample leaves survivors of these colours, in order.

    The sampled pairs past the survivors are unequal, as are the pairs
    after the sample, whose colours appear nowhere else.
    """
    n_pairs = next(p for p in range(k, 4 * k * k) if min(p, 2 * isqrt(2 * p)) == k)
    return [(c, c) for c in survivors] + [
        (1000 + 2 * i, 1001 + 2 * i) for i in range(n_pairs - len(survivors))
    ]


@pytest.mark.parametrize(
    "pairs,candidate,censused,sample,pairing",
    [
        # survivors 1, 2, 2, 2, 2, 2: the first class is too small to rule
        # out a dominant one, so the second census finds it
        ([(1, 1), (2, 2), (2, 2), (2, 2), (2, 2), (2, 2), (3, 4), (5, 6)], 4, 6, 8 + 5 + 4, 0),
        # survivors 2, 2, 2, 2, 1: the first class is dominant, one census
        ([(2, 2), (2, 2), (2, 2), (2, 2), (1, 1), (3, 4), (5, 6), (7, 8)], 2, 5, 8 + 4, 0),
        # survivors 1, 2, 2, 2: no class is dominant
        ([(1, 1), (2, 2), (2, 2), (2, 2), (3, 4), (5, 6), (7, 8), (9, 3)], None, 4, 3, 8),
        # one survivor is dominant, but sqrt(1/8) is below beta
        ([(1, 1), (2, 3), (4, 5), (6, 7), (8, 9), (2, 4), (3, 5), (6, 8)], None, 1, 0, 8),
        # 100 survivors of two colours in turn: the first batch of 64 rules
        # out a dominant class, and the census stops there
        (_sampled([1, 2] * 50, 100), None, 64, 63, 100),
        # a top share of 1/4 lies inside (1/5, 4/5), but not by 3 standard
        # errors at 64 survivors, so the census runs to the last survivor
        (_sampled([1, 2, 2, 2] * 25, 100), None, 100, 99, 100),
        # 90 of the first survivor's colour among 100: dominant, so the
        # census covers every survivor and the level goes to the census
        (_sampled([1] * 45 + [2] * 10 + [1] * 45, 100), 2, 100, 100 + 99, 0),
        # one survivor of colour 1, then 99 of colour 2: the full census
        # leaves a class that may dominate, and the second census finds it
        (_sampled([1] + [2] * 99, 100), 4, 100, 100 + 99 + 98, 0),
    ],
)
def test_sample_picks_the_dominant_class(pairs, candidate, censused, sample, pairing):
    inst = Instance(tuple(c for pair in pairs for c in pair))
    balls = np.arange(1, inst.n + 1, dtype=np.int64)
    oracle = CountingOracle(inst)
    lv = LevelStats("balanced", inst.n)
    equal, top, member = randomized._sample(oracle, lv, balls.reshape(-1, 2))
    k = lv.sample_pairs
    assert k == min(len(pairs), 2 * isqrt(inst.n))
    assert equal.tolist() == [a == b for a, b in pairs[:k]]
    assert top == candidate
    if top is not None:  # every survivor is settled against the candidate
        colour = inst.color_of(top)
        assert member.tolist() == [a == b == colour for a, b in pairs[:k]]
    assert lv.sample_censused == censused
    assert (lv.sample_comparisons, lv.pairing_comparisons) == (sample, pairing)
    assert oracle.comparisons == sample + pairing


def _whole_census(survivors: list[int], k: int) -> tuple[int, int | None]:
    """The census bill and the candidate's colour when every survivor is censused.

    The first survivor is censused against the rest; when its class leaves
    room for a dominant one, the first of the rest is censused among them.
    """
    top, hits = survivors[0], survivors.count(survivors[0])
    bill = len(survivors) - 1
    others = [c for c in survivors if c != top]
    if len(others) >= 4 * hits:
        bill += len(others) - 1
        if others.count(others[0]) > hits:
            top, hits = others[0], others.count(others[0])
    dominant = hits >= 4 * (len(survivors) - hits) and hits / k >= randomized._BETA**2
    return bill, top if dominant else None


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda c: st.lists(st.integers(1, c), min_size=1, max_size=64)),
    st.permutations(range(64)),
)
@example([1, 2] * 32, list(range(64)))
def test_sample_of_at_most_64_survivors_is_censused_whole(survivors, order):
    # The batched census covers at most 64 survivors in its first batch, so
    # a sample that leaves no more bills and decides as a whole census does.
    k = 64
    pairs = _sampled(survivors, k)
    head = [pairs[i] for i in order]  # survivors anywhere among the sampled pairs
    pairs[:k] = head
    inst = Instance(tuple(c for pair in pairs for c in pair))
    oracle = CountingOracle(inst)
    lv = LevelStats("balanced", inst.n)
    _, top, _ = randomized._sample(oracle, lv, np.arange(1, inst.n + 1).reshape(-1, 2))
    bill, colour = _whole_census([a for a, b in head if a == b], k)
    assert lv.sample_censused == len(survivors)
    assert lv.sample_comparisons == bill + (k if colour is not None else 0)
    assert (None if top is None else inst.color_of(top)) == colour


# -- census levels reuse what their sample compared -----------------------


class _InOrder(randomized._Run):
    """A run that keeps every level's balls in the order given, so that a
    test lays out the sampled pairs of a level itself."""

    def permuted(self, balls):
        return balls


def _census_level(colours):
    """One level over balls 1..m in order: (oracle, answer, cert, its LevelStats)."""
    inst = Instance(tuple(colours))
    oracle = CountingOracle(inst, record_transcript=True)
    run = _InOrder(oracle, Params(cutoff=2), RandomStream(0))
    answer, cert = randomized._balanced(run, np.arange(1, inst.n + 1, dtype=np.int64))
    return oracle, answer, cert, run.levels[0]


@pytest.mark.parametrize(
    "joins,odd,kind,scan,pairing",
    [
        # 23 balls of colour 1: nine unequal pairs cap it, three of them sampled
        (0, False, "no_majority", 6 + 4 + 32, 6),
        (10, False, "majority", 6 + 4 + 32, 0),
        # 31 of colour 1 among 65 balls: the sample's second double miss
        # makes the triangle, and the others are not paired at all
        (8, True, "no_majority", 6 + 4 + 33, 0),
    ],
)
def test_census_level_asks_nothing_its_sample_settled(joins, odd, kind, scan, pairing):
    # 16 sampled pairs: ten equal pairs of colour 1, then (1, 7) and (1, 8),
    # whose first balls join, (9, 1), whose second does, and three pairs of
    # fresh colours; after them, 32 balls with `joins` of colour 1.
    pairs = _sampled([1] * 10, 16)
    pairs[10:13] = [(1, 7), (1, 8), (9, 1)]
    pairs[16 : 16 + joins // 2] = [(1, 1)] * (joins // 2)
    colours = [c for pair in pairs for c in pair] + [5000] * odd
    oracle, answer, cert, lv = _census_level(colours)
    m = len(colours)
    assert lv.branch == "heavy" and lv.sample_pairs == 16 and lv.sample_hits == 10
    assert lv.sample_comparisons == 16 + 9
    # 19 balls of the ten equal pairs and the mates of the two joined firsts
    assert lv.reused == 21 and lv.scan_comparisons + lv.reused == m - 1
    assert (lv.scan_comparisons, lv.pairing_comparisons) == (scan, pairing)
    assert oracle.comparisons == 16 + 9 + scan + pairing
    assert answer.kind == kind
    if answer.is_majority:
        assert (answer.witness, answer.multiplicity) == (2, 23 + joins)
    else:
        known = [[27, 28], [29, 30], [31, 32]]  # the sampled double misses
        if odd:
            assert cert.triangle[:2] == (29, 30) and cert.pairs[:1].tolist() == known[:1]
        else:
            assert cert.pairs[:3].tolist() == known and len(cert.pairs) == m // 2
    assert verify_run(m, oracle.transcript, answer, cert).accepted


def _layout(rows, rest):
    """A census level of these sampled pairs and then these colours.

    Returns the colours of balls 1..m, the census candidate (the first
    survivor of colour 1) and the balls the sample settles: those of the
    equal pairs and the second ball of each unequal pair whose first is of
    colour 1.
    """
    colours = [c for row in rows for c in row] + list(rest)
    candidate = 2 + 2 * next(i for i, (a, b) in enumerate(rows) if a == b == 1)
    settled = set()
    for i, (a, b) in enumerate(rows):
        if a == b:
            settled |= {2 * i + 1, 2 * i + 2}
        elif a == 1:
            settled.add(2 * i + 2)
    return colours, candidate, settled


@st.composite
def census_levels(draw):
    """A level whose sample sends it to the census on colour 1.

    Its k sampled pairs hold a dominant class of colour 1 with q1 at least
    beta, perhaps after one survivor of colour 2, from which the census
    switches to the first survivor of colour 1.  The unequal sampled pairs
    join on their first ball, on their second or on neither, and the balls
    after the sample are drawn from one of a few palettes.
    """
    m = draw(st.integers(9, 80))
    k = min(m // 2, 2 * isqrt(m))
    switch = k >= 5 and draw(st.booleans())
    # q1 = sqrt(hits / k) reaches beta, and hits >= 4 * outside: dominant
    low = math.ceil(randomized._BETA**2 * k)
    if switch:
        hits, outside = draw(st.integers(max(4, low), k - 1)), 1
    else:
        hits = draw(st.integers(low, k))
        outside = draw(st.integers(0, min(hits // 4, k - hits)))
    unequal = ((1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (4, 5))
    rows = [(1, 1)] * hits + [
        (c, c) for c in draw(st.lists(st.sampled_from((2, 3, 4)), min_size=outside, max_size=outside))
    ]
    rows += draw(st.lists(st.sampled_from(unequal), min_size=k - len(rows), max_size=k - len(rows)))
    head = rows.pop(hits if switch else 0)  # a survivor of colour 2 first, or one of colour 1
    rows = [head] + draw(st.permutations(rows))
    palette = draw(st.sampled_from(((1, 2, 3, 4, 5), (1, 1, 1, 2), (1, 2), (2, 3))))
    rest = draw(st.lists(st.sampled_from(palette), min_size=m - 2 * k, max_size=m - 2 * k))
    return _layout(rows, rest)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(level=census_levels())
# a majority of colour 1
@example(level=_layout([(1, 1)] * 6 + [(1, 2), (2, 3)], [1, 2, 1, 3]))
# exactly half of colour 1: cross pairs only
@example(level=_layout([(1, 1)] * 4 + [(1, 2), (2, 1), (2, 3), (3, 2)], [2, 3, 4, 5]))
# odd m: one sampled double miss and the last class ball make the triangle
@example(level=_layout([(1, 1)] * 4 + [(1, 2), (2, 3), (3, 2), (2, 1)], [2, 3, 4, 5, 2]))
# the census switches from the survivor of colour 2, whose pair goes to the cross pairs
@example(
    level=_layout(
        [(2, 2)] + [(1, 1)] * 5 + [(1, 2), (1, 3), (2, 1), (2, 3), (3, 2), (4, 5)], [2, 3, 4, 5] * 4
    )
)
def test_census_level_reuses_its_sample(level):
    colours, candidate, settled = level
    oracle, answer, cert, lv = _census_level(colours)
    inst, m = oracle.instance, len(colours)
    assert lv.branch == "heavy"
    assert lv.scan_comparisons + lv.reused == m - 1
    assert lv.total_comparisons == oracle.comparisons
    assert verify_run(m, oracle.transcript, answer, cert).accepted
    assert answer_matches_brute_force(answer, inst)
    for trial in range(4):  # the auditor still rejects every false claim made of the run
        claim = mutate(answer, cert, inst, RandomStream(trial, "reuse/mutate"))
        assert not verify_run(m, oracle.transcript, *claim).accepted or claim_is_true(claim[0], inst)
    if lv.fallback_comparisons:
        return  # the Boyer-Moore rerun compares the level afresh
    left, right, _ = oracle.transcript.columns()
    keys = np.minimum(left, right) * (m + 1) + np.maximum(left, right)
    assert len(np.unique(keys)) == len(keys)  # no two balls are compared twice
    census = slice(lv.sample_comparisons, None)
    asked = right[census][left[census] == candidate]
    assert not settled & set(asked.tolist())


@pytest.mark.parametrize(
    "spec,n,seed",
    [
        ("profile:0.48,rest=100", 1 << 14, 0),
        ("profile:0.48,rest=100", (1 << 12) + 1, 1),
        ("binary:p=0.9", 1 << 12, 2),
        ("binary:p=0.9", (1 << 12) + 1, 3),
        # a fair-coin level that goes to the census and falls back
        ("binary:p=0.5", 1 << 12, 190),
    ],
)
def test_census_levels_count_every_census_answer_once(spec, n, seed):
    inst = generate(spec, n, RandomStream(seed, "floor", spec))
    _, _, stats = majority(CountingOracle(inst), rng=RandomStream(seed, "floor/run", spec))
    census = [lv for lv in stats.levels if lv.branch == "heavy"]
    assert census and all(lv.scan_comparisons + lv.reused == lv.m - 1 for lv in census)
    assert all(lv.reused > 0 for lv in census)
    assert all(lv.reused == 0 for lv in stats.levels if lv.branch != "heavy")
    if spec == "binary:p=0.5":
        assert census[0].fallback_comparisons > 0
    witness = next(b for b in range(1, n + 1) if inst.color_of(b) == 1)
    _, _, stats = heavy(CountingOracle(inst), witness, rng=RandomStream(seed, "floor/heavy"))
    (lv,) = stats.levels
    assert lv.reused == 0 and lv.scan_comparisons == n - 1


# -- driver edge cases ----------------------------------------------------


def test_empty_and_singleton():
    inst = Instance((4,))
    answer, cert, stats = majority(CountingOracle(inst), balls=[])
    assert answer == Answer.no_majority() and cert == Certificate()
    assert stats == RunStats(0, 0, (), ())
    answer, cert, stats = majority(CountingOracle(inst))
    assert answer == Answer.majority(1, 1)
    assert stats.comparisons == 0
    assert stats.branch_trace == ("base",)


def test_small_sizes_use_base():
    inst = generate("binary:p=0.5", 50, RandomStream(1))
    _, _, stats = majority(CountingOracle(inst))  # default cutoff 64
    assert stats.branch_trace == ("base",)


def test_exhaustive_small_instances():
    for n in range(1, 7):
        for inst in all_colorings(n, 2):
            for seed in (0, 1):
                answer, cert, stats, audit_ok = run_randomized(inst, seed, cutoff=2)
                assert_run_ok(inst, answer, cert, audit_ok)


def test_levels_account_for_every_comparison():
    inst = generate("binary:p=0.5", 3000, RandomStream(2))
    _, _, stats, audit_ok = run_randomized(inst, seed=3, cutoff=64)
    assert audit_ok
    assert stats.comparisons == sum(lv.total_comparisons for lv in stats.levels)
    assert stats.depth == len(stats.levels)
    assert len(stats.branch_trace) >= stats.depth  # fallback adds a trace entry


def test_comparison_cap_and_depth():
    for seed in range(5):
        inst = generate("uniform:k=8", 5000, RandomStream(10, "cap", seed))
        _, _, stats, audit_ok = run_randomized(inst, seed, cutoff=32)
        assert audit_ok
        assert stats.comparisons <= 8 * 5000


def test_balanced_pairing_is_exactly_half():
    inst = generate("binary:p=0.5", 4096, RandomStream(4))
    _, _, stats = majority(
        CountingOracle(inst), params=Params(cutoff=64), rng=RandomStream(5)
    )
    root = stats.levels[0]
    assert root.branch == "balanced"
    assert root.pairing_comparisons == 4096 // 2


CAP_BREACH = """
import sys
from majoritylab import ContractViolation, CountingOracle, RandomStream
from majoritylab import generate, majority, randomized
print("optimize:", sys.flags.optimize)
randomized._CAP_FACTOR = 1
inst = generate("profile:0.48,rest=100", 1 << 13, RandomStream(30))
try:
    majority(CountingOracle(inst), rng=RandomStream(31))
except ContractViolation as exc:
    print("raised:", exc)
"""


def test_cap_breach_raises_contract_violation(monkeypatch):
    # A near-tie run costs more than n comparisons, so a cap of 1n breaks.
    monkeypatch.setattr(randomized, "_CAP_FACTOR", 1)
    inst = generate("profile:0.48,rest=100", 1 << 13, RandomStream(30))
    with pytest.raises(ContractViolation, match="comparison cap"):
        majority(CountingOracle(inst), rng=RandomStream(31))


def test_cap_breach_raises_under_optimize_flag():
    # Under -O every assert is stripped; the cap must still be enforced.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CAP_BREACH],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "optimize: 1"
    assert lines[1].startswith("raised: comparison cap breached")


# -- forced branches ------------------------------------------------------


def test_forced_branches_exhaustive_small():
    for n in range(2, 7):
        for inst in all_colorings(n, 2):
            for rng in (RandomStream(20, "b", n), RandomStream(21, "l", n)):
                oracle = CountingOracle(inst, record_transcript=True)
                answer, cert, _ = majority(oracle, params=Params(cutoff=2), rng=rng)
                assert verify_run(n, oracle.transcript, answer, cert).accepted
                assert_run_ok(inst, answer, cert, True)

            for candidate in range(1, n + 1):
                oracle = CountingOracle(inst, record_transcript=True)
                answer, cert, _ = heavy(oracle, candidate, rng=RandomStream(22, "h", candidate))
                assert verify_run(n, oracle.transcript, answer, cert).accepted
                assert_run_ok(inst, answer, cert, True)


def test_heavy_census_cost_and_answer():
    inst = generate("profile:60,40", 100, RandomStream(6))
    witness = next(b for b in range(1, 101) if inst.color_of(b) == 1)
    oracle = CountingOracle(inst)
    answer, cert, stats = heavy(oracle, witness, rng=RandomStream(7))
    assert answer.is_majority and answer.multiplicity == 60
    assert cert is None
    assert oracle.comparisons == 99  # census only: m - 1


def test_heavy_rejects_foreign_candidate():
    inst = Instance((1, 2, 1))
    with pytest.raises(ValueError):
        heavy(CountingOracle(inst), candidate=9)


def test_heavy_minority_candidate_still_exact():
    # Handing heavy a minority candidate must stay correct (fallback or
    # a finished certificate), just possibly pricier.
    inst = generate("profile:52,48", 100, RandomStream(8))
    minority_ball = next(b for b in range(1, 101) if inst.color_of(b) == 2)
    oracle = CountingOracle(inst, record_transcript=True)
    answer, cert, stats = heavy(oracle, minority_ball, rng=RandomStream(9))
    assert answer.is_majority and answer.multiplicity == 52
    assert verify_run(100, oracle.transcript, answer, cert).accepted


def test_lift_doubles_pairs_through_partners():
    cert = Certificate(pairs=((2, 4),), candidate=2)
    lifted = _lift_certificate(cert, np.array([2, 4]), np.array([1, 3]))
    assert lifted.pairs.tolist() == [[2, 4], [1, 3]]
    assert lifted.candidate == 2


def test_lift_triangle_to_cross_pairs():
    cert = Certificate(triangle=(2, 4, 6))
    lifted = _lift_certificate(cert, np.array([2, 4, 6]), np.array([1, 3, 5]))
    assert lifted.triangle is None
    assert sorted(lifted.pairs.tolist()) == [[2, 3], [4, 5], [6, 1]]
    assert sorted(lifted.pairs.ravel().tolist()) == [1, 2, 3, 4, 5, 6]


@st.composite
def survivor_levels(draw):
    """A level of s survivors, their s mates, u unequal pairs and perhaps a
    leftover, colored at random, with a survivor certificate: disjoint
    pairs, perhaps a triangle, perhaps a candidate."""
    s = draw(st.integers(0, 9))
    u = draw(st.integers(0, 3))
    odd = draw(st.booleans())
    total = 2 * s + 2 * u + odd
    ids = draw(st.permutations(range(1, total + 1)))
    survivors, mates, unequal = ids[:s], ids[s : 2 * s], ids[2 * s : 2 * s + 2 * u]
    order = draw(st.permutations(survivors))
    triangle = tuple(order[:3]) if s >= 3 and draw(st.booleans()) else None
    rest = order[3:] if triangle else order
    k = draw(st.integers(0, len(rest) // 2))
    pairs = [(rest[2 * i], rest[2 * i + 1]) for i in range(k)]
    candidate = draw(st.sampled_from(survivors)) if s and draw(st.booleans()) else None
    colors = draw(st.lists(st.integers(1, 3), min_size=total, max_size=total))
    return {
        "colors": colors,
        "balls": list(ids),
        "survivors": survivors,
        "mates": mates,
        "unequal": list(zip(unequal[0::2], unequal[1::2])),
        "leftover": ids[-1] if odd else None,
        "pairs": pairs,
        "triangle": triangle,
        "candidate": candidate,
    }


def settle(resolve):
    try:
        return resolve()
    except ContractViolation as exc:
        return f"ContractViolation: {exc}"


@settings(derandomize=True, max_examples=400, deadline=None)
@given(level=survivor_levels())
# no triangle and no majority: the certificate is re-anchored at the candidate
@example(
    level={
        "colors": [3, 2, 1],
        "balls": [1, 2, 3],
        "survivors": [1],
        "mates": [2],
        "unequal": [],
        "leftover": 3,
        "pairs": [],
        "triangle": None,
        "candidate": 1,
    }
)
# no triangle and no majority: the ball walk stops on the bound with ball 4
# unprobed, and the candidate's certificate stands
@example(
    level={
        "colors": [1, 2, 1, 2, 3, 1, 3, 2, 3],
        "balls": [1, 2, 3, 4, 5, 6, 7, 8, 9],
        "survivors": [1, 2],
        "mates": [3, 4],
        "unequal": [(5, 6), (7, 8)],
        "leftover": 9,
        "pairs": [],
        "triangle": None,
        "candidate": 1,
    }
)
# an equal pair: the candidate joins and is the second ball of a walked pair
# whose first ball matched too, so the pair adds a member and the class is 4
@example(
    level={
        "colors": [1, 1, 1, 1, 1],
        "balls": [1, 2, 3, 4, 5],
        "survivors": [1, 2],
        "mates": [3, 4],
        "unequal": [],
        "leftover": 5,
        "pairs": [(1, 2)],
        "triangle": None,
        "candidate": 2,
    }
)
# the next two walks bill the same comparisons and flag no double miss,
# but the first matches balls 1 and 4, for a class of 4, and the second
# balls 2 and 3, for a class of 3, with the candidate 2 matched again: the
# count needs to know which ball of each pair matched
@example(
    level={
        "colors": [1, 1, 2, 1, 1],
        "balls": [1, 2, 3, 4, 5],
        "survivors": [1, 2],
        "mates": [3, 4],
        "unequal": [],
        "leftover": 5,
        "pairs": [(1, 2)],
        "triangle": None,
        "candidate": 2,
    }
)
@example(
    level={
        "colors": [2, 1, 1, 2, 1],
        "balls": [1, 2, 3, 4, 5],
        "survivors": [1, 2],
        "mates": [3, 4],
        "unequal": [],
        "leftover": 5,
        "pairs": [(1, 2)],
        "triangle": None,
        "candidate": 2,
    }
)
# a valid certificate: the candidate joins as the first ball of a walked
# pair and is counted once, for a majority of 3
@example(
    level={
        "colors": [1, 2, 1, 2, 1],
        "balls": [1, 2, 3, 4, 5],
        "survivors": [1, 2],
        "mates": [3, 4],
        "unequal": [],
        "leftover": 5,
        "pairs": [(1, 2)],
        "triangle": None,
        "candidate": 1,
    }
)
def test_array_lift_matches_tuple_lift(level):
    # The lift keeps the tuple lift's pair order, and the leftover probe,
    # which walks the pairs in that order, bills and records the same
    # comparisons as the tuple resolution.
    sub = Certificate(level["pairs"], level["triangle"], level["candidate"])
    survivors = np.array(level["survivors"], dtype=np.int64)
    mates = np.array(level["mates"], dtype=np.int64)
    lifted = _lift_certificate(sub, survivors, mates)
    expected = reference_certificates.lift_certificate(
        level["pairs"], level["triangle"], dict(zip(level["survivors"], level["mates"]))
    )
    assert lifted.pairs.tolist() == [list(pair) for pair in expected]
    assert lifted.triangle is None and lifted.candidate == level["candidate"]

    leftover = level["leftover"]
    if leftover is None:
        return
    m = len(level["balls"])
    inst = Instance(tuple(level["colors"]))
    oracle = CountingOracle(inst, record_transcript=True)
    scalar = CountingOracle(inst, record_transcript=True)
    unequal = np.array(level["unequal"], dtype=np.int64).reshape(-1, 2)
    pairs = np.concatenate((unequal, lifted.pairs))
    cert = Certificate(pairs, None, lifted.candidate)
    run = randomized._Run(oracle, Params(), RandomStream(0))
    lv = LevelStats("balanced", m)
    got = settle(lambda: _resolve_leftover(run, lv, np.array(level["balls"]), leftover, cert, m))
    want = settle(
        lambda: reference_certificates.resolve_leftover(
            scalar, level["balls"], leftover, tuple(level["unequal"]) + expected, lifted.candidate, m
        )
    )
    if isinstance(want, tuple):
        answer, pairs, triangle, candidate = want
        want = (answer, None if pairs is None else Certificate(pairs, triangle, candidate))
    assert got == want
    assert oracle.comparisons == scalar.comparisons == lv.leftover_comparisons
    assert list(oracle.transcript) == list(scalar.transcript)


def _majority_run(spec, n, seed):
    inst = generate(spec, n, RandomStream(seed, spec))
    oracle = CountingOracle(inst, record_transcript=True)
    answer, cert, stats = majority(oracle, params=Params(cutoff=8), rng=RandomStream(seed))
    return oracle, answer, cert, stats


def _heavy_run(colors, seed=0):
    oracle = CountingOracle(Instance(colors), record_transcript=True)
    answer, cert, stats = heavy(oracle, 1, rng=RandomStream(seed))
    return oracle, answer, cert, stats


def _boyer_moore_run(colors):
    oracle = CountingOracle(Instance(colors), record_transcript=True)
    answer, cert = boyer_moore(oracle)
    return oracle, answer, cert, None


# Each producer with a check that the run took its path.
PRODUCERS = {
    "majority-deficit-scan": (
        lambda: _majority_run("profile:0.45,0.3,rest=100", 300, 0),
        lambda cert, stats: stats.levels[0].branch == "balanced"
        and stats.levels[0].scan_comparisons > 0
        and len(cert.pairs) == stats.levels[0].y_pairs,
    ),
    "majority-census": (
        lambda: _majority_run("profile:0.48,rest=100", 300, 0),
        lambda cert, stats: stats.branch_trace == ("heavy",)
        and stats.levels[0].sample_pairs > 0,
    ),
    "majority-lifted": (
        lambda: _majority_run("profile:0.5,0.5", 300, 0),
        lambda cert, stats: stats.levels[0].scan_comparisons == 0
        and len(cert.pairs) > stats.levels[0].y_pairs,
    ),
    # The three exits of the leftover walk: the inherited candidate's
    # certificate (at level 2 of this run), a rainbow triangle and a
    # leftover class that wins its level.
    "majority-odd-leftover": (
        lambda: _majority_run("uniform:k=3", 301, 1),
        lambda cert, stats: stats.levels[2].leftover_exit == "candidate",
    ),
    "majority-leftover-triangle": (
        lambda: _majority_run("uniform:k=3", 301, 0),
        lambda cert, stats: cert.triangle is not None
        and stats.levels[0].leftover_exit == "triangle",
    ),
    "majority-leftover-class-wins": (
        lambda: _majority_run("uniform:k=3", 301, 19),
        # Level 2's leftover class won its level, and level 1 then rejected
        # that majority with its deficit scan.
        lambda cert, stats: stats.levels[2].leftover_exit == "class"
        and stats.levels[1].scan_comparisons > 0,
    ),
    "heavy-cross-pairs": (
        lambda: _heavy_run((1, 2, 1, 2, 2, 1)),
        lambda cert, stats: stats.levels[0].pairing_comparisons == 0 and len(cert.pairs) == 3,
    ),
    "heavy-triangle": (
        lambda: _heavy_run((1, 2, 1, 3, 4)),
        lambda cert, stats: cert.triangle is not None,
    ),
    "heavy-fallback": (
        lambda: _heavy_run((1, 2, 2, 2, 2, 2, 3, 3, 3, 3)),
        lambda cert, stats: "fallback" in stats.branch_trace,
    ),
    "boyer-moore": (
        lambda: _boyer_moore_run((1, 2, 3, 1, 2, 3, 4)),
        lambda cert, stats: True,
    ),
}


@pytest.mark.parametrize("producer", PRODUCERS)
def test_every_producer_returns_int64_pairs_the_auditor_accepts(producer):
    solve, took_path = PRODUCERS[producer]
    oracle, answer, cert, stats = solve()
    assert not answer.is_majority
    assert took_path(cert, stats)
    assert cert.pairs.dtype == np.int64 and cert.pairs.shape == (len(cert.pairs), 2)
    assert len(cert.pairs) and not cert.pairs.flags.writeable
    assert verify_run(oracle.instance.n, oracle.transcript, answer, cert).accepted


def test_light_on_fragmented_input():
    inst = generate("profile:0.25,0.25,0.25,0.25", 2048, RandomStream(11))
    oracle = CountingOracle(inst, record_transcript=True)
    answer, cert, stats = majority(
        oracle, params=Params(cutoff=64), rng=RandomStream(12)
    )
    assert not answer.is_majority
    assert verify_run(2048, oracle.transcript, answer, cert).accepted


def test_single_survivor_root_stops_scan_early():
    # A lone survivor is a majority of one, but one unequal pair that
    # misses it twice already proves no-majority for the level.
    n = 1 << 13
    lone = 0
    for seed in range(20):
        inst = generate("uniform:k=n", n, RandomStream(36, "lone", seed))
        oracle = CountingOracle(inst)
        _, _, stats = majority(
            oracle, params=Params(cutoff=64), rng=RandomStream(37, seed)
        )
        if stats.levels[0].x_size == 1:
            lone += 1
            assert stats.comparisons <= n // 2 + 2
    assert lone >= 1


def test_run_is_deterministic_given_stream():
    inst = generate("binary:p=0.5", 5000, RandomStream(13))
    a = run_randomized(inst, seed=14, cutoff=128, audit=False)
    b = run_randomized(inst, seed=14, cutoff=128, audit=False)
    assert a[0] == b[0]
    assert a[2].comparisons == b[2].comparisons
    assert a[2].branch_trace == b[2].branch_trace


def test_subset_of_balls():
    inst = Instance((1, 2, 1, 2, 2, 2, 9, 2))
    balls = [2, 4, 5, 6, 7]  # five balls, four of color 2
    oracle = CountingOracle(inst, record_transcript=True)
    answer, cert, _ = majority(
        oracle, balls=balls, params=Params(cutoff=2), rng=RandomStream(15)
    )
    assert answer.is_majority and answer.multiplicity == 4
    assert inst.color_of(answer.witness) == 2


@pytest.mark.parametrize(
    "solver",
    [majority, lambda o, balls: heavy(o, 3, balls), boyer_moore],
    ids=["majority", "heavy", "boyer_moore"],
)
@pytest.mark.parametrize("balls", [[1, 1, 1, 3], [3, 3, 4, 5]])
def test_duplicate_balls_are_rejected_before_any_comparison(solver, balls):
    # Counted twice, ball 1 would make colour 1 look like 3 of 4 balls.
    oracle = CountingOracle(Instance((1, 1, 2, 2, 3)))
    with pytest.raises(ValueError, match="distinct"):
        solver(oracle, balls=balls)
    assert oracle.comparisons == 0


@pytest.mark.parametrize(
    "solver",
    [majority, lambda o, balls: heavy(o, 3, balls), boyer_moore],
    ids=["majority", "heavy", "boyer_moore"],
)
@pytest.mark.parametrize(
    "balls", [[1, 2, -1], [1, 2, 6], [1, 2**70]], ids=["below", "above", "beyond-int64"]
)
def test_out_of_range_balls_are_rejected_before_any_comparison(solver, balls):
    oracle = CountingOracle(Instance((1, 1, 2, 2, 3)))
    with pytest.raises(ValueError, match=r"1\.\.5"):
        solver(oracle, balls=balls)
    assert oracle.comparisons == 0


@pytest.mark.parametrize(
    "solver",
    [majority, lambda o, balls: heavy(o, 3, balls), boyer_moore],
    ids=["majority", "heavy", "boyer_moore"],
)
@pytest.mark.parametrize(
    "balls",
    [
        [1.9, 2.9, 5],
        np.array([1.0, 2.0, 5.0]),
        ["1", "2", "5"],
        [True, False],
        [[1, 2], [3, 4]],
        np.array([[1, 2], [3, 4]]),
    ],
    ids=["floats", "float-array", "strings", "bools", "nested-list", "2-D-array"],
)
def test_non_integer_or_nested_balls_are_rejected_before_any_comparison(solver, balls):
    # Truncated, balls 1.9, 2.9 and 5 would read as 1, 2 and 5: a majority of colour 1.
    oracle = CountingOracle(Instance((1, 1, 2, 2, 1)))
    with pytest.raises(ValueError, match="integers|one-dimensional"):
        solver(oracle, balls=balls)
    assert oracle.comparisons == 0


@pytest.mark.parametrize(
    "spec", ["binary:p=0.5", "binary:p=0.9", "profile:0.48,rest=100", "uniform:k=n", "uniform:k=3"]
)
def test_recording_does_not_change_the_run(spec):
    inst = generate(spec, 3001, RandomStream(40, spec))
    for run in (
        lambda oracle: majority(oracle, params=Params(cutoff=64), rng=RandomStream(41, spec)),
        lambda oracle: heavy(oracle, 1, rng=RandomStream(42, spec)),
    ):
        bare = CountingOracle(inst)
        recording = CountingOracle(inst, record_transcript=True)
        answer, cert, stats = run(bare)
        assert run(recording) == (answer, cert, stats)
        assert bare.comparisons == recording.comparisons == len(recording.transcript)
        assert verify_run(inst.n, recording.transcript, answer, cert).accepted


# -- the scans against their pair-by-pair references ----------------------


def scalar_deficit_scan(oracle, v, cnt, pairs, m):
    """The pair-by-pair deficit scan that _deficit_scan must reproduce."""
    for a, b in pairs:
        if not oracle.cmp(v, a) and not oracle.cmp(v, b):
            cnt -= 1
            if cnt == 0:
                return Answer.no_majority(), Certificate(pairs=tuple(pairs), candidate=v)
    return Answer.majority(v, m // 2 + cnt), None


def scalar_unequal_pairs(oracle, order, need):
    """The pair-by-pair scan that _unequal_pairs must reproduce."""
    found = []
    for i in range(0, len(order) - 1, 2):
        a, b = order[i], order[i + 1]
        if not oracle.cmp(a, b):
            found.append((a, b))
            if len(found) == need:
                break
    return found


def rows(pairs):
    """The pairs as a (k, 2) int64 array, one pair per row."""
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def pairs_of(rows):
    return [tuple(pair) for pair in rows.tolist()]


@st.composite
def deficit_scans(draw):
    """Candidate ball 1 (color 1) against unequal pairs that hit it on the
    first ball, hit it on the second, or miss it twice; cnt is 1, the
    number of double misses (the stop lands on the last one) or any."""
    kinds = draw(st.lists(st.sampled_from("abm"), max_size=30))
    colors, pairs = [1], []
    for kind in kinds:
        other = draw(st.sampled_from((2, 3)))
        colors += {"a": (1, other), "b": (other, 1), "m": (other, 5 - other)}[kind]
        pairs.append((len(colors) - 1, len(colors)))
    misses = kinds.count("m")
    cnt = draw(st.one_of(st.just(1), st.just(max(misses, 1)), st.integers(1, len(kinds) + 2)))
    return Instance(tuple(colors)), cnt, pairs


def deficit_case(kinds, cnt):
    colors, pairs = [1], []
    for kind in kinds:
        colors += {"a": (1, 2), "b": (2, 1), "m": (2, 3)}[kind]
        pairs.append((len(colors) - 1, len(colors)))
    return Instance(tuple(colors)), cnt, pairs


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=deficit_scans())
@example(case=deficit_case("mmm", 3))  # the stop lands on the last pair
@example(case=deficit_case("amm", 2))  # on the last pair, after a hit
@example(case=deficit_case("aabmbm", 1))  # on the first double miss, two pairs early
@example(case=deficit_case("mamb", 1))  # on the first pair
@example(case=deficit_case("abab", 1))  # no double miss: every pair is walked
@example(case=deficit_case("ammmbm", 4))  # on the last pair, the fourth miss
@example(case=deficit_case("ammmbm", 5))  # cnt past the last miss: every pair is walked
def test_deficit_scan_matches_scalar_reference(case):
    inst, cnt, pairs = case
    oracle = CountingOracle(inst, record_transcript=True)
    scalar = CountingOracle(inst, record_transcript=True)
    got = _deficit_scan(oracle, 1, cnt, rows(pairs), inst.n)
    assert got == scalar_deficit_scan(scalar, 1, cnt, pairs, inst.n)
    assert oracle.comparisons == scalar.comparisons
    assert list(oracle.transcript) == list(scalar.transcript)


@st.composite
def pair_scans(draw):
    """Consecutive pairs, each equal or unequal by construction; need is 1,
    the number of unequal pairs (the stop lands on the last one) or any."""
    unequal = draw(st.lists(st.booleans(), max_size=30))
    colors = []
    for flag in unequal:
        c = draw(st.sampled_from((1, 2, 3)))
        colors += (c, c % 3 + 1 if flag else c)
    if draw(st.booleans()):
        colors.append(1)  # an odd ball left out of every pair
    found = sum(unequal)
    need = draw(st.one_of(st.just(1), st.just(max(found, 1)), st.integers(1, len(unequal) + 2)))
    return Instance(tuple(colors)), need


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=pair_scans())
# the stop lands on the third pair, before an equal one
@example(case=(Instance((1, 2, 1, 3, 2, 3, 1, 1)), 3))
# on the third pair, before an unequal one
@example(case=(Instance((1, 2, 1, 3, 2, 3, 1, 2)), 3))
# on the last pair
@example(case=(Instance((1, 1, 1, 2, 2, 2, 3, 1)), 2))
@example(case=(Instance((1, 1, 2, 2, 1, 3)), 1))
# on the last pair, the third unequal one among six
@example(case=(Instance((1, 2, 1, 1, 3, 3, 2, 1, 2, 2, 3, 1)), 3))
# need past the last unequal pair: every pair is walked
@example(case=(Instance((1, 2, 1, 1, 3, 1, 2)), 3))
def test_pair_scan_matches_scalar_reference(case):
    inst, need = case
    order = np.arange(1, inst.n + 1, dtype=np.int64)
    oracle = CountingOracle(inst, record_transcript=True)
    scalar = CountingOracle(inst, record_transcript=True)
    pairs, rest = _unequal_pairs(oracle, order, need)
    found = scalar_unequal_pairs(scalar, order.tolist(), need)
    assert pairs_of(pairs) == found
    paired = {b for pair in found for b in pair}
    assert rest.tolist() == [b for b in order.tolist() if b not in paired]
    assert oracle.comparisons == scalar.comparisons
    assert list(oracle.transcript) == list(scalar.transcript)


def _scalar_scan(oracle, v, cnt, unequal, m):
    return scalar_deficit_scan(oracle, v, cnt, pairs_of(unequal), m)


def _scalar_pairs(oracle, order, need):
    found = scalar_unequal_pairs(oracle, order.tolist(), need)
    paired = {b for pair in found for b in pair}
    rest = np.array([b for b in order.tolist() if b not in paired], dtype=np.int64)
    return rows(found), rest


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    colors=st.lists(st.integers(1, 4), min_size=1, max_size=40),
    seed=st.integers(0, 10**6),
    pick=st.integers(0, 10**6),
)
def test_runs_with_scalar_scans_give_the_same_verdicts(colors, seed, pick):
    # Whole majority and heavy runs, once with the oracle's scans and once
    # with the pair-by-pair references swapped in: same answers,
    # certificates and stats, and the same records in the same order.
    inst = Instance(tuple(colors))
    n = inst.n
    params = Params(cutoff=2)

    def runs():
        out = []
        for solve in (
            lambda o: majority(o, params=params, rng=RandomStream(seed, "scan", n)),
            lambda o: heavy(o, pick % n + 1, rng=RandomStream(seed, "h", n)),
        ):
            oracle = CountingOracle(inst, record_transcript=True)
            out.append((solve(oracle), list(oracle.transcript)))
        return out

    scanned = runs()
    with patch.object(randomized, "_deficit_scan", _scalar_scan), patch.object(
        randomized, "_unequal_pairs", _scalar_pairs
    ):
        assert runs() == scanned
