"""The auditor: knowledge structure, claim checking, perturbed transcripts."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_auditor
from reference_brute_force import counter_majority

from majoritylab import (
    Answer,
    Certificate,
    ComparisonRecord,
    CountingOracle,
    InconsistentTranscript,
    Instance,
    Params,
    RandomStream,
    answer_matches_brute_force,
    boyer_moore,
    brute_force_majority,
    build_eq_structure,
    check_majority_claim,
    check_no_majority_claim,
    generate,
    majority,
    verify_run,
)


def rec(a, b, equal):
    return ComparisonRecord(a, b, equal)


def test_eq_structure_unions_and_conflicts():
    eq = build_eq_structure(5, [rec(1, 2, True), rec(2, 3, True), rec(3, 4, False)])
    assert eq.label[1] == eq.label[3]
    assert eq.label[1] != eq.label[4]
    assert eq.provably_unequal(1, 4)  # 1 joined 3, and 3 conflicts 4
    assert not eq.provably_unequal(1, 5)  # never compared, nothing provable
    assert eq.class_size(2) == 3


@st.composite
def small_transcripts(draw):
    """Records true of a hidden 2-coloring, plus up to two arbitrary ones."""
    n = draw(st.integers(1, 8))
    colors = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    ball = st.integers(1, n)
    pairs = draw(st.lists(st.tuples(ball, ball), max_size=24))
    honest = [rec(a, b, colors[a - 1] == colors[b - 1]) for a, b in pairs]
    arbitrary = draw(st.lists(st.builds(rec, ball, ball, st.booleans()), max_size=2))
    return n, draw(st.permutations(honest + arbitrary))


def equal_chain(balls):
    return [rec(a, b, True) for a, b in zip(balls, balls[1:])]


def zigzag(balls):
    """Lowest, highest, second lowest, second highest, ... of balls."""
    low, high = sorted(balls), sorted(balls, reverse=True)
    return [b for pair in zip(low, high) for b in pair][: len(balls)]


# Shapes that take the array union-find several hook or pointer-jump rounds:
# long chains of equal records in descending and alternating ball order, and
# stars centred on the highest ball, on the odd and the even balls of 1..64.
ODD, EVEN = list(range(63, 0, -2)), list(range(64, 0, -2))
DESCENDING_CHAINS = equal_chain(ODD) + equal_chain(EVEN) + [rec(1, 2, False), rec(63, 64, False)]
ZIGZAG_CHAINS = equal_chain(zigzag(ODD)) + equal_chain(zigzag(EVEN)) + [rec(33, 2, False)]
STARS = [rec(64, b, True) for b in EVEN[1:]] + [rec(63, b, True) for b in ODD[1:]]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=small_transcripts())
@example(case=(64, DESCENDING_CHAINS))
@example(case=(64, ZIGZAG_CHAINS))
@example(case=(64, STARS + [rec(1, 64, False)]))
@example(case=(64, STARS + [rec(2, 64, False)]))
def test_eq_structure_matches_naive_components(case):
    # Naive reference: merge components by relabelling every ball, then a
    # conflict is any unequal record joining two components.
    n, transcript = case
    comp = list(range(n + 1))
    for r in transcript:
        if r.equal:
            old, new = comp[r.right], comp[r.left]
            comp = [new if c == old else c for c in comp]
    conflicts = {frozenset((comp[r.left], comp[r.right])) for r in transcript if not r.equal}
    if any(len(edge) == 1 for edge in conflicts):
        with pytest.raises(InconsistentTranscript):
            build_eq_structure(n, transcript)
        return

    eq = build_eq_structure(n, transcript)
    balls = range(1, n + 1)
    roots = eq.class_roots()
    assert len(roots) == len(set(comp[1:]))
    assert {comp[r] for r in roots} == set(comp[1:])
    for x in balls:
        assert eq.class_size(x) == comp.count(comp[x])
        found = eq.rivals(int(eq.label[x])).tolist()
        assert len(found) == len(set(found)) and set(found) <= set(roots)
        assert {comp[r] for r in found} == {
            c for edge in conflicts if comp[x] in edge for c in edge if c != comp[x]
        }
        for y in balls:
            assert (eq.label[x] == eq.label[y]) == (comp[x] == comp[y])
            assert eq.provably_unequal(x, y) == (frozenset((comp[x], comp[y])) in conflicts)


def test_eq_structure_keys_repeat_and_may_be_empty():
    # No unequal record: no key, no rival, nothing provably unequal.
    transcript = [rec(1, 2, True), rec(3, 4, True)]
    eq = build_eq_structure(4, transcript)
    assert eq.keys.dtype == np.int64 and len(eq.keys) == 0
    assert eq.class_roots() == [1, 3] and eq.rivals(1).tolist() == []
    assert not eq.provably_unequal(1, 3)
    cert = Certificate(pairs=((1, 3), (2, 4)))
    expected = reference_auditor.verify_run(4, transcript, Answer.no_majority(), cert)
    assert verify_run(4, transcript, Answer.no_majority(), cert) == expected
    assert expected.reason == "(1, 3) of unit (1, 3) is not provably unequal"

    # Classes {1, 2} and {3, 4} conflict three times; each record keeps its
    # key, in record order, and the rivals come out ascending and once each.
    transcript += [rec(5, 1, False), rec(4, 2, False), rec(3, 1, False), rec(2, 4, False)]
    eq = build_eq_structure(5, transcript)
    loop = reference_auditor.build_eq_structure(5, transcript)
    assert eq.keys.tolist() == [1 * 6 + 5, 1 * 6 + 3, 1 * 6 + 3, 1 * 6 + 3]
    assert eq.rivals(1).tolist() == [3, 5]
    assert eq.rivals(3).tolist() == [1] and eq.rivals(5).tolist() == [1]
    for x in range(1, 6):
        for y in range(1, 6):
            assert eq.provably_unequal(x, y) == loop.provably_unequal(x, y)
    cert = Certificate(pairs=((1, 3), (2, 4)), candidate=5)
    expected = reference_auditor.verify_run(5, transcript, Answer.no_majority(), cert)
    assert verify_run(5, transcript, Answer.no_majority(), cert) == expected


@pytest.mark.parametrize(
    "spec", ["binary:p=0.5", "profile:0.48,rest=100", "uniform:k=3", "uniform:k=n"]
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_array_auditor_matches_loop_auditor_at_scale(spec, seed):
    # Solver transcripts at 2^14 take several hook and pointer-jump rounds,
    # which the small hypothesis transcripts do not reach.
    n = 1 << 14
    inst = generate(spec, n, RandomStream(seed, "audit-at-scale"))
    oracle = CountingOracle(inst, record_transcript=True)
    answer, cert, _ = majority(oracle, rng=RandomStream(seed, "audit-at-scale/solve"))
    transcript = oracle.transcript
    eq = build_eq_structure(n, transcript)
    loop = reference_auditor.build_eq_structure(n, transcript)
    assert eq.label.tolist() == loop.label
    assert eq.size[eq.label[1:]].tolist() == [loop.size[lab] for lab in loop.label[1:]]
    lo, hi = np.divmod(eq.keys, n + 1)
    assert set(zip(lo.tolist(), hi.tolist())) == loop.conflicts

    claims = [(answer, cert)]
    if answer.is_majority:  # the multiplicity shifted by one
        claims.append((Answer.majority(answer.witness, answer.multiplicity + 1), None))
    else:  # one certificate pair dropped
        claims.append((answer, Certificate(cert.pairs[1:], cert.triangle, cert.candidate)))
    for claim, claim_cert in claims:
        expected = reference_auditor.verify_run(n, transcript, claim, claim_cert)
        assert verify_run(n, transcript, claim, claim_cert) == expected
    assert verify_run(n, transcript, answer, cert).accepted


def test_auditor_imports_nothing_from_the_solvers():
    # The auditor must stay independent of the code it audits.
    import majoritylab.certify as certify

    tree = ast.parse(Path(certify.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
    parts = {part for name in imported for part in name.split(".")}
    assert not parts & {"randomized", "boyer_moore", "bench", "lowerbound"}, imported


def test_inconsistent_transcript_raises():
    with pytest.raises(InconsistentTranscript):
        build_eq_structure(3, [rec(1, 2, True), rec(1, 2, False)])
    # equality arriving after the conflict is the same contradiction
    with pytest.raises(InconsistentTranscript):
        build_eq_structure(3, [rec(1, 2, False), rec(2, 3, True), rec(1, 3, True)])


def test_transcript_range_validation():
    with pytest.raises(ValueError):
        build_eq_structure(2, [rec(1, 3, True)])


def census_transcript(colors, witness=1):
    """Compare the witness against everything else, like a full census."""
    return [
        rec(witness, b, colors[witness - 1] == colors[b - 1])
        for b in range(1, len(colors) + 1)
        if b != witness
    ]


def test_majority_claim_accepts_full_census():
    colors = (1, 1, 1, 2, 2)
    eq = build_eq_structure(5, census_transcript(colors))
    assert check_majority_claim(eq, Answer.majority(1, 3), 5).accepted


def test_majority_claim_rejects_wrong_multiplicity():
    colors = (1, 1, 1, 2, 2)
    eq = build_eq_structure(5, census_transcript(colors))
    assert not check_majority_claim(eq, Answer.majority(1, 4), 5).accepted
    assert not check_majority_claim(eq, Answer.majority(1, 2), 5).accepted


def test_majority_claim_rejects_unproven_class():
    # 1 equals 2, nothing ties 1 to 3, so a claim of three is unsupported.
    eq = build_eq_structure(5, [rec(1, 2, True), rec(1, 4, False), rec(1, 5, False)])
    assert not check_majority_claim(eq, Answer.majority(1, 3), 5).accepted


def test_majority_claim_requires_conflicts_with_every_class():
    # Class {1,2,3} clears n//2 but ball 4's class was never distinguished.
    eq = build_eq_structure(5, [rec(1, 2, True), rec(1, 3, True), rec(1, 5, False)])
    assert not check_majority_claim(eq, Answer.majority(1, 3), 5).accepted
    # Balls 2 and 6 were never distinguished from the witness's class, whose
    # one rival is keyed twice: the reason names the smaller of the two.
    census = [rec(1, b, True) for b in (3, 4, 5, 7, 8)]
    eq = build_eq_structure(9, census + [rec(9, 1, False), rec(8, 9, False)])
    res = check_majority_claim(eq, Answer.majority(1, 6), 9)
    assert res.reason == "class of ball 2 is not proven unequal to witness"


def test_no_majority_matching_certificate():
    colors = (1, 2, 1, 2)
    transcript = [rec(1, 2, False), rec(3, 4, False)]
    eq = build_eq_structure(4, transcript)
    cert = Certificate(pairs=((1, 2), (3, 4)))
    assert check_no_majority_claim(eq, cert, 4).accepted


def test_no_majority_rejects_unproven_pair():
    eq = build_eq_structure(4, [rec(1, 2, False)])
    cert = Certificate(pairs=((1, 2), (3, 4)))  # (3,4) never compared
    res = check_no_majority_claim(eq, cert, 4)
    assert not res.accepted and "not provably unequal" in res.reason


def test_no_majority_rejects_double_cover():
    eq = build_eq_structure(4, [rec(1, 2, False), rec(1, 3, False)])
    cert = Certificate(pairs=((1, 2), (1, 3)))
    assert not check_no_majority_claim(eq, cert, 4).accepted


def test_no_majority_rejects_budget_overrun():
    # One pair on four balls leaves two uncovered: 1 unit + 2 > 2.
    eq = build_eq_structure(4, [rec(1, 2, False)])
    cert = Certificate(pairs=((1, 2),))
    assert not check_no_majority_claim(eq, cert, 4).accepted


def test_no_majority_triangle_certificate():
    colors = (1, 2, 3)
    transcript = [rec(1, 2, False), rec(1, 3, False), rec(2, 3, False)]
    eq = build_eq_structure(3, transcript)
    cert = Certificate(triangle=(1, 2, 3))
    assert check_no_majority_claim(eq, cert, 3).accepted
    # missing one edge: not a proven rainbow
    eq2 = build_eq_structure(3, [rec(1, 2, False), rec(1, 3, False)])
    assert not check_no_majority_claim(eq2, cert, 3).accepted


def test_certificate_pairs_are_one_read_only_int64_table():
    pairs = [(1, 2), (3, 4)]
    cert = Certificate(pairs=pairs)
    assert cert.pairs.dtype == np.int64 and cert.pairs.shape == (2, 2)
    assert cert.pairs.tolist() == [[1, 2], [3, 4]]
    with pytest.raises(ValueError):
        cert.pairs[0, 0] = 5
    pairs[0] = (7, 8)  # the certificate holds its own copy
    assert cert.pairs.tolist() == [[1, 2], [3, 4]]
    assert Certificate(cert.pairs).pairs is cert.pairs  # a read-only table is shared
    assert Certificate().pairs.shape == (0, 2) and Certificate().units() == 0
    assert Certificate(pairs=pairs, triangle=(5, 6, 9)).units() == 3


def test_certificate_equality_compares_the_tables():
    assert Certificate() == Certificate()
    assert Certificate(((1, 2),), candidate=3) == Certificate(np.array([[1, 2]]), candidate=3)
    assert Certificate(((1, 2),)) != Certificate(((2, 1),))
    assert Certificate(((1, 2),)) != Certificate(((1, 2), (3, 4)))
    assert Certificate(((1, 2),)) != Certificate(((1, 2),), candidate=1)
    assert Certificate() != Certificate(triangle=(1, 2, 3))


@pytest.mark.parametrize(
    "pairs",
    [((1, 2, 3),), ((1,),), ((1, 2), (3,)), (1, 2), [[]], np.zeros((2, 2, 2))],
    ids=["width-3", "width-1", "ragged", "flat", "empty-row", "three-axes"],
)
def test_certificate_rejects_pairs_that_are_not_a_k_by_2_table(pairs):
    with pytest.raises(ValueError):
        Certificate(pairs=pairs)


def test_no_majority_rejects_a_ball_beyond_int64():
    # A certificate that cannot be built cannot be accepted.
    with pytest.raises(ValueError, match="beyond int64"):
        Certificate(pairs=((1, 2), (3, 2**70)))


def test_certificate_rejects_balls_that_are_not_integers():
    # Truncated, this certificate reads as pairs (4, 5) and triangle (1, 2, 3),
    # which this transcript proves: it never compared ball 4.9 or 1.5.
    transcript = [rec(4, 5, False), rec(1, 2, False), rec(1, 3, False), rec(2, 3, False)]
    truncated = Certificate(pairs=[[4, 5]], triangle=(1, 2, 3))
    assert verify_run(5, transcript, Answer.no_majority(), truncated).accepted
    for fields in (
        dict(pairs=[[4.9, 5]], triangle=(1.5, 2, 3)),
        dict(pairs=[[4.9, 5]], triangle=(1, 2, 3)),
        dict(pairs=[[4, 5]], triangle=(1.5, 2, 3)),
        dict(pairs=[[4, 5.0]]),
        dict(pairs=np.array([[4.0, 5.0]])),
        dict(pairs=[[True, False]]),
        dict(pairs=[["4", 5]]),
        dict(triangle=(1, 2, True)),
        dict(triangle=3),
        dict(candidate=1.0),
        dict(candidate=True),
        dict(candidate="1"),
    ):
        with pytest.raises(ValueError, match="integer|row"):
            Certificate(**fields)
    # Numpy integers are made ints, and a read-only int64 table is still shared.
    cert = Certificate(truncated.pairs, (np.int64(1), np.uint64(2), 3), np.int32(4))
    assert cert.pairs is truncated.pairs
    assert cert.triangle == (1, 2, 3) and type(cert.triangle[1]) is int
    assert type(cert.candidate) is int


@pytest.mark.parametrize(
    "witness, multiplicity",
    [(1.5, 3), (True, 3), (np.float64(1), 3), ("1", 3), (1, 3.0), (1, True)],
)
def test_answer_rejects_a_witness_or_multiplicity_that_is_not_an_integer(witness, multiplicity):
    # As ball 1, True would pass check_majority_claim; 1.5 crashed it.
    with pytest.raises(ValueError, match="integer"):
        Answer.majority(witness, multiplicity)


@pytest.mark.parametrize("n", [2.5, 3.0, True, "3", None, -1])
def test_build_rejects_n_that_is_not_a_nonnegative_integer(n):
    # As n = 1, True would audit a transcript of balls 1..1.
    with pytest.raises(ValueError, match=r"integer|0\.\."):
        build_eq_structure(n, [rec(1, 2, False)])
    with pytest.raises(ValueError, match=r"integer|0\.\."):
        verify_run(n, [rec(1, 2, False)], Answer.no_majority(), Certificate())


def test_build_rejects_n_too_large_for_int64_keys():
    # (n + 1) ** 2 must stay below 2**63: n = 3,037,000,498 is the largest.
    with pytest.raises(ValueError, match="int64"):
        build_eq_structure(3_037_000_499, [])


@pytest.mark.parametrize(
    "transcript",
    [
        [(1.7, 2, True), (1, 3, True)],
        [(1, 2, True), (True, 3, True)],
        [(1, 2, 2), (1, 3, True)],
        [(1, 2, 0.5), (1, 3, True)],
        [(1, 2, True), (1, np.float64(3), True)],
        [(1, 2, True), (1, 3, "yes")],
        [(1, 2), (1, 3), (2, 3)],
    ],
    ids=["float-ball", "bool-ball", "int-flag", "float-flag", "np-float-ball", "str-flag", "pairs"],
)
def test_verify_run_rejects_records_that_are_not_two_balls_and_a_flag(transcript):
    # Cast to int64, 1.7 read as ball 1, True as ball 1 and a nonzero flag as
    # equal, so the first two transcripts were accepted for a majority of 3.
    with pytest.raises(ValueError, match="transcript"):
        verify_run(3, transcript, Answer.majority(1, 3), None)
    with pytest.raises(ValueError, match="transcript"):
        build_eq_structure(3, transcript)
    # Numpy integers and numpy bools are integers and bools.
    fine = [(np.int64(1), 2, np.True_), (1, np.uint8(3), True)]
    assert verify_run(3, fine, Answer.majority(1, 3), None).accepted


def test_claim_checks_reject_an_n_other_than_the_structures():
    # With n = 3 the pair (1, 2) was keyed with the wrong multiplier and
    # rejected, although the transcript proves it unequal.
    eq = build_eq_structure(5, [rec(1, 2, False)])
    cert = Certificate(pairs=[(1, 2)], candidate=3)
    with pytest.raises(ValueError, match="built for n = 5"):
        check_no_majority_claim(eq, cert, 3)
    with pytest.raises(ValueError, match="built for n = 5"):
        check_majority_claim(eq, Answer.majority(1, 3), 6)
    # With eq's own n the pair is proven; only the counts fail.
    assert "bound fails" in check_no_majority_claim(eq, cert, 5).reason


@pytest.mark.parametrize(
    "make",
    [
        lambda: Answer("bogus"),
        lambda: Answer("Majority", 1, 3),
        lambda: Answer("no_majority", 3, 4),
        lambda: Answer("no_majority", 3),
        lambda: Answer("no_majority", None, 4),
        lambda: Answer("majority"),
        lambda: Answer("majority", 1),
    ],
    ids=[
        "bogus",
        "capitalised",
        "no-majority-with-both",
        "with-witness",
        "with-multiplicity",
        "majority-bare",
        "majority-without-multiplicity",
    ],
)
def test_answer_rejects_an_unknown_kind_or_a_no_majority_with_a_claim(make):
    # A no-majority answer claims nothing; a majority answer claims both a
    # witness and a multiplicity.
    with pytest.raises(ValueError, match="answer|no-majority"):
        make()


def test_no_majority_checks_every_ball_of_a_unit():
    # A four-ball "triangle" whose fourth ball was never compared is not one
    # unit: colors 1 2 3 1 1 fit this transcript and have a majority.
    eq = build_eq_structure(5, [rec(1, 2, False), rec(1, 3, False), rec(2, 3, False)])
    res = check_no_majority_claim(eq, Certificate(triangle=(1, 2, 3, 4)), 5)
    assert not res.accepted and "not provably unequal" in res.reason


def test_no_majority_candidate_certificate():
    # Colors 1 2 3 2 1.  Candidate 1's class is pinned to {1, 5}; both pairs
    # are proven unequal and every pair member is resolved against the
    # candidate, so each color is capped at 2 of 5.
    transcript = [
        rec(1, 2, False),
        rec(3, 4, False),
        rec(1, 5, True),
        rec(1, 3, False),
        rec(1, 4, False),
    ]
    eq = build_eq_structure(5, transcript)
    cert = Certificate(pairs=((1, 2), (3, 4)), candidate=1)
    assert check_no_majority_claim(eq, cert, 5).accepted
    # Drop the (1, 4) resolution: pair (3, 4) might now hide another
    # candidate-class ball, so the candidate's color is no longer capped.
    eq2 = build_eq_structure(
        5, [rec(1, 2, False), rec(3, 4, False), rec(1, 5, True), rec(1, 3, False)]
    )
    res = check_no_majority_claim(eq2, cert, 5)
    assert not res.accepted and "candidate bound" in res.reason


def test_verify_run_end_to_end():
    colors = (1, 1, 2)
    transcript = census_transcript(colors)
    assert verify_run(3, transcript, Answer.majority(1, 2), None).accepted
    assert not verify_run(3, transcript, Answer.no_majority(), None).accepted
    bad = [rec(1, 2, True), rec(1, 2, False)]
    res = verify_run(3, bad, Answer.majority(1, 2), None)
    assert not res.accepted and "inconsistent" in res.reason


def test_brute_force_and_matching():
    inst = Instance((1, 2, 1, 1))
    truth = brute_force_majority(inst)
    assert truth.is_majority and truth.multiplicity == 3
    # any ball of the majority color is an acceptable witness
    assert answer_matches_brute_force(Answer.majority(4, 3), inst)
    assert not answer_matches_brute_force(Answer.majority(2, 3), inst)
    assert not answer_matches_brute_force(Answer.majority(1, 2), inst)
    assert not answer_matches_brute_force(Answer.no_majority(), inst)
    # a witness outside 1..n, or not among the given balls, is not one
    for witness in (0, -1, 5, 2**70):
        assert not answer_matches_brute_force(Answer.majority(witness, 3), inst)
    assert answer_matches_brute_force(Answer.majority(3, 2), inst, [1, 2, 3])
    assert not answer_matches_brute_force(Answer.majority(4, 2), inst, [1, 2, 3])
    assert not answer_matches_brute_force(Answer.majority(4, 2), inst, np.array([3, 3]))


def test_brute_force_on_subset():
    inst = Instance((1, 2, 2, 1))
    truth = brute_force_majority(inst, balls=[2, 3, 4])
    assert truth.is_majority and truth.multiplicity == 2
    assert inst.color_of(truth.witness) == 2


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    colors=st.lists(st.integers(0, 4) | st.just(2**70), max_size=40),
    picks=st.none() | st.lists(st.integers(0, 10**6), max_size=40),
)
@example(colors=[], picks=None)
@example(colors=[3, 1, 3, 2, 3], picks=[4, 1, 0])  # a subset whose majority is not the instance's
@example(colors=[2**70, 1, 2**70], picks=None)  # ids beyond int64
def test_brute_force_matches_counter_reference(colors, picks):
    # The median-and-count brute force names the same answer and the same
    # first witness as counting every color, over the whole instance or
    # over a sequence of its balls in the caller's order.
    inst = Instance(colors)
    balls = None if picks is None or not colors else [p % len(colors) + 1 for p in picks]
    assert brute_force_majority(inst, balls) == counter_majority(inst, balls)


def set_partitions(n, prefix=()):
    """Every coloring of balls 1..n up to renaming colors (Bell(n) of them)."""
    if len(prefix) == n:
        yield prefix
        return
    for color in range(1, max(prefix, default=0) + 2):
        yield from set_partitions(n, prefix + (color,))


def matching_of_unequal_records(transcript):
    """A no-majority certificate a solver could build from the records alone."""
    used, pairs = set(), []
    for r in transcript:
        if not r.equal and r.left != r.right and not {r.left, r.right} & used:
            used |= {r.left, r.right}
            pairs.append((r.left, r.right))
    return Certificate(pairs=tuple(pairs))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    colors=st.lists(st.integers(1, 3), min_size=2, max_size=7),
    use_baseline=st.booleans(),
    seed=st.integers(0, 1000),
    position=st.integers(0, 10**6),
    flip=st.booleans(),
)
def test_perturbed_transcript_never_endorses_a_false_claim(
    colors, use_baseline, seed, position, flip
):
    # Flip or drop one record of an honest run, then offer the auditor the
    # honest claim and false ones.  The auditor only sees the transcript, so
    # an accepted claim must hold on every coloring the perturbed records
    # allow.  A dropped record leaves the transcript true, so the real
    # instance is among those colorings; a flipped one may leave none, and
    # then nothing may be accepted.
    inst = Instance(tuple(colors))
    n = inst.n
    oracle = CountingOracle(inst, record_transcript=True)
    if use_baseline:
        answer, cert = boyer_moore(oracle)
    else:
        answer, cert, _ = majority(
            oracle, params=Params(cutoff=2), rng=RandomStream(seed, "perturb", n)
        )
    transcript = list(oracle.transcript)
    i = position % len(transcript)
    if flip:
        transcript[i] = transcript[i]._replace(equal=not transcript[i].equal)
    else:
        del transcript[i]

    consistent = [
        Instance(c)
        for c in set_partitions(n)
        if all((c[r.left - 1] == c[r.right - 1]) == r.equal for r in transcript)
    ]
    if not flip:
        names = {}
        real = tuple(names.setdefault(c, len(names) + 1) for c in colors)
        assert Instance(real) in consistent

    claims = [(answer, cert)]
    if answer.is_majority:
        claims += [
            (Answer.majority(answer.witness, answer.multiplicity + 1), None),
            (Answer.majority(answer.witness, answer.multiplicity - 1), None),
            (Answer.no_majority(), matching_of_unequal_records(transcript)),
        ]
    else:
        witness = cert.candidate if cert.candidate is not None else 1
        claims.append((Answer.majority(witness, n // 2 + 1), None))
    for claim, claim_cert in claims:
        if verify_run(n, transcript, claim, claim_cert).accepted:
            assert consistent, f"accepted {claim} on a contradictory transcript"
            for c in consistent:
                assert answer_matches_brute_force(claim, c), (claim, c.colors)
            if not flip:
                assert answer_matches_brute_force(claim, inst)


def perturbed_claim(answer, cert, transcript, kind, index, ball, delta, n):
    """One edit of an honest claim.  A majority claim is edited in its
    multiplicity or witness, or else replaced by a no-majority claim built
    from the unequal records, which the remaining edits then work on."""
    if answer.is_majority:
        if kind == "none":
            return answer, cert
        if kind == "multiplicity":
            return Answer.majority(answer.witness, answer.multiplicity + delta), None
        if kind == "move_candidate":
            return Answer.majority(ball, answer.multiplicity), None
        witness = answer.witness
        answer, cert = Answer.no_majority(), matching_of_unequal_records(transcript)
        cert = Certificate(cert.pairs, candidate=witness)
    units = [*cert.pairs] + ([cert.triangle] if cert.triangle is not None else [])
    if kind == "drop_pair" and len(cert.pairs):
        pairs = list(cert.pairs)
        del pairs[index % len(pairs)]
        return answer, Certificate(tuple(pairs), cert.triangle, cert.candidate)
    if kind == "swap_ball" and units:
        i = index % len(units)
        unit = list(units[i])
        unit[index % len(unit)] = ball
        units[i] = tuple(unit)
        if cert.triangle is not None and i == len(units) - 1:
            return answer, Certificate(tuple(units[:-1]), units[-1], cert.candidate)
        return answer, Certificate(tuple(units[: len(cert.pairs)]), cert.triangle, cert.candidate)
    if kind == "move_candidate":
        return answer, Certificate(cert.pairs, cert.triangle, ball)
    if kind == "multiplicity":
        # No majority says every class is at most n//2; claim one more.
        return Answer.majority(ball, n // 2 + 1), None
    return answer, cert


@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    colors=st.lists(st.integers(1, 3), min_size=1, max_size=12),
    use_baseline=st.booleans(),
    seed=st.integers(0, 1000),
    kind=st.sampled_from(("none", "drop_pair", "swap_ball", "move_candidate", "multiplicity")),
    index=st.integers(0, 10**6),
    ball=st.integers(0, 10**6),
    delta=st.sampled_from((-1, 1)),
)
def test_accepted_claims_are_true(colors, use_baseline, seed, kind, index, ball, delta):
    # An honest run's claim, edited once, against its honest transcript:
    # whatever the auditor accepts must agree with brute force.
    inst = Instance(tuple(colors))
    n = inst.n
    oracle = CountingOracle(inst, record_transcript=True)
    if use_baseline:
        answer, cert = boyer_moore(oracle)
    else:
        answer, cert, _ = majority(
            oracle, params=Params(cutoff=2), rng=RandomStream(seed, "claims", n)
        )
    transcript = list(oracle.transcript)
    claim, claim_cert = perturbed_claim(answer, cert, transcript, kind, index, ball % n + 1, delta, n)
    accepted = verify_run(n, transcript, claim, claim_cert).accepted
    if accepted:
        assert answer_matches_brute_force(claim, inst), (claim, claim_cert, colors)
    if kind == "none":
        assert accepted


@st.composite
def audit_cases(draw):
    """A transcript true of a hidden 3-coloring (plus, sometimes, one
    arbitrary record), and a claim on it: a majority answer, or a
    no-majority certificate built from the unequal records and then edited
    to be malformed in one of the ways a certificate can be."""
    n = draw(st.integers(1, 9))
    colors = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    ball = st.integers(1, n)
    any_ball = st.integers(-1, n + 2)
    compared = draw(st.lists(st.tuples(ball, ball), max_size=24))
    w = draw(ball)
    if draw(st.booleans()):  # a census around one ball, perhaps missing one
        skip = draw(st.integers(0, n))
        compared += [(w, b) for b in range(1, n + 1) if b != skip]
    if draw(st.booleans()):  # every pair of three balls, for a triangle
        tri = draw(st.lists(ball, min_size=3, max_size=3, unique=True)) if n >= 3 else []
        compared += [(a, b) for i, a in enumerate(tri) for b in tri[i + 1 :]]
    transcript = [rec(a, b, colors[a - 1] == colors[b - 1]) for a, b in compared]
    if draw(st.integers(0, 3)) == 0:
        transcript.append(draw(st.builds(rec, ball, ball, st.booleans())))
    transcript = draw(st.permutations(transcript))

    if draw(st.booleans()):
        witness = draw(st.one_of(st.just(w), any_ball))
        try:  # the proven size of the witness's class passes the size checks
            size = reference_auditor.build_eq_structure(n, transcript).class_size(witness)
        except (InconsistentTranscript, IndexError):
            size = n
        mult = draw(st.one_of(st.just(size), st.integers(0, n + 1)))
        return n, transcript, Answer.majority(witness, mult), None

    units = list(matching_of_unequal_records(transcript).pairs)
    unequal = {(r.left, r.right) for r in transcript if not r.equal}
    triangle = None
    if draw(st.booleans()):
        triangle = tuple(draw(st.lists(ball, min_size=3, max_size=3)))
        if draw(st.booleans()):  # a triple whose pairs were all compared
            found = [
                (a, b, c)
                for a in range(1, n + 1)
                for b in range(1, n + 1)
                for c in range(1, n + 1)
                if {(a, b), (a, c), (b, c)} <= unequal
            ]
            triangle = draw(st.sampled_from(found)) if found else triangle
        units = [u for u in units if not set(u) & set(triangle)]
    edit = draw(st.sampled_from(("none", "drop", "swap", "add", "grow", "shrink")))
    if edit == "drop" and units:
        del units[draw(st.integers(0, len(units) - 1))]
    elif edit == "swap" and units:  # a ball out of range, covered twice or unproven
        i = draw(st.integers(0, len(units) - 1))
        unit = list(units[i])
        unit[draw(st.integers(0, 1))] = draw(any_ball)
        units[i] = tuple(unit)
    elif edit == "add":
        units.insert(draw(st.integers(0, len(units))), (draw(any_ball), draw(any_ball)))
    elif edit == "grow" and triangle is not None:
        triangle += (draw(any_ball),)
    elif edit == "shrink" and triangle is not None:
        triangle = triangle[:2]
    candidate = draw(st.one_of(st.none(), ball, any_ball))
    return n, transcript, Answer.no_majority(), Certificate(tuple(units), triangle, candidate)


@settings(derandomize=True, max_examples=1500, deadline=None)
@given(case=audit_cases())
def test_array_auditor_matches_loop_auditor(case):
    # Same verdict and the same first-failure reason as the loop auditor.
    n, transcript, answer, cert = case
    expected = reference_auditor.verify_run(n, transcript, answer, cert)
    assert verify_run(n, transcript, answer, cert) == expected
