"""The auditor: knowledge structure, claim checking, perturbed transcripts."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_auditor

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
    majority,
    verify_run,
)


def rec(a, b, equal):
    return ComparisonRecord(a, b, equal)


def test_eq_structure_unions_and_conflicts():
    eq = build_eq_structure(5, [rec(1, 2, True), rec(2, 3, True), rec(3, 4, False)])
    assert eq.same_class(1, 3)
    assert not eq.same_class(1, 4)
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
        found = eq.conflict_roots_of(x)
        assert found <= set(roots)
        assert {comp[r] for r in found} == {
            c for edge in conflicts if comp[x] in edge for c in edge if c != comp[x]
        }
        for y in balls:
            assert eq.same_class(x, y) == (comp[x] == comp[y])
            assert eq.provably_unequal(x, y) == (frozenset((comp[x], comp[y])) in conflicts)


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


def test_brute_force_on_subset():
    inst = Instance((1, 2, 2, 1))
    truth = brute_force_majority(inst, balls=[2, 3, 4])
    assert truth.is_majority and truth.multiplicity == 2
    assert inst.color_of(truth.witness) == 2


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
