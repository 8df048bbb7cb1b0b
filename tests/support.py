"""Shared test plumbing: run-and-audit harnesses and instance enumeration."""

from __future__ import annotations

from itertools import product

from majoritylab import (
    Answer,
    Certificate,
    CountingOracle,
    Instance,
    Params,
    RandomStream,
    answer_matches_brute_force,
    boyer_moore,
    brute_force_majority,
    majority,
    verify_run,
)


def all_colorings(n: int, colors: int):
    """Every instance of size n over color ids 1..colors."""
    for combo in product(range(1, colors + 1), repeat=n):
        yield Instance(combo)


def run_boyer_moore(instance: Instance, audit: bool = True):
    """Run the baseline; returns (answer, cert, comparisons, audit_ok)."""
    oracle = CountingOracle(instance, record_transcript=audit)
    answer, cert = boyer_moore(oracle)
    ok = None
    if audit:
        ok = verify_run(instance.n, oracle.transcript, answer, cert).accepted
    return answer, cert, oracle.comparisons, ok


def run_randomized(
    instance: Instance,
    seed: int = 0,
    *,
    cutoff: int,
    audit: bool = True,
    salt: str = "t",
):
    """Run the randomized driver; returns (answer, cert, stats, audit_ok)."""
    oracle = CountingOracle(instance, record_transcript=audit)
    params = Params(cutoff=cutoff)
    rng = RandomStream(seed, salt, instance.n)
    answer, cert, stats = majority(oracle, params=params, rng=rng)
    ok = None
    if audit:
        ok = verify_run(instance.n, oracle.transcript, answer, cert).accepted
    return answer, cert, stats, ok


def assert_correct(answer: Answer, instance: Instance) -> None:
    assert answer_matches_brute_force(answer, instance), (
        f"wrong answer {answer} on {instance.colors}; "
        f"truth {brute_force_majority(instance)}"
    )


def assert_run_ok(instance: Instance, answer, cert, audit_ok) -> None:
    assert_correct(answer, instance)
    if not answer.is_majority:
        assert isinstance(cert, Certificate), "no-majority answers need a certificate"
    assert audit_ok, f"certificate rejected on {instance.colors}"


def claim_is_true(answer: Answer, inst: Instance) -> bool:
    return answer_matches_brute_force(answer, inst)


def mutate(answer: Answer, cert: Certificate | None, inst: Instance, rng: RandomStream):
    """One structured corruption of a claim; returns (answer, cert)."""
    n = inst.n
    if answer.is_majority:
        kind = ("inflate", "deflate", "rewitness", "flip")[rng.randrange(4)]
        if kind == "inflate":
            return Answer.majority(answer.witness, answer.multiplicity + 1), None
        if kind == "deflate":
            return Answer.majority(answer.witness, answer.multiplicity - 1), None
        if kind == "rewitness":
            other = [
                b
                for b in range(1, n + 1)
                if inst.color_of(b) != inst.color_of(answer.witness)
            ]
            if other:
                ball = other[rng.randrange(len(other))]
                return Answer.majority(ball, answer.multiplicity), None
            return Answer.majority(answer.witness, answer.multiplicity + 1), None
        return Answer.no_majority(), Certificate()

    # weight toward answer flips so the mix produces enough outright lies
    kinds = ["drop_pair", "swap_ball", "dup_ball", "retarget", "strip_candidate"]
    if not len(cert.pairs) or rng.bernoulli(0.35):
        kind = "flip"
    else:
        kind = kinds[rng.randrange(len(kinds))]
    if kind == "flip":
        witness = cert.candidate if cert.candidate else 1
        return Answer.majority(witness, n // 2 + 1), None
    pairs = list(cert.pairs)
    if kind == "drop_pair":
        pairs.pop(rng.randrange(len(pairs)))
        return answer, Certificate(pairs=tuple(pairs), triangle=cert.triangle, candidate=cert.candidate)
    if kind == "swap_ball":
        i = rng.randrange(len(pairs))
        a, _ = pairs[i]
        pairs[i] = (a, rng.randint(1, n))
        return answer, Certificate(pairs=tuple(pairs), triangle=cert.triangle, candidate=cert.candidate)
    if kind == "dup_ball":
        i = rng.randrange(len(pairs))
        a, _ = pairs[i]
        pairs[i] = (a, a)
        return answer, Certificate(pairs=tuple(pairs), triangle=cert.triangle, candidate=cert.candidate)
    if kind == "retarget":
        return answer, Certificate(
            pairs=cert.pairs, triangle=cert.triangle, candidate=rng.randint(1, n)
        )
    return answer, Certificate(pairs=cert.pairs, triangle=cert.triangle, candidate=None)
