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
