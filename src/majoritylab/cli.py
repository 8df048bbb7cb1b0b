"""Command line front end.

Subcommands:
  run      solve one instance and print the answer, cost, and branch trace
  bench    run a seeded grid and emit per-trial rows as CSV or JSON
  verify   replay one run and audit it against its certificate and the truth
  analyze  numeric companions: the cost constant and the merge-game simulator

Exit codes: 0 on success, 1 when a contract is violated (wrong answer,
rejected certificate, failed audit, or a ContractViolation raised by a
run), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys

from .answers import ContractViolation
from .bench import (
    ALGORITHMS,
    ExperimentConfig,
    contract_violations,
    format_summary,
    rows_to_csv,
    rows_to_json,
    run_grid,
    solve,
    summarize,
)
from .certify import answer_matches_brute_force, brute_force_majority, verify_run
from .core import CountingOracle, generate, read_instance
from .lowerbound import STRATEGIES, beta_interval, lower_bound_constant, simulate_balance
from .rng import RandomStream

__all__ = ["main"]


def _parse_size(token: str) -> int:
    """Accept plain integers and 2^k shorthand."""
    token = token.strip()
    if "^" in token:
        base, _, exp = token.partition("^")
        if int(exp) < 0:
            raise ValueError(f"size {token!r} is not an integer")
        return int(base) ** int(exp)
    return int(token)


def _load_instance(args: argparse.Namespace):
    if args.instance:
        return read_instance(args.instance)
    if args.n is None:
        raise ValueError("either --instance or --n is required")
    inst_rng = RandomStream(args.seed, f"instance/{args.n}", 0)
    try:
        return generate(args.dist, args.n, inst_rng)
    except (MemoryError, OverflowError):
        raise ValueError(f"--n {args.n} is too large to generate in memory") from None


def _solve(instance, args: argparse.Namespace, record_transcript: bool):
    """Run the chosen algorithm; returns (answer, cert, trace, oracle)."""
    oracle = CountingOracle(instance, record_transcript=record_transcript)
    answer, cert, trace = solve(args.algo, oracle, args.seed, cutoff=args.cutoff)
    return answer, cert, trace, oracle


def _describe(answer) -> str:
    if answer.is_majority:
        return f"majority ball={answer.witness} multiplicity={answer.multiplicity}"
    return "no_majority"


def _cmd_run(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    answer, cert, trace, oracle = _solve(instance, args, args.record_transcript)
    print(f"n: {instance.n}")
    print(f"answer: {_describe(answer)}")
    print(f"comparisons: {oracle.comparisons}")
    print(f"branch trace: {'>'.join(trace)}")
    if cert is not None:
        anchor = "" if cert.candidate is None else f" candidate={cert.candidate}"
        triangle = " triangle" if cert.triangle else ""
        print(f"certificate: {cert.units()} units{anchor}{triangle}")
    if args.record_transcript:
        print(f"transcript: {len(oracle.transcript)} comparisons")
        for rec in oracle.transcript:
            print(f"{rec.left} {rec.right} {int(rec.equal)}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    answer, cert, trace, oracle = _solve(instance, args, record_transcript=True)
    truth = brute_force_majority(instance)
    matches = answer_matches_brute_force(answer, instance)
    audit = verify_run(instance.n, oracle.transcript, answer, cert)

    print(f"n: {instance.n}")
    print(f"answer: {_describe(answer)}")
    print(f"truth: {_describe(truth)}")
    print(f"branch trace: {'>'.join(trace)}")
    print(f"answer matches truth: {'yes' if matches else 'NO'}")
    verdict = "accepted" if audit.accepted else f"REJECTED ({audit.reason})"
    print(f"certificate audit: {verdict}")
    return 0 if matches and audit.accepted else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        algorithm=args.algo,
        sizes=tuple(_parse_size(t) for t in args.sizes.split(",")),
        distribution=args.dist,
        trials=args.trials,
        master_seed=args.seed,
        cutoff=args.cutoff,
        jobs=args.jobs,
        timing=args.timing,
    )
    rows = run_grid(config)
    summary = summarize(rows, config.distribution)
    if args.format == "json":
        payload = rows_to_json(config, rows, summary)
    else:
        payload = rows_to_csv(rows, timing=config.timing)

    if args.csv_out:
        with open(args.csv_out, "w") as fh:
            fh.write(payload)
        print(format_summary(summary))
    else:
        sys.stdout.write(payload)
        print(format_summary(summary), file=sys.stderr)

    bad = contract_violations(rows)
    for line in bad[:20]:
        print(f"violation: {line}", file=sys.stderr)
    return 1 if bad else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.constant:
        constant = lower_bound_constant()
        beta_low, beta_high = beta_interval()
        print(f"lower_bound_constant: {constant:.10f}")
        print(f"beta_low: {beta_low:.10f}")
        print(f"beta_high: {beta_high:.10f}")
        return 0
    if args.martingale:
        if args.n is None:
            raise ValueError("--martingale requires --n")
        rng = RandomStream(args.seed, f"martingale/{args.strategy}", args.n)
        try:
            stats = simulate_balance(args.n, args.strategy, args.trials, rng)
        except MemoryError:
            raise ValueError(
                f"--n {args.n} with --trials {args.trials} is too large to simulate in memory"
            ) from None
        print("# majoritylab-analyze v1")
        print(
            f"# strategy={stats.strategy} n={stats.n} trials={stats.trials} "
            f"seed={args.seed}"
        )
        print(f"# terminal_balance_mean={stats.terminal_balance_mean:.3f}")
        print(f"# terminal_balance_var={stats.terminal_balance_var:.3f}")
        print(f"# inferred_edges_mean={stats.inferred_edges_mean:.3f}")
        print(f"# inferred_majority_edges_mean={stats.inferred_majority_edges_mean:.3f}")
        print(f"# majority_rate={stats.majority_rate:.3f}")
        print("k,nonzero_components_mean,max_balance_mean")
        for k, nk, mk in zip(
            stats.checkpoints, stats.nonzero_count_mean, stats.max_balance_mean
        ):
            print(f"{k},{nk:.3f},{mk:.3f}")
        return 0
    raise ValueError("pick one of --constant or --martingale")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="majoritylab",
        description="Majority finding with comparisons you can audit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared by run, verify and bench.
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument(
        "--algo",
        choices=ALGORITHMS,
        default="rand-majority",
        help="algorithm to run (default rand-majority)",
    )
    solver.add_argument(
        "--dist",
        default="binary:p=0.5",
        help="color distribution, e.g. binary:p=0.5, profile:0.48,rest=100, "
        "uniform:k=64, distinct",
    )
    solver.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    solver.add_argument("--cutoff", type=int, help="recursion floor for rand-majority")

    # Shared by run and verify.
    single = argparse.ArgumentParser(add_help=False, parents=[solver])
    single.add_argument("--n", type=_parse_size, help="instance size (plain or 2^k)")
    single.add_argument("--instance", help="read the instance from a file instead")

    run_p = sub.add_parser("run", parents=[single], help="solve one instance")
    run_p.add_argument(
        "--record-transcript",
        action="store_true",
        help="dump every comparison as 'i j equal' lines",
    )
    run_p.set_defaults(func=_cmd_run)

    verify_p = sub.add_parser(
        "verify", parents=[single], help="run, audit, and cross-check one instance"
    )
    verify_p.set_defaults(func=_cmd_verify)

    bench_p = sub.add_parser(
        "bench", parents=[solver], help="run a seeded experiment grid, every trial audited"
    )
    bench_p.add_argument(
        "--sizes",
        default="2^14",
        help="comma-separated sizes, 2^k shorthand allowed (default 2^14)",
    )
    bench_p.add_argument("--trials", type=int, default=10)
    bench_p.add_argument("--jobs", type=int, default=1, help="worker processes")
    bench_p.add_argument("--csv-out", help="write rows here instead of stdout")
    bench_p.add_argument("--format", choices=("csv", "json"), default="csv")
    bench_p.add_argument(
        "--timing",
        action="store_true",
        help="include wall_ms in the CSV (off by default so reruns are "
        "byte-identical)",
    )
    bench_p.set_defaults(func=_cmd_bench)

    analyze_p = sub.add_parser("analyze", help="numeric companions")
    analyze_p.add_argument(
        "--constant",
        action="store_true",
        help="print the cost constant and the admissible threshold interval",
    )
    analyze_p.add_argument(
        "--martingale",
        action="store_true",
        help="simulate the merge game and print trajectory statistics as CSV",
    )
    analyze_p.add_argument("--n", type=_parse_size)
    analyze_p.add_argument("--trials", type=int, default=100)
    analyze_p.add_argument("--strategy", choices=STRATEGIES, default="uniform")
    analyze_p.add_argument("--seed", type=int, default=0)
    analyze_p.set_defaults(func=_cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ContractViolation as exc:
        print(f"contract violated: {exc}", file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
