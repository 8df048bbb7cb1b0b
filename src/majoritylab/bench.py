"""Seeded experiment grids with CSV/JSON emission and summary gates.

A grid is (algorithm, sizes, distribution, trials).  Every trial derives its
own streams from the master seed, so the emitted rows are identical no
matter how trials are scheduled over workers.  Timing is measured but kept
out of the CSV by default so that reruns of the same config are
byte-identical; pass timing=True (CLI --timing) to include the column.
"""

from __future__ import annotations

import io
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from statistics import mean, stdev
from typing import Iterable, Sequence

from .answers import Answer, Certificate
from .boyer_moore import boyer_moore
from .certify import answer_matches_brute_force, verify_run
from .core import CountingOracle, _integer, generate, parse_distribution
from .randomized import Params, majority
from .rng import RandomStream

__all__ = [
    "ALGORITHMS",
    "CSV_VERSION",
    "ExperimentConfig",
    "TrialRow",
    "SummaryRow",
    "solve",
    "run_trial",
    "run_grid",
    "summarize",
    "contract_violations",
    "rows_to_csv",
    "rows_to_json",
    "format_summary",
    "usable_cpus",
]

ALGORITHMS = ("rand-majority", "boyer-moore")
CSV_VERSION = "majoritylab-csv v1"
_COLUMNS = (
    "n",
    "trial",
    "seed",
    "algorithm",
    "branch",
    "comparisons",
    "answer",
    "multiplicity",
    "correct",
    "cert_ok",
)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark grid; picklable so workers can receive it whole."""

    algorithm: str
    sizes: tuple[int, ...]
    distribution: str = "binary:p=0.5"
    trials: int = 1
    master_seed: int = 0
    cutoff: int | None = None
    jobs: int = 1
    timing: bool = False

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; pick one of {ALGORITHMS}"
            )
        if not self.sizes:
            raise ValueError("at least one size is required")
        # Ints, so that a float or a bool fails here and not in every trial.
        object.__setattr__(self, "sizes", tuple(_integer(n, "a size") for n in self.sizes))
        for name in ("trials", "jobs"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if any(n < 1 for n in self.sizes):
            raise ValueError("sizes must be positive")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        # A fork-based pool starts every worker up front, so the bound is
        # checked here, before any process exists.
        cpus = usable_cpus()
        if not 1 <= self.jobs <= cpus:
            raise ValueError(f"jobs must be between 1 and {cpus}, got {self.jobs}")
        if self.cutoff is not None:
            object.__setattr__(self, "cutoff", Params(cutoff=self.cutoff).cutoff)
        parse_distribution(self.distribution)  # raises on a bad spec


@dataclass(frozen=True)
class TrialRow:
    n: int
    trial: int
    seed: str
    algorithm: str
    branch: str
    comparisons: int
    answer: str
    multiplicity: int | None
    correct: bool  # every trial is checked against brute force and audited
    cert_ok: bool
    wall_ms: float


def solve(
    algorithm: str,
    oracle: CountingOracle,
    master_seed: int,
    trial: int = 0,
    cutoff: int | None = None,
) -> tuple[Answer, Certificate | None, tuple[str, ...]]:
    """Run one algorithm on the oracle's instance; returns (answer, cert, trace).

    The randomized driver draws from the stream ``run/{algorithm}/{n}`` at
    index ``trial``, so the CLI and a grid trial of the same seed agree.
    """
    if algorithm == "boyer-moore":
        answer, cert = boyer_moore(oracle)
        return answer, cert, ("base",)
    params = Params() if cutoff is None else Params(cutoff=cutoff)
    rng = RandomStream(master_seed, f"run/{algorithm}/{oracle.instance.n}", trial)
    answer, cert, stats = majority(oracle, params=params, rng=rng)
    return answer, cert, stats.branch_trace


def run_trial(config: ExperimentConfig, n: int, trial: int) -> TrialRow:
    inst_rng = RandomStream(config.master_seed, f"instance/{n}", trial)
    instance = generate(config.distribution, n, inst_rng)
    oracle = CountingOracle(instance, record_transcript=True)

    start = time.perf_counter()
    answer, cert, trace = solve(
        config.algorithm, oracle, config.master_seed, trial, config.cutoff
    )
    wall_ms = (time.perf_counter() - start) * 1e3

    return TrialRow(
        n=n,
        trial=trial,
        seed=f"{config.master_seed}:{n}:{trial}",
        algorithm=config.algorithm,
        branch=trace[0],
        comparisons=oracle.comparisons,
        answer=answer.kind,
        multiplicity=answer.multiplicity,
        correct=answer_matches_brute_force(answer, instance),
        cert_ok=verify_run(instance.n, oracle.transcript, answer, cert).accepted,
        wall_ms=wall_ms,
    )


def _worker(task: tuple[ExperimentConfig, int, int]) -> TrialRow:
    return run_trial(*task)


def run_grid(config: ExperimentConfig) -> list[TrialRow]:
    """All trial rows for the grid, sorted by (n, trial).

    The row content (bar wall_ms) is a pure function of the config, so any
    jobs value produces the same sorted list.
    """
    tasks = [(config, n, t) for n in config.sizes for t in range(config.trials)]
    if config.jobs == 1 or len(tasks) == 1:
        rows = [run_trial(config, n, t) for _, n, t in tasks]
    else:
        workers = min(config.jobs, len(tasks))
        chunk = max(1, len(tasks) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_worker, tasks, chunksize=chunk))
    rows.sort(key=lambda r: (r.n, r.trial))
    return rows


@dataclass(frozen=True)
class SummaryRow:
    algorithm: str
    n: int
    distribution: str
    count: int
    comparisons_mean: float
    comparisons_std: float
    comparisons_min: int
    comparisons_max: int
    comparisons_p95: int
    ratio: float  # mean comparisons / n
    correct_rate: float
    cert_rate: float


def summarize(rows: Sequence[TrialRow], distribution: str = "") -> list[SummaryRow]:
    if not rows:
        raise ValueError("no rows to summarize")
    groups: dict[tuple[str, int], list[TrialRow]] = {}
    for row in rows:
        groups.setdefault((row.algorithm, row.n), []).append(row)
    out = []
    for (algo, n), grp in sorted(groups.items()):
        comps = sorted(r.comparisons for r in grp)
        p95 = comps[max(0, math.ceil(0.95 * len(comps)) - 1)]
        out.append(
            SummaryRow(
                algorithm=algo,
                n=n,
                distribution=distribution,
                count=len(grp),
                comparisons_mean=mean(comps),
                comparisons_std=stdev(comps) if len(comps) > 1 else 0.0,
                comparisons_min=comps[0],
                comparisons_max=comps[-1],
                comparisons_p95=p95,
                ratio=mean(comps) / n,
                correct_rate=sum(r.correct for r in grp) / len(grp),
                cert_rate=sum(r.cert_ok for r in grp) / len(grp),
            )
        )
    return out


def contract_violations(rows: Iterable[TrialRow]) -> list[str]:
    """Rows that break the Las Vegas contract; empty means all good."""
    bad = []
    for r in rows:
        if r.correct is False:
            bad.append(f"{r.seed}: wrong answer ({r.answer})")
        if r.cert_ok is False:
            bad.append(f"{r.seed}: certificate rejected")
    return bad


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def rows_to_csv(rows: Sequence[TrialRow], timing: bool = False) -> str:
    buf = io.StringIO()
    buf.write(f"# {CSV_VERSION}\n")
    cols = _COLUMNS + (("wall_ms",) if timing else ())
    buf.write(",".join(cols) + "\n")
    for r in rows:
        rec = [
            r.n,
            r.trial,
            r.seed,
            r.algorithm,
            r.branch,
            r.comparisons,
            r.answer,
            r.multiplicity,
            r.correct,
            r.cert_ok,
        ]
        if timing:
            rec.append(r.wall_ms)
        buf.write(",".join(_cell(v) for v in rec) + "\n")
    return buf.getvalue()


def rows_to_json(
    config: ExperimentConfig, rows: Sequence[TrialRow], summary: Sequence[SummaryRow]
) -> str:
    payload = {
        "version": CSV_VERSION,
        "config": asdict(config),
        "rows": [asdict(r) for r in rows],
        "summary": [asdict(s) for s in summary],
    }
    return json.dumps(payload, indent=2) + "\n"


def format_summary(summary: Sequence[SummaryRow]) -> str:
    header = (
        f"{'algorithm':<14} {'n':>9} {'trials':>6} {'mean':>12} {'std':>10} "
        f"{'min':>9} {'max':>9} {'p95':>9} {'ratio':>7} {'ok':>5} {'cert':>5}"
    )
    lines = [header, "-" * len(header)]
    for s in summary:
        lines.append(
            f"{s.algorithm:<14} {s.n:>9} {s.count:>6} {s.comparisons_mean:>12.1f} "
            f"{s.comparisons_std:>10.1f} {s.comparisons_min:>9} {s.comparisons_max:>9} "
            f"{s.comparisons_p95:>9} {s.ratio:>7.4f} {s.correct_rate:>5.2f} {s.cert_rate:>5.2f}"
        )
    return "\n".join(lines)
