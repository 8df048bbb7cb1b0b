"""Layered benchmark for majoritylab: time to an audited answer, comparisons
per ball and memory, with a traced mode that splits the time by layer.

A run is a closed loop with one client.  It generates seeded instances one at
a time and, for each, calls the package's public functions from outside:
``core.generate``, ``randomized.majority`` with transcript recording off and
on, ``certify.verify_run`` (or its build and check halves when traced),
``boyer_moore.boyer_moore``, ``certify.answer_matches_brute_force`` and, when
traced, ``bench.run_trial``.  It stops starting instances once the next one
would overrun the time budget.  Every answer is checked against brute force
and every transcript is audited; a wrong answer, a rejected audit or an
exception (``AssertionError`` included) marks the instance failed, and a run
with any failed instance exits with status 1.

With tracing off the run reports the end-to-end metrics.  With tracing on it
keeps spans (name, start, end, parent, instance) in memory, writes them out
when the run ends, and reports the per-layer metrics.  Both modes write a
result file under ``perfbench/out/`` holding the run environment and one
fingerprint per instance: (seed, comparisons, answer kind, multiplicity,
depth).  Instances depend on the seed alone, so two versions of the program
must print the same fingerprint line for every instance both of them solved.

Reported times are scaled to a reference host speed (see HostSpeed): each run
also times a fixed pure-Python computation between the calls it measures, and
the raw times sit beside the scaled ones in the result file and the report.

    python3 perfbench/run.py --workload fair-coin --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path
from statistics import mean, median

import numpy as np

from majoritylab.bench import ExperimentConfig, run_trial
from majoritylab.boyer_moore import boyer_moore
from majoritylab.certify import (
    answer_matches_brute_force,
    build_eq_structure,
    check_majority_claim,
    check_no_majority_claim,
    verify_run,
)
from majoritylab.core import CountingOracle, generate
from majoritylab.randomized import majority
from majoritylab.rng import RandomStream

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"


@dataclass(frozen=True)
class Workload:
    name: str
    distribution: str
    n: int


# many-colors runs at 2^13 rather than 2^18.  With k = n colours, about 30%
# of instances (at any n) have exactly one equal pair; its survivor wins the
# next level and forces a full scan, so the instance costs 1.5n comparisons,
# not 0.51n.  The mean is steady only over several hundred instances, and
# those fit in one run only at this size.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fair-coin", "binary:p=0.5", 1 << 18),
        Workload("many-colors", "uniform:k=n", 1 << 13),
        Workload("near-tie", "profile:0.48,rest=100", 1 << 18),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "certified_s": "s",
    "balls_per_s": "ball/s",
    "baseline_solve_s": "s",
    "comparisons_per_ball": "cmp/ball",
    "peak_rss_mb": "MB",
    "ok_fraction": "fraction",
}

# generate, the recording-off solve and Boyer-Moore are short, so each is
# repeated per instance (with the same seed, so with the same work) and the
# mean of the repeats is one sample.
REPEATS = 3

# The host is a VM on a shared machine whose speed swings by up to 1.5x from
# one second to the next and drifts over minutes, in CPU time as much as in
# wall time, so raw times from runs a few minutes apart differ by more than
# any bound worth setting.  Every run therefore also times a fixed reference
# computation (HostSpeed) between the groups of calls it measures, at most
# every CALIBRATE_EVERY_S, and scales each group's times by REFERENCE_S / (the
# mean of the reference times just before and just after the group): seconds
# on a host running at the reference speed.  Contention slows random memory
# access more than a sequential scan, so the Boyer-Moore baseline is scaled by
# the reference's own Boyer-Moore pass (REFERENCE_BM_S), which tracks it more
# closely.  The raw times are kept in the result file and the report.
# Both references are about the medians on the 2-vCPU VM the bounds were set on.
REFERENCE_S = 0.15
REFERENCE_BM_S = 0.03
CALIBRATE_EVERY_S = 0.8

# Row fields that hold seconds, each with the group of calls that timed it.
TIMES = {
    "generate": "generate",
    "solve": "solve",
    "certified": "certified",
    "recorded_solve": "certified",
    "build": "certified",
    "check": "certified",
    "untraced_certified": "certified",
    "truth": "truth",
    "baseline": "baseline",
    "run_trial": "run_trial",
}

PHASES = ("sample", "pairing", "scan", "leftover", "fallback")

PER_LAYER_UNITS = {
    "core.generate_s": "s",
    "core.record_overhead_s": "s",
    "randomized.solve_s": "s",
    "randomized.ns_per_comparison": "ns",
    **{f"randomized.{phase}_cpb": "cmp/ball" for phase in PHASES},
    "randomized.depth": "levels",
    "randomized.root_survivor_ratio": "ratio",
    "randomized.levels_heavy": "count",
    "randomized.levels_light": "count",
    "certify.build_s": "s",
    "certify.check_s": "s",
    "certify.classes_per_ball": "class/ball",
    "certify.cert_units_per_ball": "unit/ball",
    "certify.truth_s": "s",
    "boyer_moore.comparisons_per_ball": "cmp/ball",
    "boyer_moore.ns_per_comparison": "ns",
    "bench.run_trial_s": "s",
    "trace.overhead_frac": "fraction",
}


class Tracer:
    """Times calls; when enabled, also keeps each call as an in-memory span."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self._open: list[int] = []

    def begin(self, name: str, instance: int) -> float:
        start = time.perf_counter()
        if self.enabled:
            parent = self._open[-1] if self._open else None
            self._open.append(len(self.spans))
            self.spans.append(
                {"name": name, "start": start - self.origin, "end": None,
                 "parent": parent, "instance": instance}
            )
        return start

    def end(self, start: float) -> float:
        end = time.perf_counter()
        if self.enabled:
            self.spans[self._open.pop()]["end"] = end - self.origin
        return end - start

    def call(self, name: str, instance: int, fn, *args, **kwargs):
        """(fn(*args, **kwargs), seconds); a span named `name` when enabled."""
        start = self.begin(name, instance)
        try:
            out = fn(*args, **kwargs)
        finally:
            elapsed = self.end(start)
        return out, elapsed


class _Comparator:
    """A frozen stand-in for the counting oracle, for HostSpeed only."""

    __slots__ = ("colors", "count", "log")

    def __init__(self, colors: tuple[int, ...], record: bool):
        self.colors = colors
        self.count = 0
        self.log: list[tuple[int, int, bool]] | None = [] if record else None

    def cmp(self, x: int, y: int) -> bool:
        self.count += 1
        equal = self.colors[x] == self.colors[y]
        if self.log is not None:
            self.log.append((x, y, equal))
        return equal


def _boyer_moore(oracle: _Comparator, balls) -> int:
    candidate, lead = balls[0], 0
    for x in balls:
        if lead == 0:
            candidate, lead = x, 1
        elif oracle.cmp(candidate, x):
            lead += 1
        else:
            lead -= 1
    return candidate


def _reference_boyer_moore(colors: tuple[int, ...]) -> int:
    """A Boyer-Moore pass over every ball; returns its comparisons."""
    oracle = _Comparator(colors, record=False)
    _boyer_moore(oracle, range(len(colors)))
    return oracle.count


def _reference_audit(colors: tuple[int, ...], order: array) -> tuple[int, int]:
    """A recorded pairing pass over a permutation, a Boyer-Moore pass over the
    survivors, and a union-find over the record.  Returns (comparisons,
    classes)."""
    n = len(colors)
    half = order.tolist()  # fresh int objects, as the program's .tolist() makes
    oracle = _Comparator(colors, record=True)
    survivors = [half[k] for k in range(0, len(half) - 1, 2) if oracle.cmp(half[k], half[k + 1])]
    _boyer_moore(oracle, survivors)
    parent = list(range(n))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y, equal in oracle.log:
        if equal:
            rx, ry = root(x), root(y)
            if rx != ry:
                parent[rx] = ry
    sizes: dict[int, int] = {}
    for x in half:
        r = root(x)
        sizes[r] = sizes.get(r, 0) + 1
    return oracle.count, len(sizes)


class HostSpeed:
    """Times a fixed pure-Python computation with the program's mix of work
    and none of its code, now and then during a run: _reference_boyer_moore
    then _reference_audit, on a fixed input."""

    N = 1 << 17

    def __init__(self):
        rng = random.Random(20160305)
        self.colors = tuple(rng.getrandbits(1) for _ in range(self.N))
        self.order = array("l", rng.sample(range(self.N), self.N // 2))
        self.expected = self._run()
        self.samples: list[float] = []
        self.bm_samples: list[float] = []
        self.ends: list[float] = []
        self._last = float("-inf")

    def _run(self) -> tuple:
        return _reference_boyer_moore(self.colors), _reference_audit(self.colors, self.order)

    def sample(self) -> None:
        gc.collect()
        start = time.perf_counter()
        bm = _reference_boyer_moore(self.colors)
        middle = time.perf_counter()
        audit = _reference_audit(self.colors, self.order)
        end = time.perf_counter()
        if (bm, audit) != self.expected:
            raise RuntimeError(f"reference computation changed: {(bm, audit)} != {self.expected}")
        self.samples.append(end - start)
        self.bm_samples.append(middle - start)
        self.ends.append(end)
        self._last = end

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float, boyer_moore: bool = False) -> float:
        """Multiply a time measured between perf_counter() values `start` and
        `end` by this to get reference-speed seconds."""
        reference, samples = (
            (REFERENCE_BM_S, self.bm_samples) if boyer_moore else (REFERENCE_S, self.samples)
        )
        before = max(bisect_right(self.ends, start) - 1, 0)
        after = min(bisect_left(self.ends, end), len(self.ends) - 1)
        return reference / mean((samples[before], samples[after]))


def _stream(seed: int, w: Workload, purpose: str, i: int) -> RandomStream:
    return RandomStream(seed, f"perfbench/{w.name}/{purpose}", i)


def _recording_problems(answer, comparisons, rec_answer, rec_comparisons, check) -> list[str]:
    problems = []
    if rec_answer != answer or rec_comparisons != comparisons:
        problems.append(
            f"recording changed the run: {rec_answer!r}/{rec_comparisons}"
            f" vs {answer!r}/{comparisons}"
        )
    if not check.accepted:
        problems.append(f"audit rejected: {check.reason}")
    return problems


def _audited_solve(instance, rng):
    """The path to an audited answer: a recorded solve, then verify_run."""
    oracle = CountingOracle(instance, record_transcript=True)
    answer, cert, _ = majority(oracle, rng=rng)
    return answer, oracle.comparisons, verify_run(instance.n, oracle.transcript, answer, cert)


def _traced_audited_solve(instance, rng, i, tracer, row):
    """_audited_solve with verify_run split into its build and check calls."""
    n = instance.n
    oracle = CountingOracle(instance, record_transcript=True)
    (answer, cert, _), row["recorded_solve"] = tracer.call(
        "randomized.majority[recorded]", i, majority, oracle, rng=rng
    )
    eq, row["build"] = tracer.call(
        "certify.build_eq_structure", i, build_eq_structure, n, oracle.transcript
    )
    if answer.is_majority:
        check, row["check"] = tracer.call(
            "certify.check_majority_claim", i, check_majority_claim, eq, answer, n
        )
    else:
        check, row["check"] = tracer.call(
            "certify.check_no_majority_claim", i, check_no_majority_claim, eq, cert, n
        )
    row["certified"] = row["recorded_solve"] + row["build"] + row["check"]
    row["classes"] = len(eq.class_roots())
    row["cert_units"] = 0 if cert is None else cert.units()
    return answer, oracle.comparisons, check


def _solve(instance, rng, algorithm):
    oracle = CountingOracle(instance)
    return oracle, (algorithm(oracle) if rng is None else algorithm(oracle, rng=rng))


def _repeated(tracer: Tracer, name: str, i: int, fn):
    """(last result, seconds of each call) of REPEATS identical calls, each a span."""
    calls = []
    for _ in range(REPEATS):
        out, seconds = tracer.call(name, i, fn)
        calls.append(seconds)
    return out, calls


def _step(w: Workload, n: int, seed: int, i: int, tracer: Tracer, speed: HostSpeed):
    """Measure instance i: (fingerprint, measurements or None, problems)."""
    row: dict = {"intervals": {}}
    problems: list[str] = []

    def timed(group: str, fn):
        """fn(), after sampling the host speed if due; notes when fn ran."""
        speed.sample_if_due()
        start = time.perf_counter()
        out = fn()
        row["intervals"][group] = (start, time.perf_counter())
        return out

    root = tracer.begin("instance", i)
    try:
        inst, row["generate_calls"] = timed("generate", lambda: _repeated(
            tracer, "core.generate", i,
            lambda: generate(w.distribution, n, _stream(seed, w, "instance", i)),
        ))
        (oracle, (answer, _, stats)), row["solve_calls"] = timed("solve", lambda: _repeated(
            tracer, "randomized.majority", i,
            lambda: _solve(inst, _stream(seed, w, "run", i), majority),
        ))
        row["comparisons"] = oracle.comparisons
        row["stats"] = stats
        fingerprint = {
            "seed": f"{seed}:{i}",
            "comparisons": oracle.comparisons,
            "answer": answer.kind,
            "multiplicity": answer.multiplicity,
            "depth": stats.depth,
        }

        if tracer.enabled:
            # The traced run also times the untraced path on the same
            # instance, alternating which goes first so that neither always
            # inherits the other's freed heap.
            def untraced():
                start = time.perf_counter()
                out = _audited_solve(inst, _stream(seed, w, "run", i))
                row["untraced_certified"] = time.perf_counter() - start
                return out

            def traced():
                return _traced_audited_solve(inst, _stream(seed, w, "run", i), i, tracer, row)

            paths = (untraced, traced) if i % 2 else (traced, untraced)
            for audited in timed("certified", lambda: [path() for path in paths]):
                problems += _recording_problems(answer, oracle.comparisons, *audited)
        else:
            audited, row["certified"] = timed("certified", lambda: tracer.call(
                "certified", i, _audited_solve, inst, _stream(seed, w, "run", i)
            ))
            problems += _recording_problems(answer, oracle.comparisons, *audited)

        right, row["truth"] = timed("truth", lambda: tracer.call(
            "certify.answer_matches_brute_force", i, answer_matches_brute_force, answer, inst
        ))
        if not right:
            problems.append(f"wrong answer {answer!r}")

        (bm_oracle, (bm_answer, _)), row["baseline_calls"] = timed("baseline", lambda: _repeated(
            tracer, "boyer_moore.boyer_moore", i, lambda: _solve(inst, None, boyer_moore)
        ))
        row["bm_comparisons"] = bm_oracle.comparisons
        if not answer_matches_brute_force(bm_answer, inst):
            problems.append(f"wrong baseline answer {bm_answer!r}")

        if tracer.enabled:
            config = ExperimentConfig("rand-majority", (n,), w.distribution, master_seed=seed)
            trial, row["run_trial"] = timed("run_trial", lambda: tracer.call(
                "bench.run_trial", i, run_trial, config, n, i
            ))
            if not (trial.correct and trial.cert_ok):
                problems.append(
                    f"bench trial failed: correct={trial.correct} cert_ok={trial.cert_ok}"
                )
    except Exception as exc:  # the gate counts crashes, capped assertions too
        problems.append(f"{type(exc).__name__}: {exc}")
        return {"seed": f"{seed}:{i}", "error": problems[-1]}, None, problems
    finally:
        tracer.end(root)
    return fingerprint, row, problems


def _end_to_end(rows: list[dict], n: int, attempted: int, failed: int) -> dict:
    counts = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_fraction": 1 - failed / attempted,
    }
    if not rows:
        return counts
    certified_total = sum(r["certified"] for r in rows)
    return {
        "setup_s": median(r["generate"] for r in rows),
        "solve_s": median(r["solve"] for r in rows),
        "certified_s": median(r["certified"] for r in rows),
        "balls_per_s": n * len(rows) / certified_total,
        "baseline_solve_s": median(r["baseline"] for r in rows),
        "comparisons_per_ball": mean(r["comparisons"] / n for r in rows),
        **counts,
    }


def _per_layer(rows: list[dict], n: int) -> dict:
    """Means over instances, not medians, so that the layer times add up:
    solve + record overhead + build + check is the traced certified time."""

    def avg(key) -> float:
        return mean(key(r) for r in rows)

    def total(key: str) -> float:
        return sum(r[key] for r in rows)

    def phase_cpb(phase: str) -> float:
        field = f"{phase}_comparisons"
        return avg(lambda r: sum(getattr(lv, field) for lv in r["stats"].levels) / n)

    def branch_levels(branch: str) -> float:
        return avg(lambda r: sum(lv.branch == branch for lv in r["stats"].levels))

    return {
        "core.generate_s": avg(lambda r: r["generate"]),
        "core.record_overhead_s": avg(lambda r: r["recorded_solve"] - r["solve"]),
        "randomized.solve_s": avg(lambda r: r["solve"]),
        "randomized.ns_per_comparison": total("solve") / total("comparisons") * 1e9,
        **{f"randomized.{phase}_cpb": phase_cpb(phase) for phase in PHASES},
        "randomized.depth": avg(lambda r: r["stats"].depth),
        "randomized.root_survivor_ratio": avg(
            lambda r: r["stats"].levels[0].x_size / r["stats"].levels[0].m
        ),
        "randomized.levels_heavy": branch_levels("heavy"),
        "randomized.levels_light": branch_levels("light"),
        "certify.build_s": avg(lambda r: r["build"]),
        "certify.check_s": avg(lambda r: r["check"]),
        "certify.classes_per_ball": avg(lambda r: r["classes"] / n),
        "certify.cert_units_per_ball": avg(lambda r: r["cert_units"] / n),
        "certify.truth_s": avg(lambda r: r["truth"]),
        "boyer_moore.comparisons_per_ball": avg(lambda r: r["bm_comparisons"] / n),
        "boyer_moore.ns_per_comparison": total("baseline") / total("bm_comparisons") * 1e9,
        "bench.run_trial_s": avg(lambda r: r["run_trial"]),
        "trace.overhead_frac": total("certified") / total("untraced_certified") - 1,
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    n: int | None = None,
    max_instances: int | None = None,
) -> dict:
    """One closed-loop run; `n` and `max_instances` exist for tiny test runs."""
    w = WORKLOADS[name]
    n = w.n if n is None else n
    tracer = Tracer(trace)
    speed = HostSpeed()
    rows, fingerprints, failures = [], [], []
    start = time.perf_counter()
    last = 0.0
    i = 0
    while i == 0 or (
        time.perf_counter() - start + last <= seconds
        and (max_instances is None or i < max_instances)
    ):
        gc.collect()  # each instance starts without the last one's garbage
        step_start = time.perf_counter()
        fingerprint, row, problems = _step(w, n, seed, i, tracer, speed)
        last = time.perf_counter() - step_start
        fingerprints.append(fingerprint)
        if row is not None:
            row["at"] = step_start - start
            for key in ("generate", "solve", "baseline"):
                row[key] = mean(row[key + "_calls"])
            rows.append(row)
        if problems:
            failures.append({"seed": fingerprint["seed"], "problems": problems})
        i += 1

    speed.sample()
    for row in rows:
        row["scales"] = {
            group: speed.scale(*interval, boyer_moore=group == "baseline")
            for group, interval in row["intervals"].items()
        }
    scaled = [
        {**r, **{key: r[key] * r["scales"][group] for key, group in TIMES.items() if key in r}}
        for r in rows
    ]
    attempted, failed = i, len(failures)
    if trace:
        units = PER_LAYER_UNITS
        values = _per_layer(scaled, n) if rows else {}
        raw = _per_layer(rows, n) if rows else {}
    else:
        units = END_TO_END_UNITS
        values = _end_to_end(scaled, n, attempted, failed)
        raw = _end_to_end(rows, n, attempted, failed)
    return {
        "workload": w.name,
        "distribution": w.distribution,
        "n": n,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": {k: {"value": values.get(k), "unit": unit} for k, unit in units.items()},
        "raw_metrics": raw,
        "host_speed": {
            "reference_s": REFERENCE_S,
            "samples_s": speed.samples,
            "boyer_moore_samples_s": speed.bm_samples,
            "at_s": [end - start for end in speed.ends],
        },
        "untraced_certified_s": (
            mean(r["untraced_certified"] for r in scaled) if trace and rows else None
        ),
        "fingerprints": fingerprints,
        "instance_times_s": [
            {"at": r["at"], "scales": r["scales"],
             **{k: r[k] for k in ("generate_calls", "solve_calls", "certified", "baseline_calls")}}
            for r in rows
        ],
        "spans": tracer.spans,
    }


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(ROOT),
        "machine": platform.machine(),
    }


def summary_line(result: dict) -> str:
    """The driver-facing last line: correct, attempted, failed, metrics."""
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    })


def _report(result: dict) -> None:
    print(
        f"perfbench workload={result['workload']} distribution={result['distribution']}"
        f" n={result['n']} seed={result['seed']} trace={result['trace']}"
    )
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for fp in result["fingerprints"]:
        print("fingerprint " + json.dumps(fp))
    for failure in result["failures"]:
        print("FAILED " + json.dumps(failure))
    attempted, failed = result["attempted"], result["failed"]
    print(f"instances {attempted} failed {failed} failed_fraction {failed / attempted}")
    speed = result["host_speed"]
    scales = [x for t in result["instance_times_s"] for x in t["scales"].values()] or [1.0]
    print(
        f"host speed: reference computation median {median(speed['samples_s'])} s over"
        f" {len(speed['samples_s'])} samples; times scaled by {min(scales)} to {max(scales)}"
    )
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']} {m['unit']} (raw {result['raw_metrics'].get(name)})")
    untraced = result["untraced_certified_s"]
    if untraced is not None:
        layers = ("randomized.solve_s", "core.record_overhead_s", "certify.build_s",
                  "certify.check_s")
        layer_sum = sum(result["metrics"][k]["value"] for k in layers)
        print(
            f"layer sum ({' + '.join(layers)}) {layer_sum} s against untraced"
            f" certified {untraced} s ({layer_sum / untraced - 1:+.4f})"
        )


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh interpreter, so memory and GC are its own."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=False,
        )
        status = max(status, proc.returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return _run_all(args)

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    _report(result)
    print(f"wrote {out.relative_to(ROOT)}")
    print(summary_line(result))
    return 0 if result["failed"] == 0 else 1
