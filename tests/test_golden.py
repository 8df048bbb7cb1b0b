"""Golden lock: seeded driver outputs that a refactor must not move.

Each row pins one seeded run of ``majority`` at ``cutoff=64``: its
comparison count, answer kind, multiplicity and branch trace.  A separate
pin covers the sha256 of one bench CSV.  A change that moves any of these
on purpose re-derives the table and says so in CHANGES.md.
"""

import hashlib

import pytest

from majoritylab import CountingOracle, Params, RandomStream, generate, majority
from majoritylab.bench import ExperimentConfig, rows_to_csv, run_grid

# (spec, n, seed, comparisons, kind, multiplicity, branch trace)
GOLDEN = (
    ("binary:p=0.5", 2048, 0, 2459, "majority", 1025, "balanced>balanced>balanced>base"),
    ("binary:p=0.5", 2048, 1, 2396, "majority", 1029, "balanced>balanced>balanced>base"),
    ("binary:p=0.5", 2048, 2, 2392, "majority", 1036, "balanced>balanced>balanced>base"),
    ("binary:p=0.5", 8192, 0, 9548, "majority", 4151, "balanced>balanced>balanced>balanced>base"),
    ("binary:p=0.5", 8192, 1, 9632, "majority", 4164, "balanced>balanced>balanced>balanced>base"),
    ("binary:p=0.5", 8192, 2, 9643, "majority", 4145, "balanced>balanced>balanced>balanced>base"),
    ("binary:p=0.9", 2048, 0, 2183, "majority", 1862, "balanced>balanced>balanced>balanced>balanced>base"),
    ("binary:p=0.9", 2048, 1, 2196, "majority", 1815, "balanced>balanced>balanced>balanced>balanced>base"),
    ("binary:p=0.9", 2048, 2, 2190, "majority", 1847, "balanced>balanced>balanced>balanced>balanced>base"),
    ("binary:p=0.9", 8192, 0, 8603, "majority", 7393, "balanced>balanced>balanced>balanced>balanced>balanced>balanced>base"),
    ("binary:p=0.9", 8192, 1, 8681, "majority", 7358, "balanced>balanced>balanced>balanced>balanced>balanced>balanced>base"),
    ("binary:p=0.9", 8192, 2, 8624, "majority", 7353, "balanced>balanced>balanced>balanced>balanced>balanced>balanced>base"),
    ("uniform:k=n", 2048, 0, 1026, "no_majority", None, "balanced>base"),
    ("uniform:k=n", 2048, 1, 1024, "no_majority", None, "balanced"),
    ("uniform:k=n", 2048, 2, 1026, "no_majority", None, "balanced>base"),
    ("uniform:k=n", 8192, 0, 4096, "no_majority", None, "balanced"),
    ("uniform:k=n", 8192, 1, 4096, "no_majority", None, "balanced"),
    ("uniform:k=n", 8192, 2, 4098, "no_majority", None, "balanced>base"),
    ("profile:0.48,rest=100", 2048, 0, 2414, "no_majority", None, "balanced>balanced>balanced>base"),
    ("profile:0.48,rest=100", 2048, 1, 2466, "no_majority", None, "balanced>balanced>balanced>base"),
    ("profile:0.48,rest=100", 2048, 2, 2422, "no_majority", None, "balanced>balanced>balanced>base"),
    ("profile:0.48,rest=100", 8192, 0, 9604, "no_majority", None, "balanced>balanced>balanced>balanced>balanced>base"),
    ("profile:0.48,rest=100", 8192, 1, 9604, "no_majority", None, "balanced>balanced>balanced>balanced>balanced>base"),
    ("profile:0.48,rest=100", 8192, 2, 9548, "no_majority", None, "balanced>balanced>balanced>balanced>balanced>base"),
    ("profile:0.5,0.5", 2048, 0, 1373, "no_majority", None, "balanced>balanced>balanced>base"),
    ("profile:0.5,0.5", 2048, 1, 1381, "no_majority", None, "balanced>balanced>balanced>base"),
    ("profile:0.5,0.5", 2048, 2, 1415, "no_majority", None, "balanced>balanced>balanced>base"),
    ("profile:0.5,0.5", 8192, 0, 5461, "no_majority", None, "balanced>balanced>balanced>balanced>base"),
    ("profile:0.5,0.5", 8192, 1, 5469, "no_majority", None, "balanced>balanced>balanced>balanced>base"),
    ("profile:0.5,0.5", 8192, 2, 5525, "no_majority", None, "balanced>balanced>balanced>balanced>base"),
)

CSV_GRID = ExperimentConfig(
    algorithm="rand-majority",
    sizes=(1 << 11, 1 << 13),
    distribution="profile:0.48,rest=100",
    trials=3,
    master_seed=0,
    cutoff=64,
)
CSV_SHA256 = 'b532562bf61809af194b8ca389f474c2956d1273090d7df4753da6d5ec9c016e'


@pytest.mark.parametrize(
    "spec,n,seed,comparisons,kind,multiplicity,trace",
    GOLDEN,
    ids=[f"{row[0]}-{row[1]}-{row[2]}" for row in GOLDEN],
)
def test_golden_run(spec, n, seed, comparisons, kind, multiplicity, trace):
    inst = generate(spec, n, RandomStream(seed, f"golden/{spec}", n))
    answer, _, stats = majority(
        CountingOracle(inst),
        params=Params(cutoff=64),
        rng=RandomStream(seed, "golden/run", n),
    )
    assert stats.comparisons == comparisons
    assert answer.kind == kind
    assert answer.multiplicity == multiplicity
    assert ">".join(stats.branch_trace) == trace


def test_golden_bench_csv():
    csv = rows_to_csv(run_grid(CSV_GRID))
    assert hashlib.sha256(csv.encode()).hexdigest() == CSV_SHA256
