"""Golden lock: seeded driver outputs that a refactor must not move.

Each row pins one seeded run of ``majority`` at ``cutoff=64``: its
comparison count, answer kind, multiplicity and branch trace.  Separate
pins cover the sha256 of one bench CSV and of the ``analyze --martingale``
CSV of each merge strategy.  A change that moves any of these on purpose
re-derives the table and says so in CHANGES.md.
"""

import hashlib

import pytest

from majoritylab import CountingOracle, Params, RandomStream, generate, majority, simulate_balance
from majoritylab.bench import ExperimentConfig, rows_to_csv, run_grid
from majoritylab.cli import main

# (spec, n, seed, comparisons, kind, multiplicity, branch trace)
# On the n = 8192 rows of binary:p=0.5 and profile:0.5,0.5 the root samples
# more than 64 survivors, and its census stops after the first batch.
GOLDEN = (
    ("binary:p=0.5", 2048, 0, 2423, "majority", 1090, "balanced>balanced>heavy"),
    ("binary:p=0.5", 2048, 1, 2452, "majority", 1058, "balanced>balanced>heavy"),
    ("binary:p=0.5", 2048, 2, 2485, "majority", 1059, "balanced>balanced>balanced>base"),
    ("binary:p=0.5", 8192, 0, 9687, "majority", 4151, "balanced>balanced>balanced>balanced>base"),
    ("binary:p=0.5", 8192, 1, 9723, "majority", 4164, "balanced>balanced>balanced>heavy"),
    ("binary:p=0.5", 8192, 2, 9791, "majority", 4145, "balanced>balanced>balanced>balanced>base"),
    ("binary:p=0.9", 2048, 0, 2057, "majority", 1856, "heavy"),
    ("binary:p=0.9", 2048, 1, 2055, "majority", 1828, "heavy"),
    ("binary:p=0.9", 2048, 2, 2056, "majority", 1850, "heavy"),
    ("binary:p=0.9", 8192, 0, 8202, "majority", 7393, "heavy"),
    ("binary:p=0.9", 8192, 1, 8208, "majority", 7358, "heavy"),
    ("binary:p=0.9", 8192, 2, 8206, "majority", 7353, "heavy"),
    ("uniform:k=n", 2048, 0, 1024, "no_majority", None, "balanced"),
    ("uniform:k=n", 2048, 1, 1024, "no_majority", None, "balanced"),
    ("uniform:k=n", 2048, 2, 1024, "no_majority", None, "balanced"),
    ("uniform:k=n", 8192, 0, 4096, "no_majority", None, "balanced"),
    ("uniform:k=n", 8192, 1, 4096, "no_majority", None, "balanced"),
    ("uniform:k=n", 8192, 2, 4098, "no_majority", None, "balanced>base"),
    ("profile:0.48,rest=100", 2048, 0, 2115, "no_majority", None, "heavy"),
    ("profile:0.48,rest=100", 2048, 1, 2110, "no_majority", None, "heavy"),
    ("profile:0.48,rest=100", 2048, 2, 2108, "no_majority", None, "heavy"),
    ("profile:0.48,rest=100", 8192, 0, 8394, "no_majority", None, "heavy"),
    ("profile:0.48,rest=100", 8192, 1, 8395, "no_majority", None, "heavy"),
    ("profile:0.48,rest=100", 8192, 2, 8402, "no_majority", None, "heavy"),
    ("profile:0.5,0.5", 2048, 0, 1480, "no_majority", None, "balanced>balanced>balanced>base"),
    ("profile:0.5,0.5", 2048, 1, 1500, "no_majority", None, "balanced>balanced>balanced>base"),
    ("profile:0.5,0.5", 2048, 2, 1446, "no_majority", None, "balanced>balanced>balanced>base"),
    ("profile:0.5,0.5", 8192, 0, 5595, "no_majority", None, "balanced>balanced>balanced>balanced>base"),
    ("profile:0.5,0.5", 8192, 1, 5602, "no_majority", None, "balanced>balanced>balanced>balanced>base"),
    ("profile:0.5,0.5", 8192, 2, 5663, "no_majority", None, "balanced>balanced>balanced>balanced>base"),
    # Odd n: the leftover walk settles a level whose even part has no
    # majority.  uniform:k=3 leaves it at a rainbow triangle, and on
    # profile:0.5,0.5 the leftover's class wins.  The walk's third exit, the
    # inherited candidate's certificate, was reached by no seed searched at
    # cutoff 64 (see CHANGES.md).
    ("uniform:k=3", 2047, 0, 1324, "no_majority", None, "balanced>balanced>base"),
    ("uniform:k=3", 2047, 1, 1369, "no_majority", None, "balanced>balanced>base"),
    ("uniform:k=3", 2047, 2, 1378, "no_majority", None, "balanced>balanced>base"),
    ("profile:0.5,0.5", 2047, 0, 2616, "majority", 1024, "balanced>balanced>balanced>base"),
    ("profile:0.5,0.5", 2047, 1, 2515, "majority", 1024, "balanced>balanced>balanced>base"),
    ("profile:0.5,0.5", 2047, 2, 3058, "majority", 1024, "balanced>balanced>balanced>base"),
)

CSV_GRID = ExperimentConfig(
    algorithm="rand-majority",
    sizes=(1 << 11, 1 << 13),
    distribution="profile:0.48,rest=100",
    trials=3,
    master_seed=0,
    cutoff=64,
)
CSV_SHA256 = '91fdb7e467077480ef0a6cf83a13fb3e399d66e169c13089f26ad8da0fbd8c57'


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


# analyze --martingale --n 300 --trials 40 --seed 7, per strategy: the CSV's
# sha256, and two header fields that it prints rounded, pinned exactly.
# (strategy, sha256, terminal_balance_var, majority_rate)
MARTINGALE = (
    ("uniform", "797b635b0a19cf17ada75fb00020fdf5ffa5b5b3dd3063eb04a90fc3ad57fe83",
     157814.81025641027, 0.95),
    ("smallest-first", "a97d9cc2c4b0572e070ca9bb6f1215b8797bcf0818aacff51564cd4b097017b8",
     129882.70769230768, 0.925),
    ("largest-first", "6a06525b01b2a39fbbe2a2d7cc2267c48527d95de7cfaceda381a448a36f8c67",
     119758.76923076923, 0.975),
)


@pytest.mark.parametrize(
    "strategy,sha256,variance,majority_rate", MARTINGALE, ids=[row[0] for row in MARTINGALE]
)
def test_golden_martingale_csv(capsys, strategy, sha256, variance, majority_rate):
    argv = ["analyze", "--martingale", "--n", "300", "--trials", "40"]
    assert main([*argv, "--strategy", strategy, "--seed", "7"]) == 0
    csv = capsys.readouterr().out
    assert hashlib.sha256(csv.encode()).hexdigest() == sha256
    stats = simulate_balance(300, strategy, 40, RandomStream(7, f"martingale/{strategy}", 300))
    assert stats.terminal_balance_var == variance
    assert stats.majority_rate == majority_rate
