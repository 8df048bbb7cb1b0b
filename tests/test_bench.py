"""The experiment runner: determinism, CSV shape, summaries, gates."""

import json

import pytest

from majoritylab.bench import (
    CSV_VERSION,
    ExperimentConfig,
    SummaryRow,
    TrialRow,
    contract_violations,
    format_summary,
    rows_to_csv,
    rows_to_json,
    run_grid,
    run_trial,
    summarize,
    usable_cpus,
)


def small_config(**overrides):
    base = dict(
        algorithm="rand-majority",
        sizes=(64, 256),
        distribution="binary:p=0.5",
        trials=3,
        master_seed=11,
        cutoff=16,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(algorithm="quickselect")
    with pytest.raises(ValueError):
        small_config(sizes=())
    with pytest.raises(ValueError):
        small_config(sizes=(0,))
    with pytest.raises(ValueError):
        small_config(trials=0)
    with pytest.raises(ValueError):
        small_config(jobs=0)
    with pytest.raises(ValueError):
        small_config(jobs=usable_cpus() + 1)
    with pytest.raises(ValueError):
        small_config(cutoff=1)
    with pytest.raises(ValueError):
        small_config(distribution="bogus:spec")
    # Each of these used to build a config on which every trial raised.
    for bad in (
        dict(cutoff=2.5),
        dict(cutoff=True),
        dict(sizes=(2.5,)),
        dict(sizes=(True,)),
        dict(sizes=("64",)),
        dict(trials=2.5),
        dict(jobs=1.0),
    ):
        with pytest.raises(ValueError, match="integer"):
            small_config(**bad)


def strip_timing(row: TrialRow):
    return (
        row.n,
        row.trial,
        row.seed,
        row.algorithm,
        row.branch,
        row.comparisons,
        row.answer,
        row.multiplicity,
        row.correct,
        row.cert_ok,
    )


def test_run_trial_is_deterministic():
    cfg = small_config()
    assert strip_timing(run_trial(cfg, 64, 0)) == strip_timing(run_trial(cfg, 64, 0))


def test_rows_are_checked_and_correct():
    rows = run_grid(small_config())
    assert len(rows) == 6
    for row in rows:
        assert row.correct is True and row.cert_ok is True
        assert row.seed == f"11:{row.n}:{row.trial}"
    assert contract_violations(rows) == []


@pytest.mark.skipif(usable_cpus() < 2, reason="a worker pool needs two CPUs")
def test_run_grid_jobs_do_not_change_rows():
    serial = run_grid(small_config(jobs=1))
    parallel = run_grid(small_config(jobs=2))
    assert [strip_timing(r) for r in serial] == [strip_timing(r) for r in parallel]


def test_csv_shape_and_stability():
    rows = run_grid(small_config())
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == f"# {CSV_VERSION}"
    assert lines[1] == "n,trial,seed,algorithm,branch,comparisons,answer,multiplicity,correct,cert_ok"
    assert len(lines) == 2 + len(rows)
    first = lines[2].split(",")
    assert first[0] == "64" and first[3] == "rand-majority"
    assert first[8] == "1" and first[9] == "1"  # booleans encode as 1/0
    # rerunning the same config yields byte-identical output
    assert rows_to_csv(run_grid(small_config())) == text


def test_csv_timing_column_is_opt_in():
    rows = run_grid(small_config(trials=1, sizes=(64,)))
    assert "wall_ms" not in rows_to_csv(rows)
    timed = rows_to_csv(rows, timing=True)
    assert timed.strip().split("\n")[1].endswith(",wall_ms")


def test_boyer_moore_grid_row():
    cfg = ExperimentConfig(
        algorithm="boyer-moore",
        sizes=(4,),
        distribution="distinct",
        trials=1,
        master_seed=0,
    )
    rows = run_grid(cfg)
    assert len(rows) == 1
    row = rows[0]
    assert row.comparisons <= 6
    assert row.answer == "no_majority"
    assert row.correct and row.cert_ok


def test_summarize_stats():
    rows = run_grid(small_config())
    summary = summarize(rows, "binary:p=0.5")
    assert [s.n for s in summary] == [64, 256]
    s = summary[0]
    assert s.count == 3
    assert s.comparisons_min <= s.comparisons_mean <= s.comparisons_max
    assert s.comparisons_p95 == s.comparisons_max  # p95 of 3 samples is the max
    assert s.ratio == pytest.approx(s.comparisons_mean / 64)
    assert s.correct_rate == 1.0 and s.cert_rate == 1.0
    with pytest.raises(ValueError):
        summarize([])


def test_contract_violations_flag_bad_rows():
    from dataclasses import replace

    rows = run_grid(small_config(trials=1, sizes=(64,)))
    bad = replace(rows[0], correct=False)
    found = contract_violations([bad])
    assert len(found) == 1 and "wrong answer" in found[0]
    unchecked = replace(rows[0], correct=None, cert_ok=None)
    assert contract_violations([unchecked]) == []


def test_json_payload_round_trips():
    cfg = small_config(trials=1, sizes=(64,))
    rows = run_grid(cfg)
    payload = json.loads(rows_to_json(cfg, rows, summarize(rows, cfg.distribution)))
    assert payload["version"] == CSV_VERSION
    assert payload["config"]["master_seed"] == 11
    assert payload["rows"][0]["comparisons"] == rows[0].comparisons
    assert payload["summary"][0]["n"] == 64


def test_format_summary_is_tabular():
    rows = run_grid(small_config(trials=1, sizes=(64,)))
    text = format_summary(summarize(rows, "binary:p=0.5"))
    lines = text.split("\n")
    assert lines[0].split()[:2] == ["algorithm", "n"]
    assert len(lines) == 3
