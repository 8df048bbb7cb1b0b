"""Tests for the benchmark itself, at tiny n.

    python3 -m pytest perfbench
"""

import json
from pathlib import Path
from statistics import mean, median

import pytest

import harness
from majoritylab.answers import Answer, Certificate

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
TINY = dict(seconds=60, n=2048, max_instances=3)


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    result = harness.run_workload(workload, 5, trace=trace, **TINY)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["failed"] == 0 and result["attempted"] == 3
    assert bool(result["spans"]) == trace


def test_times_are_scaled_to_the_reference_host_speed():
    result = harness.run_workload("fair-coin", 7, trace=False, **TINY)
    times, metrics = result["instance_times_s"], result["metrics"]
    speed = result["host_speed"]
    assert len(speed["samples_s"]) == len(speed["boyer_moore_samples_s"]) >= 2
    for t in times:
        assert set(t["scales"]) == {"generate", "solve", "certified", "truth", "baseline"}
        for group, scale in t["scales"].items():
            reference, samples = (
                (harness.REFERENCE_BM_S, speed["boyer_moore_samples_s"]) if group == "baseline"
                else (harness.REFERENCE_S, speed["samples_s"])
            )
            assert min(samples) <= reference / scale <= max(samples)
    assert metrics["solve_s"]["value"] == pytest.approx(
        median(t["scales"]["solve"] * mean(t["solve_calls"]) for t in times)
    )
    assert metrics["baseline_solve_s"]["value"] == pytest.approx(
        median(t["scales"]["baseline"] * mean(t["baseline_calls"]) for t in times)
    )
    assert metrics["certified_s"]["value"] == pytest.approx(
        median(t["scales"]["certified"] * t["certified"] for t in times)
    )
    assert result["raw_metrics"]["certified_s"] == pytest.approx(
        median(t["certified"] for t in times)
    )
    for name in ("comparisons_per_ball", "ok_fraction"):
        assert metrics[name]["value"] == result["raw_metrics"][name]


def test_declared_workloads_match_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


def test_spans_nest_under_their_instance():
    result = harness.run_workload("near-tie", 2, trace=True, **TINY)
    spans = result["spans"]
    for span in spans:
        assert span["start"] <= span["end"]
        if span["name"] == "instance":
            assert span["parent"] is None
        else:
            parent = spans[span["parent"]]
            assert parent["instance"] == span["instance"]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]


def test_same_seed_gives_identical_fingerprints():
    first = harness.run_workload("fair-coin", 11, trace=False, **TINY)
    second = harness.run_workload("fair-coin", 11, trace=True, **TINY)
    other = harness.run_workload("fair-coin", 12, trace=False, **TINY)
    assert first["fingerprints"] == second["fingerprints"]
    assert [f["comparisons"] for f in first["fingerprints"]] != [
        f["comparisons"] for f in other["fingerprints"]
    ]


_real_majority = harness.majority


def _wrong_majority(oracle, balls=None, params=None, rng=None):
    answer, cert, stats = _real_majority(oracle, balls, params, rng)
    if answer.is_majority:
        return Answer.no_majority(), Certificate(), stats
    return Answer.majority(1, oracle.instance.n), None, stats


@pytest.mark.parametrize("trace", [0, 1])
def test_forced_wrong_answer_fails_the_run(monkeypatch, trace):
    monkeypatch.setattr(harness, "majority", _wrong_majority)
    result = harness.run_workload("fair-coin", 3, trace=bool(trace), **TINY)
    assert result["failed"] == result["attempted"] == 3
    assert all(
        any(p.startswith("wrong answer") for p in f["problems"]) for f in result["failures"]
    )
    assert all(
        any(p.startswith("audit rejected") for p in f["problems"]) for f in result["failures"]
    )
    if not trace:
        assert result["metrics"]["ok_fraction"]["value"] == 0


def test_exceptions_are_counted_not_raised(monkeypatch):
    def capped(*args, **kwargs):
        raise AssertionError("comparison cap breached")

    monkeypatch.setattr(harness, "boyer_moore", capped)
    result = harness.run_workload("many-colors", 4, trace=False, **TINY)
    assert result["failed"] == result["attempted"] == 3
    assert result["fingerprints"][0]["error"].startswith("AssertionError")
    assert json.loads(harness.summary_line(result))["correct"] is False


def test_main_exits_nonzero_on_failure_and_ends_with_the_summary(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)
    monkeypatch.setattr(harness, "ROOT", tmp_path)
    monkeypatch.setattr(harness, "majority", _wrong_majority)
    status = harness.main(["--workload", "near-tie", "--seed", "1", "--seconds", "0.01"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is False and last["failed"] == last["attempted"] >= 1
    assert (tmp_path / "near-tie-seed1-trace0.json").is_file()


def test_environment_names_versions_and_commit():
    env = harness.environment()
    assert env["nproc"] >= 1
    assert env["python"].count(".") == 2
    assert env["numpy"] and env["commit"]
