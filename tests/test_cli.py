"""The CLI: output contracts, exit codes, file handling."""

from pathlib import Path

import pytest

from majoritylab import ContractViolation, Instance, write_instance
from majoritylab import bench, cli
from majoritylab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_prints_answer_cost_and_trace(capsys):
    code, out, _ = run_cli(
        capsys,
        "run", "--algo", "rand-majority", "--n", "1000",
        "--dist", "binary:p=0.5", "--seed", "1",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n: 1000"
    assert lines[1].startswith("answer: ")
    assert lines[2].startswith("comparisons: ")
    assert lines[3].startswith("branch trace: ")


def test_run_transcript_dump(capsys):
    code, out, _ = run_cli(
        capsys,
        "run", "--algo", "boyer-moore", "--n", "8",
        "--dist", "profile:5,3", "--seed", "2", "--record-transcript",
    )
    assert code == 0
    lines = out.strip().split("\n")
    count_line = next(l for l in lines if l.startswith("transcript: "))
    declared = int(count_line.split()[1])
    records = lines[lines.index(count_line) + 1 :]
    assert len(records) == declared
    for entry in records:
        left, right, equal = entry.split()
        assert 1 <= int(left) <= 8 and 1 <= int(right) <= 8
        assert equal in ("0", "1")


def test_run_accepts_power_sizes(capsys):
    code, out, _ = run_cli(capsys, "run", "--n", "2^10", "--seed", "3")
    assert code == 0
    assert "n: 1024" in out


def test_run_from_instance_file(tmp_path, capsys):
    path = str(tmp_path / "inst.txt")
    write_instance(Instance((1, 1, 1, 2, 2)), path)
    code, out, _ = run_cli(capsys, "run", "--instance", path, "--algo", "boyer-moore")
    assert code == 0
    assert "answer: majority" in out and "multiplicity=3" in out


def test_run_requires_size_or_instance(capsys):
    code, _, err = run_cli(capsys, "run", "--algo", "boyer-moore")
    assert code == 2
    assert "error:" in err


def test_verify_accepts_honest_run(tmp_path, capsys):
    path = str(tmp_path / "inst.txt")
    write_instance(Instance((1, 2, 1, 2, 3, 1, 1)), path)
    code, out, _ = run_cli(
        capsys, "verify", "--instance", path, "--algo", "rand-majority",
        "--seed", "5", "--cutoff", "2",
    )
    assert code == 0
    assert "answer matches truth: yes" in out
    assert "certificate audit: accepted" in out


def test_verify_generated_instance(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n", "200", "--dist", "uniform:k=3", "--seed", "6"
    )
    assert code == 0


def test_analyze_constant(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--constant")
    assert code == 0
    values = dict(line.split(": ") for line in out.strip().split("\n"))
    assert float(values["lower_bound_constant"]) == pytest.approx(1.0191289, abs=1e-6)
    assert float(values["beta_low"]) == pytest.approx(0.4226497, abs=1e-6)
    assert float(values["beta_high"]) == pytest.approx(0.4757995, abs=1e-6)


def test_readme_shows_the_analyze_constant_output(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    after = readme.split("$ python3 -m majoritylab analyze --constant\n", 1)[1]
    shown = after.split("\n\n", 1)[0]
    code, out, _ = run_cli(capsys, "analyze", "--constant")
    assert code == 0
    assert out.strip() == shown


def test_analyze_martingale_csv(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--martingale", "--n", "300", "--trials", "40",
        "--strategy", "uniform", "--seed", "7",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "# majoritylab-analyze v1"
    header_at = lines.index("k,nonzero_components_mean,max_balance_mean")
    first = lines[header_at + 1].split(",")
    assert first[0] == "0" and float(first[1]) == 300.0
    # one data row per checkpoint, all parseable
    for line in lines[header_at + 1 :]:
        k, nk, mk = line.split(",")
        int(k), float(nk), float(mk)


def test_analyze_oversized_martingale_is_usage_error(capsys):
    # The first array would be 1.6 PiB: its allocation fails at once.
    code, out, err = run_cli(capsys, "analyze", "--martingale", "--n", "2^44", "--trials", "100")
    assert code == 2 and out == ""
    assert err.startswith(f"error: --n {1 << 44} with --trials 100 is too large")


def test_analyze_needs_a_mode(capsys):
    code, _, err = run_cli(capsys, "analyze")
    assert code == 2 and "error:" in err


def test_bench_csv_to_file_and_summary(tmp_path, capsys):
    out_path = str(tmp_path / "rows.csv")
    code, out, err = run_cli(
        capsys, "bench", "--algo", "rand-majority", "--sizes", "64,2^8",
        "--trials", "2", "--seed", "9", "--cutoff", "16", "--csv-out", out_path,
    )
    assert code == 0
    assert "algorithm" in out  # summary table on stdout when rows go to a file
    with open(out_path) as fh:
        content = fh.read()
    assert content.startswith("# majoritylab-csv v1\n")
    assert content.count("\n") == 2 + 4  # header comment + columns + 4 rows


@pytest.mark.skipif(bench.usable_cpus() < 2, reason="a worker pool needs two CPUs")
def test_bench_stdout_determinism(tmp_path, capsys):
    argv = [
        "bench", "--sizes", "128", "--trials", "3", "--seed", "4", "--cutoff", "16",
    ]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv, "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_bench_json_format(tmp_path, capsys):
    import json

    out_path = str(tmp_path / "rows.json")
    code, _, _ = run_cli(
        capsys, "bench", "--sizes", "64", "--trials", "1", "--format", "json",
        "--csv-out", out_path,
    )
    assert code == 0
    with open(out_path) as fh:
        payload = json.load(fh)
    assert payload["rows"][0]["n"] == 64


def test_bad_distribution_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "run", "--n", "10", "--dist", "zipf:2")
    assert code == 2 and "error:" in err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_bench_rejects_more_jobs_than_cpus(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(bench, "ProcessPoolExecutor", no_pool)
    jobs = str(bench.usable_cpus() + 1)
    code, _, err = run_cli(capsys, "bench", "--sizes", "64", "--jobs", jobs)
    assert code == 2 and "jobs" in err


def test_contract_violation_exits_1(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ContractViolation("comparison cap breached")

    monkeypatch.setattr(bench, "majority", broken)
    code, _, err = run_cli(capsys, "run", "--n", "100")
    assert code == 1 and "contract violated" in err


@pytest.mark.parametrize("error", [MemoryError, OverflowError])
def test_run_oversized_n_is_usage_error(capsys, monkeypatch, error):
    # Stands in for an instance too large to allocate; nothing big is built.
    def too_big(*args, **kwargs):
        raise error()

    monkeypatch.setattr(cli, "generate", too_big)
    code, _, err = run_cli(capsys, "run", "--n", "2^40")
    assert code == 2
    assert f"--n {1 << 40} is too large" in err


def test_negative_size_exponent_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["run", "--n", "2^-1"])
    assert info.value.code == 2
    code, _, err = run_cli(capsys, "bench", "--sizes", "64,2^-1")
    assert code == 2 and "'2^-1' is not an integer" in err


def test_run_instance_directory_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "run", "--instance", str(tmp_path))
    assert code == 2 and "Is a directory" in err


def test_run_cutoff_below_two_is_usage_error(capsys):
    for cutoff in ("0", "1"):
        code, _, err = run_cli(capsys, "run", "--n", "100", "--cutoff", cutoff)
        assert code == 2 and "cutoff must be at least 2" in err


def test_run_bad_instance_header_is_usage_error(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text("\nabc\n1\n")
    code, _, err = run_cli(capsys, "run", "--instance", str(path))
    assert code == 2
    assert f"{path}: line 2: expected an integer, got 'abc'" in err
