"""Instances, the counting oracle, and the distribution grammar."""

from collections import Counter

import pytest

from majoritylab import (
    CountingOracle,
    Instance,
    RandomStream,
    generate,
    parse_distribution,
    read_instance,
    relabel,
    write_instance,
)


def test_instance_basics():
    inst = Instance((5, 5, 7))
    assert inst.n == 3
    assert inst.color_of(1) == 5
    assert inst.color_of(3) == 7


def test_oracle_counts_every_call():
    oracle = CountingOracle(Instance((1, 1, 2)))
    assert oracle.cmp(1, 2) is True
    assert oracle.cmp(1, 3) is False
    assert oracle.cmp(1, 3) is False  # repeats are charged again
    assert oracle.cmp(2, 2) is True  # self-comparison costs too
    assert oracle.comparisons == 4


def test_oracle_rejects_out_of_range():
    oracle = CountingOracle(Instance((1, 2)))
    with pytest.raises(IndexError):
        oracle.cmp(0, 1)
    with pytest.raises(IndexError):
        oracle.cmp(1, 3)


def test_oracle_transcript_recording():
    oracle = CountingOracle(Instance((1, 2, 1)), record_transcript=True)
    oracle.cmp(1, 2)
    oracle.cmp(1, 3)
    assert [(r.left, r.right, r.equal) for r in oracle.transcript] == [
        (1, 2, False),
        (1, 3, True),
    ]
    bare = CountingOracle(Instance((1, 2)))
    assert not bare.recording
    with pytest.raises(ValueError):
        bare.transcript


# -- distribution grammar ----------------------------------------------


def test_parse_binary():
    spec = parse_distribution("binary:p=0.3")
    assert spec.kind == "binary" and spec.p == 0.3
    assert parse_distribution("binary").p == 0.5


def test_parse_profile_fractions_and_rest():
    spec = parse_distribution("profile:0.48,rest=100")
    assert spec.kind == "profile"
    assert spec.fractions == (0.48,)
    assert spec.rest_colors == 100


def test_parse_profile_counts():
    spec = parse_distribution("profile:7,5")
    assert spec.counts == (7, 5)


def test_parse_distinct_and_uniform():
    assert parse_distribution("distinct").kind == "distinct"
    assert parse_distribution("uniform:k=64").k == 64
    assert parse_distribution("uniform:k=n").k is None
    assert parse_distribution("uniform").k is None


@pytest.mark.parametrize(
    "bad",
    [
        "nope",
        "binary:q=0.5",
        "binary:p=1.5",
        "uniform:k=0",
        "profile:",
        "profile:0.6,0.6",
        "profile:3,rest=4",
        "profile:-1,2",
        "distinct:3",
    ],
)
def test_parse_rejects_bad_specs(bad):
    with pytest.raises(ValueError):
        parse_distribution(bad)


def test_describe_round_trips():
    for text in ("binary:p=0.3", "profile:7,5", "distinct", "uniform:k=64"):
        spec = parse_distribution(text)
        assert parse_distribution(spec.describe()) == spec


# -- generation --------------------------------------------------------


def test_generate_profile_counts_exact():
    inst = generate("profile:7,5", 12, RandomStream(0))
    assert sorted(Counter(inst.colors).values(), reverse=True) == [7, 5]


def test_generate_profile_counts_must_sum_to_n():
    with pytest.raises(ValueError):
        generate("profile:7,5", 13, RandomStream(0))


def test_generate_profile_fractions_rounding():
    inst = generate("profile:0.48,rest=4", 1000, RandomStream(1))
    counts = Counter(inst.colors)
    assert sum(counts.values()) == 1000
    assert counts[1] == 480
    assert len(counts) == 5


def test_generate_distinct_all_different():
    inst = generate("distinct", 30, RandomStream(2))
    assert len(set(inst.colors)) == 30


def test_generate_uniform_respects_k():
    inst = generate("uniform:k=3", 500, RandomStream(3))
    assert set(inst.colors) <= {1, 2, 3}
    assert len(set(inst.colors)) == 3


def test_generate_binary_mix():
    inst = generate("binary:p=0.5", 400, RandomStream(4))
    counts = Counter(inst.colors)
    assert set(counts) <= {1, 2}
    assert 120 < counts[1] < 280


def test_generate_deterministic_per_stream():
    a = generate("binary:p=0.5", 100, RandomStream(7, "g", 1))
    b = generate("binary:p=0.5", 100, RandomStream(7, "g", 1))
    assert a.colors == b.colors


def test_relabel_preserves_class_sizes():
    inst = generate("profile:5,4,3", 12, RandomStream(5))
    renamed = relabel(inst, RandomStream(6))
    assert sorted(Counter(inst.colors).values()) == sorted(
        Counter(renamed.colors).values()
    )


def test_instance_file_round_trip(tmp_path):
    inst = generate("uniform:k=5", 40, RandomStream(8))
    path = str(tmp_path / "inst.txt")
    write_instance(inst, path)
    assert read_instance(path) == inst


def test_read_instance_validates(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n1\n2\n")
    with pytest.raises(ValueError):
        read_instance(str(path))
    path.write_text("2\n1\n\nx\n")
    with pytest.raises(ValueError, match="line 4: expected an integer, got 'x'"):
        read_instance(str(path))
