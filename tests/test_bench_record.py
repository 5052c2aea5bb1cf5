"""The committed benchmark records, BENCH_*.json, against their schema.

tools/bench_pairs.py writes them; each summary must follow from the pairs
the record keeps.
"""

import glob
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import bench_pairs  # noqa: E402

RECORDS = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=os.path.basename)
def test_record_follows_the_schema(path):
    with open(path) as f:
        record = json.load(f)
    spec = benchmark()
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    assert set(record) == {"base", "change", "nproc", "seconds", "workloads"}
    assert isinstance(record["nproc"], int) and record["nproc"] >= 1
    for side in ("base", "change"):
        assert set(record[side]) == {"commit", "dirty", "src_sha256"}
        assert len(record[side]["commit"]) == 40
        assert len(record[side]["src_sha256"]) == 64
    assert record["base"]["src_sha256"] != record["change"]["src_sha256"]
    assert record["workloads"]
    assert set(record["workloads"]) <= {w["name"] for w in spec["workloads"]}
    for workload in record["workloads"].values():
        pairs = workload["pairs"]
        assert len({p["seed"] for p in pairs}) == len(pairs) >= 2
        for p in pairs:
            assert set(p["base"]) == set(p["change"]) == set(better)
        metrics = workload["metrics"]
        assert metrics == bench_pairs.summarise(pairs, better)
        for m in metrics.values():
            assert 0 <= m["wins"] <= m["pairs"] == len(pairs)
            for side in ("base", "change"):
                assert m[side]["q1"] <= m[side]["median"] <= m[side]["q3"]


def test_seed_ranges_parse():
    assert bench_pairs.parse_seeds("101-103,201") == [101, 102, 103, 201]


@pytest.mark.parametrize("seeds", ["901", "101,101", "5-7,6"])
def test_too_few_or_repeated_seeds_stop_before_any_run(seeds, monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main(["--base", ROOT, "--change", ROOT, "--workload", "pretrain-default",
                          "--seeds", seeds, "--out", os.devnull])
    assert stop.value.code == 2
    assert "at least two distinct seeds" in capsys.readouterr().err


def test_a_failing_run_reports_its_exit_code_and_stderr(tmp_path):
    # A stand-in checkout whose bench/run.py fails the way a crash would.
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import sys\n"
        "for i in range(40):\n"
        "    print(f'line {i}', file=sys.stderr)\n"
        "print('ValueError: the last words', file=sys.stderr)\n"
        "sys.exit(3)\n"
    )
    with pytest.raises(SystemExit) as stop:
        bench_pairs.run_once(str(tmp_path), "pretrain-default", 7, 1)
    message = str(stop.value.code)
    assert "seed 7: exit 3" in message
    assert message.endswith("ValueError: the last words")
    assert "line 39" in message and "line 0\n" not in message
