import json

import pytest

import collate_bench


def fake_record(seed, fps, p50, commit="abc123", failed=0):
    return {
        "env": {
            "nproc": 2,
            "git_commit": commit,
            "workload": "infer",
            "seed": seed,
            "config_hash": f"hash{seed}",
        },
        "result": {
            "correct": failed == 0,
            "attempted": 100,
            "failed": failed,
            "metrics": {
                "frames_per_s": {"value": fps, "unit": "frames/s"},
                "frame_ms.p50": {"value": p50, "unit": "ms"},
            },
        },
    }


def write_records(directory, records):
    directory.mkdir()
    for r in records:
        name = f"{r['env']['workload']}-seed{r['env']['seed']}-trace0.json"
        (directory / name).write_text(json.dumps(r))
    # a traced record and its spans are not end-to-end runs
    (directory / "infer-seed1-trace1.json").write_text("{}")
    return directory


def test_collates_two_records(tmp_path):
    runs = write_records(
        tmp_path / "runs",
        [fake_record(12, 14.0, 70.0, failed=1), fake_record(11, 10.0, 90.0)],
    )
    out = tmp_path / "BENCH_1.json"
    assert collate_bench.main([str(out), f"change={runs}", "--note", "n"]) == 0
    bench = json.loads(out.read_text())
    assert bench["note"] == "n"
    infer = bench["sets"]["change"]["infer"]
    assert infer["seeds"] == [11, 12]
    assert infer["config_hashes"] == ["hash11", "hash12"]
    assert infer["env"] == {
        "nproc": 2,
        "git_commit": "abc123",
        "workload": "infer",
    }
    assert (infer["attempted"], infer["failed"]) == (200, 1)
    # inclusive quartiles of two values lie a quarter of the way in
    assert infer["metrics"]["frames_per_s"] == {
        "median": 12.0,
        "q1": 11.0,
        "q3": 13.0,
        "iqr": 2.0,
        "n": 2,
        "unit": "frames/s",
    }
    assert infer["metrics"]["frame_ms.p50"]["median"] == 80.0


def test_runs_of_two_commits_in_one_set_are_an_error(tmp_path, capsys):
    runs = write_records(
        tmp_path / "runs",
        [fake_record(11, 10.0, 90.0), fake_record(12, 14.0, 70.0, "def456")],
    )
    out = tmp_path / "BENCH_1.json"
    assert collate_bench.main([str(out), f"change={runs}"]) == 1
    assert "differ in their environment" in capsys.readouterr().err
    assert not out.exists()


def test_one_run_has_zero_iqr():
    assert collate_bench.summarize([5.0]) == {
        "median": 5.0,
        "q1": 5.0,
        "q3": 5.0,
        "iqr": 0.0,
        "n": 1,
    }


def test_set_needs_name_and_records(tmp_path):
    with pytest.raises(SystemExit):
        collate_bench.main([str(tmp_path / "b.json"), str(tmp_path)])
    assert collate_bench.main([str(tmp_path / "b.json"), f"x={tmp_path}"]) == 1


def fake_bench(fps, p50):
    metric = {"iqr": 0.0, "n": 1}
    return {
        "note": "",
        "sets": {
            "parent": {"infer": {"metrics": {}}},
            "change": {
                "infer": {
                    "metrics": {
                        "frames_per_s": dict(metric, median=fps),
                        "frame_ms.p50": dict(metric, median=p50),
                    }
                }
            },
        },
    }


def test_prints_medians_beside_the_newest_other_bench_file(tmp_path, capsys):
    # numbered, not lexical, order: 12 is newer than 9
    (tmp_path / "BENCH_9.json").write_text(json.dumps(fake_bench(1.0, 1.0)))
    (tmp_path / "BENCH_12.json").write_text(json.dumps(fake_bench(8.0, 100.0)))
    runs = write_records(
        tmp_path / "runs",
        [fake_record(11, 10.0, 90.0), fake_record(12, 14.0, 70.0)],
    )
    out = tmp_path / "BENCH_13.json"
    assert collate_bench.main([str(out), f"change={runs}"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == (
        "change infer against BENCH_12.json change:"
        " frames_per_s 8 -> 12 (+50.0%), frame_ms.p50 100 -> 80 (-20.0%)"
    )
    # rewriting the newest file compares it with the one before
    out.unlink()
    newest = tmp_path / "BENCH_12.json"
    assert collate_bench.main([str(newest), f"change={runs}"]) == 0
    assert "against BENCH_9.json change:" in capsys.readouterr().out
