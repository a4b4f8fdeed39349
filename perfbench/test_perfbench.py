"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import os
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import bench
import instrument
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAIN = ("train-dense", "train-sphere")


def _spec(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """A tiny untraced and a tiny traced run of every workload."""
    root = str(tmp_path_factory.mktemp("checkout"))
    return {
        (name, trace): bench.run(name, 3, 0.01, trace, root=root, tiny=True)
        for name in workloads.NAMES
        for trace in (False, True)
    }


@pytest.mark.parametrize("name", workloads.NAMES)
def test_untraced_run_reports_every_end_to_end_metric(runs, name):
    result = runs[name, False]["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert [(k, v["unit"]) for k, v in metrics.items()] == _spec("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_reports_every_per_layer_metric(runs, name):
    result = runs[name, True]["result"]
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert [(k, v["unit"]) for k, v in metrics.items()] == _spec("per_layer")
    assert runs[name, True]["ops"]["traced"] >= 1


def test_traced_train_run_sees_every_layer(runs):
    metrics = runs["train-dense", True]["result"]["metrics"]
    for name, _, _ in instrument._layers():
        assert metrics[f"layers.{name}.fwd_ms"]["value"] > 0
        assert metrics[f"layers.{name}.bwd_ms"]["value"] > 0
    assert metrics["loss.query_ratio"]["value"] == 1.0
    assert 0.9 <= metrics["trace.step_self_coverage"]["value"] <= 1.1


@pytest.mark.parametrize("name", TRAIN)
def test_quality_is_bit_identical_with_tracing_on_and_off(runs, name):
    off, on = runs[name, False]["quality"], runs[name, True]["quality"]
    assert set(off) == {"train_loss_final", "heldout_bce", "heldout_masked_iou"}
    assert off == on


def _patched_targets():
    tracer = spans.Tracer()
    instrument.install(tracer)
    targets = [(owner, attr) for owner, attr, _ in tracer._patches]
    tracer.restore()
    return targets


def test_traced_run_leaves_no_wrapper_behind(tmp_path):
    targets = _patched_targets()
    assert len(targets) > 20
    before = [vars(owner).get(attr) for owner, attr in targets]
    bench.run("train-sphere", 3, 0.01, True, root=str(tmp_path), tiny=True)
    after = [vars(owner).get(attr) for owner, attr in targets]
    assert all(a is b for a, b in zip(before, after))


def test_calls_after_restore_record_nothing(tmp_path):
    wl = workloads.make("infer", 3, tiny=True)
    state = wl.setup(str(tmp_path))
    tracer = spans.Tracer()
    with tracer.installed(instrument.install), tracer.op_span(0):
        wl.op(state, 0)
    recorded = len(tracer.spans)
    assert recorded > 20
    wl.op(state, 1)
    assert len(tracer.spans) == recorded


def _span(tracer, sid, parent, start, end):
    s = spans.Span(sid, f"s{sid}", parent, None, 0)
    s.start, s.end = start, end
    tracer.spans.append(s)


def test_self_time_subtracts_the_union_of_children():
    t = spans.Tracer()
    _span(t, 1, None, 0.0, 10.0)
    _span(t, 2, 1, 1.0, 3.0)
    _span(t, 3, 1, 2.0, 5.0)  # overlaps span 2, as a worker thread can
    _span(t, 4, 1, 8.0, 12.0)  # runs past its parent's end
    assert t.self_seconds()[1] == pytest.approx(10.0 - 4.0 - 2.0)


def test_warnings_are_counted_and_still_shown():
    t = spans.Tracer()
    with pytest.warns(RuntimeWarning, match="overflow") as shown:
        with t.installed(lambda tracer: None):
            for _ in range(2):
                warnings.warn("overflow encountered in exp", RuntimeWarning)
    assert len(t.warned) == 2
    assert len(shown) == 2


def test_mask_check_flags_a_visible_voxel_in_an_unselected_group(tmp_path):
    wl = workloads.make("infer", 3, tiny=True)
    state = wl.setup(str(tmp_path))
    _, (outcome, *_rest) = wl.op(state, 0)
    assert workloads.mask_problems(outcome) == []
    dark = ~np.isin(outcome.groups, list(outcome.selected_groups))
    assert dark.any()
    outcome.visible[np.flatnonzero(dark)[0]] = True
    assert workloads.mask_problems(outcome)


def test_same_seed_same_inputs(tmp_path):
    a, b = (workloads.make("train-sphere", 5, tiny=True) for _ in range(2))
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != workloads.make("train-sphere", 6, tiny=True).config_hash()
    frames_a = a.setup(str(tmp_path))["train"]
    frames_b = b.setup(str(tmp_path))["train"]
    assert frames_a == frames_b


def test_outside_a_checkout_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
