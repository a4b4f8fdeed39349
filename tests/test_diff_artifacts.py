import json
from pathlib import Path

import pytest

import diff_artifacts
from rmae.occupancy_net import NetConfig, OccupancyNet, save_checkpoint


def write_tree(root: Path, loss="0.6931471805599453", code="3") -> Path:
    """A small artifact tree as scripts/cli_artifacts.py lays one out."""
    run = root / "t1" / "pretrain"
    run.mkdir(parents=True)
    (run / "loss.csv").write_text(f"epoch,mean_bce\n0,{loss}\n")
    record = {"command": "pretrain", "out": str(root), "seed": 0}
    (run / "resolved_config.json").write_text(json.dumps(record, indent=2))
    (root / "t1" / "exit-codes.txt").write_text(f"bad-extent {code}\n")
    return root


def test_equal_trees_print_nothing(tmp_path, capsys):
    """Trees that differ only in their "out" lines are equal."""
    a = write_tree(tmp_path / "a")
    b = write_tree(tmp_path / "b")
    assert diff_artifacts.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == ""


def test_a_last_digit_is_a_numeric_difference(tmp_path, capsys):
    a = write_tree(tmp_path / "a")
    b = write_tree(tmp_path / "b", loss="0.6931471805599454")
    assert diff_artifacts.main([str(a), str(b)]) == 0
    a, b = 0.6931471805599453, 0.6931471805599454  # one ulp apart
    worst = abs(a - b) / b
    assert 1e-16 < worst < 2e-16
    assert capsys.readouterr().out == (
        f"t1/pretrain/loss.csv: max relative difference {worst:.3g}\n"
    )


def test_a_changed_exit_code_is_not_numeric(tmp_path, capsys):
    a = write_tree(tmp_path / "a")
    b = write_tree(tmp_path / "b", code="6")
    assert diff_artifacts.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out == (
        "t1/exit-codes.txt: not numeric: bytes differ\n"
    )


def test_a_file_on_one_side_only(tmp_path, capsys):
    a = write_tree(tmp_path / "a")
    b = write_tree(tmp_path / "b")
    (b / "t1" / "extra.txt").write_text("x\n")
    assert diff_artifacts.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out == f"t1/extra.txt: only in {b}\n"


@pytest.mark.parametrize(
    "a, b",
    [({"a": 1}, {"b": 1}), ([1], [1, 2]), ("s", "t"), (True, 1)],
    ids=["key", "length", "string", "bool"],
)
def test_json_keys_strings_and_shapes_are_not_numeric(a, b):
    with pytest.raises(diff_artifacts.NotNumeric):
        diff_artifacts.json_diff(a, b)


def test_json_numbers_give_their_relative_difference():
    diff = diff_artifacts.json_diff
    assert diff({"a": [1.0, 2.0], "out": "x"}, {"a": [1.0, 2.5]}) == 0.2
    assert diff({"x": float("nan")}, {"x": float("nan")}) == 0.0


def test_checkpoints_compare_their_tensors(tmp_path):
    net = OccupancyNet(NetConfig(stage_channels=(4, 8)))
    save_checkpoint(net, tmp_path / "a.rmae")
    net.head.bias += 1e-6
    save_checkpoint(net, tmp_path / "b.rmae")
    a, b, c = (tmp_path / f"{name}.rmae" for name in "abc")
    assert diff_artifacts.checkpoint_diff(a, b) == 1.0  # 0 against 1e-6
    save_checkpoint(OccupancyNet(NetConfig(stage_channels=(4, 4))), c)
    with pytest.raises(diff_artifacts.NotNumeric, match="configs differ"):
        diff_artifacts.checkpoint_diff(a, c)
    c.write_bytes(a.read_bytes()[:-8])  # a truncated checkpoint
    with pytest.raises(diff_artifacts.NotNumeric):
        diff_artifacts.checkpoint_diff(a, c)
