"""The mutant kit's list (scripts/mutants.py) matches the checkout; the
kit's tier-1 runs are not started here."""

from pathlib import Path

import pytest

import mutants

_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_exactly_once(mutant):
    """A refactor that moves a mutant's code must move its mutant."""
    text = (_ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


def test_names_are_unique_and_the_list_spans_the_pipeline():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names) >= 25
    files = {Path(m.path).name for m in mutants.MUTANTS}
    assert files >= {
        "radial_mask.py", "voxelizer.py", "loss.py", "layers.py",
        "network.py", "checkpoint.py", "trainer.py", "energy_model.py",
        "cli.py",
    }


def test_apply_edits_a_copy_and_refuses_an_ambiguous_edit(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\ny = 2\ny = 2\n", encoding="utf-8")
    mutants.apply(mutants.Mutant("m", "a.py", "x = 1", "x = 0"), tmp_path)
    assert (tmp_path / "a.py").read_text() == "x = 0\ny = 2\ny = 2\n"
    for old in ("x = 1", "y = 2"):  # now absent, and twice
        with pytest.raises(ValueError, match="occurs"):
            mutants.apply(mutants.Mutant("m", "a.py", old, "z"), tmp_path)


def test_list_prints_each_mutant(capsys):
    assert mutants.main(["--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("\t")[0] for line in lines] == [
        m.name for m in mutants.MUTANTS
    ]
