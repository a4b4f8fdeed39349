"""Plant known bugs in copies of the checkout and check that tier-1 fails.

Each mutant names one edit: a file under the repository root, a piece of
old text that must occur in it exactly once, and the new text that
replaces it.  For each mutant the checkout is copied to a temporary
directory (without .git and caches), the edit is applied there, and
tier-1 runs on the copy with -x, one pytest process at a time.  A mutant
is killed when some test fails, and survives when every test passes; a
survivor is a behaviour no test checks, or an edit that changes none,
which does not belong on the list.  The unmutated copy runs first: a kit
whose tests fail without a mutant proves nothing.

Usage, from anywhere:

    python3 scripts/mutants.py            # the clean copy, then every mutant
    python3 scripts/mutants.py NAME ...   # only these mutants
    python3 scripts/mutants.py --list

It exits 0 when every mutant is killed, 1 when one survives, and 2 when
the clean copy fails or an edit cannot be applied.
Standard library only; a full run takes one tier-1 run per mutant.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# tier-1 with -x, less the kit's own test, which fails on every mutant: it
# checks that each old text is in the checkout it runs in
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
_IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_out",
    "rmae_out", "*.egg-info",
)


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str


def apply(mutant: Mutant, root: Path) -> None:
    """Write the mutant's edit into root's copy of its file; ValueError
    unless its old text occurs there exactly once."""
    path = root / mutant.path
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(
            f"{mutant.name}: old text occurs {count} times in {mutant.path}"
        )
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


MUTANTS = [
    # --- mask stages (mask, energy, every training command) ---
    Mutant(
        "range-stage-dropped",
        "src/rmae/radial_mask.py",
        "kept = rows[u >= p_drop[g if len(p_drop) > 1 else 0, k]]",
        "kept = rows",
    ),
    Mutant(
        "band-edge-nearer",
        "src/rmae/radial_mask.py",
        'r, side="right")',
        'r, side="left")',
    ),
    # --- voxelize bounds ---
    Mutant(
        "voxelize-x-bound-inclusive",
        "src/rmae/voxelizer.py",
        "inside = (idx[0] >= 0) & (idx[0] < nx)",
        "inside = (idx[0] >= 0) & (idx[0] <= nx)",
    ),
    # --- the query set, built from the frame's grid ---
    Mutant(
        "query-dims-reversed",
        "src/rmae/occupancy_net/loss.py",
        "dims = grid.geometry.dims",
        "dims = grid.geometry.dims[::-1]",
    ),
    # --- query build and loss ---
    Mutant(
        "sphere-disc-open",
        "src/rmae/occupancy_net/loss.py",
        "disc = s <= r * r",
        "disc = s < r * r",
    ),
    Mutant(
        "loss-ignores-batch-size",
        "src/rmae/occupancy_net/loss.py",
        "scale = 1.0 / (batch_size * len(query))",
        "scale = 1.0 / len(query)",
    ),
    # --- batch norm ---
    Mutant(
        "commit-momentum-flipped",
        "src/rmae/occupancy_net/layers.py",
        "self.running_mean += self.momentum * (mu - self.running_mean)",
        "self.running_mean += (1 - self.momentum) * (mu - self.running_mean)",
    ),
    Mutant(
        "unbiased-batch-variance",
        "src/rmae/occupancy_net/layers.py",
        "var = var / n",
        "var = var / (n - 1)",
    ),
    Mutant(
        "matrix-flats-a-view",
        "src/rmae/occupancy_net/layers.py",
        "return t.T.copy()[None], lambda f: None",
        "return np.ascontiguousarray(t.T)[None], lambda f: None",
    ),
    Mutant(
        "map-rows-reversed",
        "src/rmae/occupancy_net/layers.py",
        "BatchNorm._channel_major(t.feats)",
        "BatchNorm._channel_major(t.feats[::-1])",
    ),
    # --- tap order and the sparse plan ---
    Mutant(
        "sparse-taps-reversed",
        "src/rmae/occupancy_net/layers.py",
        "for (out_rows, in_rows), w in zip(pairs, self.weight):",
        "for (out_rows, in_rows), w in"
        " reversed(list(zip(pairs, self.weight))):",
    ),
    Mutant(
        "slab-rows-without-tap",
        "src/rmae/occupancy_net/layers.py",
        "            table += np.arange(len(kernel))[:, None]\n",
        "",
    ),
    # --- parameters and the checkpoint round trip ---
    Mutant(
        "parameter-names-unjoined",
        "src/rmae/occupancy_net/network.py",
        '(f"{lname}.{tname}", arr)',
        '(f"{lname}{tname}", arr)',
    ),
    Mutant(
        "checkpoint-drops-buffers",
        "src/rmae/occupancy_net/checkpoint.py",
        "    out += list(layer.buffers().items())\n",
        "",
    ),
    Mutant(
        "checkpoint-float32",
        "src/rmae/occupancy_net/checkpoint.py",
        'arr = np.asarray(arr, dtype="<f8")',
        'arr = np.asarray(arr, dtype="<f4").astype("<f8")',
    ),
    # --- frame order, seeds and batch statistics in pretrain ---
    Mutant(
        "frames-never-shuffled",
        "src/rmae/trainer.py",
        "order = rng.permutation(len(grids))",
        "order = np.arange(len(grids))",
    ),
    Mutant(
        "remask-ignored",
        "src/rmae/trainer.py",
        "epoch_key = epoch if cfg.remask_each_epoch else 0",
        "epoch_key = epoch",
    ),
    Mutant(
        "query-seed-is-mask-seed",
        "src/rmae/trainer.py",
        "query_seed = keyrand.derive_seed(seed, _QUERY_STREAM, *indices)",
        "query_seed = keyrand.derive_seed(*key)",
    ),
    Mutant(
        "batch-stats-never-committed",
        "src/rmae/trainer.py",
        "net.commit_batch_stats(stats)",
        "pass",
    ),
    Mutant(
        "one-worker-round-of-two",
        "src/rmae/trainer.py",
        "*theirs, last = jobs[start : start + n]",
        "*theirs, last = jobs[start : start + max(n, 2)]",
    ),
    # --- evaluate ---
    Mutant(
        "every-sector-dark",
        "src/rmae/trainer.py",
        "dark[list(selected)] = False",
        "dark[list(selected)] = True",
    ),
    Mutant(
        "mean-of-first-frame",
        "src/rmae/trainer.py",
        "values = [m[key] for m in per_frame if m[key] is not None]",
        "values = [m[key] for m in per_frame[:1] if m[key] is not None]",
    ),
    Mutant(
        "threshold-inclusive",
        "src/rmae/trainer.py",
        "pred_occ = pred.logits > 0.0",
        "pred_occ = pred.logits >= 0.0",
    ),
    # --- energy ---
    Mutant(
        "range-law-squared",
        "src/rmae/energy_model.py",
        "/ R_design) ** 4",
        "/ R_design) ** 2",
    ),
    # --- sweeps ---
    Mutant(
        "sweep-trains-the-callers-net",
        "src/rmae/cli.py",
        "pretrain(fit, train, copy.deepcopy(net), cfg.geometry)",
        "pretrain(fit, train, net, cfg.geometry)",
    ),
    Mutant(
        "wide-span-two-groups",
        "src/rmae/cli.py",
        "return max(1, round(min(360.0 / span_deg, 2 * MAX_GROUPS)))",
        "return max(2, round(min(360.0 / span_deg, 2 * MAX_GROUPS)))",
    ),
    Mutant(
        "ratio-keeps-row-0",
        "src/rmae/cli.py",
        "return [(m, replace(cfg.mask, m=m)) for m in cfg.sweep.ratios]",
        "return [(m, replace(cfg.mask, m=m, p_drop=cfg.mask.p_drop[:1]))"
        " for m in cfg.sweep.ratios]",
    ),
    Mutant(
        "sweep-trains-on-no-frame",
        "src/rmae/cli.py",
        "if n_held >= count:",
        "if n_held > count:",
    ),
    Mutant(
        "sweep-scores-unswept-mask",
        "src/rmae/cli.py",
        "evaluate(held, trained, mask, cfg.query, cfg.geometry)",
        "evaluate(held, trained, cfg.mask, cfg.query, cfg.geometry)",
    ),
]


def run_tier1(copy: Path) -> tuple[int, str]:
    """(pytest's exit code, its first failing test or error line) of
    tier-1 on copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    proc = subprocess.run(
        [sys.executable, *TIER1], cwd=copy, env=env,
        capture_output=True, text=True,
    )
    first = re.search(r"^(FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return proc.returncode, first.group(2) if first else ""


def trial(mutant: Mutant | None) -> tuple[int, str]:
    """Tier-1 on a temporary copy of the checkout, with mutant's edit
    applied."""
    with tempfile.TemporaryDirectory(prefix="rmae-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORED)
        if mutant is not None:
            apply(mutant, copy)
        return run_tier1(copy)


def say(line: str) -> None:
    print(line, flush=True)  # a long run reports as it goes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (all)")
    parser.add_argument("--list", action="store_true", help="list and exit")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] or MUTANTS
    if args.list:
        for m in chosen:
            say(f"{m.name}\t{m.path}")
        return 0

    start = time.perf_counter()
    code, first = trial(None)
    if code != 0:
        say(f"clean copy fails tier-1 (exit {code}, {first}): no verdicts")
        return 2
    say(f"clean copy passes ({time.perf_counter() - start:.0f} s)")
    survivors = 0
    for m in chosen:
        t0 = time.perf_counter()
        try:
            code, first = trial(m)
        except ValueError as e:
            say(f"error     {e}")
            return 2
        took = f"{time.perf_counter() - t0:.0f} s"
        if code not in (0, 1, 2):  # 1: a test failed, 2: interrupted
            say(f"error     {m.name}: pytest exit {code} ({first})")
            return 2
        if code == 0:
            survivors += 1
            say(f"survived  {m.name} ({took})")
        else:
            say(f"killed    {m.name} ({took}) by {first or f'exit {code}'}")
    say(
        f"{len(chosen)} mutants, {len(chosen) - survivors} killed,"
        f" {survivors} survived in {time.perf_counter() - start:.0f} s"
    )
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
