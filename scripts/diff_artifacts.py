#!/usr/bin/env python3
"""Compare two artifact trees that scripts/cli_artifacts.sh wrote.

    python3 scripts/diff_artifacts.py A B

Prints one line per file that differs in its bytes, with its path
relative to the tree roots.  Lines that hold '"out":' are left out of the
comparison, as `diff -I '"out":'` leaves them out.  For a checkpoint
(*.rmae, read with load_checkpoint), a .csv and a .json file the line
gives the largest relative difference of the file's numbers,
|a - b| / max(|a|, |b|).  Any other difference is not numeric: a file on
one side only, a changed string, key, header, shape or network config, or
a byte difference in any other file.  The exit code is 1 if any
difference is not numeric, else 0.  Checkpoints are read with the rmae
package of this checkout's src/ unless rmae is importable already.
"""

import csv
import json
import math
import sys
from pathlib import Path

_OUT = '"out":'


class NotNumeric(Exception):
    """Two files differ in something other than the value of a number."""


def rel_diff(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|): 0 for equal numbers (NaN equals NaN), inf
    for a NaN against a number."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def json_diff(a, b, where="") -> float:
    """Largest relative difference of the numbers of two JSON values,
    which must agree in everything else.  A key "out" is left out."""
    if _number(a) and _number(b):
        return rel_diff(float(a), float(b))
    if isinstance(a, dict) and isinstance(b, dict):
        keys = a.keys() - {"out"}
        if keys != b.keys() - {"out"}:
            raise NotNumeric(f"keys differ at {where or '/'}")
        parts = (json_diff(a[k], b[k], f"{where}/{k}") for k in keys)
        return max(parts, default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise NotNumeric(f"lengths differ at {where or '/'}")
        pairs = enumerate(zip(a, b))
        parts = (json_diff(x, y, f"{where}/{i}") for i, (x, y) in pairs)
        return max(parts, default=0.0)
    if type(a) is not type(b) or a != b:
        raise NotNumeric(f"value differs at {where or '/'}")
    return 0.0


def _float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def csv_diff(a: str, b: str) -> float:
    """Largest relative difference of the numeric cells of two CSV texts
    of the same shape whose other cells are equal."""
    rows_a = list(csv.reader(a.splitlines()))
    rows_b = list(csv.reader(b.splitlines()))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        raise NotNumeric("shapes differ")
    worst = 0.0
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        for j, (x, y) in enumerate(zip(ra, rb)):
            fx, fy = _float(x), _float(y)
            if fx is None or fy is None:
                if x != y:
                    raise NotNumeric(f"cell {i},{j} differs")
            else:
                worst = max(worst, rel_diff(fx, fy))
    return worst


def _tensors(path: Path) -> tuple:
    from rmae.errors import MalformedFile
    from rmae.occupancy_net import load_checkpoint

    try:
        net = load_checkpoint(path)
    except MalformedFile as e:
        raise NotNumeric(str(e)) from None
    tensors = {}
    for name, layer in net.named_layers():
        for tname, t in {**layer.params(), **layer.buffers()}.items():
            tensors[f"{name}.{tname}"] = t
    return net.config, tensors


def checkpoint_diff(a: Path, b: Path) -> float:
    """Largest relative difference of two checkpoints' tensors, which must
    hold the same network config and tensor names and shapes."""
    (config_a, ta), (config_b, tb) = _tensors(a), _tensors(b)
    if config_a != config_b:
        raise NotNumeric("network configs differ")
    shapes_a = {k: v.shape for k, v in ta.items()}
    if shapes_a != {k: v.shape for k, v in tb.items()}:
        raise NotNumeric("tensor names or shapes differ")
    worst = 0.0
    for name, x in ta.items():
        for u, v in zip(x.ravel().tolist(), tb[name].ravel().tolist()):
            worst = max(worst, rel_diff(u, v))
    return worst


def _text(path: Path) -> str:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    return "".join(line for line in lines if _OUT not in line)


def compare(a: Path, b: Path) -> float | None:
    """None when two files are equal but for "out" lines, else the largest
    relative difference of their numbers; raises NotNumeric otherwise."""
    raw_a, raw_b = a.read_bytes(), b.read_bytes()
    if raw_a == raw_b:
        return None
    if a.suffix == ".rmae":
        return checkpoint_diff(a, b)
    try:
        text_a, text_b = _text(a), _text(b)
    except UnicodeDecodeError:
        raise NotNumeric("binary files differ") from None
    if text_a == text_b:
        return None
    if a.suffix == ".csv":
        return csv_diff(text_a, text_b)
    if a.suffix == ".json":
        try:
            return json_diff(json.loads(text_a), json.loads(text_b))
        except json.JSONDecodeError:
            raise NotNumeric("not JSON") from None
    raise NotNumeric("bytes differ")


def _files(root: Path) -> set:
    paths = (p for p in root.rglob("*") if p.is_file())
    return {p.relative_to(root).as_posix() for p in paths}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: diff_artifacts.py A B", file=sys.stderr)
        return 2
    a, b = (Path(p) for p in args)
    files_a, files_b = _files(a), _files(b)
    status = 0
    for rel in sorted(files_a | files_b):
        if rel not in files_b or rel not in files_a:
            print(f"{rel}: only in {a if rel in files_a else b}")
            status = 1
            continue
        try:
            worst = compare(a / rel, b / rel)
        except NotNumeric as e:
            print(f"{rel}: not numeric: {e}")
            status = 1
            continue
        if worst is not None:
            print(f"{rel}: max relative difference {worst:.3g}")
    return status


if __name__ == "__main__":
    try:
        import rmae  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())
