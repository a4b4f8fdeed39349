#!/usr/bin/env python3
"""Collate perfbench run records into one BENCH_*.json file.

    python3 scripts/collate_bench.py BENCH_12.json \\
        parent=../parent/.perfbench_out change=.perfbench_out \\
        --note "what each run set is"

Each NAME=DIR names a run set: the untraced records
DIR/<workload>-seed<S>-trace0.json that perfbench/run.py writes.  For each
set and workload the output holds the environment the runs shared (the
commit among it), the seeds and their config hashes (a workload's config
holds its seed), the op counts, and the median and interquartile range of
every end-to-end metric over the seeds.  Runs of one set and workload that
disagree on any other environment field are an error.  After writing, it
prints each workload's medians beside those of the newest other
BENCH_<n>.json in the output's directory (the highest n), taken from that
file's last set: the code it ended on.  Standard library only.
"""

import argparse
import glob
import json
import os
import re
import statistics
import sys

_RECORD = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json$")
_PER_RUN = ("seed", "config_hash")  # environment fields that vary by run
_BENCH = re.compile(r"BENCH_(?P<n>\d+)\.json$")


def summarize(values: list) -> dict:
    """Median, quartiles (inclusive method) and IQR of values."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
        "n": len(values),
    }


def collate_set(directory: str) -> dict:
    """Per workload: the shared environment, seeds, config hashes, op
    counts and metric summaries of the untraced records in directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        match = _RECORD.match(os.path.basename(path))
        if match is None:
            continue
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        runs.setdefault(match["workload"], []).append(record)
    if not runs:
        raise ValueError(f"{directory}: no <workload>-seed<S>-trace0.json")
    out = {}
    for workload, records in sorted(runs.items()):
        records.sort(key=lambda r: r["env"]["seed"])
        shared = [
            {k: v for k, v in r["env"].items() if k not in _PER_RUN}
            for r in records
        ]
        env = shared[0]
        for other in shared[1:]:
            if other != env:
                raise ValueError(
                    f"{directory}: {workload} runs differ in their"
                    f" environment: {env} against {other}"
                )
        metrics = {}
        for name, first in records[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in records]
            metrics[name] = dict(summarize(values), unit=first["unit"])
        out[workload] = {
            "env": env,
            "seeds": [r["env"]["seed"] for r in records],
            "config_hashes": [r["env"]["config_hash"] for r in records],
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": metrics,
        }
    return out


def newest_other(out: str):
    """The highest-numbered BENCH_<n>.json beside out, other than out, or
    None."""
    out = os.path.abspath(out)
    found = []
    for path in glob.glob(os.path.join(os.path.dirname(out), "BENCH_*.json")):
        match = _BENCH.match(os.path.basename(path))
        if match and os.path.abspath(path) != out:
            found.append((int(match["n"]), path))
    return max(found)[1] if found else None


def compare(bench: dict, old: dict, old_name: str) -> list:
    """One line per set and workload of bench: each metric's median beside
    its median in the last set of old."""
    base_name, base = list(old["sets"].items())[-1]
    lines = []
    for name, workloads in bench["sets"].items():
        for workload, summary in workloads.items():
            before = base.get(workload, {}).get("metrics", {})
            cells = []
            for metric, s in summary["metrics"].items():
                if metric not in before:
                    continue
                was, now = before[metric]["median"], s["median"]
                change = f" ({now / was - 1:+.1%})" if was else ""
                cells.append(f"{metric} {was:.4g} -> {now:.4g}{change}")
            if cells:
                lines.append(
                    f"{name} {workload} against {old_name} {base_name}: "
                    + ", ".join(cells)
                )
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("out", help="the BENCH_*.json file to write")
    p.add_argument("sets", nargs="+", metavar="NAME=DIR")
    p.add_argument("--note", default="", help="free text kept in the file")
    args = p.parse_args(argv)
    bench = {"note": args.note, "sets": {}}
    for item in args.sets:
        name, sep, directory = item.partition("=")
        if not sep or not name:
            p.error(f"{item!r} is not NAME=DIR")
        try:
            bench["sets"][name] = collate_set(directory)
        except (OSError, ValueError, KeyError) as e:
            print(f"collate_bench: {e}", file=sys.stderr)
            return 1
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=2)
        fh.write("\n")
    for name, workloads in bench["sets"].items():
        for workload, summary in workloads.items():
            cells = ", ".join(
                f"{metric} {s['median']:.4g} (IQR {s['iqr']:.3g})"
                for metric, s in summary["metrics"].items()
            )
            print(f"{name} {workload}: {cells}")
    old_path = newest_other(args.out)
    if old_path is not None:
        try:
            with open(old_path, encoding="utf-8") as fh:
                old = json.load(fh)
            lines = compare(bench, old, os.path.basename(old_path))
        except (OSError, ValueError, KeyError, IndexError) as e:
            print(f"collate_bench: cannot compare with {old_path}: {e}",
                  file=sys.stderr)
        else:
            for line in lines:
                print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
