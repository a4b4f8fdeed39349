"""Run one rmae benchmark workload and print its result.

From the root of a source checkout:

    python3 perfbench/run.py --workload train-dense --seed 1 --seconds 20 --trace 0

The program is imported from ./src.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it holds the environment record, the quality numbers and
any failed check.  The full record, and the spans of a traced run, are
also written under .perfbench_out/.  See perfbench/README.md.
"""

import os
import sys
import time

_START = time.perf_counter()
# One OpenBLAS thread, pinned before numpy loads, so that the only
# parallelism is the program's own RMAE_THREADS.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rmae", "__init__.py")):
        print(
            "perfbench: src/rmae not found; run from the root of an rmae checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, src)
    import bench  # loads numpy and rmae

    if args.workload not in bench.workloads.NAMES:
        p.error(f"--workload must be one of {', '.join(bench.workloads.NAMES)}")

    record = bench.run(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        import_s=time.perf_counter() - _START,
        root=root,
    )
    keys = ("env", "ops", "reference", "quality", "problems")
    print(json.dumps({k: record[k] for k in keys}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
