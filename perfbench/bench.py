"""One benchmark run: set-up, the timed loop, output checks, the result.

A run sets its workload up, runs op 0 as a warm-up, and starts op after op
until --seconds have passed and at least the workload's minimum number of
ops has run.  It sets the workload up SETUP_REPEATS times in all, spread
over the run, and reports the median as set-up time.  Each op's output is
checked after its timer stops; an op fails if it raises or a check fails.

With tracing on, timed ops alternate: odd ops run untraced, even ops run
with the wrappers installed.  Per-layer numbers come from the even ops and
the tracing overhead from comparing the two halves.  The first set-up, the
output checks and the closing evaluation are traced too, outside any op.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass

import numpy as np

import instrument
import reference
import spans
import workloads

SETUP_REPEATS = 5


def end_to_end(samples, setup_s, scale) -> list[tuple]:
    """(name, value, unit, better) for every end-to-end metric; op times
    are multiplied by scale (see reference.py)."""
    per_frame_ms = [dt / n * 1e3 * scale for dt, n in samples]
    seconds = sum(dt for dt, _ in samples) * scale
    return [
        ("setup_s", setup_s, "s", "lower"),
        (
            "peak_rss_mb",
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "MiB",
            "lower",
        ),
        (
            "frames_per_s",
            sum(n for _, n in samples) / seconds if seconds else 0.0,
            "frames/s",
            "higher",
        ),
        ("frame_ms.p50", _percentile(per_frame_ms, 50), "ms", "lower"),
        ("frame_ms.p90", _percentile(per_frame_ms, 90), "ms", "lower"),
    ]


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _git_commit(root) -> str:
    """HEAD of the checkout, read without starting git; "unknown" outside
    a git work tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(wl, seed, seconds, trace, root) -> dict:
    blas = (
        getattr(np.__config__, "CONFIG", {})
        .get("Build Dependencies", {})
        .get("blas", {})
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "rmae_threads": os.environ.get("RMAE_THREADS"),
        "git_commit": _git_commit(root),
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "config_hash": wl.config_hash(),
    }


@dataclass
class Measured:
    attempted: int
    failed: int
    problems: list  # {"op": ..., "problems": [...]} per failed check
    quality: dict
    setup_seconds: list  # (seconds, scaled seconds) per set-up
    samples: dict  # traced? -> [(seconds, frames)] per op
    overhead_pct: float
    reference: reference.Reference


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    import_s: float = 0.0,
    root: str = ".",
    tiny: bool = False,
) -> dict:
    """Run one workload; returns the full record, whose "result" entry is
    the object the command prints last."""
    wl = workloads.make(name, seed, tiny)
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir)
    tracer = spans.Tracer() if trace else None
    threads = os.environ.get("RMAE_THREADS")
    os.environ["RMAE_THREADS"] = str(wl.threads)
    try:
        m = _measure(wl, seconds, tracer, workdir)
        env = environment(wl, seed, seconds, int(trace), root)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if threads is None:
            del os.environ["RMAE_THREADS"]
        else:
            os.environ["RMAE_THREADS"] = threads
    unscaled = {}
    if tracer is None:
        raw, scaled = zip(*m.setup_seconds)
        import_scaled = import_s * reference.NOMINAL_S / m.reference.seconds[0]
        setup_s = import_scaled + statistics.median(scaled)
        rows = end_to_end(m.samples[False], setup_s, m.reference.scale)
        unscaled = {
            n: v
            for n, v, _, _ in end_to_end(
                m.samples[False], import_s + statistics.median(raw), 1.0
            )
        }
    else:
        rows = instrument.per_layer(tracer, m.quality, m.overhead_pct)
    record = {
        "env": env,
        "config": wl.config(),
        "ops": {"untraced": len(m.samples[False]), "traced": len(m.samples[True])},
        "quality": m.quality,
        "problems": m.problems,
        "reference": {
            "median_ms": statistics.median(m.reference.seconds) * 1e3,
            "samples": len(m.reference.seconds),
            "scale": m.reference.scale,
            "unscaled": unscaled,
        },
        "result": {
            "correct": not m.problems,
            "attempted": m.attempted,
            "failed": m.failed,
            "metrics": {n: {"value": v, "unit": u} for n, v, u, _ in rows},
        },
    }
    stem = os.path.join(out_dir, f"{name}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.dump(stem + "-spans.jsonl")
    return record


def _measure(wl, seconds, tracer, workdir) -> Measured:
    def traced():
        if tracer is None:
            return contextlib.nullcontext()
        return tracer.installed(instrument.install)

    ref = reference.Reference()
    setup_seconds = []

    def setup():
        ref.measure()
        t0 = time.perf_counter()
        out = wl.setup(workdir)
        dt = time.perf_counter() - t0
        setup_seconds.append((dt, dt * ref.local_scale))
        return out

    with traced():
        state = setup()

    samples = {False: [], True: []}
    problems = []
    failed = 0

    def attempt(i, on):
        """Run, time and check op i; returns (seconds, frames) if it
        passed."""
        nonlocal failed
        sample = None
        ref.maybe_measure()
        try:
            with contextlib.ExitStack() as stack:
                if on:
                    stack.enter_context(traced())
                    stack.enter_context(tracer.op_span(i))
                t0 = time.perf_counter()
                frames, out = wl.op(state, i)
                sample = (time.perf_counter() - t0, frames)
            with traced():
                bad = wl.check(state, i, out)
        except Exception as exc:  # an op that raises is a failed op
            traceback.print_exc()
            bad = [f"raised {exc!r}"]
        if bad:
            failed += 1
            problems.append({"op": i, "problems": bad})
            return None
        return sample

    # Op 0 warms caches and the allocator: checked, but not sampled.
    attempt(0, False)
    min_ops = max(wl.min_ops, 1 if tracer is None else 2)
    start = time.perf_counter()
    i = 1
    while i <= min_ops or time.perf_counter() - start < seconds:
        on = tracer is not None and i % 2 == 0
        sample = attempt(i, on)
        if sample is not None:
            samples[on].append(sample)
        i += 1
        # Repeat set-ups are spread over the run, between ops, so that
        # their median samples the machine at several moments; their
        # state is dropped.
        due = (time.perf_counter() - start) / seconds * SETUP_REPEATS
        if len(setup_seconds) < min(due, SETUP_REPEATS):
            setup()
    while len(setup_seconds) < SETUP_REPEATS:
        setup()
    ref.measure()

    try:
        with traced():
            quality, bad = wl.finish(state)
    except Exception as exc:
        traceback.print_exc()
        quality, bad = {}, [f"raised {exc!r}"]
    if bad:
        problems.append({"op": "finish", "problems": bad})

    overhead_pct = 0.0
    if samples[True] and samples[False]:
        plain, with_spans = (
            statistics.median(dt / n for dt, n in samples[on]) for on in (False, True)
        )
        overhead_pct = (with_spans / plain - 1.0) * 100.0
    return Measured(
        i, failed, problems, quality, setup_seconds, samples, overhead_pct, ref
    )
