"""ifslab benchmark: one run of one workload.

    python3 perfbench/run.py --workload {construct,probes,packing} \
        --seed N --seconds S --trace {0,1}

Every pass runs in a fresh worker process (perfbench/worker.py), because a
CLI user pays interpreter start and ``import ifslab`` on every invocation.
Passes repeat until the next one would end after ``S`` seconds; at least
one always runs.  Extra set-up-only processes bring the ``setup_s`` sample
count to SETUP_SAMPLES.  A pacer process (perfbench/pacer.py) runs beside
the workers for the whole run and gauges the machine's speed; ``wall_s``
and ``setup_s`` are scaled by it to the reference pace.

With ``--trace 0`` the run reports the end-to-end metrics (medians over its
passes).  With ``--trace 1`` one untraced pass is followed by traced passes,
and the run reports the ``per_layer`` metrics of BENCHMARK.json, including
the tracing overhead.  Spans and the per-layer table are written under
``.perfbench/`` next to the outputs, never into a report.

Every output is hashed and compared with reference.json, which holds the
SHA-256 digests and the exact traced counts the accepted commit produced for
the recorded seeds.  A seed without a record is checked against the
seed-independent digests, the workload's invariants and pass-to-pass
identity of bytes and counts (its traced run makes two traced passes).  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
# The pacer kernel's time at the reference pace.  It only fixes the scale,
# so that scaled times still read as seconds: on the 2-core Xeon VM the
# benchmark was defined on, the kernel took 0.065-0.155 s as the
# neighbours' load changed.
PACE_REF_S = 0.1
RUN_LIMIT_S = 165.0  # a run must end inside 180 s, whatever --seconds says
BLAS_THREADS = "1"


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("PYTHONPATH", None)
    return env


def spawn(workload: str, seed: int, workdir: Path, timeout: float, *,
          setup_only=False, trace=False, env_record=False) -> tuple[dict | None, str, float]:
    """Run one worker; returns (its result or None, error text, seconds taken)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--dir", str(workdir)]
    cmd += ["--setup-only"] * setup_only + ["--trace"] * trace + ["--env"] * env_record
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd + ["--t0-ns", str(t0)], env=_child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s", (time.monotonic_ns() - t0) / 1e9
    took = (time.monotonic_ns() - t0) / 1e9
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit status {proc.returncode}"]
        return None, tail[0], took
    return json.loads(lines[-1]), "", took


def _start_pacer(path: Path) -> subprocess.Popen:
    """Start the pacer and wait (at most 30 s) for its first repetition."""
    pacer = subprocess.Popen([sys.executable, str(HERE / "pacer.py"), str(path)],
                             env=_child_env(), cwd=ROOT)
    limit = time.monotonic() + 30
    while pacer.poll() is None and time.monotonic() < limit and not (
            path.is_file() and "\n" in path.read_text()):
        time.sleep(0.05)
    return pacer


def _pacer_reps(path: Path) -> list[tuple[int, int]]:
    """(start_ns, end_ns) of every repetition the pacer finished writing."""
    return [tuple(map(int, line.split())) for line in path.read_text().split("\n")[:-1]]


def _reference(workload: str, seed: int) -> dict:
    """What reference.json expects of this seed: ``outputs`` (digests),
    ``complete`` (whether they cover every output), ``counts`` (the exact
    traced counts, None for an unrecorded seed) and ``held_out``."""
    doc = json.loads((HERE / "reference.json").read_text())
    work = doc["workloads"][workload]
    rec = work["seeds"].get(str(seed))
    return {"outputs": rec["outputs"] if rec else work["any_seed"],
            "complete": rec is not None,
            "counts": rec["counts"] if rec else None,
            "held_out": seed == doc["held_out"]}


def failures(work, result: dict, expected: dict, complete: bool, first: dict | None) -> dict:
    """Failed operations of one pass, with the reason for each."""
    failed = dict(result["errors"])
    outputs = result["outputs"]
    for path, sha in expected.items():
        if outputs.get(path) != sha:
            failed.setdefault(work.op_of(path), f"{path} differs from the reference")
    if complete:
        for path in sorted(outputs.keys() - expected.keys()):
            failed.setdefault(work.op_of(path), f"{path} is not in the reference")
    if first is not None:
        for path in sorted(outputs.keys() | first.keys()):
            if outputs.get(path) != first.get(path):
                failed.setdefault(work.op_of(path), f"{path} differs between passes")
    return failed


def exact_counts(result: dict) -> dict:
    """The counts of a traced pass that must repeat exactly: ``.calls`` and
    ``.points`` of every span name, and the workload's own (``disks_placed``)."""
    counts = {f"{k}.{f}": v[f] for k, v in result["layers"].items() for f in ("calls", "points")}
    return {**counts, **result["counts"]}


def count_failures(traced: list[dict], recorded: dict | None) -> dict:
    """Traced passes whose exact counts differ from the recorded ones or, for
    an unrecorded seed, from the first traced pass."""
    failed = {}
    want = recorded
    for i, res in enumerate(traced):
        got = exact_counts(res)
        if want is None:
            want = got
            continue
        diff = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
        if diff:
            failed[f"trace{i}/counts"] = "counts differ: " + ", ".join(diff[:5])
    return failed


def layer_metrics(declared: list[dict], traced: list[dict], plain: list[dict], reps) -> dict:
    """Per-layer values: medians over traced passes (counts repeat exactly)."""
    out = {}
    for m in declared:
        name = m["name"]
        if name == "bench.trace_overhead_s":
            values = [statistics.median(scaled(r["wall_s"], r["pass_ns"], reps) for r in traced)
                      - statistics.median(scaled(r["wall_s"], r["pass_ns"], reps) for r in plain)]
        elif name == "analysis.minimality_test.orbit_yield":
            values = [r["orbit_yield"] for r in traced]
        elif name == "packing.greedy_pack.disks_placed":
            values = [r["counts"].get(name, 0) for r in traced]
        else:
            span, field = name.rsplit(".", 1)
            values = [r["layers"].get(span, {}).get(field, 0) for r in traced]
        out[name] = {"value": statistics.median(values), "unit": m["unit"]}
    return out


def pace(reps: list[tuple[int, int]], window: list[int]) -> float:
    """Mean seconds of the pacer's kernel over the repetitions that overlap
    ``window`` (CLOCK_MONOTONIC ns).  The pacer runs back to back from
    before the first worker starts until after the last one ends, so every
    window overlaps at least one repetition."""
    lo, hi = window
    return statistics.fmean(e - s for s, e in reps if s < hi and e > lo) / 1e9


def scaled(seconds: float, window: list[int], reps: list[tuple[int, int]]) -> float:
    """A time measured over ``window``, scaled to the reference pace."""
    return seconds * PACE_REF_S / pace(reps, window)


def end_to_end_metrics(plain: list[dict], setups: list[dict], reps) -> dict:
    """Medians over the untraced passes and over every set-up sample, with
    times scaled to the reference pace."""
    return {
        "wall_s": {"value": statistics.median(scaled(r["wall_s"], r["pass_ns"], reps)
                                              for r in plain), "unit": "s"},
        "setup_s": {"value": statistics.median(scaled(r["setup_s"], r["setup_ns"], reps)
                                               for r in setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain),
                        "unit": "MB"},
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (ROOT / "src" / "ifslab" / "__init__.py").is_file():
        print(f"perfbench: no ifslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ref = _reference(args.workload, args.seed)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    base = WORK / args.workload
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)

    def left() -> float:
        return deadline - time.monotonic()

    setups: list[dict] = []
    passes: list[tuple[bool, dict | None, str]] = []
    # a traced run needs one untraced pass for the overhead, and two traced
    # passes when there are no recorded counts to compare with
    needed = 1 + args.trace * (1 if ref["complete"] else 2)
    pace_file = base / "pace.txt"
    pacer = _start_pacer(pace_file)
    try:
        while True:
            traced = bool(args.trace) and len(passes) > 0
            res, err, took = spawn(args.workload, args.seed, base / f"pass{len(passes)}",
                                   left(), trace=traced, env_record=not passes)
            passes.append((traced, res, err))
            if res is not None:
                setups.append(res)
            elapsed = time.monotonic() - start
            if len(passes) >= needed and (elapsed + took > args.seconds or took > left() - 10):
                break
        while len(setups) < SETUP_SAMPLES and left() > 15:
            res, _, _ = spawn(args.workload, args.seed, base / "setup", left(),
                              setup_only=True)
            if res is not None:
                setups.append(res)
    finally:
        pacer.terminate()
        pacer.wait()
    reps = _pacer_reps(pace_file)

    head = passes[0][1] or {}

    # correctness, after every clock has stopped
    work = WORKLOADS[args.workload](args.seed, base)
    attempted = failed = 0
    reasons: dict[str, str] = {}
    first = None
    ok_passes = []
    for traced, res, err in passes:
        if res is None:
            attempted += 1
            failed += 1
            reasons["worker"] = err
            continue
        bad = failures(work, res, ref["outputs"], ref["complete"], first)
        first = first or res["outputs"]
        attempted += len(res["ops"])
        failed += len(bad)
        reasons.update(bad)
        ok_passes.append((traced, res))

    plain = [r for t, r in ok_passes if not t]
    traced_runs = [r for t, r in ok_passes if t]
    bad_counts = count_failures(traced_runs, ref["counts"])
    attempted += len(traced_runs)
    failed += len(bad_counts)
    reasons.update(bad_counts)
    metrics: dict = {}
    if args.trace and traced_runs and plain:
        metrics = layer_metrics(declared, traced_runs, plain, reps)
        table = {f"pass{i}": r["layers"] for i, r in enumerate(traced_runs)}
        (base / "layers.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "metrics": metrics,
             "spans_by_name": table}, indent=1, sort_keys=True) + "\n")
    elif not args.trace and plain:
        metrics = end_to_end_metrics(plain, setups, reps)

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "reference": "seed" if ref["complete"] else "seed-independent outputs + invariants",
        "held_out": ref["held_out"],
        "passes": len(passes),
        "wall_s_samples": [r["wall_s"] for r in plain],
        "traced_wall_s_samples": [r["wall_s"] for r in traced_runs],
        "setup_s_samples": [r["setup_s"] for r in setups],
        "pace_s_samples": [pace(reps, r["pass_ns"]) for r in plain],
        "counts_repeat": not bad_counts if traced_runs else None,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "failures": reasons,
        "run_s": time.monotonic() - start,
        "sizes": head.get("sizes"),
        "env": head.get("env"),
    }
    (base / "summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print("perfbench summary " + json.dumps(summary, sort_keys=True))
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
