"""One workload pass in a fresh process.

Usage (run.py starts it; shown for debugging):

    python3 perfbench/worker.py --workload construct --seed 1 --dir .perfbench/x \
        --t0-ns <CLOCK_MONOTONIC at spawn> [--setup-only] [--trace] [--env]

It imports ifslab from the checkout's ``src/``, writes the seeded inputs,
and reports ``setup_s`` (spawn to inputs ready).  Unless ``--setup-only``,
it then times one pass from the first call into ifslab to the last return,
and only afterwards hashes the outputs and checks their invariants.  The
result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _environment() -> dict:
    import numpy as np
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        env["blas"] = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    env["caches"] = caches
    return env


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--t0-ns", dest="t0_ns", type=int, required=True)
    p.add_argument("--setup-only", dest="setup_only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--env", action="store_true")
    args = p.parse_args()

    if not (SRC / "ifslab" / "__init__.py").is_file():
        print(f"worker: no ifslab sources under {SRC}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import ifslab.cli  # loads every ifslab module
    from tracing import Recorder, install, layer_table, orbit_yield
    from workloads import WORKLOADS

    workdir = Path(args.dir).resolve()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    work = WORKLOADS[args.workload](args.seed, workdir)
    work.make_inputs()
    ready_ns = time.monotonic_ns()

    result: dict = {"setup_s": (ready_ns - args.t0_ns) / 1e9,
                    "setup_ns": [args.t0_ns, ready_ns]}
    if args.env:
        result["env"] = _environment()
        result["sizes"] = work.sizes()
    if args.setup_only:
        print(json.dumps(result))
        return 0

    recorder = None
    restore = None
    if args.trace:
        recorder = Recorder(run_id=f"{args.workload}-seed{args.seed}-{workdir.name}")
        restore = install(recorder)
    ops = work.operations(ifslab)
    results: dict = {}
    errors: dict[str, str] = {}
    start_ns = time.monotonic_ns()
    start = time.perf_counter()
    for name, call in ops:
        try:
            value = call()
        except Exception as exc:  # an operation that raises counts as failed
            errors[name] = f"raised {type(exc).__name__}: {exc}"
            continue
        if isinstance(value, int) and value != 0:
            errors[name] = f"exit status {value}"
        else:
            results[name] = value
    wall_s = time.perf_counter() - start
    end_ns = time.monotonic_ns()
    if restore is not None:
        restore()

    outputs = work.outputs(results)
    for name, _ in ops:
        if name in errors:
            continue
        try:
            if not work.check(name, results):
                errors[name] = "invariant violated"
        except Exception as exc:  # a check that cannot read its output fails too
            errors[name] = f"check raised {type(exc).__name__}: {exc}"

    result.update(
        wall_s=wall_s,
        pass_ns=[start_ns, end_ns],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        ops=[name for name, _ in ops],
        errors=errors,
        outputs=outputs,
        counts=work.counts(),
    )
    if recorder is not None:
        recorder.write(workdir / "spans.json")
        rows = recorder.rows()
        result["layers"] = layer_table(rows)
        result["orbit_yield"] = orbit_yield(rows)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
