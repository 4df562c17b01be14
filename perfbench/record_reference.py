"""Record what the correctness gate compares against, overwriting reference.json.

    python3 perfbench/record_reference.py

Run it only on a commit whose outputs are the accepted ones (the gate
exists to catch any byte or count that later changes).  For every workload
and every seed in SEEDS it makes one traced pass and records the SHA-256
digest of every output and the pass's exact counts (``.calls``, ``.points``
and ``disks_placed``); any failed operation aborts the recording.  Seed
HELD_OUT is recorded like the others but kept out of day-to-day tuning, so
a claimed gain can be confirmed on a seed the change was not written
against; run.py marks it in its summary.
"""

from __future__ import annotations

import json
import sys

from run import HERE, WORK, exact_counts, spawn
from workloads import WORKLOADS

SEEDS = range(32)
HELD_OUT = 15


def main() -> int:
    doc: dict = {"held_out": HELD_OUT, "workloads": {}}
    env = None
    for name, work in WORKLOADS.items():
        seeds = {}
        for seed in SEEDS:
            res, err, took = spawn(name, seed, WORK / "record" / name, 600.0,
                                   trace=True, env_record=True)
            if res is None or res["errors"]:
                print(f"{name} seed {seed}: {err or res['errors']}", file=sys.stderr)
                return 1
            seeds[str(seed)] = {"outputs": res["outputs"], "counts": exact_counts(res)}
            env = env or res["env"]
            print(f"{name} seed {seed}: {len(res['outputs'])} outputs in {took:.1f} s",
                  flush=True)
        any_seed = {}
        for out in work.seed_independent:
            digests = {s["outputs"][out] for s in seeds.values()}
            if len(digests) != 1:
                print(f"{name}: {out} depends on the seed", file=sys.stderr)
                return 1
            any_seed[out] = digests.pop()
        doc["workloads"][name] = {"any_seed": any_seed, "seeds": seeds}
    doc["env"] = env
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
