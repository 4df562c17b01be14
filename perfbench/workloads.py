"""The three workloads: seeded inputs, one timed pass, and output checks.

Each workload works inside its own directory: inputs go to ``in/``, the
program writes to ``out/``, and every path handed to the program is
relative, so output bytes do not depend on where the checkout lives.

A pass is a list of operations (one CLI invocation or one library call).
The pass records each operation's outcome; digests and invariants are
computed only after the clock stops.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# construct: the paper's family at kappa 0.76 (k = 8 generators)
KAPPA = 0.76
THETA = 179.0
RESOLUTION = 1024
ANCHOR_COUNT = 7  # conjugates besides T; build_construction finds k = 8
BALL_RADIUS = 16.0  # the absorbing ball U = B(0, 16)
CELL = 2 * BALL_RADIUS * (1 + 8 / RESOLUTION) / RESOLUTION  # cell width on U's chart

# probes: criterion-3 style perturbation and probe sizes
PERTURB_AMPLITUDE = 0.01
WORD_LENGTH = 30
WORD_COUNT = 1000
PAIR_COUNT = 256
HOLDER_PAIRS = 4096
MIN_WORD_LEN = 25
MIN_SAMPLES = 16
ERGODICITY_RESOLUTION = 512
CIRCLE_RESOLUTION = 65536
CIRCLE_MULTIPLIER = 0.7
# Fibonacci approximant of the golden angle; with q = 8 each single generator
# fails both probes at the default epsilon 0.01, as the experiment expects
RATIONAL = (5, 8)

# packing: criterion-8 style instances on a 512^2 chart
PACK_RESOLUTION = 512
# How many disks a greedy search places before it reaches the 2/3 cover
# varies from 6 to 40 between blob targets.  A cap of 12 binds for nearly
# every target, and 16 searches per seed average out the rest, so a seed's
# work stays within a few percent of any other's.
PACK_INSTANCES = 48  # plus one checkerboard
AMBIENT = (0.5, 0.5, 0.4)
MIN_RADIUS = 8 / 512
GREEDY_MAX_DISKS = 12
CHECKER_MAX_DISKS = 100
CHAIN_SLACK = 1.0 / 50.0


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *path])))


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True).encode()


def write_pgm_bits(bits: np.ndarray, path: Path) -> None:
    """A maxval-1 P5 image of a planar bitmap indexed [ix, iy], top row = max y."""
    img = bits.T[::-1].astype(np.uint8)
    h, w = img.shape
    path.write_bytes(f"P5\n{w} {h}\n1\n".encode() + img.tobytes())


class Workload:
    name = ""
    # outputs whose bytes do not depend on the seed, checked for every seed
    seed_independent: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.inp = workdir / "in"
        self.out = workdir / "out"

    def make_inputs(self) -> None:
        raise NotImplementedError

    def operations(self, ifslab) -> list:
        """(operation name, zero-argument callable) pairs of one pass."""
        raise NotImplementedError

    def outputs(self, results: dict) -> dict[str, str]:
        """SHA-256 of every output, keyed by a path relative to ``out/``."""
        return {
            str(p.relative_to(self.out)): sha256_file(p)
            for p in sorted(self.out.rglob("*"))
            if p.is_file()
        }

    def op_of(self, output: str) -> str:
        """The operation that wrote an output (a path relative to ``out/``)."""
        return output.split("/")[0]

    def check(self, op: str, results: dict) -> bool:
        """Whether an operation's outputs keep a property every seed must keep."""
        return True

    def counts(self) -> dict[str, int]:
        """Exact counts read from the outputs, for the per-layer table."""
        return {}

    def sizes(self) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


class Construct(Workload):
    """`ifslab construct` at resolution 1024; the seed only reaches the report."""

    name = "construct"
    seed_independent = (
        "construct/anchors.csv", "construct/attractor.pgm", "construct/attractor_points.csv",
    )

    def argv(self) -> list[str]:
        return [
            "construct", "--kappa", str(KAPPA), "--theta", str(THETA), "--delta", "1",
            "--resolution", str(RESOLUTION), "--seed", str(self.seed),
            "--out", "out/construct",
        ]

    def make_inputs(self) -> None:
        self.inp.mkdir(parents=True, exist_ok=True)
        (self.inp / "argv.json").write_text(json.dumps(self.argv()) + "\n")

    def operations(self, ifslab):
        argv = self.argv()
        return [("construct", lambda: ifslab.cli.main(argv))]

    def check(self, op, results):
        report = json.loads((self.out / "construct" / "report.json").read_text())
        ok = (
            report["k"] == ANCHOR_COUNT + 1
            and report["cover_verified"] is True
            and report["absorbing_verified"] is True
            and report["final_hausdorff"] <= 2 * CELL
            and report["seed"] == self.seed
        )
        return ok

    def sizes(self):
        return {"grid_cells": RESOLUTION**2, "generators": ANCHOR_COUNT + 1,
                "instances": 1, "samples": 0}


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------


def _family_lines() -> list[str]:
    r = 0.75
    lines = [f"affine kappa={KAPPA!r} theta={THETA!r} anchor=0.0,0.0"]
    for a in 2.0 * np.pi * np.arange(ANCHOR_COUNT) / ANCHOR_COUNT:
        x, y = r * float(np.cos(a)), r * float(np.sin(a))
        lines.append(f"affine kappa={KAPPA!r} theta={THETA!r} anchor={x!r},{y!r}")
    return lines


class Probes(Workload):
    """The acceptance analysis chain on the seeded, C1-perturbed k=8 family."""

    name = "probes"

    def _draw(self):
        rng = _rng(self.seed, 2)
        perturb_seeds = [int(s) for s in rng.integers(0, 2**31, ANCHOR_COUNT + 1)]
        probe_seed = int(rng.integers(0, 2**31))
        return perturb_seeds, probe_seed

    def make_inputs(self) -> None:
        self.inp.mkdir(parents=True, exist_ok=True)
        perturb_seeds, probe_seed = self._draw()
        base = _family_lines()
        lines = base + [
            f"perturb base={i + 1} amp={PERTURB_AMPLITUDE!r} seed={s}"
            for i, s in enumerate(perturb_seeds)
        ]
        (self.inp / "system.txt").write_text("\n".join(lines) + "\ninverses=false\n")
        (self.inp / "probe_seed.txt").write_text(f"{probe_seed}\n")

    def operations(self, ifslab):
        text = (self.inp / "system.txt").read_text()
        seed = int((self.inp / "probe_seed.txt").read_text())
        geometry, analysis = ifslab.geometry, ifslab.analysis
        state: dict = {}

        def attractor():
            system = ifslab.maps.parse_system(text)
            ball = geometry.Disk((0.0, 0.0), BALL_RADIUS)
            state["system"] = system
            state["attr"] = ifslab.construction.attractor(
                system, ball, tol=2 * CELL, resolution=RESOLUTION, verify_absorbing=False
            )
            return state["attr"]

        def distortion():
            return analysis.distortion_report(
                state["system"], state["attr"].attractor, alpha=1.0,
                word_length=WORD_LENGTH, word_count=WORD_COUNT, pair_count=PAIR_COUNT,
                holder_pairs=HOLDER_PAIRS, seed=seed,
            )

        def minimality():
            att = state["attr"].attractor
            eps = 0.02 * geometry.diameter(att)
            return analysis.minimality_test(
                state["system"], att, eps, MIN_WORD_LEN, MIN_SAMPLES, seed=seed
            )

        def ergodicity():
            bounds = state["attr"].attractor.domain.bounds
            dom = geometry.Domain.planar(bounds, ERGODICITY_RESOLUTION)
            return analysis.ergodicity_probe(
                state["system"], ERGODICITY_RESOLUTION, seed=seed, domain=dom
            )

        def circle():
            params = ifslab.circle.CircleExampleParams(
                multiplier=CIRCLE_MULTIPLIER, rational_approx=RATIONAL, seed=seed
            )
            return ifslab.circle.rational_substitution_experiment(
                params, resolution=CIRCLE_RESOLUTION
            )

        return [
            ("attractor", attractor),
            ("distortion", distortion),
            ("minimality", minimality),
            ("ergodicity", ergodicity),
            ("circle", circle),
        ]

    @staticmethod
    def _docs(results: dict) -> dict:
        docs = {}
        if "attractor" in results:
            attr = results["attractor"]
            docs["attractor"] = {
                "iterations": attr.iterations,
                "final_hausdorff": attr.final_hausdorff,
                "bitmap_sha256": hashlib.sha256(np.packbits(attr.attractor.bitmap)).hexdigest(),
                "cells": attr.attractor.count(),
            }
        for key in ("distortion", "minimality"):
            if key in results:
                docs[key] = results[key].to_json_dict()
        if "ergodicity" in results:
            rep = results["ergodicity"]
            doc = rep.to_json_dict()
            doc["candidate_sha256"] = (
                None if rep.candidate is None
                else hashlib.sha256(np.packbits(rep.candidate.bitmap)).hexdigest()
            )
            docs["ergodicity"] = doc
        if "circle" in results:
            docs["circle"] = results["circle"]
        return docs

    def outputs(self, results):
        probe_dir = self.out / "probes"
        probe_dir.mkdir(parents=True, exist_ok=True)
        for key, doc in self._docs(results).items():
            (probe_dir / f"{key}.json").write_bytes(_canonical(doc))
        return super().outputs(results)

    def op_of(self, output):
        return Path(output).stem

    def check(self, op, results):
        res = results[op]
        if op == "attractor":
            return res.attractor.count() > 0
        if op == "distortion":
            # criterion 3: observed ratios inside the closed-form bound
            return res.consistent and (
                0.95 / res.l_bound <= res.emp_min <= res.emp_max <= 1.05 * res.l_bound
            )
        if op == "minimality":
            return res.samples == MIN_SAMPLES and 0.0 <= res.uncovered_fraction <= 1.0
        if op == "ergodicity":
            return res.resolution == ERGODICITY_RESOLUTION and 0.0 <= res.best_defect <= 1.0
        return (res["rational"] == list(RATIONAL) and res["singles_fail_both"]
                and res["pair_passes_both"])

    def sizes(self):
        return {"grid_cells": RESOLUTION**2, "generators": ANCHOR_COUNT + 1,
                "instances": 1, "samples": MIN_SAMPLES,
                "distortion_words": WORD_COUNT, "ergodicity_cells": ERGODICITY_RESOLUTION**2,
                "circle_cells": CIRCLE_RESOLUTION}


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------


def _smooth_blob(rng, density: float) -> np.ndarray:
    field = rng.normal(size=(PACK_RESOLUTION, PACK_RESOLUTION))
    for axis in (0, 1):
        for shift in (1, -1, 2, -2, 4, -4):
            field = field + np.roll(field, shift, axis=axis)
    return field > np.quantile(field, 1.0 - density)


def _checkerboard() -> np.ndarray:
    ix = np.arange(PACK_RESOLUTION)[:, None]
    iy = np.arange(PACK_RESOLUTION)[None, :]
    return (ix + 2 * iy) % 5 != 0


def _hex_family(scale: float) -> list[tuple[float, float, float]]:
    cx, cy, ra = AMBIENT
    r = scale * ra / 3.0
    ring = 2.0 * ra / 3.0
    fam = [(cx, cy, r)]
    for a in 2 * np.pi * np.arange(6) / 6:
        fam.append((cx + ring * float(np.cos(a)), cy + ring * float(np.sin(a)), r))
    return fam


def _random_disjoint_family(rng, max_disks: int) -> list[tuple[float, float, float]]:
    cx, cy, ra = AMBIENT
    fam: list[tuple[float, float, float]] = []
    for _ in range(200):
        if len(fam) >= max_disks:
            break
        r = float(rng.uniform(0.03, 0.12)) * ra / 0.4
        ang = rng.uniform(0, 2 * np.pi)
        rad = (ra - r) * math.sqrt(rng.uniform(0, 1))
        c = (cx + rad * float(np.cos(ang)), cy + rad * float(np.sin(ang)))
        if all((c[0] - x) ** 2 + (c[1] - y) ** 2 > (r + s) ** 2 for x, y, s in fam):
            fam.append((c[0], c[1], r))
    return fam


class Packing(Workload):
    """Criterion-8 style batch: verify every instance, greedy on a third."""

    name = "packing"
    seed_independent = ("checker/greedy/instance.json", "checker/greedy/target.pgm")

    def _plan(self) -> list[tuple[str, str]]:
        """(instance id, kind): kind is 'verify' for a given family or
        'greedy' for a family the greedy search derives first."""
        plan = [(f"p{i:02d}", "greedy" if i % 3 == 2 else "verify")
                for i in range(PACK_INSTANCES)]
        return plan + [("checker", "greedy")]

    def make_inputs(self) -> None:
        self.inp.mkdir(parents=True, exist_ok=True)
        for i in range(PACK_INSTANCES):
            rng = _rng(self.seed, 3, i)
            kind = i % 3
            if kind == 0:
                bits = _smooth_blob(rng, float(rng.uniform(0.05, 0.45)))
                fam = _hex_family(float(rng.uniform(0.92, 1.0)))
            elif kind == 1:
                bits = _smooth_blob(rng, float(rng.uniform(0.2, 0.8)))
                fam = _random_disjoint_family(rng, 12)
            else:
                bits = _smooth_blob(rng, float(rng.uniform(0.1, 0.6)))
                fam = None
            pgm = self.inp / f"p{i:02d}.pgm"
            write_pgm_bits(bits, pgm)
            if fam is not None:
                cx, cy, r = AMBIENT
                doc = {
                    "ambient": {"cx": cx, "cy": cy, "r": r},
                    "target": str(pgm.relative_to(self.dir)),
                    "family": [{"cx": x, "cy": y, "r": s} for x, y, s in fam],
                }
                (self.inp / f"p{i:02d}.json").write_text(
                    json.dumps(doc, indent=2, sort_keys=True) + "\n"
                )
        write_pgm_bits(_checkerboard(), self.inp / "checker.pgm")

    def operations(self, ifslab):
        main = ifslab.cli.main
        ambient = ",".join(str(v) for v in AMBIENT)
        ops = []
        for ident, kind in self._plan():
            out = f"out/{ident}"
            instance = f"in/{ident}.json"
            if kind == "greedy":
                max_disks = CHECKER_MAX_DISKS if ident == "checker" else GREEDY_MAX_DISKS
                argv = ["packing", "greedy", "--target-pgm", f"in/{ident}.pgm",
                        "--ambient", ambient, "--min-radius", repr(MIN_RADIUS),
                        "--max-disks", str(max_disks), "--seed", str(self.seed),
                        "--out", f"{out}/greedy"]
                ops.append((f"{ident}/greedy", lambda a=argv: main(a)))
                instance = f"{out}/greedy/instance.json"
            argv = ["packing", "verify", "--instance", instance,
                    "--seed", str(self.seed), "--out", f"{out}/verify"]
            ops.append((f"{ident}/verify", lambda a=argv: main(a)))
        return ops

    def op_of(self, output):
        return "/".join(output.split("/")[:2])

    def check(self, op, results):
        ident, kind = op.split("/")
        rep = json.loads((self.out / ident / kind / "report.json").read_text())
        if op == "checker/greedy":
            # the checkerboard fills more than 3/4 of the ambient ball
            return rep["density_premise"] > 0.75 and rep["feasible"] is False
        if kind == "greedy":
            return rep["disks_placed"] >= 0
        cb = rep["contradiction"]
        if not (rep["cond2"] and rep["cond4"] and cb["union_volume"] > 0):
            return True
        # criterion 8's chain: (2)+(4) put half the union in the complement,
        # and with (3) a third of the ambient ball
        ok = cb["complement_in_union"] > 0.5 * cb["union_volume"] - CHAIN_SLACK
        if rep["cond3"]:
            ok = ok and cb["actual_fraction"] > 1.0 / 3.0 - CHAIN_SLACK
        return ok

    def counts(self):
        placed = 0
        for ident, kind in self._plan():
            if kind == "greedy":
                path = self.out / ident / "greedy" / "report.json"
                if path.is_file():
                    placed += json.loads(path.read_text())["disks_placed"]
        return {"packing.greedy_pack.disks_placed": placed}

    def sizes(self):
        greedy = sum(1 for _, k in self._plan() if k == "greedy")
        return {"grid_cells": PACK_RESOLUTION**2, "generators": 0,
                "instances": PACK_INSTANCES + 1, "greedy_instances": greedy, "samples": 0}


WORKLOADS = {w.name: w for w in (Construct, Probes, Packing)}
