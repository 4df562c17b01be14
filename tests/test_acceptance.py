"""Acceptance suite: one test per criterion, each printing a PASS line.

Every criterion builds its report through a pure function of fixed seeds,
so the determinism criterion can re-run all of them and compare bytes.
Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.
"""

import json
import math
import time

import numpy as np

from ifslab.analysis import (
    CANDIDATE_FOUND,
    EPS_DENSE,
    NO_CANDIDATE,
    NOT_EPS_DENSE,
    distortion_bound,
    distortion_report,
    empirical_distortion,
    ergodicity_probe,
    minimality_test,
    shrink_time,
)
from ifslab.construction import (
    ConstructionParams,
    attractor,
    build_construction,
    check_absorbing,
)
from ifslab.geometry import (
    Disk,
    Domain,
    GridSet,
    diameter,
    full_set,
    rasterize_disk,
)
from ifslab.maps import CircleNorthSouth, CircleRotation, Perturbed, SystemSpec, Word
from ifslab.packing import (
    PackingInstance,
    greedy_pack,
    verify_conditions,
)
from ifslab.seeding import spawn_rngs

GOLD = (math.sqrt(5.0) - 1.0) / 2.0
RES = 1024

_timings: dict[str, float] = {}


def _canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True).encode()


# ---------------------------------------------------------------------------
# Shared heavy artifacts (first pass only; criterion 10 rebuilds fresh)
# ---------------------------------------------------------------------------


class _Workbench:
    def __init__(self):
        t0 = time.perf_counter()
        self.params = ConstructionParams(kappa=0.76, theta_deg=179.0, delta=1.0)
        self.construction = build_construction(self.params, resolution=RES)
        ball = self.construction.absorbing_ball
        self.cell = 2 * ball.radius * (1 + 8 / RES) / RES
        self.absorbing = check_absorbing(self.construction.system, ball, RES)
        self.attractor2 = attractor(
            self.construction.system, ball, tol=2 * self.cell, resolution=RES,
            verify_absorbing=False,
        )
        _timings.setdefault("c4_build", time.perf_counter() - t0)
        # tighter iterate for orbit-coverage work on the attractor
        self.attractor1 = attractor(
            self.construction.system, ball, tol=self.cell, resolution=RES,
            verify_absorbing=False,
        )
        t1 = time.perf_counter()
        self.perturbed = SystemSpec(
            tuple(
                Perturbed(g, 0.01, seed=100 + i)
                for i, g in enumerate(self.construction.system.generators)
            )
        )
        self.perturbed_attractor = attractor(
            self.perturbed, ball, tol=2 * self.cell, resolution=RES,
            verify_absorbing=False,
        )
        _timings.setdefault("c3_attractor", time.perf_counter() - t1)


_bench = None


def bench() -> _Workbench:
    global _bench
    if _bench is None:
        _bench = _Workbench()
    return _bench


# ---------------------------------------------------------------------------
# Criterion reports (pure functions of fixed seeds)
# ---------------------------------------------------------------------------


def criterion_1(wb=None) -> dict:
    wb = wb or bench()
    t0 = time.perf_counter()
    emp = empirical_distortion(
        wb.construction.system, wb.attractor2.attractor,
        word_length=30, word_count=10_000, pair_count=1_000, seed=11,
    )
    _timings["c1"] = time.perf_counter() - t0
    return {"emp_min": emp.emp_min, "emp_max": emp.emp_max,
            "words": emp.words, "pairs": emp.pairs}


def criterion_2() -> dict:
    values = {
        "unit_case": distortion_bound(1.0, 0.5, 1.0, 1.0),
        "zero_a": distortion_bound(0.0, 0.5, 1.0, 1.0),
        "zero_b": distortion_bound(0.0, 0.9, 0.5, 20.0),
        "zero_c": distortion_bound(0.0, 0.1, 1.0, 0.3),
    }
    return values


def criterion_3(wb=None) -> dict:
    wb = wb or bench()
    t0 = time.perf_counter()
    rep = distortion_report(
        wb.perturbed, wb.perturbed_attractor.attractor, alpha=1.0,
        word_length=30, word_count=1_000, pair_count=256,
        holder_pairs=4096, seed=11,
    )
    _timings["c3"] = time.perf_counter() - t0
    return rep.to_json_dict()


def criterion_4(wb=None) -> dict:
    wb = wb or bench()
    att = wb.attractor2.attractor
    probe = rasterize_disk(att.domain, Disk((0.0, 0.0), 4 * wb.cell))
    return {
        "cover_verified": True,  # a construction exists only once its cover passed
        "k": wb.construction.k,
        "absorbing_verified": wb.absorbing.absorbed,
        "escape_distance": wb.absorbing.escape_distance,
        "final_hausdorff": wb.attractor2.final_hausdorff,
        "iterations": wb.attractor2.iterations,
        "interior_disk_cells_missing": probe.minus(att).count(),
    }


def criterion_5(wb=None) -> dict:
    wb = wb or bench()
    single = SystemSpec((wb.construction.system.generators[0],))
    res = shrink_time(
        single, Word(tuple([1] * 40), "reverse"), Disk((0.0, 0.0), 16.0),
        delta=1.0, max_r=40, resolution=RES,
    )
    return {"r0": res.r0, "diam_at_r0": res.diam_at_r0, "diam_before": res.diam_before}


def criterion_6(wb=None) -> dict:
    wb = wb or bench()
    circle_region = full_set(Domain.circle(RES))
    golden = minimality_test(
        SystemSpec((CircleRotation(GOLD),)), circle_region, 0.02, 200, 16, seed=21
    )
    third = minimality_test(
        SystemSpec((CircleRotation(1.0 / 3.0),)), circle_region, 0.05, 200, 16, seed=21
    )
    att = wb.attractor1.attractor
    eps = 0.02 * diameter(att)
    restricted = minimality_test(wb.construction.system, att, eps, 25, 100, seed=21)
    return {
        "golden": golden.to_json_dict(),
        "third": third.to_json_dict(),
        "restricted": restricted.to_json_dict(),
    }


def criterion_7() -> dict:
    t0 = time.perf_counter()
    rational = ergodicity_probe(
        SystemSpec((CircleRotation(1.0 / 3.0),)), 3072,
        seed_sets=16, refine_steps=12, seed=7,
    )
    pair = ergodicity_probe(
        SystemSpec((CircleNorthSouth(0.7, 0.0), CircleRotation(GOLD))), 4096,
        seed_sets=16, refine_steps=24, seed=7,
    )
    _timings["c7"] = time.perf_counter() - t0
    return {
        "rational": rational.to_json_dict(),
        "rational_ring": rational.candidate_ring_volume,
        "pair": pair.to_json_dict(),
        "pair_ring": pair.candidate_ring_volume,
    }


def _checkerboard(dom: Domain) -> GridSet:
    ix = np.arange(dom.resolution)[:, None]
    iy = np.arange(dom.resolution)[None, :]
    return GridSet(dom, (ix + 2 * iy) % 5 != 0)


def _smooth_blob(dom: Domain, rng, density: float) -> GridSet:
    field = rng.normal(size=dom.shape)
    for axis in (0, 1):
        for shift in (1, -1, 2, -2, 4, -4):
            field = field + np.roll(field, shift, axis=axis)
    return GridSet(dom, field > np.quantile(field, 1.0 - density))


def _random_disjoint_family(dom: Domain, ambient: Disk, rng, max_disks=12):
    fam = []
    cx, cy = ambient.center
    for _ in range(200):
        if len(fam) >= max_disks:
            break
        r = float(rng.uniform(0.03, 0.12)) * ambient.radius / 0.4
        ang = rng.uniform(0, 2 * np.pi)
        rad = (ambient.radius - r) * math.sqrt(rng.uniform(0, 1))
        c = (cx + rad * np.cos(ang), cy + rad * np.sin(ang))
        if all(
            (c[0] - d.center[0]) ** 2 + (c[1] - d.center[1]) ** 2 > (r + d.radius) ** 2
            for d in fam
        ):
            fam.append(Disk((float(c[0]), float(c[1])), r))
    return tuple(fam)


def _hex_family(ambient: Disk, scale: float = 1.0):
    r = scale * ambient.radius / 3.0
    ring = 2.0 * ambient.radius / 3.0
    cx, cy = ambient.center
    fam = [Disk((cx, cy), r)]
    for a in 2 * np.pi * np.arange(6) / 6:
        fam.append(Disk((cx + ring * np.cos(a), cy + ring * np.sin(a)), r))
    return tuple(fam)


def criterion_8() -> dict:
    dom = Domain.planar((0.0, 1.0, 0.0, 1.0), 512)
    ambient = Disk((0.5, 0.5), 0.4)
    slack = 1.0 / 50.0

    checker = _checkerboard(dom)
    inst, rep = greedy_pack(checker, ambient, 8 / 512, 100)
    greedy_part = {
        "density_premise": rep.density_premise,
        "feasible": rep.feasible,
        "disks": len(inst.family),
    }

    rngs = spawn_rngs(808, 100)
    chain_holds = 0
    nonvacuous = 0
    violations = 0
    hexes = 0
    for i in range(100):
        rng = rngs[i]
        kind = i % 3
        if kind == 0:
            target = _smooth_blob(dom, rng, float(rng.uniform(0.05, 0.45)))
            fam = _hex_family(ambient, scale=float(rng.uniform(0.92, 1.0)))
            hexes += 1
        elif kind == 1:
            target = _smooth_blob(dom, rng, float(rng.uniform(0.2, 0.8)))
            fam = _random_disjoint_family(dom, ambient, rng)
        else:
            target = _smooth_blob(dom, rng, float(rng.uniform(0.1, 0.6)))
            if i % 9 == 2:
                fam = greedy_pack(target, ambient, 8 / 512, 40)[0].family
            else:
                fam = _random_disjoint_family(dom, ambient, rng, max_disks=8)
        inst_i = PackingInstance(ambient, target, fam)
        rep_i = verify_conditions(inst_i)
        cb = rep_i.contradiction
        if rep_i.cond2 and rep_i.cond4 and fam:
            if not cb["complement_in_union"] > 0.5 * cb["union_volume"] - slack:
                violations += 1
            if rep_i.cond3:
                nonvacuous += 1
                if cb["actual_fraction"] > 1.0 / 3.0 - slack:
                    chain_holds += 1
    return {
        "greedy": greedy_part,
        "instances": 100,
        "nonvacuous": nonvacuous,
        "chain_holds": chain_holds,
        "violations": violations,
    }


def criterion_9() -> dict:
    dom = Domain.planar((0.0, 1.0, 0.0, 1.0), RES)
    ambient = Disk((0.5, 0.5), 0.4)
    from ifslab.geometry import empty_set

    inst = PackingInstance(ambient, empty_set(dom), _hex_family(ambient))
    rep = verify_conditions(inst)
    return {"covered_fraction": rep.covered_fraction, "cond3": rep.cond3}


_first_pass: dict[str, dict] = {}


def _report(name: str, builder) -> dict:
    if name not in _first_pass:
        _first_pass[name] = builder()
    return _first_pass[name]


def _line(n: int, ok: bool, text: str):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance criterion {n}: {status} - {text}")
    assert ok, f"criterion {n} failed: {text}"


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


def test_criterion_1_affine_distortion_identity():
    doc = _report("c1", criterion_1)
    ok = (
        abs(doc["emp_min"] - 1.0) <= 1e-12
        and abs(doc["emp_max"] - 1.0) <= 1e-12
        and _timings["c1"] < 10.0
    )
    _line(1, ok, f"ratios [{doc['emp_min']}, {doc['emp_max']}] in {_timings['c1']:.1f}s")


def test_criterion_2_distortion_bound_formula():
    doc = _report("c2", criterion_2)
    ok = abs(doc["unit_case"] - math.e) <= 1e-12 and all(
        doc[k] == 1.0 for k in ("zero_a", "zero_b", "zero_c")
    )
    _line(2, ok, f"bound(1,1/2,1,1)={doc['unit_case']!r}, zero-constant cases all 1")


def test_criterion_3_perturbed_distortion_consistency():
    doc = _report("c3", criterion_3)
    lo = (1.0 / doc["L_H"]) * (1.0 - 0.05)
    hi = doc["L_H"] * (1.0 + 0.05)
    elapsed = _timings["c3"] + _timings["c3_attractor"]
    ok = (
        doc["consistent"]
        and lo <= doc["emp_min"] <= doc["emp_max"] <= hi
        and elapsed < 60.0
    )
    _line(
        3, ok,
        f"ratios [{doc['emp_min']:.4f}, {doc['emp_max']:.4f}] within "
        f"[{lo:.4f}, {hi:.4f}] (L_H={doc['L_H']:.4f}) in {elapsed:.1f}s "
        f"incl. the perturbed attractor",
    )


def test_criterion_4_construction_reproduction():
    doc = _report("c4", criterion_4)
    wb = bench()
    ok = (
        doc["cover_verified"]
        and doc["absorbing_verified"]
        and doc["final_hausdorff"] <= 2 * wb.cell
        and doc["interior_disk_cells_missing"] == 0
        and _timings["c4_build"] < 120.0
    )
    _line(
        4, ok,
        f"k={doc['k']}, cover+absorb verified, step distance "
        f"{doc['final_hausdorff']:.4f} <= 2 cells, interior disk present, "
        f"built in {_timings['c4_build']:.1f}s",
    )


def test_criterion_5_shrink_time():
    doc = _report("c5", criterion_5)
    # oracle: diameters follow 32 * 0.76^r, so r0 = 13
    oracle_r0 = next(r for r in range(1, 40) if 32 * 0.76**r < 1.0)
    ok = (
        doc["r0"] == 13
        and oracle_r0 == 13
        and doc["diam_at_r0"] < 1.0 <= doc["diam_before"]
    )
    _line(
        5, ok,
        f"r0={doc['r0']} (recurrence gives {oracle_r0}), "
        f"diam {doc['diam_at_r0']:.4f} < 1 <= {doc['diam_before']:.4f}",
    )


def test_criterion_6_minimality_probes():
    doc = _report("c6", criterion_6)
    ok = (
        doc["golden"]["verdict"] == EPS_DENSE
        and doc["third"]["verdict"] == NOT_EPS_DENSE
        and doc["restricted"]["verdict"] == EPS_DENSE
        and doc["restricted"]["samples"] == 100
    )
    _line(
        6, ok,
        f"golden {doc['golden']['verdict']}, third {doc['third']['verdict']}, "
        f"family-on-attractor {doc['restricted']['verdict']} (100 samples)",
    )


def test_criterion_7_ergodicity_calibration():
    doc = _report("c7", criterion_7)
    rational, pair = doc["rational"], doc["pair"]
    ok = (
        rational["verdict"] == CANDIDATE_FOUND
        and rational["best_defect"] == 0.0
        and abs(rational["best_volume"] - 0.5) <= 2.0 / 3072
        and pair["verdict"] == NO_CANDIDATE
        and pair["best_defect"] > 3.0 * doc["pair_ring"]
        and _timings["c7"] < 120.0
    )
    _line(
        7, ok,
        f"rational: exact candidate vol {rational['best_volume']}; pair: "
        f"defect {pair['best_defect']:.4f} > {3 * doc['pair_ring']:.4f} "
        f"in {_timings['c7']:.1f}s",
    )


def test_criterion_8_packing_contradiction():
    doc = _report("c8", criterion_8)
    ok = (
        doc["greedy"]["density_premise"] > 0.75
        and doc["greedy"]["feasible"] is False
        and doc["violations"] == 0
        and doc["nonvacuous"] >= 5
        and doc["chain_holds"] == doc["nonvacuous"]
    )
    _line(
        8, ok,
        f"checkerboard (density {doc['greedy']['density_premise']:.3f}) infeasible; "
        f"chain held on {doc['chain_holds']}/{doc['nonvacuous']} non-vacuous "
        f"of {doc['instances']} instances, 0 violations",
    )


def test_criterion_9_hexagonal_sanity():
    doc = _report("c9", criterion_9)
    ok = (
        abs(doc["covered_fraction"] - 7.0 / 9.0) / (7.0 / 9.0) < 0.01
        and doc["cond3"] is True
    )
    _line(
        9, ok,
        f"covered {doc['covered_fraction']:.5f} vs 7/9 = {7/9:.5f}, cond3 true",
    )


def test_criterion_10_determinism():
    # a first pass that this session has not made yet (a partial run) is
    # made here, then every report is rebuilt from scratch with the same
    # seeds and the bytes compared
    first = {
        name: _report(name, build)
        for name, build in (
            ("c1", criterion_1), ("c2", criterion_2), ("c3", criterion_3),
            ("c4", criterion_4), ("c5", criterion_5), ("c6", criterion_6),
            ("c7", criterion_7), ("c8", criterion_8), ("c9", criterion_9),
        )
    }
    fresh_bench = _Workbench()
    rebuilt = {
        "c1": criterion_1(fresh_bench),
        "c2": criterion_2(),
        "c3": criterion_3(fresh_bench),
        "c4": criterion_4(fresh_bench),
        "c5": criterion_5(fresh_bench),
        "c6": criterion_6(fresh_bench),
        "c7": criterion_7(),
        "c8": criterion_8(),
        "c9": criterion_9(),
    }
    mismatches = [
        name for name in rebuilt if _canonical(rebuilt[name]) != _canonical(first[name])
    ]
    ok = not mismatches
    _line(10, ok, f"all nine reports byte-identical on re-run (mismatches: {mismatches})")
