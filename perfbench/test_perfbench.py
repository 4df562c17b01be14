"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import ifslab.cli  # noqa: E402  (loads every ifslab module)
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import Packing  # noqa: E402


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _reference_seed(workload: str) -> int:
    return min(int(s) for s in json.loads((HERE / "reference.json").read_text())
               ["workloads"][workload]["seeds"])


def _first_verify(tmp_path, monkeypatch):
    """The first packing instance of a recorded seed, verified in-process."""
    seed = _reference_seed("packing")
    monkeypatch.chdir(tmp_path)
    work = Packing(seed, tmp_path)
    work.make_inputs()
    name, call = next(op for op in work.operations(ifslab) if op[0].endswith("/verify"))
    assert call() == 0
    ref = run._reference("packing", seed)
    assert ref["complete"]
    mine = {k: v for k, v in ref["outputs"].items() if work.op_of(k) == name}
    return work, name, mine


def test_reference_output_passes_and_altered_output_fails(tmp_path, monkeypatch):
    work, name, expected = _first_verify(tmp_path, monkeypatch)
    result = {"errors": {}, "outputs": work.outputs({})}
    assert run.failures(work, result, expected, False, None) == {}

    report = next(work.out.rglob("report.json"))
    report.write_bytes(report.read_bytes().replace(b"true", b"false", 1))
    result = {"errors": {}, "outputs": work.outputs({})}
    assert set(run.failures(work, result, expected, False, None)) == {name}


def test_program_that_changes_a_report_fails(tmp_path, monkeypatch):
    original = ifslab.packing.contradiction_bound

    def skewed(inst):
        doc = original(inst)
        doc["union_volume"] += 1e-12
        return doc

    monkeypatch.setattr(ifslab.packing, "contradiction_bound", skewed)
    work, name, expected = _first_verify(tmp_path, monkeypatch)
    result = {"errors": {}, "outputs": work.outputs({})}
    assert set(run.failures(work, result, expected, False, None)) == {name}


def test_missing_extra_and_unrepeated_outputs_fail():
    work = Packing(0, Path("unused"))
    expected = {"p00/verify/report.json": "a", "p01/verify/report.json": "b"}
    result = {"errors": {}, "outputs": {"p00/verify/report.json": "a", "p02/verify/x": "c"}}
    bad = run.failures(work, result, expected, True, None)
    assert set(bad) == {"p01/verify", "p02/verify"}
    first = {"p00/verify/report.json": "z"}
    bad = run.failures(work, {"errors": {}, "outputs": {"p00/verify/report.json": "a"}},
                       {}, False, first)
    assert set(bad) == {"p00/verify"}


def test_counts_that_do_not_repeat_fail():
    def traced(calls, placed):
        return {"layers": {"geometry.rasterize_disk": {"calls": calls, "points": 0}},
                "counts": {"packing.greedy_pack.disks_placed": placed}}

    recorded = run.exact_counts(traced(10, 3))
    assert run.count_failures([traced(10, 3), traced(10, 3)], recorded) == {}
    assert set(run.count_failures([traced(10, 3), traced(11, 3)], recorded)) == {"trace1/counts"}
    assert set(run.count_failures([traced(10, 4)], recorded)) == {"trace0/counts"}
    # an unrecorded seed: the first traced pass is the reference
    assert run.count_failures([traced(7, 2), traced(7, 2)], None) == {}
    assert set(run.count_failures([traced(7, 2), traced(7, 1)], None)) == {"trace1/counts"}


def _traced_attractor():
    recorder = tracing.Recorder("test")
    restore = tracing.install(recorder)
    try:
        params = ifslab.construction.ConstructionParams(kappa=0.76)
        result = ifslab.construction.build_construction(params, resolution=64)
        ball = result.absorbing_ball
        ifslab.construction.attractor(result.system, ball, tol=1.0, resolution=64)
    finally:
        restore()
    return recorder.rows()


def test_self_times_are_nonnegative_and_add_up_to_the_root_spans():
    rows = _traced_attractor()
    assert rows, "no spans recorded"
    selfs = tracing.self_times(rows)
    assert min(selfs) >= 0
    for _, parent, start, end, _ in rows:
        if parent >= 0:
            assert rows[parent][2] <= start <= end <= rows[parent][3]
    # a span's self time is the part of it that no child covers: measured
    # here as the union of the child intervals, so a mis-parented span
    # (which would overlap a sibling) is caught
    children: dict[int, list] = {}
    for _, parent, start, end, _ in rows:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    for i, (_, _, start, end, _) in enumerate(rows):
        covered, reach = 0, start
        for lo, hi in sorted(children.get(i, [])):
            covered += max(0, hi - max(lo, reach))
            reach = max(reach, hi)
        assert selfs[i] == end - start - covered
    roots = sum(end - start for _, parent, start, end, _ in rows if parent < 0)
    assert sum(selfs) == roots
    names = {r[0] for r in rows}
    assert {"construction.attractor", "construction.hutchinson_step",
            "geometry.hausdorff_distance", "maps.AffineSimilarity.eval"} <= names


def test_install_restores_every_original():
    before = (ifslab.construction.hutchinson_step, ifslab.geometry.GridSet.lookup,
              ifslab.circle.minimality_test, ifslab.cli.main)
    _traced_attractor()
    after = (ifslab.construction.hutchinson_step, ifslab.geometry.GridSet.lookup,
             ifslab.circle.minimality_test, ifslab.cli.main)
    assert before == after


def test_counts_repeat_exactly():
    tables = [tracing.layer_table(_traced_attractor()) for _ in range(2)]
    counts = [{k: (v["calls"], v["points"]) for k, v in t.items()} for t in tables]
    assert counts[0] == counts[1]


def test_printed_metric_names_match_benchmark_json():
    bench = _benchmark()
    rows = _traced_attractor()
    fake = {"wall_s": 1.0, "pass_ns": [0, 10], "layers": tracing.layer_table(rows),
            "orbit_yield": tracing.orbit_yield(rows), "counts": {}}
    per_layer = run.layer_metrics(bench["per_layer"], [fake], [dict(fake, wall_s=0.9)],
                                  [(0, 10**8)])
    assert {k: v["unit"] for k, v in per_layer.items()} == {
        m["name"]: m["unit"] for m in bench["per_layer"]
    }
    sample = {"wall_s": 1.0, "pass_ns": [0, 10], "setup_s": 1.0, "setup_ns": [0, 10],
              "peak_rss_mb": 100.0}
    e2e = run.end_to_end_metrics([sample], [sample], [(0, 10**8)])
    assert {k: v["unit"] for k, v in e2e.items()} == {
        m["name"]: m["unit"] for m in bench["end_to_end"]
    }


def test_times_are_scaled_by_the_pace_over_their_own_window():
    # the pacer's kernel took 0.1 s during the first second, 0.2 s after it
    reps = [(i * 10**8, (i + 1) * 10**8) for i in range(10)]
    reps += [(10**9 + i * 2 * 10**8, 10**9 + (i + 1) * 2 * 10**8) for i in range(5)]
    fast = {"wall_s": 0.5, "pass_ns": [10**8, 6 * 10**8], "peak_rss_mb": 1.0,
            "setup_s": 0.3, "setup_ns": [0, 3 * 10**8]}
    slow = {"wall_s": 1.0, "pass_ns": [12 * 10**8, 18 * 10**8], "peak_rss_mb": 1.0,
            "setup_s": 0.6, "setup_ns": [12 * 10**8, 18 * 10**8]}
    assert run.pace(reps, slow["pass_ns"]) == pytest.approx(0.2)
    e2e = run.end_to_end_metrics([fast, slow], [fast, slow], reps)
    assert e2e["wall_s"]["value"] == pytest.approx(0.5 * run.PACE_REF_S / 0.1)
    assert e2e["setup_s"]["value"] == pytest.approx(0.3 * run.PACE_REF_S / 0.1)


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in _benchmark()["workloads"]) == sorted(run.WORKLOADS)


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "construct", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_inputs_depend_only_on_the_seed(tmp_path, workload):
    digests = []
    for sub in ("a", "b"):
        work = run.WORKLOADS[workload](3, tmp_path / sub)
        work.make_inputs()
        digests.append({str(p.relative_to(work.inp)): p.read_bytes()
                        for p in sorted(work.inp.rglob("*")) if p.is_file()})
    assert digests[0] == digests[1]
