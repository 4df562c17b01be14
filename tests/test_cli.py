import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ifslab
from ifslab import cli, construction
from ifslab.cli import main
from ifslab.analysis import distortion_report
from ifslab.geometry import Disk, Domain, GridSet, empty_set, rasterize_disk, read_pgm, write_pgm
from ifslab.maps import parse_system
from ifslab.seeding import RNG_ALGORITHM


GOLD_SYSTEM = "moebius lambda=0.7 pole=0.0\nrotation angle=0.6180339887498949\n"


@pytest.fixture
def gold_system_file(tmp_path):
    path = tmp_path / "system.txt"
    path.write_text(GOLD_SYSTEM)
    return path


def run(args):
    return main([str(a) for a in args])


def test_parser_is_built_once_and_fills_a_fresh_namespace():
    parser = cli._build_parser()
    assert cli._build_parser() is parser
    argv = ["packing", "greedy", "--target-pgm", "t.pgm", "--ambient", "0.5,0.5,0.4",
            "--min-radius", "0.1"]
    first = parser.parse_args(argv + ["--max-disks", "3", "--seed", "7"])
    second = parser.parse_args(argv)
    assert (first.max_disks, first.seed) == (3, 7)
    assert (second.max_disks, second.seed) == (256, 0)


def test_unknown_subcommand_exits_one(capsys):
    assert run(["frobnicate"]) == 1
    assert run([]) == 1


def test_unknown_flag_exits_one(tmp_path, gold_system_file):
    assert run(
        ["minimality", "--system", gold_system_file, "--epsilon", "0.02",
         "--max-word-len", "50", "--what", "9"]
    ) == 1


def test_minimality_report_and_determinism(tmp_path, gold_system_file):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    base = [
        "minimality", "--system", gold_system_file, "--epsilon", "0.02",
        "--max-word-len", "200", "--samples", "4", "--resolution", "1024",
        "--seed", "7",
    ]
    assert run(base + ["--out", out1]) == 0
    assert run(base + ["--out", out2]) == 0
    r1 = (out1 / "report.json").read_bytes()
    r2 = (out2 / "report.json").read_bytes()
    assert r1 == r2
    doc = json.loads(r1)
    assert doc["verdict"] == "eps-dense"
    assert doc["seed"] == 7
    assert doc["rng"] == "numpy-pcg64"
    assert set(doc) >= {"epsilon", "max_word_len", "samples", "uncovered_fraction", "verdict"}


@pytest.mark.parametrize(
    "config_equals, flag",
    [(False, ["--epsilon", "0.02"]), (False, ["--epsilon=0.02"]), (True, ["--epsilon", "0.02"])],
    ids=["separate", "equals", "config-equals"],
)
def test_config_file_defaults_with_flag_override(tmp_path, gold_system_file, config_equals, flag):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epsilon=0.5\nmax-word-len=200\nsamples=4\nresolution=1024\n")
    out = tmp_path / "cfg_out"
    config = [f"--config={cfg}"] if config_equals else ["--config", cfg]
    code = run(
        [*config, "minimality", "--system", gold_system_file, *flag, "--out", out]
    )
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["epsilon"] == 0.02  # flag beats config
    assert doc["max_word_len"] == 200  # config filled the gap


def test_config_value_may_start_with_a_minus(tmp_path):
    sys_file = tmp_path / "aff.txt"
    sys_file.write_text("affine kappa=0.76 theta=179 anchor=0,0\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bounds = -2,2,-2,2\nresolution = 64\n")
    out = tmp_path / "cfg_out"
    code = run(
        ["--config", cfg, "minimality", "--system", sys_file,
         "--epsilon", "0.5", "--max-word-len", "3", "--out", out]
    )
    assert code == 0
    assert json.loads((out / "report.json").read_text())["epsilon"] == 0.5


def test_construct_writes_artifacts(tmp_path):
    out = tmp_path / "con"
    code = run(
        ["construct", "--kappa", "0.76", "--theta", "179", "--delta", "1",
         "--resolution", "256", "--out", out]
    )
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["cover_verified"] and doc["absorbing_verified"]
    assert doc["k"] == 8
    assert (out / "attractor.pgm").exists()
    assert (out / "attractor_points.csv").exists()
    att = read_pgm(out / "attractor.pgm", Domain.planar((-16.5, 16.5, -16.5, 16.5), 256))
    assert att.count() > 0


@pytest.mark.parametrize("u_factor, code", [("16", 0), ("1.5", 1)])
def test_construct_runs_one_absorbing_check_inside_attractor(
        tmp_path, capsys, monkeypatch, u_factor, code):
    callers = []
    check = construction.check_absorbing

    def traced(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return check(*args)

    monkeypatch.setattr(construction, "check_absorbing", traced)
    out = tmp_path / "con"
    assert run(["construct", "--kappa", "0.76", "--u-factor", u_factor, "--resolution", "256",
                "--out", out]) == code
    assert callers == ["attractor"]
    if code:
        assert capsys.readouterr().err == "error: ball is not absorbing (escape distance 0.9598)\n"
        assert not (out / "report.json").exists()
    else:
        assert json.loads((out / "report.json").read_text())["absorbing_verified"] is True


def test_construct_at_small_delta_is_a_scaled_copy(tmp_path):
    # every length scales by a power of two exactly while squared cell sizes
    # stay normal floats, so the bitmap and the distance in cells are delta 1's
    def construct(k):
        out = tmp_path / f"d{k}"
        assert run(["construct", "--kappa", "0.76", "--delta", repr(2.0**-k), "--resolution", "64",
                    "--out", out]) == 0
        return (out / "attractor.pgm").read_bytes(), json.loads((out / "report.json").read_text())

    bitmap, report = construct(0)
    for k in (10, 400, 500):
        got_bitmap, got = construct(k)
        assert got_bitmap == bitmap
        assert got["final_hausdorff"] * 2**k == report["final_hausdorff"]
        assert (got["k"], got["iterations"]) == (report["k"], report["iterations"])


def test_construct_refuses_cells_too_small_to_square(tmp_path, capsys):
    out = tmp_path / "tiny"
    assert run(["construct", "--kappa", "0.76", "--delta", "1e-300", "--resolution", "64",
                "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: planar chart (") and err.endswith("has cells too small to square\n")
    assert not (out / "report.json").exists()


def test_construct_artifacts_are_deterministic(tmp_path):
    args = ["construct", "--kappa", "0.8", "--resolution", "128", "--seed", "3"]
    assert run(args + ["--out", tmp_path / "r1"]) == 0
    assert run(args + ["--out", tmp_path / "r2"]) == 0
    for name in ("report.json", "attractor.pgm", "attractor_points.csv", "anchors.csv"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


def test_circle_plain_probe_report(tmp_path):
    out = tmp_path / "plain"
    code = run(
        ["circle", "--multiplier", "0.7", "--epsilon", "0.02",
         "--max-word-len", "150", "--samples", "4", "--resolution", "512",
         "--out", out]
    )
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["minimality"]["verdict"] == "eps-dense"
    assert "ergodicity" in doc


def test_circle_rational_subcommand(tmp_path):
    out = tmp_path / "rat"
    code = run(
        ["circle", "--multiplier", "0.7", "--rational", "5/8",
         "--epsilon", "0.01", "--max-word-len", "300", "--samples", "4",
         "--resolution", "4096", "--out", out]
    )
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    sub = doc["substitution"]
    assert sub["pair_passes_both"] and sub["singles_fail_both"]


def test_ergodicity_writes_candidate(tmp_path):
    sys_file = tmp_path / "rot3.txt"
    sys_file.write_text("rotation angle=0.3333333333333333\n")
    out = tmp_path / "erg"
    code = run(
        ["ergodicity", "--system", sys_file, "--resolution", "3072",
         "--seed-sets", "16", "--refine-steps", "12", "--out", out]
    )
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["verdict"] == "candidate invariant set found"
    assert (out / "candidate.pgm").exists()


def test_distortion_affine_report(tmp_path):
    sys_file = tmp_path / "aff.txt"
    sys_file.write_text("affine kappa=0.76 theta=179 anchor=0,0\n")
    region = tmp_path / "region.pgm"
    dom = Domain.planar((-2.0, 2.0, -2.0, 2.0), 256)
    write_pgm(rasterize_disk(dom, Disk((0.0, 0.0), 1.5)), region)
    out = tmp_path / "dist"
    code = run(
        ["distortion", "--system", sys_file, "--region-pgm", region,
         "--bounds=-2,2,-2,2", "--resolution", "256",
         "--word-count", "50", "--pair-count", "32", "--out", out]
    )
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["C"] == 0.0
    assert doc["L_H"] == 1.0
    assert doc["emp_min"] == 1.0 and doc["emp_max"] == 1.0
    assert doc["consistent"]


def test_distortion_mixed_report_matches_library_and_repeats(tmp_path):
    # the perturbed member's log-det varies, so the walk scores words here,
    # where a similarity-only system has every word skipped
    text = ("affine kappa=0.7 theta=30 anchor=0.4,0\n"
            "affine kappa=0.61 theta=77 anchor=-0.3,0.2\n"
            "perturb base=1 amp=0.02 seed=3\n")
    sys_file = tmp_path / "mixed.txt"
    sys_file.write_text(text)
    dom = Domain.planar((-1.0, 1.0, -1.0, 1.0), 64)
    region = tmp_path / "region.pgm"
    write_pgm(rasterize_disk(dom, Disk((0.0, 0.0), 0.8)), region)
    args = ["distortion", "--system", sys_file, "--region-pgm", region, "--bounds=-1,1,-1,1",
            "--resolution", "64", "--word-length", "12", "--word-count", "40",
            "--pair-count", "16", "--pair-samples", "256", "--seed", "5"]
    assert run(args + ["--out", tmp_path / "a"]) == 0
    assert run(args + ["--out", tmp_path / "b"]) == 0
    first = (tmp_path / "a" / "report.json").read_bytes()
    assert (tmp_path / "b" / "report.json").read_bytes() == first
    expected = distortion_report(
        parse_system(text), read_pgm(region, dom), alpha=1.0, word_length=12, word_count=40,
        pair_count=16, holder_pairs=256, seed=5,
    ).to_json_dict()
    expected.update(seed=5, rng=RNG_ALGORITHM)
    doc = json.loads(first)
    assert doc == expected
    assert doc["emp_min"] < 1.0 < doc["emp_max"]


def test_circle_sweep_csv(tmp_path):
    out = tmp_path / "circ"
    code = run(
        ["circle", "--multiplier", "0.7", "--amplitudes", "0.0,0.005",
         "--epsilon", "0.02", "--max-word-len", "150", "--samples", "4",
         "--resolution", "512", "--out", out]
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("amplitude,minimality_verdict")
    assert len(lines) == 3


def test_packing_verify_instance(tmp_path):
    from ifslab.packing import PackingInstance, write_instance

    dom = Domain.planar((0.0, 1.0, 0.0, 1.0), 256)
    inst = PackingInstance(
        Disk((0.5, 0.5), 0.4), empty_set(dom), (Disk((0.5, 0.5), 0.2),)
    )
    write_instance(inst, tmp_path / "inst.json", tmp_path / "target.pgm")
    out = tmp_path / "pv"
    code = run(["packing", "verify", "--instance", tmp_path / "inst.json", "--out", out])
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["feasible"] is False
    assert doc["margins"][2] < 0


@pytest.mark.parametrize(
    "key, value", [("cx", float("nan")), ("r", float("inf"))], ids=["cx-nan", "r-infinity"]
)
def test_packing_verify_rejects_non_finite_family_disk(tmp_path, capsys, key, value):
    # both exited 0 with a verdict before Disk checked finiteness
    from ifslab.packing import PackingInstance, write_instance

    dom = Domain.planar((0.0, 1.0, 0.0, 1.0), 64)
    inst = PackingInstance(Disk((0.5, 0.5), 0.4), empty_set(dom), (Disk((0.5, 0.5), 0.2),))
    write_instance(inst, tmp_path / "inst.json", tmp_path / "target.pgm")
    doc = json.loads((tmp_path / "inst.json").read_text())
    doc["family"][0][key] = value
    # json writes NaN and Infinity, and json.load reads them back
    (tmp_path / "inst.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["packing", "verify", "--instance", tmp_path / "inst.json",
                "--out", tmp_path / "pv"]) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_packing_greedy_and_exit_codes(tmp_path):
    dom = Domain.planar((0.0, 1.0, 0.0, 1.0), 256)
    target = tmp_path / "target.pgm"
    write_pgm(empty_set(dom), target)
    out = tmp_path / "pg"
    code = run(
        ["packing", "greedy", "--target-pgm", target, "--ambient", "0.5,0.5,0.4",
         "--min-radius", "0.04", "--resolution", "256", "--out", out]
    )
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["feasible"] is True
    assert run(["packing", "verify", "--out", tmp_path / "x"]) == 1


def test_packing_greedy_with_no_room_for_a_disk_places_none(tmp_path):
    # a min_radius above the ambient radius: before, a kernel too large to allocate
    target = tmp_path / "target.pgm"
    write_pgm(empty_set(Domain.planar((0.0, 1.0, 0.0, 1.0), 64)), target)
    out = tmp_path / "pg"
    assert run(["packing", "greedy", "--target-pgm", target, "--ambient", "0.5,0.5,0.4",
                "--min-radius", "1e300", "--resolution", "64", "--out", out]) == 0
    assert json.loads((out / "report.json").read_text())["disks_placed"] == 0


def test_shrink_max_r_is_parsed_as_a_count(tmp_path, capsys):
    system = tmp_path / "system.txt"
    system.write_text("affine kappa=0.5 theta=30\n")
    assert run(["distortion", "--system", system, "--resolution", "64", "--shrink-radius", "0.5",
                "--shrink-max-r", "-1", "--out", tmp_path / "o"]) == 1
    assert capsys.readouterr().err == (
        "usage error: argument --shrink-max-r: needs a non-negative integer, got '-1'\n")


def test_packing_verify_reads_greedy_instance_on_its_bounds(tmp_path):
    # verify reads the instance on the chart greedy wrote it for
    target = tmp_path / "target.pgm"
    write_pgm(empty_set(Domain.planar((-2.0, 2.0, -2.0, 2.0), 128)), target)
    chart = ["--bounds=-2,2,-2,2", "--resolution", "128"]
    assert run(["packing", "greedy", "--target-pgm", target, "--ambient", "0,0,1.5",
                "--min-radius", "0.25", *chart, "--out", tmp_path / "pg"]) == 0
    assert run(["packing", "verify", "--instance", tmp_path / "pg" / "instance.json",
                *chart, "--out", tmp_path / "pv"]) == 0
    greedy = json.loads((tmp_path / "pg" / "report.json").read_text())
    del greedy["disks_placed"]
    assert json.loads((tmp_path / "pv" / "report.json").read_text()) == greedy


# a hexagonal family of radius 1/8 around the center of a 0.4 ambient disk,
# written as literals so no trig routine enters the instance
HEX_FAMILY = [(0.5, 0.5), (0.76, 0.5), (0.63, 0.725167), (0.37, 0.725167),
              (0.24, 0.5), (0.37, 0.274833), (0.63, 0.274833)]


@pytest.mark.parametrize(
    "target_kind, digest",
    [
        ("empty", "61d7f300e7d98fe776d9947a7312960b7e5351635fe2d0edba9de84cb91a8658"),
        ("checkerboard", "c94cbc4fc51f4d749944c488fdaf7ff5df09385538fb9a225b1ac2483f701853"),
    ],
)
def test_packing_verify_report_bytes_pinned(tmp_path, target_kind, digest):
    # report.json of `packing verify` on a 128^2 instance, byte for byte
    dom = Domain.planar((0.0, 1.0, 0.0, 1.0), 128)
    ix = np.arange(128)[:, None]
    iy = np.arange(128)[None, :]
    bitmap = (ix + 2 * iy) % 5 != 0 if target_kind == "checkerboard" else np.zeros(dom.shape, bool)
    write_pgm(GridSet(dom, bitmap), tmp_path / "target.pgm")
    doc = {
        "ambient": {"cx": 0.5, "cy": 0.5, "r": 0.4},
        "target": str(tmp_path / "target.pgm"),
        "family": [{"cx": cx, "cy": cy, "r": 0.125} for cx, cy in HEX_FAMILY],
    }
    (tmp_path / "inst.json").write_text(json.dumps(doc))
    out = tmp_path / "pv"
    assert run(["packing", "verify", "--instance", tmp_path / "inst.json", "--out", out]) == 0
    assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == digest


def test_probe_error_exit_code(tmp_path):
    # a rotation is not a contraction: the distortion pipeline must fail
    # with a validation error -> exit 1
    sys_file = tmp_path / "rot.txt"
    sys_file.write_text("rotation angle=0.618\n")
    out = tmp_path / "d2"
    code = run(
        ["distortion", "--system", sys_file, "--resolution", "256",
         "--word-count", "5", "--pair-count", "8", "--out", out]
    )
    assert code == 1


def test_shrink_horizon_exit_two(tmp_path):
    sys_file = tmp_path / "aff.txt"
    sys_file.write_text("affine kappa=0.76 theta=179 anchor=0,0\n")
    region = tmp_path / "region.pgm"
    dom = Domain.planar((-2.0, 2.0, -2.0, 2.0), 256)
    write_pgm(rasterize_disk(dom, Disk((0.0, 0.0), 1.5)), region)
    out = tmp_path / "d3"
    # max-r 2 cannot reach diameter < 0.001: horizon error -> exit 2
    code = run(
        ["distortion", "--system", sys_file, "--region-pgm", region,
         "--bounds=-2,2,-2,2", "--resolution", "256", "--word-count", "5",
         "--pair-count", "8", "--shrink-radius", "1.0",
         "--shrink-delta", "0.001", "--shrink-max-r", "2", "--out", out]
    )
    assert code == 2


def test_minimality_of_an_overflowing_orbit_exits_two(tmp_path, capsys):
    # eight stacked bumps of amplitude 1.7e308 send some start cells to an
    # infinite first image and the first one to about 1e308, past the range
    # of the pruning keys: a probe error, not a ValueError with a traceback
    sys_file = tmp_path / "overflow.txt"
    sys_file.write_text("\n".join(
        ["affine kappa=0.5 theta=30 anchor=0,0"]
        + [f"perturb base={i} amp=1.7e308 seed={i}" for i in range(1, 9)]
        + ["affine kappa=0.5 theta=10 anchor=0.5,0"]) + "\n")
    with np.errstate(over="ignore", invalid="ignore"):
        code = run(["minimality", "--system", sys_file, "--epsilon", "0.05", "--max-word-len", "6",
                    "--resolution", "64", "--samples", "16", "--out", tmp_path / "o"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("probe error: sample 1 of 16, from [")
    assert err.endswith("] is 2^31 or more pruning cells from the origin\n")


def test_minimality_of_an_escaping_orbit_exits_two_naming_the_point(tmp_path, capsys):
    # an unchecked int64 cast would give the first image a garbage pruning
    # key and prune the rest of the orbit silently
    sys_file = tmp_path / "escape.txt"
    sys_file.write_text("affine kappa=0.5 theta=0 anchor=0,0\n"
                        + "".join(f"perturb base={i} amp=1.7e308 seed={i}\n" for i in (1, 2, 3)))
    code = run(["minimality", "--system", sys_file, "--epsilon", "0.05", "--max-word-len", "10",
                "--resolution", "64", "--samples", "4", "--out", tmp_path / "o"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert re.fullmatch(r"probe error: sample 1 of 4, from \[[^]]*\]: orbit point \[[^]]*\] "
                        r"is 2\^31 or more pruning cells from the origin\n", err)
    assert not (tmp_path / "o" / "report.json").exists()


# 200 bytes from 0xff down: 0xff starts no UTF-8 sequence
_NOT_UTF8 = bytes(range(255, 55, -1))


@pytest.mark.parametrize(
    "args, pgm_bytes, text",
    [
        (["packing", "greedy", "--ambient", "1,2"], None, None),
        (["circle", "--rational", "abc"], None, None),
        (["packing", "greedy", "--ambient", "0.5,0.5,0.4"], 1000, None),  # P5 body cut short
        (["packing", "greedy", "--ambient", "0.5,0.5,0.4"], b"P5\n64", None),
        (["packing", "greedy", "--ambient", "0.5,0.5,0.4"], b"", None),
        (["packing", "greedy", "--ambient", "0.5,0.5,0.4"], b"P5\n# no newline", None),
        (["packing", "greedy", "--ambient", "0.5,0.5,0.4"], b"P5\n64 sixty-four\n1\n", None),
        (["packing", "greedy", "--ambient", "0.5,0.5,0.4"],
         b"P2\n16 16\n1\n" + b"0 " * 100 + b"x " + b"0 " * 155, None),
        (["distortion", "--system", "{file}"], None, "affine kappa=0.5\n"),
        (["distortion", "--system", "{file}"], None, "affine kappa=abc theta=0\n"),
        (["distortion", "--system", "{file}"], None,
         "affine kappa=0.5 theta=0\nperturb base=x amp=0.01\n"),
        (["distortion", "--system", "{file}"], None,
         "affine kappa=5e-324 theta=1\ninverses=true\n"),
        (["packing", "verify", "--instance", "{file}"], None,
         '{"ambient": {"cx": 0.5, "cy": 0.5, "r": 0.4}, "family": []}'),
        (["packing", "verify", "--instance", "{file}"], None, "[]"),
        *[(["packing", "verify", "--instance", "{file}"], None,
           '{"ambient": {"cx": 0.5, "cy": 0.5, "r": 0.4}, "family": [], "target": %s}' % t)
          for t in ("null", "0", "true")],
        (["circle", "--amplitudes", "0.01,abc"], None, None),
        (["distortion", "--system", "{file}", "--resolution", "64", "--word-length", "0"],
         None, "affine kappa=0.5 theta=30\n"),
        (["distortion", "--system", "{file}", "--resolution", "64", "--shrink-radius", "0.5",
          "--shrink-max-r", "-1"], None, "affine kappa=0.5 theta=30\n"),
        (["minimality", "--system", "{file}", "--epsilon", "nan", "--max-word-len", "3"],
         None, "affine kappa=0.5 theta=30\n"),
        (["construct", "--kappa", "0.76", "--delta", "inf", "--resolution", "64"], None, None),
        (["circle", "--amplitudes", "0.01,inf"], None, None),
        (["construct", "--kappa", "0.76", "--bounds=-1,1,-1,1"], None, None),
        (["minimality", "--system", "{file}", "--epsilon", "0.05", "--max-word-len", "3",
          "--resolution", "64", "--bounds=-5,5,-5,5"], None, "rotation angle=0.618\n"),
        (["ergodicity", "--system", "{file}", "--resolution", "64", "--bounds=-5,5,-5,5"],
         None, "rotation angle=0.618\n"),
        (["packing", "greedy", "--ambient", "0.5,0.5,0.4", "--max-disks", "-1"], None, None),
        (["construct", "--kappa", "0.76", "--tol-cells", "-1", "--resolution", "64"], None, None),
        (["construct", "--kappa", "0.76", "--u-factor", "1.5", "--resolution", "256"], None, None),
        (["ergodicity", "--system", "{file}", "--resolution", "64"],
         None, "rotation angle=0.3\nperturb base=1 amp=inf\n"),
        (["minimality", "--system", "{file}", "--epsilon", "0.05", "--max-word-len", "3",
          "--resolution", "64"], None, "rotation angle=0.3\nperturb base=1 amp=inf\n"),
        (["minimality", "--system", "{file}", "--epsilon", "0.05", "--max-word-len", "3",
          "--resolution", "64"], None, "rotation angle=nan\n"),
        (["minimality", "--system", "{file}", "--epsilon", "0.2", "--max-word-len", "3",
          "--resolution", "64"], None, "affine kappa=0.76 theta=nan\n"),
        (["ergodicity", "--system", "{file}", "--resolution", "64", "--bounds=-2,2,-2,2"],
         None, "affine kappa=0.76 theta=179 anchor=inf,0\n"),
        (["ergodicity", "--system", "{file}", "--resolution", "64", "--bounds=-2,2,-2,2"],
         None, "affine kappa=0.76 theta=179\nperturb base=1 amp=nan\n"),
        (["minimality", "--system", "{file}", "--epsilon", "0.05", "--max-word-len", "3"],
         None, _NOT_UTF8),
        (["--config", "{file}", "construct", "--kappa", "0.76"], None, _NOT_UTF8),
        (["packing", "verify", "--instance", "{file}"], None, _NOT_UTF8),
        (["minimality", "--system", "{file}", "--epsilon", "0.05", "--max-word-len", "3",
          "--resolution", "64", "--seed", "-1"], None, "rotation angle=0.618\n"),
        (["distortion", "--system", "{file}", "--resolution", "64", "--seed", "-1"],
         None, "affine kappa=0.5 theta=30\n"),
        (["ergodicity", "--system", "{file}", "--resolution", "64", "--seed", "-1"],
         None, "rotation angle=0.618\n"),
        (["circle", "--resolution", "64", "--epsilon", "0.05", "--max-word-len", "3", "--seed", "-1"],
         None, None),
        (["construct", "--kappa", "0.76", "--resolution", "64", "--seed", "-1"], None, None),
        (["packing", "greedy", "--ambient", "0.5,0.5,0.4", "--seed=-1"], None, None),
        (["--config", "{file}", "construct", "--kappa", "0.76", "--resolution", "64"],
         None, "seed = -2\n"),
        (["minimality", "--system", "{file}", "--epsilon", "0.2", "--max-word-len", "3",
          "--region-pgm", "{pgm}"], b"P5\n64 1\n1\n" + b"\x01" * 64,
         "affine kappa=0.5 theta=30\n"),
        (["construct", "--kappa", "0.76", "--delta", "1e308", "--resolution", "64"], None, None),
        (["construct", "--kappa", "0.76", "--delta", "1e153", "--resolution", "64"], None, None),
        (["construct", "--kappa", "0.76", "--delta", "1e-300", "--resolution", "64"], None, None),
        (["construct", "--kappa", "0.76", "--u-factor", "1e300", "--resolution", "64"],
         None, None),
        (["distortion", "--system", "{file}", "--resolution", "64", "--shrink-radius", "1e200"],
         None, "affine kappa=0.5 theta=30\n"),
        (["packing", "verify", "--instance", "{file}", "--resolution", "64",
          "--bounds=-1e201,1e201,-1e201,1e201"], None,
         '{"ambient": {"cx": 0, "cy": 0, "r": 1e200}, "family": [], "target": "{pgm}"}'),
    ],
    ids=["ambient-two-values", "rational-not-p-over-q", "truncated-pgm",
         "pgm-header-cut-short", "pgm-empty", "pgm-comment-without-newline",
         "pgm-field-not-a-number", "pgm-pixel-not-a-number", "system-missing-key",
         "system-value-not-a-number",
         "system-perturb-base-not-a-number", "system-inverse-scale-infinite",
         "instance-without-target", "instance-is-a-list",
         "instance-target-null", "instance-target-zero", "instance-target-true",
         "amplitude-not-a-number", "word-length-zero", "shrink-max-r-negative",
         "epsilon-nan", "delta-inf", "amplitude-inf", "bounds-on-construct",
         "bounds-on-circle-minimality", "bounds-on-circle-ergodicity",
         "max-disks-negative", "tol-cells-negative", "ball-not-absorbing",
         "circle-amplitude-inf-ergodicity", "circle-amplitude-inf-minimality",
         "rotation-angle-nan", "affine-theta-nan", "affine-anchor-inf",
         "planar-amplitude-nan", "system-not-utf8", "config-not-utf8", "instance-not-utf8",
         "seed-negative-minimality", "seed-negative-distortion", "seed-negative-ergodicity",
         "seed-negative-circle", "seed-negative-construct", "seed-negative-packing",
         "seed-negative-config", "planar-system-on-circle-region", "delta-squared-overflows",
         "delta-ball-squared-overflows", "delta-cells-squared-underflow", "u-factor-squared-overflows",
         "shrink-radius-squared-overflows", "instance-radius-squared-overflows"],
)
def test_malformed_input_exits_one_with_one_line(tmp_path, args, pgm_bytes, text):
    # pgm_bytes keeps that many bytes of a valid target, or replaces it, and
    # "{pgm}" names that target, in the arguments or in a str text; text (str
    # or bytes) fills the system, config or instance file that "{file}" names
    target = tmp_path / "target.pgm"
    write_pgm(empty_set(Domain.planar((0.0, 1.0, 0.0, 1.0), 64)), target)
    if isinstance(pgm_bytes, int):
        target.write_bytes(target.read_bytes()[:pgm_bytes])
    elif pgm_bytes is not None:
        target.write_bytes(pgm_bytes)
    args = [target if a == "{pgm}" else a for a in args]
    if args[:2] == ["packing", "greedy"]:
        args = args + ["--target-pgm", target, "--min-radius", "0.1", "--resolution", "64"]
    if text is not None:
        data = text if isinstance(text, bytes) else text.replace("{pgm}", str(target)).encode()
        (tmp_path / "input.txt").write_bytes(data)
        args = [tmp_path / "input.txt" if a == "{file}" else a for a in args]
    src = str(Path(ifslab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "ifslab.cli", *map(str, args), "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert not any((tmp_path / "o").glob("*"))
