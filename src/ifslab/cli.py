"""Command-line front end: orchestration, seeding, and report emission.

Every subcommand writes a ``report.json`` (plus PGM/CSV artifacts) into the
output directory.  Reports embed the seed and the generator algorithm, and
two runs with the same configuration and seed produce byte-identical
files.  Exit status: 0 on success, 1 on validation/usage errors, 2 when a
probe runs out of budget or fails to converge.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys as _sys
from pathlib import Path

import numpy as np

from . import analysis, circle, construction, geometry, packing
from .errors import IfslabError, ProbeError, ValidationError
from .geometry import CIRCLE, PLANAR, Disk, Domain
from .maps import Word, parse_system
from .seeding import RNG_ALGORITHM, rng_from


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the report contract
    # reserves 2 for probe failures, so route usage problems to status 1
    def error(self, message):
        raise _UsageError(message)


# argparse types: every flag value is parsed and checked here, never in a handler


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"needs a finite number, got {text!r}")
    return value


def _count(text: str) -> int:
    # a count, or a seed: SeedSequence takes non-negative integers only
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"needs a non-negative integer, got {text!r}")
    return value


def _floats(n: int | None):
    """Comma-separated finite floats: exactly ``n`` of them, or any number."""

    def parse(text: str) -> tuple[float, ...]:
        values = tuple(_finite(v) for v in text.split(","))
        if n is not None and len(values) != n:
            raise argparse.ArgumentTypeError(f"needs {n} comma-separated values, got {text!r}")
        return values

    return parse


def _fraction(text: str) -> tuple[int, int]:
    try:
        p, q = (int(v) for v in text.split("/"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"needs p/q, got {text!r}") from None
    return p, q


def _domain(args, kind: str = PLANAR) -> Domain | None:
    """The planar chart --bounds/--resolution name, or None to infer it."""
    if not args.bounds:
        return None
    if kind == CIRCLE:
        raise ValidationError("--bounds names a planar chart, and a circle system has none")
    return Domain.planar(args.bounds, args.resolution)


def _region(args, kind: str):
    domain = _domain(args, kind)
    if args.region_pgm:
        return geometry.read_pgm(args.region_pgm, domain)
    if kind == CIRCLE:
        return geometry.full_set(Domain.circle(args.resolution))
    return geometry.full_set(domain or Domain.planar((0.0, 1.0, 0.0, 1.0), args.resolution))


def _system(args):
    return parse_system(Path(args.system).read_text())


# ---------------------------------------------------------------------------
# Subcommands: each runs its experiment, writes its artifacts and returns
# the report dict that main writes as report.json
# ---------------------------------------------------------------------------


def _cmd_construct(args, out_dir: Path) -> dict:
    params = construction.ConstructionParams(
        kappa=args.kappa, theta_deg=args.theta, delta=args.delta, u_factor=args.u_factor
    )
    result = construction.build_construction(params, args.resolution)
    cell = geometry.ball_domain(result.absorbing_ball, args.resolution).cell_sizes[0]
    attr = construction.attractor(  # it checks that the ball absorbs every member
        result.system, result.absorbing_ball, tol=args.tol_cells * cell,
        resolution=args.resolution,
    )
    geometry.write_pgm(attr.attractor, out_dir / "attractor.pgm")
    geometry.write_points_csv(
        attr.attractor.included_points(), out_dir / "attractor_points.csv"
    )
    geometry.write_points_csv(np.array(result.anchors), out_dir / "anchors.csv")
    return construction.construction_report(result, attr)


def _cmd_minimality(args, out_dir: Path) -> dict:
    sys_spec = _system(args)
    rep = analysis.minimality_test(
        sys_spec, _region(args, sys_spec.kind), args.epsilon, args.max_word_len,
        args.samples, args.seed,
    )
    return rep.to_json_dict()


def _cmd_distortion(args, out_dir: Path) -> dict:
    sys_spec = _system(args)
    rep = analysis.distortion_report(
        sys_spec,
        _region(args, sys_spec.kind),
        alpha=args.alpha,
        word_length=args.word_length,
        word_count=args.word_count,
        pair_count=args.pair_count,
        holder_pairs=args.pair_samples,
        seed=args.seed,
    )
    doc = rep.to_json_dict()
    if args.shrink_radius is not None:
        rng = rng_from(args.seed)
        symbols = tuple(
            int(s) for s in rng.integers(1, sys_spec.alphabet_size + 1, args.shrink_max_r)
        )
        st = analysis.shrink_time(
            sys_spec,
            Word(symbols, "reverse"),
            Disk(args.shrink_center, args.shrink_radius),
            args.shrink_delta,
            args.shrink_max_r,
            resolution=args.resolution,
        )
        doc["shrink"] = {
            "r0": st.r0,
            "diam_at_r0": st.diam_at_r0,
            "diam_before": st.diam_before,
        }
    return doc


def _cmd_ergodicity(args, out_dir: Path) -> dict:
    sys_spec = _system(args)
    rep = analysis.ergodicity_probe(
        sys_spec,
        args.resolution,
        seed_sets=args.seed_sets,
        refine_steps=args.refine_steps,
        seed=args.seed,
        domain=_domain(args, sys_spec.kind),
    )
    if rep.candidate is not None:
        geometry.write_pgm(rep.candidate, out_dir / "candidate.pgm")
    return rep.to_json_dict()


def _cmd_circle(args, out_dir: Path) -> dict:
    params = circle.CircleExampleParams(
        multiplier=args.multiplier,
        rotation_angle=args.angle,
        rational_approx=args.rational,
        seed=args.seed,
    )
    probe = dict(epsilon=args.epsilon, max_word_len=args.max_word_len, samples=args.samples)
    report: dict = {"multiplier": args.multiplier, "rotation_angle": args.angle}
    if args.rational is not None:
        report["substitution"] = circle.rational_substitution_experiment(
            params, **probe, resolution=args.resolution
        )
    if args.amplitudes is not None:
        sweep = circle.robustness_sweep(
            params, args.amplitudes, **probe, resolution=min(args.resolution, 1024)
        )
        report["sweep"] = sweep
        (out_dir / "sweep.csv").write_text(circle.sweep_rows_csv(sweep))
    if args.rational is None and args.amplitudes is None:
        sys_spec = circle.build_circle_example(params)
        region = geometry.full_set(Domain.circle(args.resolution))
        rep = analysis.minimality_test(sys_spec, region, **probe, seed=args.seed)
        ergo = analysis.ergodicity_probe(sys_spec, args.resolution, seed=args.seed)
        report["minimality"] = rep.to_json_dict()
        report["ergodicity"] = ergo.to_json_dict()
    return report


def _cmd_packing_verify(args, out_dir: Path) -> dict:
    inst = packing.read_instance(args.instance, _domain(args))
    return packing.verify_conditions(inst).to_json_dict()


def _cmd_packing_greedy(args, out_dir: Path) -> dict:
    target = geometry.read_pgm(args.target_pgm, _domain(args))
    cx, cy, r = args.ambient
    inst, rep = packing.greedy_pack(target, Disk((cx, cy), r), args.min_radius, args.max_disks)
    packing.write_instance(inst, out_dir / "instance.json", out_dir / "target.pgm")
    doc = rep.to_json_dict()
    doc["disks_placed"] = len(inst.family)
    return doc


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process; parse_args fills a fresh namespace per call."""
    parser = _Parser(prog="ifslab", description=__doc__)
    parser.add_argument("--config", help="key=value file; flags override its entries")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(parent, name, handler, chart, summary):
        p = parent.add_parser(name, help=summary)
        p.add_argument("--resolution", type=int, default=1024)
        p.add_argument("--seed", type=_count, default=0)
        p.add_argument("--out", default="out")
        if chart:
            p.add_argument("--bounds", type=_floats(4), help="planar chart xmin,xmax,ymin,ymax")
        p.set_defaults(handler=handler)
        return p

    p = command(sub, "construct", _cmd_construct, False,
                "build the contraction family and its attractor")
    p.add_argument("--kappa", type=_finite, required=True)
    p.add_argument("--theta", type=_finite, default=179.0)
    p.add_argument("--delta", type=_finite, default=1.0)
    p.add_argument("--u-factor", type=_finite, default=16.0)
    p.add_argument("--tol-cells", type=_finite, default=2.0)

    p = command(sub, "minimality", _cmd_minimality, True, "eps-density of sampled orbits")
    p.add_argument("--system", required=True, help="system text file")
    p.add_argument("--region-pgm")
    p.add_argument("--epsilon", type=_finite, required=True)
    p.add_argument("--max-word-len", type=int, required=True)
    p.add_argument("--samples", type=int, default=16)

    p = command(sub, "distortion", _cmd_distortion, True, "bounded-distortion pipeline")
    p.add_argument("--system", required=True)
    p.add_argument("--region-pgm", help="attractor bitmap to sample from")
    p.add_argument("--alpha", type=_finite, default=1.0)
    p.add_argument("--word-length", type=int, default=30)
    p.add_argument("--word-count", type=int, default=1000)
    p.add_argument("--pair-count", type=int, default=256)
    p.add_argument("--pair-samples", type=int, default=4096)
    p.add_argument("--shrink-center", type=_floats(2), default=(0.0, 0.0))
    p.add_argument("--shrink-radius", type=_finite)
    p.add_argument("--shrink-delta", type=_finite, default=1.0)
    p.add_argument("--shrink-max-r", type=_count, default=64)

    p = command(sub, "ergodicity", _cmd_ergodicity, True, "invariant-set falsification search")
    p.add_argument("--system", required=True)
    p.add_argument("--seed-sets", type=int, default=16)
    p.add_argument("--refine-steps", type=int, default=24)

    p = command(sub, "circle", _cmd_circle, False, "north-south + rotation experiments")
    p.add_argument("--multiplier", type=_finite, default=0.7)
    p.add_argument("--angle", type=_finite, default=circle.GOLDEN_ANGLE)
    p.add_argument("--rational", type=_fraction, help="p/q substitute for the angle")
    p.add_argument("--amplitudes", type=_floats(None), help="comma-separated C1 sweep amplitudes")
    p.add_argument("--epsilon", type=_finite, default=0.01)
    p.add_argument("--max-word-len", type=int, default=300)
    p.add_argument("--samples", type=int, default=8)

    p = sub.add_parser("packing", help="packing condition verification/search")
    modes = p.add_subparsers(dest="mode", required=True)
    p = command(modes, "verify", _cmd_packing_verify, True, "check an instance's conditions")
    p.add_argument("--instance", required=True, help="instance JSON")
    p = command(modes, "greedy", _cmd_packing_greedy, True, "greedy search for a family")
    p.add_argument("--target-pgm", required=True, help="target bitmap")
    p.add_argument("--ambient", type=_floats(3), required=True, help="cx,cy,r")
    p.add_argument("--min-radius", type=_finite, required=True)
    p.add_argument("--max-disks", type=int, default=256)

    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Fold --config key=value entries in as defaults; flags still win."""
    i = next((k for k, tok in enumerate(argv) if tok.split("=", 1)[0] == "--config"), None)
    if i is None:
        return argv
    if argv[i] != "--config":  # the --config=PATH spelling
        path, rest = argv[i].split("=", 1)[1], argv[:i] + argv[i + 1 :]
    elif i + 1 < len(argv):
        path, rest = argv[i + 1], argv[:i] + argv[i + 2 :]
    else:
        raise _UsageError("--config needs a file path")
    extra: list[str] = []
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {line_no}: expected key=value")
        key, value = (s.strip() for s in line.split("=", 1))
        # one token, so a value such as -2,2,-2,2 does not read as a flag
        extra.append(f"--{key.replace('_', '-')}={value}")
    # before the first flag, so after every subcommand name (packing verify),
    # and every explicit flag comes later and wins, however it is spelled
    # (--flag=value, an abbreviation)
    at = next((k for k, tok in enumerate(rest) if tok.startswith("-")), len(rest))
    return rest[:at] + extra + rest[at:]


def main(argv: list[str] | None = None) -> int:
    argv = list(_sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        argv = _apply_config(argv)
        args = parser.parse_args(argv)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        report = args.handler(args, out_dir)
        report.update(seed=args.seed, rng=RNG_ALGORITHM)
        with open(out_dir / "report.json", "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=_sys.stderr)
        return 1
    except ProbeError as exc:
        print(f"probe error: {exc}", file=_sys.stderr)
        return 2
    except (IfslabError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
