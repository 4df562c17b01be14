"""Command-line front end: orchestration, seeding, and report emission.

Every subcommand writes a ``report.json`` (plus PGM/CSV artifacts) into the
output directory.  Reports embed the seed and the generator algorithm, and
two runs with the same configuration and seed produce byte-identical
files.  Exit status: 0 on success, 1 on validation/usage errors, 2 when a
probe runs out of budget or fails to converge.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
from pathlib import Path

import numpy as np

from . import analysis, circle, construction, geometry, packing
from .errors import IfslabError, ProbeError, ValidationError
from .geometry import Disk, Domain
from .maps import Word, parse_system
from .seeding import RNG_ALGORITHM, rng_from


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the report contract
    # reserves 2 for probe failures, so route usage problems to status 1
    def error(self, message):
        raise _UsageError(message)


def _write_report(out_dir: Path, report: dict, seed: int) -> Path:
    report = dict(report)
    report["seed"] = seed
    report["rng"] = RNG_ALGORITHM
    path = out_dir / "report.json"
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def _load_system(path: str):
    with open(path) as f:
        return parse_system(f.read())


def _region_from_args(args, kind_hint: str):
    if args.region_pgm:
        domain = None
        if args.bounds:
            domain = Domain.planar(args.bounds, args.resolution)
        return geometry.read_pgm(args.region_pgm, domain)
    if kind_hint == "circle":
        return geometry.full_set(Domain.circle(args.resolution))
    bounds = args.bounds or (0.0, 1.0, 0.0, 1.0)
    return geometry.full_set(Domain.planar(bounds, args.resolution))


def _parse_bounds(text: str):
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 4:
        raise ValidationError("bounds need 4 comma-separated values")
    return tuple(parts)


def _parse_point(text: str):
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 2:
        raise ValidationError("point needs 2 comma-separated values")
    return tuple(parts)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_construct(args, out_dir: Path) -> int:
    params = construction.ConstructionParams(
        kappa=args.kappa,
        theta_deg=args.theta,
        delta=args.delta,
        u_factor=args.u_factor,
    )
    result = construction.build_construction(params, args.resolution)
    absorbing = construction.check_absorbing(
        result.system, result.absorbing_ball, args.resolution
    )
    cell = geometry.ball_domain(result.absorbing_ball, args.resolution).cell_sizes[0]
    attr = construction.attractor(
        result.system,
        result.absorbing_ball,
        tol=args.tol_cells * cell,
        resolution=args.resolution,
        verify_absorbing=False,
    )
    report = construction.construction_report(result, absorbing, attr)
    geometry.write_pgm(attr.attractor, out_dir / "attractor.pgm")
    geometry.write_points_csv(
        attr.attractor.included_points(), out_dir / "attractor_points.csv"
    )
    geometry.write_points_csv(np.array(result.anchors), out_dir / "anchors.csv")
    _write_report(out_dir, report, args.seed)
    return 0


def _cmd_minimality(args, out_dir: Path) -> int:
    sys_spec = _load_system(args.system)
    region = _region_from_args(args, sys_spec.kind)
    rep = analysis.minimality_test(
        sys_spec, region, args.epsilon, args.max_word_len, args.samples, args.seed
    )
    _write_report(out_dir, rep.to_json_dict(), args.seed)
    return 0


def _cmd_distortion(args, out_dir: Path) -> int:
    if args.shrink_max_r < 0:
        raise ValidationError(f"--shrink-max-r must be >= 0, got {args.shrink_max_r}")
    sys_spec = _load_system(args.system)
    region = _region_from_args(args, sys_spec.kind)
    rep = analysis.distortion_report(
        sys_spec,
        region,
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
    _write_report(out_dir, doc, args.seed)
    return 0


def _cmd_ergodicity(args, out_dir: Path) -> int:
    sys_spec = _load_system(args.system)
    domain = None
    if args.bounds:
        domain = Domain.planar(args.bounds, args.resolution)
    rep = analysis.ergodicity_probe(
        sys_spec,
        args.resolution,
        seed_sets=args.seed_sets,
        refine_steps=args.refine_steps,
        seed=args.seed,
        domain=domain,
    )
    if rep.candidate is not None:
        geometry.write_pgm(rep.candidate, out_dir / "candidate.pgm")
    _write_report(out_dir, rep.to_json_dict(), args.seed)
    return 0


def _cmd_circle(args, out_dir: Path) -> int:
    rational = None
    if args.rational:
        try:
            p, q = (int(v) for v in args.rational.split("/"))
        except ValueError:
            raise ValidationError(f"--rational needs p/q, got {args.rational!r}") from None
        rational = (p, q)
    params = circle.CircleExampleParams(
        multiplier=args.multiplier,
        rotation_angle=args.angle,
        rational_approx=rational,
        seed=args.seed,
    )
    report: dict = {"multiplier": args.multiplier, "rotation_angle": args.angle}
    if rational is not None:
        report["substitution"] = circle.rational_substitution_experiment(
            params,
            epsilon=args.epsilon,
            max_word_len=args.max_word_len,
            samples=args.samples,
            resolution=args.resolution,
        )
    if args.amplitudes:
        try:
            amps = [float(a) for a in args.amplitudes.split(",")]
        except ValueError:
            raise ValidationError(f"--amplitudes needs numbers, got {args.amplitudes!r}") from None
        sweep = circle.robustness_sweep(
            params,
            amps,
            epsilon=args.epsilon,
            max_word_len=args.max_word_len,
            samples=args.samples,
            resolution=min(args.resolution, 1024),
        )
        report["sweep"] = sweep
        (out_dir / "sweep.csv").write_text(circle.sweep_rows_csv(sweep))
    if rational is None and not args.amplitudes:
        sys_spec = circle.build_circle_example(params)
        region = geometry.full_set(Domain.circle(args.resolution))
        rep = analysis.minimality_test(
            sys_spec, region, args.epsilon, args.max_word_len, args.samples, args.seed
        )
        ergo = analysis.ergodicity_probe(sys_spec, args.resolution, seed=args.seed)
        report["minimality"] = rep.to_json_dict()
        report["ergodicity"] = ergo.to_json_dict()
    _write_report(out_dir, report, args.seed)
    return 0


def _cmd_packing(args, out_dir: Path) -> int:
    if args.packing_mode == "verify":
        inst = packing.read_instance(args.instance)
        _write_report(out_dir, packing.verify_conditions(inst).to_json_dict(), args.seed)
        return 0
    # greedy
    domain = None
    if args.bounds:
        domain = Domain.planar(args.bounds, args.resolution)
    target = geometry.read_pgm(args.target_pgm, domain)
    try:
        cx, cy, r = (float(v) for v in args.ambient.split(","))
    except ValueError:
        raise ValidationError(f"--ambient needs cx,cy,r, got {args.ambient!r}") from None
    inst, rep = packing.greedy_pack(
        target, Disk((cx, cy), r), args.min_radius, args.max_disks
    )
    packing.write_instance(inst, out_dir / "instance.json", out_dir / "target.pgm")
    doc = rep.to_json_dict()
    doc["disks_placed"] = len(inst.family)
    _write_report(out_dir, doc, args.seed)
    return 0


# ---------------------------------------------------------------------------
# Argument wiring
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="ifslab", description=__doc__)
    parser.add_argument("--config", help="key=value file; flags override its entries")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--resolution", type=int, default=1024)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="out")
        p.add_argument("--bounds", type=_parse_bounds, default=None,
                       help="planar chart bounds xmin,xmax,ymin,ymax")

    p = sub.add_parser("construct", help="build the contraction family and its attractor")
    common(p)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--theta", type=float, default=179.0)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--u-factor", dest="u_factor", type=float, default=16.0)
    p.add_argument("--tol-cells", dest="tol_cells", type=float, default=2.0)
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("minimality", help="eps-density of sampled orbits")
    common(p)
    p.add_argument("--system", required=True, help="system text file")
    p.add_argument("--region-pgm", dest="region_pgm", default=None)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--max-word-len", dest="max_word_len", type=int, required=True)
    p.add_argument("--samples", type=int, default=16)
    p.set_defaults(handler=_cmd_minimality)

    p = sub.add_parser("distortion", help="bounded-distortion pipeline")
    common(p)
    p.add_argument("--system", required=True)
    p.add_argument("--region-pgm", dest="region_pgm", default=None,
                   help="attractor bitmap to sample from")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--word-length", dest="word_length", type=int, default=30)
    p.add_argument("--word-count", dest="word_count", type=int, default=1000)
    p.add_argument("--pair-count", dest="pair_count", type=int, default=256)
    p.add_argument("--pair-samples", dest="pair_samples", type=int, default=4096)
    p.add_argument("--shrink-center", dest="shrink_center", type=_parse_point,
                   default=(0.0, 0.0))
    p.add_argument("--shrink-radius", dest="shrink_radius", type=float, default=None)
    p.add_argument("--shrink-delta", dest="shrink_delta", type=float, default=1.0)
    p.add_argument("--shrink-max-r", dest="shrink_max_r", type=int, default=64)
    p.set_defaults(handler=_cmd_distortion)

    p = sub.add_parser("ergodicity", help="invariant-set falsification search")
    common(p)
    p.add_argument("--system", required=True)
    p.add_argument("--seed-sets", dest="seed_sets", type=int, default=16)
    p.add_argument("--refine-steps", dest="refine_steps", type=int, default=24)
    p.set_defaults(handler=_cmd_ergodicity)

    p = sub.add_parser("circle", help="north-south + rotation experiments")
    common(p)
    p.add_argument("--multiplier", type=float, default=0.7)
    p.add_argument("--angle", type=float, default=circle.GOLDEN_ANGLE)
    p.add_argument("--rational", default=None, help="p/q substitute for the angle")
    p.add_argument("--amplitudes", default=None, help="comma-separated C1 sweep amplitudes")
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--max-word-len", dest="max_word_len", type=int, default=300)
    p.add_argument("--samples", type=int, default=8)
    p.set_defaults(handler=_cmd_circle)

    p = sub.add_parser("packing", help="packing condition verification/search")
    common(p)
    p.add_argument("packing_mode", choices=["verify", "greedy"])
    p.add_argument("--instance", default=None, help="instance JSON (verify)")
    p.add_argument("--target-pgm", dest="target_pgm", default=None, help="target bitmap (greedy)")
    p.add_argument("--ambient", default=None, help="cx,cy,r (greedy)")
    p.add_argument("--min-radius", dest="min_radius", type=float, default=None)
    p.add_argument("--max-disks", dest="max_disks", type=int, default=256)
    p.set_defaults(handler=_cmd_packing)

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
    # right after the subcommand name, so every explicit flag comes later and
    # wins, however it is spelled (--flag=value, an abbreviation)
    sub = next((k + 1 for k, tok in enumerate(rest) if not tok.startswith("-")), len(rest))
    return rest[:sub] + extra + rest[sub:]


def main(argv: list[str] | None = None) -> int:
    argv = list(_sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        argv = _apply_config(argv)
        args = parser.parse_args(argv)
        if getattr(args, "packing_mode", None):
            if args.packing_mode == "verify" and not args.instance:
                raise _UsageError("packing verify needs --instance")
            if args.packing_mode == "greedy" and not (
                args.target_pgm and args.ambient and args.min_radius
            ):
                raise _UsageError(
                    "packing greedy needs --target-pgm, --ambient and --min-radius"
                )
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return args.handler(args, out_dir)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=_sys.stderr)
        return 1
    except ProbeError as exc:
        print(f"probe error: {exc}", file=_sys.stderr)
        return 2
    except (IfslabError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
