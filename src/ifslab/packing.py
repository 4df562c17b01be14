"""Disjoint-disk packing conditions inside an ambient disk.

Verifies the four feasibility conditions for a family of disks placed
against a target set B inside an ambient ball: (1) every disk inside the
ambient, (2) pairwise disjointness, (3) the union covering more than 2/3
of the ambient volume, and (4) every disk more than half filled by the
complement of B.  When B occupies more than 3/4 of the ambient ball the
four conditions are jointly unsatisfiable — conditions (2)-(4) force the
complement to exceed 1/3 of the ambient volume, contradicting the density
premise — and the module computes both sides of that chain explicitly.

All strict inequalities are tested with a slack of one boundary-cell ring
per disk, since rasterization makes exact strictness meaningless.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import ValidationError
from .geometry import Disk, Domain, GridSet

DENSITY_PREMISE_THRESHOLD = 0.75  # target density above which packing must fail
COVER_FRACTION = 2.0 / 3.0  # condition (3) threshold
COMPLEMENT_FRACTION = 0.5  # condition (4) threshold
DP_THRESHOLD = 0.75  # local density defining approximate density points
DP_RADIUS_CELLS = 4.0  # density-point radius, in cell widths
CANDIDATES_PER_ROUND = 64  # highest-density cells tried per greedy round


@dataclass(frozen=True)
class PackingInstance:
    """Ambient ball, target set B (complement drives the packing), disk family."""

    ambient: Disk
    target: GridSet
    family: tuple[Disk, ...]

    def __post_init__(self):
        object.__setattr__(self, "family", tuple(self.family))
        if self.target.domain.kind != "planar":
            raise ValidationError("packing instances are planar")
        if not self.target.domain.contains_disk(self.ambient):
            raise ValidationError("ambient disk must lie inside the domain")


@dataclass(frozen=True)
class PackingReport:
    cond1: bool
    cond2: bool
    cond3: bool
    cond4: bool
    margins: tuple[float, float, float, float]
    density_premise: float
    feasible: bool
    centers_in_complement_density_points: bool
    covered_fraction: float

    def to_json_dict(self) -> dict:
        return {
            "cond1": self.cond1,
            "cond2": self.cond2,
            "cond3": self.cond3,
            "cond4": self.cond4,
            "margins": list(self.margins),
            "density_premise": self.density_premise,
            "feasible": self.feasible,
            "centers_in_complement_density_points": self.centers_in_complement_density_points,
            "covered_fraction": self.covered_fraction,
        }


def _ring_volume(domain: Domain, d: Disk) -> float:
    # one-cell ring along a disk boundary: perimeter cells x cell volume
    dx, _ = domain.cell_sizes
    return (2.0 * np.pi * d.radius / dx + 8.0) * domain.cell_volume


def _rasterize(inst: PackingInstance):
    """(ambient cells, its volume, disk sets, union, complement, target density)."""
    dom = inst.target.domain
    amb = geometry.rasterize_disk(dom, inst.ambient)
    vol_amb = geometry.volume(amb)
    if vol_amb == 0:
        raise ValidationError("ambient disk rasterizes to nothing")
    disks = [geometry.rasterize_disk(dom, d) for d in inst.family]
    union = np.zeros(dom.shape, dtype=bool)
    for d in disks:
        union |= d.bitmap
    density_ratio = geometry.volume(inst.target.intersection(amb)) / vol_amb
    return amb, vol_amb, disks, GridSet(dom, union), inst.target.complement(), density_ratio


def verify_conditions(inst: PackingInstance) -> PackingReport:
    """Check the four packing conditions on the grid, with signed margins.

    Margins are (lhs - rhs) / vol(ambient) per condition, minimized over
    the quantified disks or pairs; a condition holds when its margin
    clears the rasterization slack of one boundary-cell ring per disk.  A
    separate flag records whether every family center lies in the
    rasterized density points of the complement of the target (threshold
    3/4), which is the packing problem's premise rather than a numbered
    condition.
    """
    dom = inst.target.domain
    amb, vol_amb, disks, union, comp, density_ratio = _rasterize(inst)
    rings = [_ring_volume(dom, d) for d in inst.family]

    # (1) each disk inside the ambient ball
    m1 = 0.0
    c1 = True
    for d, ring in zip(disks, rings):
        outside = geometry.volume(d.minus(amb))
        m1 = min(m1, -outside / vol_amb)
        if outside > ring:
            c1 = False

    # (2) pairwise disjointness
    m2 = 0.0
    c2 = True
    for i in range(len(disks)):
        for j in range(i + 1, len(disks)):
            overlap = geometry.volume(disks[i].intersection(disks[j]))
            m2 = min(m2, -overlap / vol_amb)
            if overlap > rings[i] + rings[j]:
                c2 = False

    # (3) union volume above 2/3 of the ambient volume
    vol_union = geometry.volume(union)
    m3 = (vol_union - COVER_FRACTION * vol_amb) / vol_amb
    c3 = vol_union > COVER_FRACTION * vol_amb - sum(rings)

    # (4) each disk more than half filled by the complement of the target
    m4 = 0.0
    c4 = True
    first = True
    for d, ring in zip(disks, rings):
        w = geometry.volume(d.intersection(comp))
        vd = geometry.volume(d)
        margin = (w - COMPLEMENT_FRACTION * vd) / vol_amb
        m4 = margin if first else min(m4, margin)
        first = False
        if w <= COMPLEMENT_FRACTION * vd - ring:
            c4 = False

    if inst.family:
        dp_radius = DP_RADIUS_CELLS * dom.max_cell_size
        dp = geometry.density_points(comp, dp_radius, DP_THRESHOLD)
        centers = np.array([d.center for d in inst.family])
        centers_ok = bool(dp.lookup(centers).all())
    else:
        centers_ok = True

    return PackingReport(
        cond1=c1,
        cond2=c2,
        cond3=c3,
        cond4=c4,
        margins=(m1, m2, m3, m4),
        density_premise=density_ratio,
        feasible=c1 and c2 and c3 and c4,
        centers_in_complement_density_points=centers_ok,
        covered_fraction=vol_union / vol_amb,
    )


def contradiction_bound(inst: PackingInstance) -> dict:
    """Both sides of the feasibility-vs-density chain.

    When conditions (2)-(4) hold, the complement volume inside the union
    exceeds half the union volume, and with (3) the complement inside the
    ambient ball exceeds 1/3 of it.  When the target fills more than 3/4
    of the ambient ball the complement is below 1/4 < 1/3, so no family
    can satisfy all four conditions; ``forced_infeasible`` flags that case.
    """
    amb, vol_amb, _, union, comp, density_ratio = _rasterize(inst)
    vol_union = geometry.volume(union)
    lower_bound = 0.5 * vol_union
    actual = geometry.volume(comp.intersection(amb))
    return {
        "lower_bound": lower_bound,
        "actual_complement_in_ambient": actual,
        "lower_bound_fraction": lower_bound / vol_amb,
        "actual_fraction": actual / vol_amb,
        "complement_in_union": geometry.volume(comp.intersection(union)),
        "union_volume": vol_union,
        "density_ratio": density_ratio,
        "premise_holds": density_ratio > DENSITY_PREMISE_THRESHOLD,
        "forced_infeasible": density_ratio > DENSITY_PREMISE_THRESHOLD,
    }


# ---------------------------------------------------------------------------
# Greedy search for a feasible family
# ---------------------------------------------------------------------------


def greedy_pack(
    target: GridSet,
    ambient: Disk,
    min_radius: float,
    max_disks: int,
) -> tuple[PackingInstance, PackingReport]:
    """Best-effort greedy construction of a family meeting the conditions.

    Repeatedly places the largest disk centered at the cell with the
    highest local complement density, subject to containment, disjointness
    from previous disks, and the half-complement condition; stops when the
    union passes the 2/3 cover threshold, the disk budget runs out, or no
    placement exists.  Fully deterministic; always returns the instance
    found plus its verification report.
    """
    dom = target.domain
    if dom.kind != "planar":
        raise ValidationError("greedy packing is planar")
    if min_radius < 4.0 * dom.max_cell_size:
        raise ValidationError("min_radius must be at least 4 cell widths")
    comp = target.complement()
    comp_density = geometry.local_density(comp, min_radius)
    xs, ys = dom.axis_centers()
    px = np.broadcast_to(xs[:, None], dom.shape)
    py = np.broadcast_to(ys[None, :], dom.shape)
    acx, acy = ambient.center
    # largest radius at each cell honoring (1) and (2)
    avail = ambient.radius - np.sqrt((px - acx) ** 2 + (py - acy) ** 2)
    amb_vol = geometry.volume(geometry.rasterize_disk(dom, ambient))

    placed: list[Disk] = []
    union = np.zeros(dom.shape, dtype=bool)
    blocked = np.zeros(dom.shape, dtype=bool)

    while len(placed) < max_disks:
        if union.mean() > COVER_FRACTION * amb_vol:
            break
        mask = (avail >= min_radius) & ~blocked
        if not mask.any():
            break
        flat_density = np.where(mask, comp_density, -1.0)
        order = np.argsort(flat_density, axis=None)[::-1][:CANDIDATES_PER_ROUND]
        for flat_idx in order:
            ix, iy = np.unravel_index(flat_idx, dom.shape)
            if not mask[ix, iy]:
                continue
            cx, cy = px[ix, iy], py[ix, iy]
            r = float(avail[ix, iy])
            # shrink until the half-complement condition holds; total >= 1 (center cell)
            while r >= min_radius:
                disk = Disk((float(cx), float(cy)), r)
                window, bits = geometry.disk_cells(dom, disk)
                total = int(bits.sum())
                inside = int((bits & comp.bitmap[window]).sum())
                slack = _ring_volume(dom, disk) / (total * dom.cell_volume)
                if inside / total > COMPLEMENT_FRACTION - slack:
                    break
                r *= 0.8
            if r < min_radius:
                blocked[ix, iy] = True
                continue
            placed.append(disk)
            union[window] |= bits
            d_new = np.sqrt((px - cx) ** 2 + (py - cy) ** 2) - r
            avail = np.minimum(avail, d_new)
            break
        else:
            break

    inst = PackingInstance(ambient=ambient, target=target, family=tuple(placed))
    return inst, verify_conditions(inst)


# ---------------------------------------------------------------------------
# Instance files
# ---------------------------------------------------------------------------


def write_instance(inst: PackingInstance, path, target_pgm_path) -> None:
    """Instance JSON referencing the target bitmap as a PGM file."""
    geometry.write_pgm(inst.target, target_pgm_path)
    doc = {
        "ambient": {
            "cx": inst.ambient.center[0],
            "cy": inst.ambient.center[1],
            "r": inst.ambient.radius,
        },
        "target": str(target_pgm_path),
        "family": [
            {"cx": d.center[0], "cy": d.center[1], "r": d.radius} for d in inst.family
        ],
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def read_instance(path, domain: Domain | None = None) -> PackingInstance:
    with open(path) as f:
        doc = json.load(f)
    try:
        target_path, amb = doc["target"], doc["ambient"]
        ambient = Disk((amb["cx"], amb["cy"]), amb["r"])
        family = tuple(Disk((d["cx"], d["cy"]), d["r"]) for d in doc["family"])
    except (KeyError, TypeError, ValueError) as exc:
        # a missing key, a list where an object belongs, or a bad number
        raise ValidationError(f"instance {path} is malformed: {exc!r}") from None
    return PackingInstance(
        ambient=ambient,
        target=geometry.read_pgm(target_path, domain),
        family=family,
    )
