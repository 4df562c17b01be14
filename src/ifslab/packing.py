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
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import geometry
from .errors import ValidationError
from .geometry import Disk, Domain, GridSet, volume

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
    contradiction: dict  # both sides of the chain, from contradiction_bound

    def to_json_dict(self) -> dict:
        return dict(asdict(self), margins=list(self.margins))


class FullGrids(NamedTuple):
    """The full-grid bitmaps of one instance and the cell counts of two."""

    target: np.ndarray
    ambient: np.ndarray
    union: np.ndarray
    ambient_cells: int
    union_cells: int


def _ring_volume(domain: Domain, d: Disk) -> float:
    # one-cell ring along a disk boundary: perimeter cells x cell volume
    dx, _ = domain.cell_sizes
    return (2.0 * np.pi * d.radius / dx + 8.0) * domain.cell_volume


def verify_conditions(inst: PackingInstance) -> PackingReport:
    """Check the four packing conditions on the grid, with signed margins.

    Margins are (lhs - rhs) / vol(ambient) per condition, minimized over
    the quantified disks or pairs; a condition holds when its margin
    clears the rasterization slack of one boundary-cell ring per disk.  A
    separate flag records whether every family center lies in the
    rasterized density points of the complement of the target (threshold
    3/4), which is the packing problem's premise rather than a numbered
    condition; the complement's ball is counted at the centers' cells only
    (:func:`geometry.density_points_at`).  The instance is rasterized once:
    only the ambient disk and the union span the whole grid, and each family
    disk is measured on its own ``disk_cells`` window.
    """
    dom = inst.target.domain
    target = inst.target.bitmap
    amb = geometry.rasterize_disk(dom, inst.ambient).bitmap
    n = amb.size
    amb_cells = int(np.count_nonzero(amb))
    vol_amb = amb_cells / n
    if vol_amb == 0:
        raise ValidationError("ambient disk rasterizes to nothing")
    disks = [geometry.disk_cells(dom, d) for d in inst.family]
    union = np.zeros(dom.shape, dtype=bool)
    for window, bits in disks:
        union[window] |= bits
    rings = [_ring_volume(dom, d) for d in inst.family]

    # (1) each disk inside the ambient ball
    outside = [volume(bits & ~amb[window], n) for window, bits in disks]
    m1 = min([0.0] + [-o / vol_amb for o in outside])
    c1 = all(o <= ring for o, ring in zip(outside, rings))

    # (2) pairwise disjointness: disk i painted once, every later disk read
    # against it; 0.0 comes first, so a zero overlap (-0.0) never replaces it
    m2 = 0.0
    c2 = True
    canvas = np.zeros(dom.shape, dtype=bool)
    for i, (wi, bi) in enumerate(disks):
        canvas[wi] = bi
        for j in range(i + 1, len(disks)):
            wj, bj = disks[j]
            overlap = volume(bj & canvas[wj], n)
            m2 = min(m2, -overlap / vol_amb)
            if overlap > rings[i] + rings[j]:
                c2 = False
        canvas[wi] = False

    # (3) union volume above 2/3 of the ambient volume
    union_cells = int(np.count_nonzero(union))
    vol_union = union_cells / n
    m3 = (vol_union - COVER_FRACTION * vol_amb) / vol_amb
    c3 = vol_union > COVER_FRACTION * vol_amb - sum(rings)

    # (4) each disk more than half filled by the complement of the target
    filled = [(volume(bits & ~target[window], n), volume(bits, n)) for window, bits in disks]
    m4 = min(((w - COMPLEMENT_FRACTION * vd) / vol_amb for w, vd in filled), default=0.0)
    c4 = all(w > COMPLEMENT_FRACTION * vd - ring for (w, vd), ring in zip(filled, rings))

    if inst.family:
        dp_radius = DP_RADIUS_CELLS * dom.max_cell_size
        centers = np.array([d.center for d in inst.family])
        centers_ok = bool(geometry.density_points_at(
            inst.target.complement(), dp_radius, DP_THRESHOLD, centers).all())
    else:
        centers_ok = True

    chain = contradiction_bound(FullGrids(target, amb, union, amb_cells, union_cells))
    return PackingReport(
        cond1=c1,
        cond2=c2,
        cond3=c3,
        cond4=c4,
        margins=(m1, m2, m3, m4),
        density_premise=chain["density_ratio"],
        feasible=c1 and c2 and c3 and c4,
        centers_in_complement_density_points=centers_ok,
        covered_fraction=vol_union / vol_amb,
        contradiction=chain,
    )


def contradiction_bound(grids: FullGrids) -> dict:
    """Both sides of the feasibility-vs-density chain, from the full grids
    :func:`verify_conditions` holds; it rasterizes nothing.

    When conditions (2)-(4) hold, the complement volume inside the union
    exceeds half the union volume, and with (3) the complement inside the
    ambient ball exceeds 1/3 of it.  When the target fills more than 3/4
    of the ambient ball the complement is below 1/4 < 1/3, so no family
    can satisfy all four conditions; ``forced_infeasible`` flags that case.
    """
    target, amb, union, amb_cells, union_cells = grids
    n = amb.size
    vol_amb, vol_union = amb_cells / n, union_cells / n
    # a set's cells off the target are its cells less those on it
    amb_in_target = int(np.count_nonzero(target & amb))
    density_ratio = amb_in_target / n / vol_amb
    lower_bound = 0.5 * vol_union
    actual = (amb_cells - amb_in_target) / n
    return {
        "lower_bound": lower_bound,
        "actual_complement_in_ambient": actual,
        "lower_bound_fraction": lower_bound / vol_amb,
        "actual_fraction": actual / vol_amb,
        "complement_in_union": (union_cells - int(np.count_nonzero(union & target))) / n,
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
    if max_disks < 0:
        raise ValidationError(f"max_disks must be >= 0, got {max_disks}")
    family = _greedy_family(target, ambient, min_radius, max_disks)
    # the search's full-grid fields are freed by now, before the check builds its own
    inst = PackingInstance(ambient=ambient, target=target, family=family)
    return inst, verify_conditions(inst)


def _greedy_family(target: GridSet, ambient: Disk, min_radius: float,
                   max_disks: int) -> tuple[Disk, ...]:
    """The disks :func:`greedy_pack` places, in placement order."""
    dom = target.domain
    comp = target.complement()
    # every field is flat, indexed like the raveled bitmap, and filled a
    # block of cells at a time, so no array of centers spans the grid
    avail = np.empty(comp.bitmap.size)  # largest radius at each cell honoring (1) and (2)
    for at, block in dom.blocks():
        avail[at] = ambient.radius - geometry.point_distance(
            dom.kind, dom.centers_at(block), ambient.center)
    if avail.max() < min_radius:  # no cell can hold a disk: build no density field
        return ()
    amb_vol = volume(geometry.disk_cells(dom, ambient)[1], comp.bitmap.size)
    # the ranked score is the complement density on live cells and -1 on the
    # rest; a cell is live while avail >= min_radius and it is not blocked.
    # avail only falls, so a cell that leaves is never read again, and avail
    # is updated on live cells only
    score = np.where(avail >= min_radius, geometry.local_density(comp, min_radius).ravel(), -1.0)

    placed: list[Disk] = []
    union = np.zeros(dom.shape, dtype=bool)
    while len(placed) < max_disks:
        if volume(union, union.size) > COVER_FRACTION * amb_vol:
            break
        if score.max() < 0:
            break
        # a copy, so that argsort's buffer is freed before the update
        order = np.argsort(score)[::-1][:CANDIDATES_PER_ROUND].copy()
        for i, k in enumerate(order):
            if score[k] < 0:
                continue
            center = dom.centers_at(dom.unravel(order[i:i + 1]))[0]
            r = float(avail[k])
            # shrink until the half-complement condition holds; total >= 1 (center cell)
            while r >= min_radius:
                disk = Disk(center, r)
                window, bits = geometry.disk_cells(dom, disk)
                total = int(bits.sum())
                inside = int((bits & comp.bitmap[window]).sum())
                slack = _ring_volume(dom, disk) / (total * dom.cell_volume)
                if inside / total > COMPLEMENT_FRACTION - slack:
                    break
                r *= 0.8
            if r < min_radius:
                score[k] = -1.0  # blocked
                continue
            placed.append(disk)
            union[window] |= bits
            live = np.flatnonzero(score >= 0)
            for at, block in dom.blocks(live):
                cells = live[at]
                d_new = geometry.point_distance(dom.kind, dom.centers_at(block), center) - r
                avail[cells] = left = np.minimum(avail[cells], d_new)
                score[cells[left < min_radius]] = -1.0
            break
        else:
            break
    return tuple(placed)


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
    if not isinstance(target_path, str):
        # open() takes an int as a file descriptor: 0 would read stdin
        raise ValidationError(f"instance {path} target is not a path: {target_path!r}")
    return PackingInstance(
        ambient=ambient,
        target=geometry.read_pgm(target_path, domain),
        family=family,
    )
