import itertools

import numpy as np
import pytest

from ifslab import packing
from ifslab.errors import ValidationError
from ifslab.geometry import (
    Disk,
    Domain,
    GridSet,
    density_points,
    density_points_at,
    disk_cells,
    empty_set,
    full_set,
    local_density,
    point_distance,
    rasterize_disk,
    volume,
)
from ifslab.packing import (
    COVER_FRACTION,
    PackingInstance,
    greedy_pack,
    read_instance,
    verify_conditions,
    write_instance,
)
from ifslab.seeding import rng_from

RES = 512


@pytest.fixture
def dom():
    return Domain.planar((0.0, 1.0, 0.0, 1.0), RES)


@pytest.fixture
def ambient():
    return Disk((0.5, 0.5), 0.4)


def hex_family(ambient):
    r = ambient.radius / 3.0
    ring = 2.0 * ambient.radius / 3.0
    cx, cy = ambient.center
    fam = [Disk((cx, cy), r)]
    for a in 2 * np.pi * np.arange(6) / 6:
        fam.append(Disk((cx + ring * np.cos(a), cy + ring * np.sin(a)), r))
    return tuple(fam)


def checkerboard(dom, fill=5):
    # local density (fill-1)/fill at every scale above a few cells
    ix = np.arange(dom.resolution)[:, None]
    iy = np.arange(dom.resolution)[None, :]
    return GridSet(dom, (ix + 2 * iy) % fill != 0)


def test_hexagonal_family_covers_seven_ninths(dom, ambient):
    inst = PackingInstance(ambient, empty_set(dom), hex_family(ambient))
    rep = verify_conditions(inst)
    assert rep.cond1 and rep.cond2 and rep.cond3 and rep.cond4
    assert rep.feasible
    # grid area of 7 disks of radius delta/3 against the ambient ball
    assert rep.covered_fraction == pytest.approx(7.0 / 9.0, rel=0.01)


def test_single_half_radius_disk_fails_cover(dom, ambient):
    inst = PackingInstance(
        ambient, empty_set(dom), (Disk(ambient.center, ambient.radius / 2),)
    )
    rep = verify_conditions(inst)
    assert rep.cond1 and rep.cond2 and rep.cond4
    assert not rep.cond3
    assert rep.covered_fraction == pytest.approx(0.25, abs=0.01)
    assert rep.margins[2] < 0
    assert not rep.feasible


def test_empty_family_vacuous(dom, ambient):
    rep = verify_conditions(PackingInstance(ambient, empty_set(dom), ()))
    assert rep.cond1 and rep.cond2 and rep.cond4
    assert not rep.cond3
    assert not rep.feasible
    assert rep.centers_in_complement_density_points


def test_condition_one_fails_for_protruding_disk(dom, ambient):
    inst = PackingInstance(ambient, empty_set(dom), (Disk((0.5, 0.85), 0.1),))
    rep = verify_conditions(inst)
    assert not rep.cond1
    assert rep.margins[0] < 0


def test_condition_two_fails_for_overlapping_disks(dom, ambient):
    fam = (Disk((0.45, 0.5), 0.1), Disk((0.55, 0.5), 0.1))
    rep = verify_conditions(PackingInstance(ambient, empty_set(dom), fam))
    assert not rep.cond2
    assert rep.margins[1] < 0


def test_condition_four_fails_on_dense_target(dom, ambient):
    rep = verify_conditions(PackingInstance(ambient, checkerboard(dom), hex_family(ambient)))
    assert not rep.cond4
    assert rep.margins[3] < 0
    assert not rep.feasible
    assert rep.density_premise == pytest.approx(0.8, abs=0.01)


def test_cond3_margin_monotone_under_added_disk(dom, ambient):
    fam = hex_family(ambient)
    rep_small = verify_conditions(PackingInstance(ambient, empty_set(dom), fam[:3]))
    rep_big = verify_conditions(PackingInstance(ambient, empty_set(dom), fam[:4]))
    assert rep_big.margins[2] > rep_small.margins[2]


def test_disjoint_union_volume_additive(dom, ambient):
    fam = hex_family(ambient)
    rasters = [rasterize_disk(dom, d) for d in fam]
    union = empty_set(dom)
    for r in rasters:
        union = union.union(r)
    total = sum(float(r.bitmap.mean()) for r in rasters)
    ring = sum(
        (2 * np.pi * d.radius / dom.cell_sizes[0] + 8) * dom.cell_volume for d in fam
    )
    assert float(union.bitmap.mean()) == pytest.approx(total, abs=ring)


def test_contradiction_bound_chain_on_feasible_instance(dom, ambient):
    inst = PackingInstance(ambient, empty_set(dom), hex_family(ambient))
    rep = verify_conditions(inst)
    assert rep.feasible
    cb = rep.contradiction
    # the chain: complement inside the ambient exceeds half the union volume
    assert cb["actual_complement_in_ambient"] >= cb["lower_bound"] - 0.02
    assert cb["lower_bound_fraction"] > 1.0 / 3.0
    assert not cb["forced_infeasible"]


def test_contradiction_bound_dense_target(dom, ambient):
    inst = PackingInstance(ambient, checkerboard(dom), hex_family(ambient))
    cb = verify_conditions(inst).contradiction
    assert cb["premise_holds"]
    assert cb["forced_infeasible"]
    # with the premise the complement fraction is pinched below 1/4
    assert cb["actual_fraction"] < 0.25


def test_contradiction_bound_empty_family(dom, ambient):
    cb = verify_conditions(PackingInstance(ambient, empty_set(dom), ())).contradiction
    assert cb["lower_bound"] == 0.0
    assert not cb["forced_infeasible"]


def test_greedy_empty_target_feasible(dom, ambient):
    inst, rep = greedy_pack(empty_set(dom), ambient, 8 / RES, 200)
    assert rep.feasible
    assert rep.covered_fraction > 2.0 / 3.0
    assert len(inst.family) > 0


def test_greedy_full_target_places_nothing(dom, ambient):
    inst, rep = greedy_pack(full_set(dom), ambient, 8 / RES, 200)
    assert len(inst.family) == 0
    assert not rep.feasible


def test_greedy_half_target_cannot_reach_cover(dom, ambient):
    xs = dom.axis_centers()[0]
    half = GridSet(dom, np.broadcast_to((xs >= 0.5)[:, None], dom.shape))
    inst, rep = greedy_pack(half, ambient, 8 / RES, 200)
    assert rep.covered_fraction <= 0.55
    assert not rep.feasible
    # every placed disk respects the half-complement condition
    assert rep.cond4


def test_greedy_checkerboard_infeasible(dom, ambient):
    inst, rep = greedy_pack(checkerboard(dom), ambient, 8 / RES, 100)
    assert not rep.feasible


def test_greedy_min_radius_precondition(dom, ambient):
    with pytest.raises(ValidationError):
        greedy_pack(empty_set(dom), ambient, 1 / RES, 10)


def test_greedy_rejects_a_negative_disk_budget(dom, ambient):
    with pytest.raises(ValidationError):
        greedy_pack(empty_set(dom), ambient, 8 / RES, -1)
    inst, _ = greedy_pack(empty_set(dom), ambient, 8 / RES, 0)
    assert inst.family == ()


def test_greedy_output_satisfies_chain(dom, ambient):
    # the implication suite on a greedy output: disjointness + half-filled
    # disks force the complement inside the union to exceed half of it
    rng = rng_from(13)
    blob = GridSet(dom, rng.random(dom.shape) < 0.2)
    inst, rep = greedy_pack(blob, ambient, 8 / RES, 200)
    if rep.cond2 and rep.cond4 and inst.family:
        cb = rep.contradiction
        assert cb["complement_in_union"] > 0.5 * cb["union_volume"] - 1.0 / 50.0
        if rep.cond3:
            assert cb["actual_fraction"] > 1.0 / 3.0 - 1.0 / 50.0


def test_dense_premise_never_feasible(dom, ambient):
    # once the target holds more than 3/4 of the ambient ball, no family
    # passes all four conditions
    target = checkerboard(dom)  # local density 0.8 everywhere
    rng = rng_from(99)
    families = [hex_family(ambient), ()]
    for k in range(4):
        fam = []
        for _ in range(8):
            r = float(rng.uniform(0.03, 0.1))
            ang = float(rng.uniform(0, 2 * np.pi))
            rad = (ambient.radius - r) * np.sqrt(rng.uniform(0, 1))
            fam.append(
                Disk(
                    (0.5 + rad * np.cos(ang), 0.5 + rad * np.sin(ang)),
                    r,
                )
            )
        families.append(tuple(fam))
    for fam in families:
        rep = verify_conditions(PackingInstance(ambient, target, fam))
        assert rep.density_premise > 0.75
        assert not rep.feasible


def test_instance_roundtrip(tmp_path, dom, ambient):
    inst = PackingInstance(ambient, checkerboard(dom), hex_family(ambient))
    write_instance(inst, tmp_path / "inst.json", tmp_path / "target.pgm")
    back = read_instance(tmp_path / "inst.json", dom)
    assert back.ambient == inst.ambient
    assert back.family == inst.family
    assert back.target.equals(inst.target)


# -- full-grid reference ------------------------------------------------------


def full_grid_disk(dom, d):
    xs, ys = dom.axis_centers()
    cx, cy = d.center
    return (xs[:, None] - cx) ** 2 + (ys[None, :] - cy) ** 2 <= d.radius**2


def reference_packing(inst):
    """verify_conditions' report and its contradiction chain, every disk
    tested on the full grid of cell centers."""
    dom = inst.target.domain
    amb = full_grid_disk(dom, inst.ambient)
    vol_amb = float(amb.mean())
    disks = [full_grid_disk(dom, d) for d in inst.family]
    rings = [
        (2.0 * np.pi * d.radius / dom.cell_sizes[0] + 8.0) * dom.cell_volume
        for d in inst.family
    ]
    target = inst.target.bitmap
    union = np.zeros(dom.shape, dtype=bool)
    for d in disks:
        union |= d
    vol_union = float(union.mean())
    outside = [float((d & ~amb).mean()) for d in disks]
    pairs = list(itertools.combinations(range(len(disks)), 2))
    overlaps = [float((disks[i] & disks[j]).mean()) for i, j in pairs]
    filled = [(float((d & ~target).mean()), float(d.mean())) for d in disks]
    density = float((target & amb).mean()) / vol_amb
    if inst.family:
        dp = density_points(inst.target.complement(), 4.0 * dom.max_cell_size, 0.75)
        centers_ok = bool(dp.lookup(np.array([d.center for d in inst.family])).all())
    else:
        centers_ok = True
    conds = [
        all(o <= ring for o, ring in zip(outside, rings)),
        all(ov <= rings[i] + rings[j] for ov, (i, j) in zip(overlaps, pairs)),
        vol_union > COVER_FRACTION * vol_amb - sum(rings),
        all(w > 0.5 * vd - ring for (w, vd), ring in zip(filled, rings)),
    ]
    report = {
        "cond1": conds[0],
        "cond2": conds[1],
        "cond3": conds[2],
        "cond4": conds[3],
        "margins": [
            min([0.0] + [-o / vol_amb for o in outside]),
            min([0.0] + [-ov / vol_amb for ov in overlaps]),
            (vol_union - COVER_FRACTION * vol_amb) / vol_amb,
            min([(w - 0.5 * vd) / vol_amb for w, vd in filled], default=0.0),
        ],
        "density_premise": density,
        "feasible": all(conds),
        "centers_in_complement_density_points": centers_ok,
        "covered_fraction": vol_union / vol_amb,
    }
    actual = float((~target & amb).mean())
    bound = {
        "lower_bound": 0.5 * vol_union,
        "actual_complement_in_ambient": actual,
        "lower_bound_fraction": 0.5 * vol_union / vol_amb,
        "actual_fraction": actual / vol_amb,
        "complement_in_union": float((~target & union).mean()),
        "union_volume": vol_union,
        "density_ratio": density,
        "premise_holds": density > 0.75,
        "forced_infeasible": density > 0.75,
    }
    return report, bound


def reference_families(ambient):
    hexf = hex_family(ambient)
    return {
        "hex": hexf,
        "overlapping": (Disk((0.45, 0.5), 0.1), Disk((0.55, 0.5), 0.1), Disk((0.5, 0.58), 0.07)),
        "protruding": (Disk((0.5, 0.85), 0.1), Disk((0.3, 0.3), 0.12)),
        "edge_clipped": (Disk((0.02, 0.5), 0.1), Disk((0.5, 0.99), 0.05), Disk((0.97, 0.03), 0.08)),
        "empty": (),
        "hex_and_subcell": hexf + (Disk((0.5 + 0.3 / RES, 0.5), 0.2 / RES),),
        # windows cut by the chart: a center off the chart (overlapping a disk
        # on it), one past a corner, and one holding no cell at all
        "off_chart": (Disk((1.05, 0.5), 0.1), Disk((0.97, 0.52), 0.05), Disk((1.5, 0.5), 0.1)),
        "corner": (Disk((0.0, 1.0), 0.08), Disk((1.0 + 0.5 / RES, -0.5 / RES), 0.06), Disk((0.5, 0.5), 0.1)),
        "nested": (Disk((0.5, 0.5), 0.2), Disk((0.52, 0.47), 0.05), Disk((0.5, 0.5), 0.2)),
    }


@pytest.mark.parametrize(
    "family",
    ["hex", "overlapping", "protruding", "edge_clipped", "empty", "hex_and_subcell",
     "off_chart", "corner", "nested"],
)
@pytest.mark.parametrize("target_kind", ["empty", "checkerboard", "half"])
def test_packing_matches_full_grid_reference(dom, ambient, family, target_kind):
    xs = dom.axis_centers()[0]
    target = {
        "empty": empty_set(dom),
        "checkerboard": checkerboard(dom),
        "half": GridSet(dom, np.broadcast_to((xs >= 0.55)[:, None], dom.shape)),
    }[target_kind]
    inst = PackingInstance(ambient, target, reference_families(ambient)[family])
    report, bound = reference_packing(inst)
    assert verify_conditions(inst).to_json_dict() == dict(report, contradiction=bound)


def test_contradiction_bound_subcell_ambient_rejected(dom):
    # centered on a cell corner, a quarter-cell ambient holds no cell center
    inst = PackingInstance(Disk((0.5, 0.5), 0.25 / RES), empty_set(dom), ())
    with pytest.raises(ValidationError):
        verify_conditions(inst).contradiction
    with pytest.raises(ValidationError):
        verify_conditions(inst)


def test_greedy_family_pinned():
    # a target with three holes and a sine lattice, on which the search must
    # shrink disks to meet the half-complement condition; any change to how
    # it measures candidate disks must leave this family exactly as it is
    dom = Domain.planar((0.0, 1.0, 0.0, 1.0), 256)
    xs, ys = dom.axis_centers()
    x, y = xs[:, None], ys[None, :]
    holes = (
        ((x - 0.5) ** 2 + (y - 0.5) ** 2 < 0.01)
        | ((x - 0.3) ** 2 + (y - 0.7) ** 2 < 0.005)
        | ((x - 0.72) ** 2 + (y - 0.3) ** 2 < 0.008)
        | (np.sin(31 * x) * np.sin(29 * y) > 0.5)
    )
    inst, _ = greedy_pack(GridSet(dom, ~holes), Disk((0.5, 0.5), 0.4), 8 / 256, 12)
    assert inst.family == (
        Disk((0.267578125, 0.720703125), 0.07948510586357888),
        Disk((0.521484375, 0.466796875), 0.14315138890635),
        Disk((0.732421875, 0.283203125), 0.08216228513865564),
        Disk((0.251953125, 0.271484375), 0.0501892300843052),
        Disk((0.759765625, 0.591796875), 0.05099178335480886),
        Disk((0.255859375, 0.486328125), 0.050458912279836066),
        Disk((0.353515625, 0.810546875), 0.0448416946273551),
        Disk((0.556640625, 0.162109375), 0.057394928725097216),
        Disk((0.353515625, 0.599609375), 0.055203026613813225),
        Disk((0.455078125, 0.271484375), 0.050513212956306154),
        Disk((0.353515625, 0.380859375), 0.04552493415198314),
        Disk((0.455078125, 0.708984375), 0.048155943071898834),
    )


def test_greedy_stops_once_cover_passes():
    # the search adds each placed disk to its running union and stops as soon
    # as that union covers 2/3 of the ambient ball; 26 disks is the pinned count
    dom = Domain.planar((0.0, 1.0, 0.0, 1.0), 256)
    xs, ys = dom.axis_centers()
    x, y = xs[:, None], ys[None, :]
    target = GridSet(dom, np.broadcast_to(np.sin(23 * x + 5 * y) * np.cos(17 * y) > 0.7, dom.shape))
    ambient = Disk((0.5, 0.5), 0.4)
    inst, rep = greedy_pack(target, ambient, 8 / 256, 40)
    assert len(inst.family) == 26
    assert rep.covered_fraction > COVER_FRACTION
    short = verify_conditions(PackingInstance(ambient, target, inst.family[:-1]))
    assert short.covered_fraction <= COVER_FRACTION


# -- centers-only density points and live-cell greedy updates, against the
# full-grid computations they replace


def smooth_blob(dom, rng, density):
    field = rng.normal(size=dom.shape)
    for axis in (0, 1):
        for shift in (1, -1, 2, -2, 4, -4):
            field = field + np.roll(field, shift, axis=axis)
    return GridSet(dom, field > np.quantile(field, 1.0 - density))


@pytest.mark.baseline_dispatch
@pytest.mark.parametrize("bounds", [(0.0, 1.0, 0.0, 1.0), (-2.0, 1.0, 0.5, 1.25)])
@pytest.mark.parametrize("threshold", [0.75, 37 / 49, 0.9, 1.0])
def test_density_points_at_matches_full_grid_lookup(bounds, threshold):
    dom = Domain.planar(bounds, 96)
    xmin, xmax, ymin, ymax = bounds
    dx, dy = dom.cell_sizes
    rng = rng_from(71)
    radius = 4 * dom.max_cell_size
    # deep inside, within the kernel radius of each edge and corner, on the
    # upper edges (off the half-open chart) and off the chart
    xs = np.concatenate([
        rng.uniform(xmin + 8 * dx, xmax - 8 * dx, 40),
        xmin + rng.uniform(0, 6 * dx, 20), xmax - rng.uniform(1e-9, 6 * dx, 20),
        [xmin, xmax, xmin - dx, xmax + 3 * dx, np.nextafter(xmax, xmin)],
    ])
    ys = np.concatenate([
        rng.uniform(ymin + 8 * dy, ymax - 8 * dy, 40),
        ymax - rng.uniform(1e-9, 6 * dy, 20), ymin + rng.uniform(0, 6 * dy, 20),
        [ymax, ymin, 0.5 * (ymin + ymax), ymin, np.nextafter(ymax, ymin)],
    ])
    points = np.stack(
        [np.concatenate([xs, rng.permutation(xs)]), np.concatenate([ys, ys])], axis=-1
    )
    targets = [smooth_blob(dom, rng, d) for d in (0.1, 0.3, 0.5)]
    targets += [GridSet(dom, rng.random(dom.shape) < 0.2), empty_set(dom), full_set(dom)]
    for target in targets:
        comp = target.complement()
        want = density_points(comp, radius, threshold).lookup(points)
        assert np.array_equal(density_points_at(comp, radius, threshold, points), want)


def full_grid_greedy_family(target, ambient, min_radius, max_disks):
    """_greedy_family as it ran with a full-grid distance update after every
    placement; returns the family and the number of candidates it blocked."""
    dom = target.domain
    comp = target.complement()
    comp_density = local_density(comp, min_radius)
    centers = dom.cell_centers()
    avail = ambient.radius - point_distance(dom.kind, centers, ambient.center)
    amb_vol = volume(disk_cells(dom, ambient)[1], comp.bitmap.size)
    placed = []
    union = np.zeros(dom.shape, dtype=bool)
    blocked = np.zeros(dom.shape, dtype=bool)
    while len(placed) < max_disks:
        if volume(union, union.size) > COVER_FRACTION * amb_vol:
            break
        mask = (avail >= min_radius) & ~blocked
        if not mask.any():
            break
        flat_density = np.where(mask, comp_density, -1.0)
        order = np.argsort(flat_density, axis=None)[::-1][:packing.CANDIDATES_PER_ROUND]
        for flat_idx in order:
            ix, iy = np.unravel_index(flat_idx, dom.shape)
            if not mask[ix, iy]:
                continue
            center = centers[ix, iy]
            r = float(avail[ix, iy])
            while r >= min_radius:
                disk = Disk(center, r)
                window, bits = disk_cells(dom, disk)
                total = int(bits.sum())
                inside = int((bits & comp.bitmap[window]).sum())
                slack = packing._ring_volume(dom, disk) / (total * dom.cell_volume)
                if inside / total > packing.COMPLEMENT_FRACTION - slack:
                    break
                r *= 0.8
            if r < min_radius:
                blocked[ix, iy] = True
                continue
            placed.append(disk)
            union[window] |= bits
            d_new = point_distance(dom.kind, centers, center) - r
            avail = np.minimum(avail, d_new)
            break
        else:
            break
    return tuple(placed), int(blocked.sum())


@pytest.mark.baseline_dispatch
def test_greedy_family_matches_full_grid_loop():
    dom = Domain.planar((0.0, 1.0, 0.0, 1.0), 128)
    ambient = Disk((0.5, 0.5), 0.4)
    rng = rng_from(83)
    cases = [(smooth_blob(dom, rng, d), 40) for d in (0.05, 0.2, 0.35, 0.5, 0.6, 0.7)]
    cases += [(checkerboard(dom), 10), (empty_set(dom), 5), (empty_set(dom), 0)]
    found = []
    for target, max_disks in cases:
        want, blocked = full_grid_greedy_family(target, ambient, 5 / 128, max_disks)
        assert packing._greedy_family(target, ambient, 5 / 128, max_disks) == want
        found.append((len(want), blocked))
    # the densest blob blocks top-ranked candidates between placements
    placed, blocked = found[5]
    assert placed > 0 and blocked > 0
