from collections import Counter

import numpy as np
import pytest
import scipy.ndimage as ndi

from ifslab import geometry
from ifslab.construction import (
    AbsorbingCheck,
    ConstructionParams,
    _cached_step,
    attractor,
    build_construction,
    check_absorbing,
    construction_report,
    hutchinson_step,
)
from ifslab.errors import (
    ConstructionError,
    ConvergenceError,
    DimensionError,
    EmptySetError,
    ValidationError,
)
from ifslab.geometry import (
    Disk,
    Domain,
    GridSet,
    ball_domain,
    diameter,
    directed_distance,
    full_set,
    hausdorff_distance,
    points_to_gridset,
    rasterize_disk,
    sample_cells,
)
from ifslab.maps import (
    AffineSimilarity,
    CircleNorthSouth,
    CircleRotation,
    Map,
    Perturbed,
    SystemSpec,
    complex_eigenvalue_check,
)
from ifslab.seeding import rng_from

RES = 512


@pytest.fixture(scope="module")
def reference():
    params = ConstructionParams(kappa=0.76, theta_deg=179.0, delta=1.0)
    return build_construction(params, resolution=RES)


@pytest.fixture(scope="module")
def reference_attractor(reference):
    cell = 2 * reference.absorbing_ball.radius * (1 + 8 / RES) / RES
    return attractor(reference.system, reference.absorbing_ball, tol=2 * cell, resolution=RES)


def test_params_validation():
    with pytest.raises(ValidationError):
        ConstructionParams(kappa=0.7)
    with pytest.raises(ValidationError):
        ConstructionParams(kappa=0.76, delta=-1.0)
    for bad in ({"delta": float("inf")}, {"u_factor": float("inf")}, {"theta_deg": float("nan")}):
        with pytest.raises(ValidationError):
            ConstructionParams(kappa=0.76, **bad)


def test_reference_cover(reference):
    # anchor count found by the rasterized cover check at this resolution
    assert reference.k == 8


def test_larger_kappa_needs_fewer_anchors(reference):
    res = build_construction(ConstructionParams(kappa=0.999), resolution=RES)
    assert res.k < reference.k


def test_scale_equivariance(reference):
    doubled = build_construction(
        ConstructionParams(kappa=0.76, theta_deg=179.0, delta=2.0), resolution=RES
    )
    assert doubled.k == reference.k
    # the construction commutes with dilation, exactly at the bit level
    anchors = np.array(reference.anchors)
    assert np.array_equal(np.array(doubled.anchors), 2.0 * anchors)


def reference_uncovered_fraction(params, count, resolution):
    """The cover check as written before V came from geometry.disk_cells:
    V's cells are the grid centers with xs**2 + ys**2 <= delta * delta."""
    delta = params.delta
    half = 1.0625 * delta
    xs, ys = Domain.planar((-half, half, -half, half), resolution).axis_centers()
    target = (xs**2)[:, None] + (ys**2)[None, :] <= delta * delta
    px = np.broadcast_to(xs[:, None], target.shape)[target]
    py = np.broadcast_to(ys[None, :], target.shape)[target]
    th = np.deg2rad(params.theta_deg)
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    ang = 2.0 * np.pi * np.arange(count) / count
    anchors = [(0.75 * delta * float(np.cos(a)), 0.75 * delta * float(np.sin(a))) for a in ang]
    centers = [(0.0, 0.0)] + [
        tuple(float(c) for c in (np.eye(2) - params.kappa * rot) @ np.array(y))
        for y in anchors
    ]
    alive = np.arange(px.size)
    r2 = (params.kappa * delta) ** 2
    for cx, cy in centers:
        alive = alive[(px[alive] - cx) ** 2 + (py[alive] - cy) ** 2 >= r2]
    return alive.size / px.size


@pytest.mark.parametrize("delta", [1.0, 2.0])
def test_cover_matches_written_out_disk_rule(delta):
    params = ConstructionParams(kappa=0.76, theta_deg=179.0, delta=delta)
    res = build_construction(params, resolution=RES)
    fractions = [reference_uncovered_fraction(params, c, RES) for c in range(1, res.k)]
    # k - 1 anchors is the first count whose images leave nothing uncovered
    assert [f == 0.0 for f in fractions] == [False] * (res.k - 2) + [True]
    with pytest.raises(ConstructionError) as exc:
        build_construction(params, resolution=RES, max_anchors=2)
    assert exc.value.uncovered_fraction == fractions[1]


def test_cover_failure_reports_uncovered():
    params = ConstructionParams(kappa=0.76, theta_deg=179.0, delta=1.0)
    with pytest.raises(ConstructionError) as exc:
        build_construction(params, resolution=RES, max_anchors=2)
    assert exc.value.uncovered_fraction > 0


def test_absorbing_reference(reference):
    chk = check_absorbing(reference.system, reference.absorbing_ball, RES)
    assert chk.absorbed
    assert chk.escape_distance == 0.0


def test_absorbing_single_contraction():
    from ifslab.maps import AffineSimilarity

    sys = SystemSpec((AffineSimilarity(0.76, 179.0, (0.0, 0.0)),))
    chk = check_absorbing(sys, Disk((0.0, 0.0), 3.0), RES)
    assert chk.absorbed


def test_absorbing_fails_for_tiny_ball(reference):
    chk = check_absorbing(reference.system, Disk((0.0, 0.0), 0.1), RES)
    assert not chk.absorbed
    assert chk.escape_distance > 0


@pytest.mark.parametrize(
    "ball, escapes",
    [(Disk((0.0, 0.0), 0.1), True), (Disk((0.3, -0.2), 0.5), True),
     (Disk((1.0, 2.0), 3.0), True), (Disk((0.0, 0.0), 16.0), False)],
    ids=["tiny", "off-center", "far-off-center", "absorbing"],
)
def test_escape_distance_matches_euclidean_norm(reference, ball, escapes, monkeypatch):
    # check_absorbing as written before geometry.point_distance and its blocks
    pts = rasterize_disk(ball_domain(ball, RES), ball).included_points()
    cx, cy = ball.center
    worst = 0.0
    for m in reference.system.maps():
        img = m.eval(pts)
        d = np.sqrt((img[:, 0] - cx) ** 2 + (img[:, 1] - cy) ** 2)
        worst = max(worst, float(d.max()) - ball.radius)
    # 1000 cells make many blocks, 2**14 is the default and 2**30 one block
    for block in (1000, 2**14, 2**30):
        monkeypatch.setattr(geometry, "_BLOCK_CELLS", block)
        got = check_absorbing(reference.system, ball, RES).escape_distance
        assert got == max(worst, 0.0)
        assert (got > 0) == escapes


@pytest.mark.parametrize("verify", [True, False])
def test_circle_arc_ball_raises_validation_error(reference, verify):
    arc = Disk(0.25, 0.1)
    with pytest.raises(ValidationError, match="circle arc"):
        ball_domain(arc, RES)
    with pytest.raises(ValidationError, match="circle arc"):
        check_absorbing(reference.system, arc, RES)
    with pytest.raises(ValidationError, match="circle arc"):
        attractor(reference.system, arc, tol=0.1, resolution=RES, verify_absorbing=verify)


def all_cells_absorbing(sys, ball, res):
    """check_absorbing as every member evaluated at every cell of U."""
    pts = rasterize_disk(ball_domain(ball, res), ball).included_points()
    worst = 0.0
    for m in sys.maps():
        d = geometry.point_distance(sys.kind, m.eval(pts), ball.center)
        worst = max(worst, float(d.max()) - ball.radius)
    return AbsorbingCheck(absorbed=worst == 0.0, escape_distance=worst)


def _random_similarities(rng, count):
    return SystemSpec(tuple(
        AffineSimilarity(rng.uniform(0.1, 1.5), rng.uniform(0.0, 360.0), tuple(rng.uniform(-3, 3, 2)))
        for _ in range(count)
    ))


@pytest.mark.baseline_dispatch
def test_absorbing_matches_all_cells_loop(reference):
    # an affine member is evaluated at U's row ends alone; the verdict and the
    # escape distance are the all-cells loop's, bit for bit
    rng = rng_from(29)
    cases = [(_random_similarities(rng, int(rng.integers(1, 6))),
              Disk(tuple(rng.uniform(-3, 3, 2)), rng.uniform(0.05, 5.0)),
              int(rng.choice([64, 129, 256]))) for _ in range(30)]
    gens = reference.system.generators
    mixed = SystemSpec(gens[:4] + _perturbed(gens[4:], 7))
    one_cell = Disk((0.7, -1.3), 0.9)  # at resolution 55 a grid row of U holds one cell
    u = rasterize_disk(ball_domain(one_cell, 55), one_cell).bitmap
    assert 1 in u.sum(axis=1)
    for sys in (reference.system, mixed, _random_similarities(rng, 3)):
        for ball, res in ((reference.absorbing_ball, 128), (Disk((0.3, -0.2), 0.5), 128),
                          (Disk((1.0, 2.0), 3.0), 96), (one_cell, 55)):
            cases.append((sys, ball, res))
    verdicts = set()
    for sys, ball, res in cases:
        got, want = check_absorbing(sys, ball, res), all_cells_absorbing(sys, ball, res)
        assert (got.absorbed, repr(got.escape_distance)) == (want.absorbed, repr(want.escape_distance))
        verdicts.add(got.absorbed)
    assert verdicts == {True, False}


@pytest.mark.parametrize("family", ["affine", "mixed"])
@pytest.mark.parametrize("ball, res", [(Disk((0.0, 0.0), 16.0), 128), (Disk((0.7, -1.3), 0.9), 55)],
                         ids=["absorbing", "one-cell-row"])
def test_absorbing_evaluates_affine_members_at_row_ends(monkeypatch, family, ball, res):
    # an affine member is evaluated at the first and the last cell of each
    # nonempty grid row of U, a one-cell row's once, and any other member at
    # every cell of U, each once; an all-affine system walks no index of U
    built = build_construction(ConstructionParams(kappa=0.76, theta_deg=179.0), resolution=128)
    gens = built.system.generators
    sys = {"affine": built.system, "mixed": SystemSpec(gens[:4] + _perturbed(gens[4:], 7))}[family]
    dom = ball_domain(ball, res)
    u = rasterize_disk(dom, ball).bitmap
    seen, walks = {id(m): Counter() for m in sys.maps()}, []

    def record(cls):
        fn = cls.eval_cells

        def recorded(self, domain, index):
            if id(self) in seen:  # not a Perturbed member's base
                seen[id(self)].update(np.ravel_multi_index(index, domain.shape).tolist())
            return fn(self, domain, index)

        monkeypatch.setattr(cls, "eval_cells", recorded)

    record(Map)
    record(Perturbed)
    blocks = Domain.blocks

    def walked(self, index=None):
        walks.append(len(index))
        return blocks(self, index)

    monkeypatch.setattr(Domain, "blocks", walked)
    check_absorbing(sys, ball, res)
    rows = np.flatnonzero(u.any(axis=1))
    ends = {int(r) * res + int(j) for r in rows for j in np.flatnonzero(u[r])[[0, -1]]}
    lone = np.count_nonzero(u.sum(axis=1) == 1)
    assert (lone > 0) == (res == 55) and len(ends) == 2 * len(rows) - lone
    for m in sys.maps():
        assert set(seen[id(m)].values()) == {1}
        assert set(seen[id(m)]) == (ends if m.affine else set(np.flatnonzero(u).tolist()))
    assert walks == {"affine": [len(ends)], "mixed": [len(ends), int(u.sum())]}[family]


def test_hutchinson_fixed_point_of_single_map():
    # anchor the contraction exactly at a cell center so its fixed point is
    # a grid point; the single-cell set is then a fixed point of the operator
    from ifslab.geometry import Domain
    from ifslab.maps import AffineSimilarity

    dom = Domain.planar((0.0, 1.0, 0.0, 1.0), 256)
    c = (128 + 0.5) / 256
    single = SystemSpec((AffineSimilarity(0.76, 179.0, (c, c)),))
    bits = np.zeros(dom.shape, bool)
    bits[128, 128] = True
    fixed = GridSet(dom, bits)
    stepped = hutchinson_step(single, fixed)
    assert stepped.equals(fixed)


def _ball_dom(reference, res):
    from ifslab.geometry import ball_domain

    return ball_domain(reference.absorbing_ball, res)


def test_hutchinson_absorbing_subset(reference):
    dom = _ball_dom(reference, RES)
    u = rasterize_disk(dom, reference.absorbing_ball)
    stepped = hutchinson_step(reference.system, u)
    assert stepped.minus(u).is_empty()


def test_hutchinson_volume_bound(reference):
    dom = _ball_dom(reference, RES)
    a = rasterize_disk(dom, Disk((0.0, 0.0), 4.0))
    stepped = hutchinson_step(reference.system, a)
    s = len(reference.system.maps())
    kappa = reference.params.kappa
    ring = 2 * np.pi * 4.0 / dom.cell_sizes[0] * dom.cell_volume
    assert float(stepped.bitmap.mean()) <= s * kappa**2 * float(a.bitmap.mean()) + s * 2 * ring


def test_attractor_single_map_collapses(reference):
    single = SystemSpec((reference.system.generators[0],))
    cell = 2 * reference.absorbing_ball.radius * (1 + 8 / RES) / RES
    res = attractor(single, reference.absorbing_ball, tol=0.25 * cell, resolution=RES, max_iter=400)
    pts = res.attractor.included_points()
    assert len(pts) >= 1
    assert np.sqrt((pts**2).sum(-1)).max() <= 3 * cell


def test_attractor_iteration_count_bound(reference):
    cell = 2 * reference.absorbing_ball.radius * (1 + 8 / RES) / RES
    res = attractor(reference.system, reference.absorbing_ball, tol=cell, resolution=RES)
    u_diam = 2 * reference.absorbing_ball.radius
    bound = int(np.ceil(np.log(cell / u_diam) / np.log(reference.params.kappa))) + 5
    assert res.iterations <= bound


def test_attractor_rejects_a_negative_tolerance(reference):
    with pytest.raises(ValidationError):
        attractor(reference.system, reference.absorbing_ball, tol=-1.0, resolution=64)


@pytest.mark.parametrize("max_iter", [0, -3])
def test_attractor_rejects_no_steps_before_the_absorbing_check(reference, max_iter, monkeypatch):
    import ifslab.construction as construction

    def checked(*args):
        raise AssertionError("the absorbing check ran")

    monkeypatch.setattr(construction, "check_absorbing", checked)
    with pytest.raises(ValidationError, match="max_iter"):
        attractor(reference.system, reference.absorbing_ball, tol=1.0, max_iter=max_iter,
                  resolution=64)


def test_attractor_contains_interior_disk(reference, reference_attractor):
    cell = reference_attractor.attractor.domain.max_cell_size
    probe = rasterize_disk(reference_attractor.attractor.domain, Disk((0.0, 0.0), 4 * cell))
    assert probe.minus(reference_attractor.attractor).is_empty()


def test_attractor_forward_invariant_up_to_one_cell(reference, reference_attractor):
    a = reference_attractor.attractor
    stepped = hutchinson_step(reference.system, a)
    dilated = GridSet(a.domain, ndi.binary_dilation(a.bitmap))
    assert stepped.minus(dilated).is_empty()


def test_attractor_scale_equivariance(reference, reference_attractor):
    params2 = ConstructionParams(kappa=0.76, theta_deg=179.0, delta=2.0)
    res2 = build_construction(params2, resolution=RES)
    cell2 = 2 * res2.absorbing_ball.radius * (1 + 8 / RES) / RES
    attr2 = attractor(res2.system, res2.absorbing_ball, tol=2 * cell2, resolution=RES)
    # doubling delta doubles every coordinate, so the bitmaps agree exactly
    assert np.array_equal(attr2.attractor.bitmap, reference_attractor.attractor.bitmap)


def test_generators_have_complex_eigenvalues_on_attractor(reference, reference_attractor):
    rng = rng_from(31)
    pts = sample_cells(reference_attractor.attractor, 100, rng)
    for g in reference.system.maps():
        assert complex_eigenvalue_check(g, pts)


def test_similarity_diameter_recurrence(reference):
    # for {T} alone the iterate diameters follow kappa^n exactly, up to cells
    single = SystemSpec((reference.system.generators[0],))
    dom = _ball_dom(reference, RES)
    current = rasterize_disk(dom, reference.absorbing_ball)
    kappa = reference.params.kappa
    d0 = diameter(current)
    cell_diag = dom.max_cell_size * np.sqrt(2)
    for n in range(1, 8):
        current = hutchinson_step(single, current)
        assert diameter(current) == pytest.approx(d0 * kappa**n, abs=3 * cell_diag)


def test_construction_report_fields(reference, reference_attractor):
    report = construction_report(reference, reference_attractor)
    assert set(report) == {
        "kappa",
        "theta",
        "delta",
        "k",
        "cover_verified",
        "absorbing_verified",
        "iterations",
        "final_hausdorff",
    }
    assert report["k"] == 8
    assert report["cover_verified"] and report["absorbing_verified"]


def test_attractor_keeps_its_absorbing_check(reference, reference_attractor):
    chk = check_absorbing(reference.system, reference.absorbing_ball, RES)
    assert reference_attractor.absorbing == chk
    assert chk.absorbed


def test_attractor_without_the_absorbing_check_reports_it_unverified(reference):
    attr = attractor(reference.system, reference.absorbing_ball, tol=1.0, resolution=64,
                     verify_absorbing=False)
    assert attr.absorbing is None
    report = construction_report(reference, attr)
    assert report["absorbing_verified"] is False
    assert report["cover_verified"] is True


# -- the restricted step: on a set holding its own image, gathers and scatters
# over the set's cells through its cell maps, against the step that evaluates
# every member


def reference_hutchinson_step(sys, a, within=None):
    """hutchinson_step written out as it ran before cell maps: members with
    closed-form inverses pulled back by ``lookup`` (only the cells of
    ``within``, a set holding the image, when given), every other member
    pushed forward by ``points_to_gridset``."""
    if within is not None and within.domain != a.domain:
        raise ValidationError("within lives on another domain than the set it bounds")
    maps = sys.maps()
    pulled = [m for m in maps if m.closed_form_inverse]
    pushed = [m for m in maps if not m.closed_form_inverse]
    out = np.zeros(a.domain.shape, dtype=bool)
    if pulled:
        if within is None:
            centers, hits = a.domain.cell_centers(), out
        else:
            centers = within.included_points()
            hits = np.zeros(len(centers), dtype=bool)
        for m in pulled:
            hits |= a.lookup(m.inverse().eval(centers))
        if within is not None:
            out[within.bitmap] = hits
    if pushed:
        cells = np.nonzero(a.bitmap)
        for m in pushed:
            out |= points_to_gridset(a.domain, m.eval_cells(a.domain, cells)).bitmap
    return GridSet(a.domain, out)


def reference_iterates(sys, current, tol, max_iter):
    """attractor's loop as it ran before cell maps, from any start set: every
    step evaluates every member, and once an iterate lies inside the one
    before it, each step pulls back only the current iterate's cells.
    Returns (iterate, iterations, last distance, whether it ever nested)."""
    nested = False
    for it in range(1, max_iter + 1):
        stepped = reference_hutchinson_step(sys, current, within=current if nested else None)
        nested = nested or stepped.minus(current).is_empty()
        last = hausdorff_distance(stepped, current)
        current = stepped
        if last <= tol:
            return current, it, last, nested
    raise AssertionError("the reference loop did not stabilize")


def _perturbed(gens, seed):
    return tuple(Perturbed(g, 0.01, seed + i) for i, g in enumerate(gens))


@pytest.mark.baseline_dispatch
@pytest.mark.parametrize("family", ["affine", "mixed", "perturbed"])
def test_attractor_matches_per_step_loop(family):
    res = 128
    built = build_construction(ConstructionParams(kappa=0.76, theta_deg=179.0), resolution=res)
    gens, ball = built.system.generators, built.absorbing_ball
    sys = {
        "affine": built.system,
        # the pinned mixed family, and every member perturbed as in the probes benchmark
        "mixed": SystemSpec(gens[:4] + _perturbed(gens[4:], 7)),
        "perturbed": SystemSpec(_perturbed(gens, 8)),
    }[family]
    tol = 2 * ball_domain(ball, res).cell_sizes[0]
    got = attractor(sys, ball, tol=tol, resolution=res, verify_absorbing=False)
    start = rasterize_disk(ball_domain(ball, res), ball)
    want, iterations, last, nested = reference_iterates(sys, start, tol, 200)
    assert nested and got.attractor.equals(want)
    assert (got.iterations, repr(got.final_hausdorff)) == (iterations, repr(last))


@pytest.mark.baseline_dispatch
def test_attractor_that_never_nests_builds_no_cell_maps(monkeypatch):
    # a half turn about a point off U's center moves every image across the
    # one before it, so no iterate lies inside its predecessor
    import ifslab.construction as construction

    step, calls = construction.hutchinson_step, []

    def uncached(sys, a, *, cell_maps=None):
        stepped = step(sys, a, cell_maps=cell_maps)
        assert cell_maps == [], "cell maps kept for an iterate that does not nest"
        calls.append(a)
        return stepped

    def unexpected(*args):
        raise AssertionError("a cached step for iterates that never nest")

    monkeypatch.setattr(construction, "hutchinson_step", uncached)
    monkeypatch.setattr(construction, "_cached_step", unexpected)
    res, ball = 256, Disk((0.0, 0.0), 16.0)
    sys = SystemSpec((AffineSimilarity(0.9, 180.0, (3.2, 0.0)),))
    tol = 2 * ball_domain(ball, res).cell_sizes[0]
    got = attractor(sys, ball, tol=tol, resolution=res, verify_absorbing=False)
    start = rasterize_disk(ball_domain(ball, res), ball)
    want, iterations, last, nested = reference_iterates(sys, start, tol, 200)
    assert not nested and got.attractor.equals(want)
    assert (got.iterations, repr(got.final_hausdorff)) == (iterations, repr(last))
    assert len(calls) == iterations


def exact_distance_iterates(sys, ball, res, tol, max_iter):
    """attractor's loop with the public step and the exact Hausdorff
    distance at every step: (iterate or None at max_iter, iterations, last
    distance)."""
    current = rasterize_disk(ball_domain(ball, res), ball)
    last = np.inf
    for it in range(1, max_iter + 1):
        stepped = hutchinson_step(sys, current)
        last = hausdorff_distance(stepped, current)
        if last <= tol:
            return stepped, it, last
        current = stepped
    return None, max_iter, last


@pytest.mark.baseline_dispatch
@pytest.mark.parametrize("tol_cells", [0.0, 0.25, 1.0, 2.0, 8.0, np.inf])
@pytest.mark.parametrize("family", ["affine", "never-nests"])
def test_attractor_matches_exact_distance_loop(family, tol_cells):
    res = 96
    if family == "affine":
        built = build_construction(ConstructionParams(kappa=0.76, theta_deg=179.0), resolution=res)
        sys, ball = built.system, built.absorbing_ball
    else:
        # the half turn of test_attractor_that_never_nests_builds_no_cell_maps
        sys, ball = SystemSpec((AffineSimilarity(0.9, 180.0, (3.2, 0.0)),)), Disk((0.0, 0.0), 16.0)
    tol = tol_cells * ball_domain(ball, res).cell_sizes[0]
    for max_iter in (40, 3):
        want, iterations, last = exact_distance_iterates(sys, ball, res, tol, max_iter)
        if want is None:
            with pytest.raises(ConvergenceError) as err:
                attractor(sys, ball, tol=tol, max_iter=max_iter, resolution=res,
                          verify_absorbing=False)
            assert repr(err.value.last_distance) == repr(last)
            assert str(err.value) == (f"attractor iteration did not stabilize in {max_iter} "
                                      f"steps (last distance {last:.4g})")
            continue
        got = attractor(sys, ball, tol=tol, max_iter=max_iter, resolution=res,
                        verify_absorbing=False)
        assert got.attractor.equals(want)
        assert (got.iterations, repr(got.final_hausdorff)) == (iterations, repr(last))


def written_out_cell_maps(sys, a):
    """Each member's int32 cell map at A's cells in flat order, by
    ``Map.cell_map`` (a closed-form member's inverse's): the maps a cached
    step of A runs through."""
    index = np.flatnonzero(a.bitmap)
    return [(m.inverse() if m.closed_form_inverse else m).cell_map(a.domain, index)
            for m in sys.maps()]


def _assert_same_maps(got, want):
    assert len(got) == len(want)
    assert all(g.dtype == np.int32 and np.array_equal(g, w) for g, w in zip(got, want))


def _assert_maps_within(got, want, a):
    """The maps an uncached step of A keeps, against the written-out ``want``:
    equal wherever the kept entry is not -1, and a kept -1 only where the
    written-out entry is -1 or a cell outside A's bounding box, which no image
    box reaches (a later iterate lies in A, so it reads such a cell as outside)."""
    assert len(got) == len(want)
    axes = range(a.bitmap.ndim)
    spans = [np.flatnonzero(a.bitmap.any(axis=tuple(k for k in axes if k != j))) for j in axes]
    for g, w in zip(got, want):
        assert g.dtype == np.int32 and g.shape == w.shape
        assert np.array_equal(g[g != -1], w[g != -1])
        dropped = w[(g == -1) & (w != -1)]
        if dropped.size and spans[0].size:
            cells = np.unravel_index(dropped, a.domain.shape)
            in_box = np.logical_and.reduce([(c >= s[0]) & (c <= s[-1]) for s, c in zip(spans, cells)])
            assert not in_box.any()


def _cut(cells, keep):
    """The maps a cached step leaves, cut to its result's cells by the mask
    it returns, as the next cached step cuts them."""
    return cells if keep is None else [c[keep] for c in cells]


def _held(a):
    """A as attractor holds it once the iterates nest: its int32 flat index
    and its chart bitmap with the spare slot last."""
    return np.flatnonzero(a.bitmap).astype(np.int32), np.append(a.bitmap.ravel(), False)


def _check_cached_result(a, index, bits, got):
    """What a cached step of A (held as ``index``, the bitmap ``bits`` after
    the step) returned: the result as a set and its mask among A's cells.
    The step left its result in ``bits`` with the spare slot clear, returned
    the result's index and the removed cells, which split A's index, and the
    removed cells' distance to the result is the Hausdorff distance."""
    new, removed, keep = got
    assert not bits[-1]
    stepped = GridSet(a.domain, bits[:-1].reshape(a.domain.shape).copy())
    assert new.dtype == np.int32 and np.array_equal(new, np.flatnonzero(stepped.bitmap))
    assert np.array_equal(removed, np.flatnonzero(a.minus(stepped).bitmap))
    assert np.array_equal(keep, stepped.bitmap.ravel()[index])
    if new.size:
        assert directed_distance(removed, stepped) == hausdorff_distance(stepped, a)
    return stepped, keep


def _cached(sys, a, cells, keep=None):
    """:func:`_cached_step` of A held as attractor holds it, checked by
    :func:`_check_cached_result`: the result as a set and its mask."""
    index, bits = _held(a)
    return _check_cached_result(a, index, bits, _cached_step(sys, index, bits, cells, keep))


@pytest.mark.baseline_dispatch
def test_cached_steps_match_per_step_loop_on_circle_pair():
    # attractor takes a planar ball, so the circle pair's steps are chained
    # here as attractor chains them; the iterates nest once they fill the circle
    sys = SystemSpec((CircleNorthSouth(0.7, 0.1), CircleRotation(0.381966)))
    dom = Domain.circle(4096)
    a = ref = rasterize_disk(dom, Disk(0.1, 0.05))
    cells, keep, within = [], None, None
    for _ in range(12):
        # both steps leave in cells the maps at their result's cells, if it
        # nests; a cached step leaves them to be cut by the mask it returns
        if cells:
            stepped, keep = _cached(sys, a, cells, keep)
        else:
            stepped = hutchinson_step(sys, a, cell_maps=cells)
        ref_stepped = reference_hutchinson_step(sys, ref, within)
        assert stepped.equals(ref_stepped)
        assert hausdorff_distance(stepped, a) == hausdorff_distance(ref_stepped, ref)
        if cells:
            _assert_same_maps(_cut(cells, keep), written_out_cell_maps(sys, stepped))
        if within is not None or ref_stepped.minus(ref).is_empty():
            within = ref_stepped
        a, ref = stepped, ref_stepped
    assert cells


@pytest.mark.baseline_dispatch
@pytest.mark.parametrize("family", ["affine", "mixed", "perturbed"])
def test_attractor_steps_each_iterate_through_its_own_cell_maps(monkeypatch, family):
    # every step attractor takes, uncached or cached, equals the reference
    # step of its iterate, and each cached step runs on that iterate's maps
    import ifslab.construction as construction

    uncached, cached, steps = construction.hutchinson_step, construction._cached_step, []
    held = []  # the list of maps the attractor hands its cached steps

    def checked_uncached(sys, a, *, cell_maps=None):
        stepped = uncached(sys, a, cell_maps=cell_maps)
        if cell_maps:
            _assert_maps_within(cell_maps, written_out_cell_maps(sys, stepped), a)
        steps.append(("uncached", a, stepped))
        return stepped

    def checked_cached(sys, index, bits, cells, keep):
        # A is the index and the bitmap the attractor holds, which the step clears
        a = GridSet(steps[-1][2].domain, bits[:-1].reshape(steps[-1][2].domain.shape).copy())
        assert np.array_equal(index, np.flatnonzero(a.bitmap)) and index.dtype == np.int32
        want = [c.copy() for c in _cut(cells, keep)]
        _assert_maps_within(want, written_out_cell_maps(sys, a), a)
        got = cached(sys, index, bits, cells, keep)
        stepped, kept = _check_cached_result(a, index, bits, got)
        _assert_same_maps(cells, want)  # cut to A first
        _assert_maps_within(_cut(cells, kept), written_out_cell_maps(sys, stepped), stepped)
        steps.append(("cached", a, stepped))
        held[:] = [cells]
        return got

    monkeypatch.setattr(construction, "hutchinson_step", checked_uncached)
    monkeypatch.setattr(construction, "_cached_step", checked_cached)
    res = 128
    built = build_construction(ConstructionParams(kappa=0.76, theta_deg=179.0), resolution=res)
    gens = built.system.generators
    sys = {
        "affine": built.system,
        "mixed": SystemSpec(gens[:4] + _perturbed(gens[4:], 7)),
        "perturbed": SystemSpec(_perturbed(gens, 8)),
    }[family]
    ball = built.absorbing_ball
    tol = 2 * ball_domain(ball, res).cell_sizes[0]
    got = attractor(sys, ball, tol=tol, resolution=res, verify_absorbing=False)
    kinds = [kind for kind, _, _ in steps]
    assert kinds == ["uncached"] + ["cached"] * (len(kinds) - 1)
    assert len(steps) == got.iterations > 2
    assert got.attractor.equals(steps[-1][2])
    for i, (_, a, stepped) in enumerate(steps):
        assert i == 0 or a.equals(steps[i - 1][2])
        assert stepped.equals(reference_hutchinson_step(sys, a))
    # no cut follows the last step: its maps are left at its own A's cells
    _assert_maps_within(held[0], written_out_cell_maps(sys, steps[-1][1]), steps[-1][1])


@pytest.mark.baseline_dispatch
@pytest.mark.parametrize("family", ["affine", "mixed", "perturbed"])
def test_nested_steps_make_no_whole_chart_set_operation(monkeypatch, family):
    # once the iterates nest, a step and its stop test work on A's cells and
    # the cells the step removes: no set difference, count or two-way distance
    import ifslab.construction as construction

    calls, after, cached = Counter(), Counter(), construction._cached_step

    def counted(name, fn):
        def inner(*args, **kwargs):
            (after if calls["cached"] else calls)[name] += 1
            return fn(*args, **kwargs)
        return inner

    monkeypatch.setattr(construction, "_cached_step", counted("cached", cached))
    monkeypatch.setattr(GridSet, "minus", counted("minus", GridSet.minus))
    monkeypatch.setattr(GridSet, "count", counted("count", GridSet.count))
    monkeypatch.setattr(geometry, "hausdorff_distance", counted("hausdorff", hausdorff_distance))
    res = 128
    built = build_construction(ConstructionParams(kappa=0.76, theta_deg=179.0), resolution=res)
    gens, ball = built.system.generators, built.absorbing_ball
    sys = {
        "affine": built.system,
        "mixed": SystemSpec(gens[:4] + _perturbed(gens[4:], 7)),
        "perturbed": SystemSpec(_perturbed(gens, 8)),
    }[family]
    calls.clear()
    got = attractor(sys, ball, tol=2 * ball_domain(ball, res).cell_sizes[0], resolution=res,
                    verify_absorbing=False)
    # the first step nests, and its distance is the one two-way distance
    assert calls["cached"] == 1 and calls["hausdorff"] == 1
    assert after == Counter(cached=got.iterations - 2) and got.iterations > 2


def test_nested_step_that_empties_a_raises_the_distance_error(monkeypatch):
    # one tiny contraction about a point off a cell center: its image of U
    # holds the one cell whose center lies near that point, and the image of
    # that cell holds no cell center
    import ifslab.construction as construction

    cached, calls = construction._cached_step, []
    monkeypatch.setattr(construction, "_cached_step", lambda *args: calls.append(1) or cached(*args))
    res, ball = 128, Disk((0.0, 0.0), 16.0)
    dom = ball_domain(ball, res)
    (xs, ys), h = dom.axis_centers(), dom.cell_sizes[0]
    sys = SystemSpec((AffineSimilarity(0.00625, 0.0, (float(xs[70]) + 0.3 * h, float(ys[50]))),))
    assert hutchinson_step(sys, rasterize_disk(dom, ball)).count() == 1
    with pytest.raises(EmptySetError, match="^hausdorff distance needs nonempty sets$"):
        attractor(sys, ball, tol=0.0, resolution=res, verify_absorbing=False)
    assert calls == [1]


def written_out_image_box(m, a):
    """The flat cells of an affine member's image box: the cells whose index
    lies within one of the bounding box of m's image of A's cell bounding
    box, on each axis, clipped to the chart."""
    dom = a.domain
    lows, sizes = np.array(dom.bounds[::2]), np.array(dom.cell_sizes)
    ix, iy = np.nonzero(a.bitmap)
    corners = [lows + sizes * (i, j) for i in (ix.min(), ix.max() + 1) for j in (iy.min(), iy.max() + 1)]
    image = m.eval(np.array(corners))
    lo = np.floor((image.min(axis=0) - lows) / sizes).astype(int) - 1
    hi = np.floor((image.max(axis=0) - lows) / sizes).astype(int) + 1
    box = np.zeros(dom.shape, bool)
    box[max(lo[0], 0):hi[0] + 1, max(lo[1], 0):hi[1] + 1] = True
    return set(np.flatnonzero(box).tolist())


@pytest.mark.parametrize("family", ["affine", "perturbed"])
def test_attractor_evaluates_each_member_once_per_cell(monkeypatch, family):
    # a closed-form member's inverse is evaluated once on each cell of its
    # image box (and the member at the box's four corners), a pushed member
    # once on every cell of U, all in the first step only
    import ifslab.construction as construction

    points, seen = Counter(), {}

    def count(cls, name, size):
        fn = getattr(cls, name)

        def counted(self, *args):
            points[f"{cls.__name__}.{name}"] += size(*args)
            return fn(self, *args)

        monkeypatch.setattr(cls, name, counted)

    count(AffineSimilarity, "eval", len)
    count(Perturbed, "eval", len)
    count(Perturbed, "eval_cells", lambda domain, index: len(index[0]))
    count(Domain, "point_cells", len)
    eval_cells = Map.eval_cells

    def recorded(self, domain, index):
        if isinstance(self, AffineSimilarity):
            seen.setdefault(self, Counter()).update(np.ravel_multi_index(index, domain.shape).tolist())
        return eval_cells(self, domain, index)

    monkeypatch.setattr(Map, "eval_cells", recorded)
    step, after_first = construction.hutchinson_step, []

    def first(sys, a, *, cell_maps=None):
        stepped = step(sys, a, cell_maps=cell_maps)
        after_first.append(dict(points))
        return stepped

    monkeypatch.setattr(construction, "hutchinson_step", first)
    res = 128
    built = build_construction(ConstructionParams(kappa=0.76, theta_deg=179.0), resolution=res)
    gens = built.system.generators
    sys = {"affine": built.system, "perturbed": SystemSpec(_perturbed(gens, 8))}[family]
    ball, k = built.absorbing_ball, len(gens)
    start = rasterize_disk(ball_domain(ball, res), ball)
    u = start.count()
    boxes = {m.inverse(): written_out_image_box(m, start) for m in gens}
    tol = 2 * ball_domain(ball, res).cell_sizes[0]
    points.clear()
    got = attractor(sys, ball, tol=tol, resolution=res, verify_absorbing=False)
    if family == "affine":
        cells = sum(map(len, boxes.values()))
        assert all(len(box) < res * res for box in boxes.values())  # the boxes skip cells
        assert {inv: set(c) for inv, c in seen.items()} == boxes
        assert all(set(c.values()) == {1} for c in seen.values())
        want = {"AffineSimilarity.eval": cells + 4 * k, "Domain.point_cells": cells}
    else:
        want = {"AffineSimilarity.eval": k * u, "Domain.point_cells": k * u,
                "Perturbed.eval_cells": k * u}
    assert got.iterations > 2 and after_first == [want] and dict(points) == want


def _blob(dom, rng, density):
    return GridSet(dom, rng.random(dom.shape) < density)


def _closure(sys, a):
    """The least set holding A and its own image: A joined with its image
    until it stops growing."""
    while not (grown := a.union(hutchinson_step(sys, a))).equals(a):
        a = grown
    return a


def _check_restricted_step(sys, a):
    """On a set holding its own image, the step through the set's cell maps
    equals both the uncached step and the reference step, and the uncached
    step keeps the maps of its result, which also holds its own image."""
    full = hutchinson_step(sys, a)
    assert full.minus(a).is_empty()
    assert full.equals(reference_hutchinson_step(sys, a))
    assert reference_hutchinson_step(sys, a, a).equals(full)
    cells = written_out_cell_maps(sys, a)
    stepped, keep = _cached(sys, a, cells)
    assert stepped.equals(full)
    _assert_same_maps(_cut(cells, keep), written_out_cell_maps(sys, full))
    kept = []
    assert hutchinson_step(sys, a, cell_maps=kept).equals(full)
    _assert_maps_within(kept, written_out_cell_maps(sys, full), a)
    assert _cached(sys, full, kept)[0].equals(hutchinson_step(sys, full))
    # a mask of the step before cuts the maps first
    assert _cached(sys, full, cells, keep)[0].equals(hutchinson_step(sys, full))
    _assert_same_maps(cells, written_out_cell_maps(sys, full))


@pytest.mark.baseline_dispatch
def test_restricted_step_planar_affine(reference):
    dom = _ball_dom(reference, 128)
    sys, rng = reference.system, rng_from(41)
    u = rasterize_disk(dom, reference.absorbing_ball)
    for a in (u, hutchinson_step(sys, u), _closure(sys, _blob(dom, rng, 0.02)),
              full_set(dom), GridSet(dom, np.zeros(dom.shape, bool))):
        _check_restricted_step(sys, a)


@pytest.mark.baseline_dispatch
def test_restricted_step_mixed_affine_and_perturbed(reference):
    gens = reference.system.generators
    mixed = SystemSpec(gens[:3] + tuple(Perturbed(g, 0.01, 50 + i) for i, g in enumerate(gens[3:])))
    dom = _ball_dom(reference, 128)
    rng = rng_from(43)
    u = rasterize_disk(dom, reference.absorbing_ball)
    for a in (u, hutchinson_step(mixed, u), _closure(mixed, _blob(dom, rng, 0.02))):
        _check_restricted_step(mixed, a)
    # the whole chart holds any image; a pushed member about a point off the
    # chart maps part of it off, which marks the spare slot the step clears
    off = Perturbed(AffineSimilarity(0.5, 0.0, (3 * dom.bounds[1], 0.0)), 0.01, 5)
    _check_restricted_step(SystemSpec((gens[0], off)), full_set(dom))


@pytest.mark.baseline_dispatch
def test_restricted_step_circle_north_south_and_rotation():
    sys = SystemSpec((CircleNorthSouth(0.7, 0.1), CircleRotation(0.381966)))
    dom = Domain.circle(4096)
    # the rotation's orbits fill the circle, so no other set holds its own image
    for a in (full_set(dom), GridSet(dom, np.zeros(dom.shape, bool))):
        _check_restricted_step(sys, a)


def _random_step_cases(rng, res):
    """(system, set) pairs on a random planar chart: random similarities,
    some expanding and some whose image boxes clip at or miss the chart, on
    random blobs, the empty set, one cell, a chart corner, the full chart and
    the least set holding a blob and its own image."""
    x0, y0 = rng.uniform(-3, 3, 2)
    dom = Domain.planar((x0, x0 + rng.uniform(1, 4), y0, y0 + rng.uniform(1, 4)), res)
    (xmin, xmax, ymin, ymax), (nx, ny) = dom.bounds, dom.shape

    def member(scale, anchor):
        return AffineSimilarity(scale, rng.uniform(0.0, 360.0), tuple(anchor))

    def on_chart():
        return rng.uniform((xmin, ymin), (xmax, ymax))

    systems = [
        _random_similarities(rng, int(rng.integers(1, 5))),
        SystemSpec((member(1.7, on_chart()), member(0.6, on_chart()))),  # an expanding member
        # contractions about points on an edge, at a corner and far off the chart
        SystemSpec((member(0.5, (xmin, on_chart()[1])), member(0.8, (xmax, ymax)),
                    member(0.4, (xmax + 50.0, ymin - 50.0)))),
        # a scale whose image of A's box overflows: the box is the whole chart
        SystemSpec((member(1e308, (0.0, 0.0)),)),
    ]
    affine = SystemSpec(tuple(member(rng.uniform(0.3, 0.9), on_chart()) for _ in range(4)))
    systems.append(SystemSpec(affine.generators[:2] + _perturbed(affine.generators[2:], 60)))
    one, corner = np.zeros(dom.shape, bool), np.zeros(dom.shape, bool)
    one[rng.integers(nx), rng.integers(ny)] = True
    corner[-3:, :4] = True
    sets = [_blob(dom, rng, 0.3), _blob(dom, rng, 0.002), GridSet(dom, np.zeros(dom.shape, bool)),
            GridSet(dom, one), GridSet(dom, corner), full_set(dom)]
    # contractions of unlike scales about the center of a disk, which holds its
    # image: the larger image's cells pull back through the smaller member to
    # chart cells outside the disk's box, which that member's image box skips
    center = ((xmin + xmax) / 2, (ymin + ymax) / 2)
    disk = rasterize_disk(dom, Disk(center, 0.2 * min(xmax - xmin, ymax - ymin)))
    nested = (SystemSpec((member(0.3, center), member(0.9, center))), disk)
    return [(sys, a) for sys in systems for a in sets + [_closure(sys, sets[1])]] + [nested]


@pytest.mark.baseline_dispatch
@pytest.mark.parametrize("res", [64, 128, 257])
def test_step_matches_reference_on_random_affine_systems(res):
    # an affine member is pulled back over its image box only; the step is
    # the reference step bit for bit, and the maps it keeps hold the contract
    rng = rng_from(71 + res)
    for sys, a in _random_step_cases(rng, res):
        want = reference_hutchinson_step(sys, a)
        assert hutchinson_step(sys, a).equals(want)
        kept = []
        assert hutchinson_step(sys, a, cell_maps=kept).equals(want)
        if want.minus(a).is_empty():
            _assert_maps_within(kept, written_out_cell_maps(sys, want), a)
        else:
            assert kept == []


@pytest.mark.baseline_dispatch
@pytest.mark.parametrize("res", [64, 128, 257])
def test_step_matches_reference_at_huge_scales(res):
    # at a scale of 1e12 or more, rounding moves a pull-back by many cells of
    # the image: an image box whose edge, the image of an edge of A's box
    # just off the anchor, falls on the chart is widened by that much
    rng = rng_from(97 + res)
    for _ in range(150):
        x0, y0 = rng.uniform(-1, 1, 2) * 10 ** rng.uniform(0, 3)
        width = rng.uniform(1, 4)
        dom = Domain.planar((x0, x0 + width, y0, y0 + width), res)
        h = width / res
        bits = np.zeros(dom.shape, bool)
        (i, j), (di, dj) = rng.integers(0, res - 4, 2), rng.integers(1, 4, 2)
        bits[i:i + di, j:j + dj] = True
        scale = 10 ** rng.uniform(12, 16)
        # an axis-aligned rotation keeps the image's edge near the anchor straight
        off = rng.choice([-1, 1], 2) * 10 ** rng.uniform(-3, 1, 2) * width / scale
        anchor = (x0 + h * (i + di * rng.integers(2)) + off[0],
                  y0 + h * (j + dj * rng.integers(2)) + off[1])
        sys = SystemSpec((AffineSimilarity(scale, float(rng.choice([0, 90, 180, 270])), anchor),))
        a = GridSet(dom, bits)
        assert hutchinson_step(sys, a).equals(reference_hutchinson_step(sys, a))


def test_step_rejects_maps_of_the_other_chart_kind_on_any_set(reference):
    # the chart check comes before an image box, even for an empty set, and a
    # perturbed planar member on the circle fails it as an affine one does
    gens = reference.system.generators
    for sys in (reference.system, SystemSpec(_perturbed(gens, 8)),
                SystemSpec(gens[:4] + _perturbed(gens[4:], 7))):
        for bits in (np.zeros(64, bool), np.ones(64, bool)):
            with pytest.raises(DimensionError):
                hutchinson_step(sys, GridSet(Domain.circle(64), bits), cell_maps=[])


def test_step_rejects_maps_of_the_other_chart_kind(reference):
    circle_sys = SystemSpec((CircleRotation(1 / 3),))
    planar = full_set(Domain.planar((0, 1, 0, 1), 64))
    circle = full_set(Domain.circle(64))
    for sys, a in ((circle_sys, planar), (reference.system, circle)):
        with pytest.raises(DimensionError):
            hutchinson_step(sys, a)
        with pytest.raises(DimensionError):
            hutchinson_step(sys, a, cell_maps=[])
    with pytest.raises(DimensionError):
        check_absorbing(circle_sys, Disk((0.0, 0.0), 1.0), 64)


# Recorded at the commit before attractor restricted its steps to the current
# iterate: SHA-256 of the bitmap bytes, iterations and repr(final_hausdorff).
@pytest.mark.parametrize(
    "family, digest, iterations",
    [
        ("reference", "8e702a2a80b1c6940b6a5bc8304ecf37219d3d04879775c2b67e78dbc7f94105", 19),
        ("mixed", "3d4f638e1fd608d3e818697f41b3ab61de5184c208cb89e1b3e7326ccb2b87d1", 17),
    ],
)
def test_attractor_pinned(family, digest, iterations):
    import hashlib

    from ifslab.geometry import ball_domain
    from ifslab.maps import Perturbed

    res = 256
    built = build_construction(ConstructionParams(kappa=0.76, theta_deg=179.0), resolution=res)
    sys = built.system
    if family == "mixed":
        gens = sys.generators
        sys = SystemSpec(gens[:4] + tuple(Perturbed(g, 0.01, 7 + i) for i, g in enumerate(gens[4:])))
    ball = built.absorbing_ball
    cell = ball_domain(ball, res).cell_sizes[0]
    result = attractor(sys, ball, tol=cell, resolution=res)
    assert hashlib.sha256(result.attractor.bitmap.tobytes()).hexdigest() == digest
    assert result.iterations == iterations
    assert repr(result.final_hausdorff) == "0.12890625"
