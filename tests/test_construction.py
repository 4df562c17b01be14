import numpy as np
import pytest
import scipy.ndimage as ndi

from ifslab import geometry
from ifslab.construction import (
    ConstructionParams,
    attractor,
    _cell_maps,
    _step,
    build_construction,
    check_absorbing,
    construction_report,
    hutchinson_step,
)
from ifslab.errors import ConstructionError, ConvergenceError, DimensionError, ValidationError
from ifslab.geometry import (
    Disk,
    Domain,
    GridSet,
    ball_domain,
    diameter,
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
    assert reference.cover_verified
    assert reference.k == 8
    assert reference.uncovered_fraction == 0.0


def test_larger_kappa_needs_fewer_anchors(reference):
    res = build_construction(ConstructionParams(kappa=0.999), resolution=RES)
    assert res.cover_verified
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
    assert res.uncovered_fraction == fractions[-1]
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
    chk = check_absorbing(reference.system, reference.absorbing_ball, RES)
    report = construction_report(reference, chk, reference_attractor)
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

    def unexpected(*args):
        raise AssertionError("cell maps built for iterates that never nest")

    monkeypatch.setattr(construction, "_cell_maps", unexpected)
    res, ball = 256, Disk((0.0, 0.0), 16.0)
    sys = SystemSpec((AffineSimilarity(0.9, 180.0, (3.2, 0.0)),))
    tol = 2 * ball_domain(ball, res).cell_sizes[0]
    got = attractor(sys, ball, tol=tol, resolution=res, verify_absorbing=False)
    start = rasterize_disk(ball_domain(ball, res), ball)
    want, iterations, last, nested = reference_iterates(sys, start, tol, 200)
    assert not nested and got.attractor.equals(want)
    assert (got.iterations, repr(got.final_hausdorff)) == (iterations, repr(last))


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


@pytest.mark.baseline_dispatch
def test_cached_steps_match_per_step_loop_on_circle_pair():
    # attractor takes a planar ball, so the circle pair's steps are chained
    # here as attractor chains them; the iterates nest once they fill the circle
    sys = SystemSpec((CircleNorthSouth(0.7, 0.1), CircleRotation(0.381966)))
    dom = Domain.circle(4096)
    a = ref = rasterize_disk(dom, Disk(0.1, 0.05))
    cells = within = None
    for _ in range(12):
        stepped = _step(sys, a, cells)
        ref_stepped = reference_hutchinson_step(sys, ref, within)
        assert stepped.equals(ref_stepped)
        assert hausdorff_distance(stepped, a) == hausdorff_distance(ref_stepped, ref)
        if cells is not None or stepped.minus(a).is_empty():
            cells = _cell_maps(sys, stepped)
        if within is not None or ref_stepped.minus(ref).is_empty():
            within = ref_stepped
        a, ref = stepped, ref_stepped
    assert cells is not None


@pytest.mark.baseline_dispatch
@pytest.mark.parametrize("family", ["affine", "perturbed"])
def test_attractor_steps_each_iterate_through_its_own_cell_maps(monkeypatch, family):
    import ifslab.construction as construction

    step, stepped_cached = construction._step, []

    def checked(sys, a, cells):
        if cells is not None:
            want = _cell_maps(sys, a)
            assert len(cells) == len(want)
            assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(cells, want))
            stepped_cached.append(a)
        return step(sys, a, cells)

    monkeypatch.setattr(construction, "_step", checked)
    res = 128
    built = build_construction(ConstructionParams(kappa=0.76, theta_deg=179.0), resolution=res)
    sys = {"affine": built.system, "perturbed": SystemSpec(_perturbed(built.system.generators, 8))}[family]
    ball = built.absorbing_ball
    tol = 2 * ball_domain(ball, res).cell_sizes[0]
    attractor(sys, ball, tol=tol, resolution=res, verify_absorbing=False)
    assert stepped_cached


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
    equals both the uncached step and the reference step."""
    full = hutchinson_step(sys, a)
    assert full.minus(a).is_empty()
    assert full.equals(reference_hutchinson_step(sys, a))
    assert reference_hutchinson_step(sys, a, a).equals(full)
    assert _step(sys, a, _cell_maps(sys, a)).equals(full)


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


@pytest.mark.baseline_dispatch
def test_restricted_step_circle_north_south_and_rotation():
    sys = SystemSpec((CircleNorthSouth(0.7, 0.1), CircleRotation(0.381966)))
    dom = Domain.circle(4096)
    # the rotation's orbits fill the circle, so no other set holds its own image
    for a in (full_set(dom), GridSet(dom, np.zeros(dom.shape, bool))):
        _check_restricted_step(sys, a)


def test_step_rejects_maps_of_the_other_chart_kind(reference):
    circle_sys = SystemSpec((CircleRotation(1 / 3),))
    planar = full_set(Domain.planar((0, 1, 0, 1), 64))
    circle = full_set(Domain.circle(64))
    for sys, a in ((circle_sys, planar), (reference.system, circle)):
        with pytest.raises(DimensionError):
            hutchinson_step(sys, a)
        with pytest.raises(DimensionError):
            _cell_maps(sys, a)


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
