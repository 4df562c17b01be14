import math

import numpy as np
import pytest

from ifslab import analysis, geometry
from ifslab.analysis import (
    CANDIDATE_FOUND,
    EPS_DENSE,
    NO_CANDIDATE,
    NOT_EPS_DENSE,
    UNRESOLVED,
    contraction_factor,
    distortion_bound,
    distortion_report,
    empirical_distortion,
    ergodicity_probe,
    holder_constant,
    invariance_defect,
    minimality_test,
    shrink_time,
)
from ifslab.construction import ConstructionParams, attractor, build_construction
from ifslab.errors import (
    BudgetExceededError,
    DimensionError,
    DomainError,
    HorizonError,
    NonFiniteError,
    NotAContractionError,
    ProbeError,
    ResolutionError,
    ValidationError,
)
from ifslab.geometry import (
    Disk,
    Domain,
    GridSet,
    ball_domain,
    full_set,
    nearest_point_distances,
    rasterize_disk,
    sample_cells,
)
from ifslab.maps import (
    AffineSimilarity,
    CircleNorthSouth,
    CircleRotation,
    Perturbed,
    SystemSpec,
    Word,
    parse_system,
)
from ifslab.seeding import rng_from, spawn_rngs

GOLD = (math.sqrt(5.0) - 1.0) / 2.0
RES = 512


@pytest.fixture(scope="module")
def reference():
    return build_construction(ConstructionParams(kappa=0.76), resolution=RES)


@pytest.fixture(scope="module")
def reference_attractor(reference):
    # 1-cell tolerance keeps the rasterized set tight against the true
    # attractor, which the restricted minimality check needs
    cell = 2 * reference.absorbing_ball.radius * (1 + 8 / RES) / RES
    return attractor(
        reference.system, reference.absorbing_ball, tol=cell, resolution=RES
    ).attractor


@pytest.fixture
def circle_region():
    return full_set(Domain.circle(1024))


# -- minimality --------------------------------------------------------------


def test_minimality_golden_rotation(circle_region):
    sys = SystemSpec((CircleRotation(GOLD),))
    rep = minimality_test(sys, circle_region, 0.02, 200, 10, seed=1)
    assert rep.verdict == EPS_DENSE
    assert rep.uncovered_fraction == 0.0


def test_minimality_rational_rotation_fails(circle_region):
    sys = SystemSpec((CircleRotation(1.0 / 3.0),))
    rep = minimality_test(sys, circle_region, 0.05, 200, 10, seed=1)
    assert rep.verdict == NOT_EPS_DENSE
    assert rep.uncovered_fraction > 0.5


def test_minimality_monotone_in_epsilon(circle_region):
    sys = SystemSpec((CircleRotation(1.0 / 3.0),))
    small = minimality_test(sys, circle_region, 0.05, 50, 6, seed=2)
    large = minimality_test(sys, circle_region, 0.2, 50, 6, seed=2)
    assert small.verdict == NOT_EPS_DENSE
    assert large.verdict == EPS_DENSE
    assert large.uncovered_fraction <= small.uncovered_fraction


def test_minimality_reference_family_on_attractor(reference, reference_attractor):
    from ifslab.geometry import diameter

    eps = 0.02 * diameter(reference_attractor)
    rep = minimality_test(reference.system, reference_attractor, eps, 25, 20, seed=5)
    assert rep.verdict == EPS_DENSE
    assert rep.uncovered_fraction == 0.0


def test_minimality_with_inverses_included(circle_region):
    # closing the golden rotation under inverses doubles the alphabet and
    # keeps the orbit dense
    sys = SystemSpec((CircleRotation(GOLD),), include_inverses=True)
    assert sys.alphabet_size == 2
    rep = minimality_test(sys, circle_region, 0.02, 120, 6, seed=4)
    assert rep.verdict == EPS_DENSE


def test_minimality_preconditions(circle_region):
    sys = SystemSpec((CircleRotation(GOLD),))
    with pytest.raises(ResolutionError):
        minimality_test(sys, circle_region, 1e-4, 10, 2)
    with pytest.raises(ValidationError):
        minimality_test(sys, circle_region, 0.05, 0, 2)


def test_minimality_budget_error():
    # wide branching plus a tiny epsilon overruns a single orbit's budget
    gens = tuple(
        AffineSimilarity(0.995, 17.0 * k, (0.5 * np.cos(k), 0.5 * np.sin(k)))
        for k in range(1, 13)
    )
    dom = Domain.planar((-40, 40, -40, 40), 1024)
    region = rasterize_disk(dom, Disk((0.0, 0.0), 2.0))
    with pytest.raises(BudgetExceededError) as exc:
        minimality_test(SystemSpec(gens), region, 2.0 * dom.max_cell_size, 40, 1, seed=3)
    assert exc.value.partial is not None
    assert 0 <= exc.value.partial.uncovered_fraction <= 1


# -- the orbit enumeration ----------------------------------------------------


def reference_orbit_points(sys, start, max_word_len, epsilon):
    """_orbit_points written out with a Python set of pruning keys and one
    budget check per map, as it ran before the keys were a sorted array.
    Also returns how many maps of its last depth ran before the budget ran
    out (0 when it did not)."""
    circle = sys.kind == "circle"
    q = (epsilon / 2.0) if circle else epsilon / (2.0 * math.sqrt(2.0))

    def key(pts):
        if circle:
            return np.floor(pts % 1.0 / q).astype(np.int64)
        k = np.floor(pts / q).astype(np.int64)
        return k[..., 0] * np.int64(1 << 32) + k[..., 1]

    maps = sys.maps()
    frontier = np.asarray(start, dtype=float).reshape((1,) if circle else (1, 2))
    keys = {int(key(frontier)[0])}
    collected = [frontier.copy()]
    evals = 0
    for _ in range(max_word_len):
        imgs, img_keys = [], []
        for done, m in enumerate(maps):
            evals += frontier.shape[0]
            if evals > analysis._EVAL_BUDGET:
                return np.concatenate(collected), True, done
            imgs.append(m.eval(frontier))
            img_keys.append(key(imgs[-1]))
        cat_pts, cat_keys = np.concatenate(imgs), np.concatenate(img_keys)
        _, first_idx = np.unique(cat_keys, return_index=True)
        order = np.sort(first_idx)
        fresh = [i for i, k in zip(order.tolist(), cat_keys[order].tolist()) if k not in keys]
        if not fresh:
            break
        keys.update(cat_keys[fresh].tolist())
        frontier = cat_pts[fresh]
        collected.append(frontier)
    return np.concatenate(collected), False, 0


# the probes benchmark's family: eight similarities kappa = 0.76 at 179
# degrees, each C1-perturbed with amplitude 0.01; its attractor's diameter
# is about 11.7, so epsilon = 0.02 * diam is about 0.234
_PROBES_FAMILY = "\n".join(
    ["affine kappa=0.76 theta=179.0 anchor=0.0,0.0"]
    + [f"affine kappa=0.76 theta=179.0 anchor={0.75 * math.cos(a)!r},{0.75 * math.sin(a)!r}"
       for a in 2.0 * np.pi * np.arange(7) / 7]
    + [f"perturb base={i} amp=0.01 seed={40 + i}" for i in range(1, 9)]
)
_ORBIT_SYSTEMS = {
    "probes": (lambda: parse_system(_PROBES_FAMILY), [(0.1, -0.2), (2.5, 1.0), (-3.0, 4.0)],
               0.234, 25),
    "circle-pair": (lambda: SystemSpec((CircleNorthSouth(0.7, 0.0), CircleRotation(GOLD))),
                    [0.0, 0.3, 0.999], 0.01, 60),
    "perturbed-circle-pair": (
        lambda: SystemSpec((Perturbed(CircleNorthSouth(0.7, 0.0), 0.02, seed=4),
                            Perturbed(CircleRotation(GOLD), 0.02, seed=5))),
        [0.0, 0.3, 0.999], 0.01, 60),
}


@pytest.mark.baseline_dispatch
@pytest.mark.parametrize("name", sorted(_ORBIT_SYSTEMS))
def test_orbit_points_match_set_based_loop(monkeypatch, name):
    make, starts, eps, word_len = _ORBIT_SYSTEMS[name]
    sys = make()
    for start in starts:
        orbit, exhausted = analysis._orbit_points(sys, start, word_len, eps)
        expected, expected_exhausted, _ = reference_orbit_points(sys, start, word_len, eps)
        assert not exhausted and not expected_exhausted
        assert orbit.shape[0] > 100
        assert np.array_equal(orbit, expected)
    partway = 0
    for budget in (1, 2, 9, 50, 333, 1000, 4321):
        monkeypatch.setattr(analysis, "_EVAL_BUDGET", budget)
        orbit, exhausted = analysis._orbit_points(sys, starts[0], word_len, eps)
        expected, expected_exhausted, done = reference_orbit_points(
            sys, starts[0], word_len, eps)
        assert exhausted == expected_exhausted
        assert np.array_equal(orbit, expected)
        partway += done > 0
    # some budgets run out after a depth's first map: its images are dropped
    assert partway >= 2


# -- the bounded uncovered count ---------------------------------------------
# Each case compares the count with the full query it replaces, on every orbit.


def _full_count(region, orbit, eps):
    return int(np.count_nonzero(nearest_point_distances(region, orbit) > eps))


@pytest.fixture
def exact_ends(monkeypatch):
    """Run ends settled by an exact point distance: the size of each planar
    ``point_distance`` batch, call by call."""
    sizes = []
    point_distance = geometry.point_distance

    def recording(kind, a, b):
        if kind == geometry.PLANAR:
            sizes.append(len(a))
        return point_distance(kind, a, b)

    monkeypatch.setattr(geometry, "point_distance", recording)
    return sizes


def _assert_counts_match(region, orbits, epsilons):
    for eps in epsilons:
        for orbit in orbits:
            assert analysis._uncovered_count(region, orbit, eps) == _full_count(region, orbit, eps)


@pytest.mark.baseline_dispatch
@pytest.mark.parametrize(
    "bounds", [(-1.0, 1.0, -1.0, 1.0), (-1.3, 1.9, -0.45, 0.35)], ids=["square", "wide"]
)
def test_bounded_uncovered_count_matches_full_query(bounds, exact_ends):
    dom = Domain.planar(bounds, 64)
    rng = rng_from(31)
    region = GridSet(dom, rng.uniform(size=dom.shape) < 0.6)
    (xmin, xmax, ymin, ymax) = bounds
    orbits = [
        np.column_stack([rng.uniform(xmin, xmax, n), rng.uniform(ymin, ymax, n)])
        for n in (1, 5, 40, 400)
    ]
    size = max(dom.cell_sizes)
    epsilons = [2 * size, 3.7 * size, 9.1 * size, 0.4 * (xmax - xmin)]
    _assert_counts_match(region, orbits, epsilons)
    # only a run end within rounding of a cell center reads a distance: for
    # orbits at random, fewer than 1% of the region's cells per count
    assert sum(exact_ends) < len(orbits) * len(epsilons) * region.count() / 100


@pytest.mark.baseline_dispatch
@pytest.mark.parametrize("steps", [3, 5, 7])
def test_bounded_uncovered_count_at_exact_ties(steps, exact_ends):
    # orbit points on a lattice of cell centers 16 cells apart, on a chart
    # whose centers are exact binary fractions: (3, 4, 5) triangles put many
    # centers at exactly eps, and eps one ulp either way flips them all
    dom = Domain.planar((0.0, 1.0, 0.0, 1.0), 64)
    region = full_set(dom)
    lattice = np.zeros(dom.shape, dtype=bool)
    lattice[3::16, 2::16] = True
    orbit = GridSet(dom, lattice).included_points()
    eps = steps * dom.cell_sizes[0]
    assert np.count_nonzero(nearest_point_distances(region, orbit) == eps) >= 32
    below, above = np.nextafter(eps, 0.0), np.nextafter(eps, 1.0)
    counts = [_full_count(region, orbit, e) for e in (below, eps, above)]
    assert counts[0] > counts[1] == counts[2]
    _assert_counts_match(region, [orbit], [below, eps, above])
    # a center at eps is the end of a run: its distance is read exactly
    assert sum(exact_ends) >= 3 * 32


@pytest.mark.baseline_dispatch
def test_bounded_uncovered_count_at_exact_ties_on_the_wide_chart(exact_ends):
    # cells 1/16 by 1/64 with centers at exact binary fractions: every center
    # 3 rows and 4 columns, or 1 row and 12 columns, from a lattice point is at
    # one float distance, which is eps, and a row's run of cells ends there
    dom = Domain.planar((0.0, 4.0, 0.0, 1.0), 64)
    region = full_set(dom)
    lattice = np.zeros(dom.shape, dtype=bool)
    lattice[3::16, 2::16] = True
    orbit = GridSet(dom, lattice).included_points()
    dx, dy = dom.cell_sizes
    eps = float(geometry.point_distance(geometry.PLANAR, (0.0, 0.0), (3 * dx, 4 * dy)))
    assert np.count_nonzero(nearest_point_distances(region, orbit) == eps) >= 64
    below, above = np.nextafter(eps, 0.0), np.nextafter(eps, 1.0)
    counts = [_full_count(region, orbit, e) for e in (below, eps, above)]
    assert counts[0] > counts[1] == counts[2]
    _assert_counts_match(region, [orbit], [below, eps, above])
    assert sum(exact_ends) >= 3 * 64


@pytest.mark.baseline_dispatch
@pytest.mark.parametrize(
    "bounds", [(-1.0, 1.0, -1.0, 1.0), (-1.3, 1.9, -0.45, 0.35)], ids=["square", "wide"]
)
def test_bounded_uncovered_count_at_ties_a_few_rows_away(bounds):
    # eps is the float distance from a point on a cell center to the center
    # a rows on, which rounding can put a row past eps / dx from the point
    dom = Domain.planar(bounds, 64)
    region = full_set(dom)
    xs, ys = dom.axis_centers()
    for r, a in [(0, 6), (3, 3), (10, 2), (20, 7), (41, 11)]:
        orbit = np.array([[xs[r], ys[5]], [xs[r + 1], ys[30]]])
        eps = float(geometry.point_distance(geometry.PLANAR, (xs[r + a], ys[5]), orbit[0]))
        _assert_counts_match(region, [orbit], [eps])


@pytest.mark.baseline_dispatch
def test_bounded_uncovered_count_on_a_chart_far_from_the_origin(exact_ends):
    # the rounding margin of coordinates near 1e8 passes half a cell: every
    # run end is read exactly
    dom = Domain.planar((1e8, 1e8 + 1.0, -1e8 - 0.5, -1e8 + 0.5), 64)
    rng = rng_from(61)
    region = GridSet(dom, rng.uniform(size=dom.shape) < 0.6)
    orbit = np.column_stack([1e8 + rng.uniform(-0.1, 1.1, 40), -1e8 + rng.uniform(-0.6, 0.6, 40)])
    _assert_counts_match(region, [orbit, orbit[:3]], [2.5 / 64, 0.17])
    assert sum(exact_ends) > 0


@pytest.mark.baseline_dispatch
def test_bounded_uncovered_count_with_epsilon_past_the_chart():
    dom = Domain.planar((-1.3, 1.9, -0.45, 0.35), 64)
    region = GridSet(dom, rng_from(59).uniform(size=dom.shape) < 0.5)
    # a point far off the chart covers part of it at an epsilon past its width
    near, far = np.array([[1.5, 0.3]]), np.array([[-40.0, 2.0]])
    _assert_counts_match(region, [near, far], [1.0, 39.0, 40.5])
    assert 0 < analysis._uncovered_count(region, far, 40.5) < region.count()
    # a run past the chart's columns on both sides covers each row whole
    for eps in (1e200, np.inf):
        assert analysis._uncovered_count(region, np.vstack([near, far]), eps) == 0


@pytest.mark.baseline_dispatch
def test_bounded_uncovered_count_with_empty_band(exact_ends):
    dom = Domain.planar((-1.0, 1.0, -1.0, 1.0), 64)
    region = rasterize_disk(dom, Disk((0.4, 0.4), 0.3))
    eps = 4 * dom.max_cell_size
    # every region cell holds an orbit point: all are covered
    dense = region.included_points()
    # one point in the far corner: every region cell is uncovered
    corner = np.array([[-0.99, -0.99]])
    _assert_counts_match(region, [dense, corner], [eps])
    assert analysis._uncovered_count(region, corner, eps) == region.count()
    # the corner point's runs lie in no row of the region: no distance is read
    exact_ends.clear()
    analysis._uncovered_count(region, corner, eps)
    assert sum(exact_ends) == 0


@pytest.mark.baseline_dispatch
def test_bounded_uncovered_count_with_every_cell_in_band():
    dom = Domain.planar((-1.0, 1.0, -1.0, 1.0), 64)
    centers = dom.cell_centers()
    eps = 0.5
    # a ring of cells whose centers lie within a quarter cell of eps from
    # the orbit's one point: every cell is at the end of a run
    r = np.hypot(centers[..., 0] - 0.01, centers[..., 1] + 0.02)
    region = GridSet(dom, np.abs(r - eps) < 0.25 * dom.max_cell_size)
    orbit = np.array([[0.01, -0.02]])
    _assert_counts_match(region, [orbit], [eps, np.nextafter(eps, 0.0)])


@pytest.mark.baseline_dispatch
def test_bounded_uncovered_count_with_points_off_the_chart():
    dom = Domain.planar((-1.0, 1.0, -1.0, 1.0), 64)
    region = rasterize_disk(dom, Disk((0.0, 0.0), 0.9))
    inside = rng_from(37).uniform(-1.0, 1.0, size=(30, 2))
    # the top edges are off the chart, as is anything beyond it
    for off in ([1.0, 0.2], [0.2, 1.0], [-1.5, 0.0], [0.3, -7.0]):
        _assert_counts_match(region, [np.vstack([inside, [off]])], [0.1, 0.37])
    # points just off the chart are the only ones near the cells at its edge
    edge = np.array([[1.05, 0.0], [-1.1, -0.3], [0.0, np.nextafter(1.0, 2.0)]])
    assert analysis._uncovered_count(region, edge, 0.2) < region.count()
    _assert_counts_match(region, [edge], [0.2, 0.37])


@pytest.mark.baseline_dispatch
def test_bounded_uncovered_count_on_region_at_the_chart_edge():
    dom = Domain.planar((-1.3, 1.9, -0.45, 0.35), 64)
    xmin, xmax, ymin, ymax = dom.bounds
    region = full_set(dom)
    # points on the lower edges and just below the upper ones, where
    # point_cells clamps a quotient that rounds up to the resolution
    edge = np.array([
        [xmin, ymin], [np.nextafter(xmax, 0.0), ymin], [xmin, np.nextafter(ymax, 0.0)],
        [np.nextafter(xmax, 0.0), np.nextafter(ymax, 0.0)], [0.3, ymin], [xmax - 1e-12, 0.1],
    ])
    inner = rng_from(41).uniform(-0.2, 0.2, size=(5, 2))
    size = max(dom.cell_sizes)
    _assert_counts_match(
        region, [edge, np.vstack([edge, inner]), edge[1:2]], [2 * size, 5.3 * size, 0.9]
    )


@pytest.mark.baseline_dispatch
def test_bounded_uncovered_count_on_the_circle(exact_ends, monkeypatch):
    queried = []

    def recording(region, *args):
        queried.append(region.count())
        return nearest_point_distances(region, *args)

    monkeypatch.setattr(geometry, "nearest_point_distances", recording)
    dom = Domain.circle(256)
    rng = rng_from(47)
    region = GridSet(dom, rng.uniform(size=dom.shape) < 0.6)
    h = dom.cell_sizes[0]
    # points on both sides of the wrap at 0, a turn away from their cell,
    # on cell edges and at random
    wrap = np.array([0.0, np.nextafter(1.0, 0.0), -1e-18, 2.5 * h, -3.0 + 17 * h, 0.5])
    orbits = [wrap, rng.uniform(0.0, 1.0, 7), np.concatenate([wrap, rng.uniform(-2.0, 2.0, 60)])]
    _assert_counts_match(region, orbits, [2 * h, 5.5 * h, 0.1, 0.3])
    # a circle region has no band: every count is one nearest-point query of
    # the whole region, also for an orbit with a point that has no cell
    _assert_counts_match(region, [np.append(wrap, np.nan)], [0.1])
    assert queried == [region.count()] * 13 and exact_ends == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_uncovered_count_of_a_non_finite_planar_orbit_raises(bad):
    region = full_set(Domain.planar((-1.0, 1.0, -1.0, 1.0), 64))
    assert issubclass(NonFiniteError, ProbeError)  # the CLI exits 2 on it
    with pytest.raises(NonFiniteError, match="orbit point 1 of 2 is not finite"):
        analysis._uncovered_count(region, np.array([[0.1, 0.2], [bad, 0.0]]), 0.1)


def test_minimality_names_the_sample_whose_orbit_is_not_finite(monkeypatch):
    orbit_points = analysis._orbit_points

    def third_overflows(sys, start, max_word_len, epsilon):
        orbit, exhausted = orbit_points(sys, start, max_word_len, epsilon)
        if third_overflows.calls == 2:
            orbit[-1] = np.inf
        third_overflows.calls += 1
        return orbit, exhausted

    third_overflows.calls = 0
    monkeypatch.setattr(analysis, "_orbit_points", third_overflows)
    sys = SystemSpec((AffineSimilarity(0.5, 30.0, (0.0, 0.0)), AffineSimilarity(0.5, 10.0, (0.5, 0.0))))
    region = full_set(Domain.planar((-1.0, 1.0, -1.0, 1.0), 64))
    with pytest.raises(NonFiniteError, match="sample 3 of 4"):
        minimality_test(sys, region, 0.1, 6, 4, seed=1)


# -- invariance defect -------------------------------------------------------


def test_invariance_defect_empty(reference):
    dom = Domain.planar((-17, 17, -17, 17), 256)
    empty = GridSet(dom, np.zeros(dom.shape, bool))
    assert invariance_defect(reference.system, empty, "image") == 0.0
    assert invariance_defect(reference.system, empty, "preimage") == 0.0


def test_invariance_defect_attractor_small(reference, reference_attractor):
    defect = invariance_defect(reference.system, reference_attractor, "image")
    from ifslab.geometry import one_cell_ring_volume

    assert defect <= 2 * one_cell_ring_volume(reference_attractor)


def test_invariance_defect_half_positive(reference):
    dom = Domain.planar((-17, 17, -17, 17), 256)
    xs = dom.axis_centers()[0]
    half = GridSet(dom, np.broadcast_to((xs < 0)[:, None], dom.shape))
    assert invariance_defect(reference.system, half, "image") > 0.01


@pytest.mark.parametrize("domain, member", [
    # derivative 1/0.2 = 5 near the antipode
    (Domain.circle(4096), Perturbed(CircleNorthSouth(0.2), 0.02, seed=1)),
    # scale 1.5 about an anchor on the chart
    (Domain.planar((-2.0, 2.0, -2.0, 2.0), 256),
     Perturbed(AffineSimilarity(1.5, 30.0, (0.1, -0.2)), 0.02, seed=1)),
], ids=["circle", "planar"])
def test_invariance_image_defect_exact_for_expanding_members(domain, member):
    # the member has no closed-form inverse and expands; the image of the
    # full set covers the chart, so every cell center pulls back into it
    full = full_set(domain)
    assert invariance_defect(SystemSpec((member,)), full, "image") == 0.0


def test_invariance_defect_validation(reference, reference_attractor):
    with pytest.raises(ValidationError):
        invariance_defect(reference.system, reference_attractor, "sideways")


def test_probes_reject_maps_of_the_other_chart_kind(reference):
    circle_sys = SystemSpec((CircleRotation(1 / 3),))
    planar = Domain.planar((0, 1, 0, 1), 64)
    circle = Domain.circle(64)
    for sys, dom in ((circle_sys, planar), (reference.system, circle)):
        for direction in ("image", "preimage"):
            with pytest.raises(DimensionError):
                invariance_defect(sys, full_set(dom), direction)
        with pytest.raises(DimensionError):
            ergodicity_probe(sys, 64, seed_sets=2, refine_steps=1, domain=dom)


# -- Hoelder constant and contraction factor ---------------------------------


def test_holder_constant_affine_is_zero(reference, reference_attractor):
    for m in reference.system.maps():
        assert holder_constant(m, 1.0, reference_attractor, 500, seed=4) == 0.0


def test_holder_constant_decreases_with_amplitude(reference, reference_attractor):
    base = reference.system.generators[0]
    c_big = holder_constant(Perturbed(base, 0.1, 7), 1.0, reference_attractor, 2000, seed=4)
    c_small = holder_constant(Perturbed(base, 0.01, 7), 1.0, reference_attractor, 2000, seed=4)
    assert c_big > c_small > 0.0


def test_contraction_factor_similarity_exact(reference, reference_attractor):
    assert contraction_factor(reference.system, reference_attractor, 400, seed=4) == 0.76


def test_contraction_factor_rotation_errors(circle_region):
    with pytest.raises(NotAContractionError):
        contraction_factor(SystemSpec((CircleRotation(GOLD),)), circle_region, 100)


# -- distortion bound and empirical check ------------------------------------


def test_distortion_bound_values():
    assert distortion_bound(1.0, 0.5, 1.0, 1.0) == pytest.approx(math.e, abs=1e-12)
    assert distortion_bound(0.0, 0.5, 1.0, 1.0) == 1.0
    assert distortion_bound(0.0, 0.9, 0.3, 12.0) == 1.0


def test_distortion_bound_monotone():
    base = distortion_bound(0.5, 0.5, 1.0, 2.0)
    assert distortion_bound(0.6, 0.5, 1.0, 2.0) > base
    assert distortion_bound(0.5, 0.6, 1.0, 2.0) > base
    assert distortion_bound(0.5, 0.5, 1.0, 2.5) > base


def test_distortion_bound_domain_errors():
    with pytest.raises(DomainError):
        distortion_bound(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        distortion_bound(-1.0, 0.5, 1.0, 1.0)
    with pytest.raises(DomainError):
        distortion_bound(1.0, 0.5, 2.0, 1.0)


def test_empirical_distortion_affine_identity(reference, reference_attractor):
    emp = empirical_distortion(reference.system, reference_attractor, 25, 200, 64, seed=6)
    assert abs(emp.emp_min - 1.0) <= 1e-12
    assert abs(emp.emp_max - 1.0) <= 1e-12


def test_empirical_distortion_word_length_zero(reference, reference_attractor):
    emp = empirical_distortion(reference.system, reference_attractor, 0, 10, 16, seed=6)
    assert emp.emp_min == emp.emp_max == 1.0


def test_empirical_distortion_rejects_a_negative_word_length(reference, reference_attractor):
    with pytest.raises(ValidationError, match="word_length"):
        empirical_distortion(reference.system, reference_attractor, -1, 10, 16, seed=6)


def test_constant_log_det_distortion_is_one_and_drops_nothing(reference, reference_attractor):
    # every word of a similarity family is skipped, not dropped
    emp = empirical_distortion(reference.system, reference_attractor, 25, 200, 64, seed=6)
    assert (emp.emp_min, emp.emp_max, emp.dropped) == (1.0, 1.0, 0)


def _two_perturbed_similarities(scales):
    return SystemSpec(tuple(
        Perturbed(AffineSimilarity(scale, angle, anchor), 0.01, seed)
        for scale, angle, anchor, seed in zip(scales, (10.0, 30.0), ((0.0, 0.0), (0.1, 0.0)), (1, 2))
    ))


_OVERFLOW_REGION = rasterize_disk(Domain.planar((-1.0, 1.0, -1.0, 1.0), 128), Disk((0.0, 0.0), 0.5))


def test_distortion_whose_every_orbit_overflows_raises():
    # both members expand, so by depth 1000 every orbit has overflowed and
    # every ratio is NaN: there is no distortion to report, not a ratio of 1
    assert issubclass(NonFiniteError, ProbeError)  # the CLI exits 2 on it
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match="20 words"):
            empirical_distortion(
                _two_perturbed_similarities((3.0, 2.5)), _OVERFLOW_REGION, 1000, 20, 16, seed=1
            )


@pytest.mark.parametrize("chunk_points", [None, 96])
def test_distortion_counts_the_words_it_drops(monkeypatch, chunk_points):
    # one member expands and one contracts, so a word overflows when it draws
    # enough of the first: at depth 360 some words overflow and the rest are
    # scored; a 96-point chunk holds three words, so the last chunk is partial
    if chunk_points is not None:
        monkeypatch.setattr(analysis, "_CHUNK_POINTS", chunk_points)
    with np.errstate(over="ignore", invalid="ignore"):
        emp = empirical_distortion(
            _two_perturbed_similarities((100.0, 0.5)), _OVERFLOW_REGION, 360, 20, 16, seed=1
        )
    assert 0 < emp.dropped < emp.words
    assert np.isfinite([emp.emp_min, emp.emp_max]).all()


def test_distortion_report_perturbed_consistent(reference, reference_attractor):
    pert = SystemSpec(
        tuple(Perturbed(g, 0.01, seed=50 + i) for i, g in enumerate(reference.system.generators))
    )
    rep = distortion_report(
        pert, reference_attractor, alpha=1.0, word_length=20, word_count=200,
        pair_count=64, holder_pairs=2000, seed=6,
    )
    assert rep.c > 0
    assert 0.76 < rep.xi < 0.78
    assert rep.l_bound > 1
    assert rep.consistent
    assert rep.emp_min >= (1 / rep.l_bound) * 0.95
    assert rep.emp_max <= rep.l_bound * 1.05


def test_distortion_report_json_fields(reference, reference_attractor):
    rep = distortion_report(
        reference.system, reference_attractor, 1.0, 5, 20, 16, holder_pairs=200, seed=6
    )
    assert set(rep.to_json_dict()) == {
        "alpha", "C", "xi", "diam", "L_H", "emp_min", "emp_max", "consistent",
    }


# -- shrink time -------------------------------------------------------------


def test_shrink_time_similarity_recurrence(reference):
    # the image diameters of {T} follow 32 * kappa^r exactly, so the first
    # depth below 1 is 13 (32 * 0.76^13 = 0.903, 32 * 0.76^12 = 1.188)
    single = SystemSpec((reference.system.generators[0],))
    word = Word(tuple([1] * 40), "reverse")
    res = shrink_time(single, word, Disk((0.0, 0.0), 16.0), 1.0, 40, resolution=1024)
    assert res.r0 == 13
    assert res.diam_at_r0 < 1.0 <= res.diam_before


def test_shrink_time_zero_when_delta_large(reference):
    single = SystemSpec((reference.system.generators[0],))
    word = Word((1, 1, 1), "reverse")
    res = shrink_time(single, word, Disk((0.0, 0.0), 16.0), 100.0, 3, resolution=256)
    assert res.r0 == 0
    assert res.diam_before is None


def test_shrink_time_monotone_in_delta(reference):
    single = SystemSpec((reference.system.generators[0],))
    word = Word(tuple([1] * 40), "reverse")
    r_small = shrink_time(single, word, Disk((0.0, 0.0), 16.0), 0.5, 40, resolution=512).r0
    r_large = shrink_time(single, word, Disk((0.0, 0.0), 16.0), 4.0, 40, resolution=512).r0
    assert r_large <= r_small


def test_shrink_time_horizon_error(reference):
    single = SystemSpec((reference.system.generators[0],))
    word = Word((1, 1, 1), "reverse")
    with pytest.raises(HorizonError):
        shrink_time(single, word, Disk((0.0, 0.0), 16.0), 0.001, 3, resolution=256)


def test_shrink_time_requires_reverse(reference):
    with pytest.raises(ValidationError):
        shrink_time(
            SystemSpec((reference.system.generators[0],)),
            Word((1,), "forward"),
            Disk((0.0, 0.0), 16.0),
            1.0,
            1,
        )


def test_shrink_time_rejects_circle_systems_and_arcs(reference):
    # a circle system's maps would act on each coordinate of planar points
    circle = SystemSpec((CircleNorthSouth(0.7), CircleRotation(0.3)))
    with pytest.raises(DimensionError):
        shrink_time(circle, Word((1, 2), "reverse"), Disk((0.0, 0.0), 0.3), 0.01, 2, resolution=64)
    # a circle arc has no planar ball chart
    single = SystemSpec((reference.system.generators[0],))
    with pytest.raises(ValidationError, match="circle arc"):
        shrink_time(single, Word((1,), "reverse"), Disk(0.25, 0.1), 0.01, 1, resolution=64)


# -- ergodicity probe --------------------------------------------------------


def test_ergodicity_rational_third_candidate():
    # resolution divisible by 6: the three-arc invariant set is exact
    sys = SystemSpec((CircleRotation(1.0 / 3.0),))
    rep = ergodicity_probe(sys, 3072, seed_sets=16, refine_steps=12, seed=7)
    assert rep.verdict == CANDIDATE_FOUND
    assert rep.best_defect == 0.0
    assert abs(rep.best_volume - 0.5) <= 2 / 3072
    # the candidate is exactly invariant on the grid
    assert invariance_defect(sys, rep.candidate, "preimage") == 0.0


def test_ergodicity_north_south_arc_candidate():
    sys = SystemSpec((CircleNorthSouth(0.7, 0.0),))
    rep = ergodicity_probe(sys, 1024, seed_sets=16, refine_steps=12, seed=7)
    assert rep.verdict == CANDIDATE_FOUND
    assert rep.best_defect == 0.0
    assert abs(rep.best_volume - 0.5) <= 2 / 1024


def test_ergodicity_golden_rotation_no_candidate():
    sys = SystemSpec((CircleRotation(GOLD),))
    rep = ergodicity_probe(sys, 1024, seed_sets=16, refine_steps=12, seed=7)
    assert rep.verdict == NO_CANDIDATE
    assert rep.best_defect > 3 * rep.candidate_ring_volume


def test_ergodicity_unresolved_grid_reports_worst_defect():
    # at 16 cells every one-cell ring outweighs 1/16 of the volume, so no
    # iterate is resolved: the probe says so and reports the worst defect
    sys = SystemSpec((CircleRotation(1.0 / 3.0),))
    rep = ergodicity_probe(sys, 16, seed_sets=4, refine_steps=3)
    assert rep.verdict == UNRESOLVED
    assert rep.candidate is None
    assert (rep.best_defect, rep.best_volume, rep.candidate_ring_volume) == (1.0, 0.0, 0.0)


def test_ergodicity_pair_no_candidate():
    sys = SystemSpec((CircleNorthSouth(0.7, 0.0), CircleRotation(GOLD)))
    rep = ergodicity_probe(sys, 2048, seed_sets=16, refine_steps=16, seed=7)
    assert rep.verdict == NO_CANDIDATE
    assert rep.best_defect > 3 * rep.candidate_ring_volume


def test_ergodicity_minimal_system_candidates_are_dense_if_found():
    # consistency hook: a zero-defect candidate of a minimal system would
    # need both itself and its complement eps-dense; the probe finds none,
    # which this asserts vacuously-but-executably by checking the verdict
    sys = SystemSpec((CircleNorthSouth(0.7, 0.0), CircleRotation(GOLD)))
    rep = ergodicity_probe(sys, 1024, seed_sets=16, refine_steps=12, seed=9)
    if rep.verdict == CANDIDATE_FOUND and rep.best_defect == 0.0:
        cand = rep.candidate
        dom = cand.domain
        eps = 4 * dom.max_cell_size
        for part in (cand, cand.complement()):
            pos = np.sort(part.included_points())
            gaps = np.diff(np.concatenate([pos, pos[:1] + 1.0]))
            assert gaps.max() <= eps
    else:
        assert rep.verdict == NO_CANDIDATE


def reference_ergodicity_probe(sys, resolution, seed_sets, refine_steps, seed, domain=None):
    """ergodicity_probe's refinement written out seed by seed on bool
    bitmaps, as it ran before the seeds were packed into words: one pull per
    generator per seed per step, an int16 vote and a mean() per volume."""
    if domain is None:
        domain = Domain.circle(resolution)
    maps = sys.maps()
    pre_cells = [m.cell_map(domain) for m in maps]
    majority_needed = (len(maps) + 1) // 2 + 1
    lo_vol, hi_vol = analysis._VOLUME_WINDOW
    best_resolved = best_qualifying = None
    for bits in analysis._seed_bitmaps(domain, seed_sets, spawn_rngs(seed, seed_sets)):
        current = bits.copy()
        for _ in range(refine_steps + 1):
            current_set = GridSet(domain, current)
            pres = [current_set.pull(cells) for cells in pre_cells]
            vol = float(current.mean())
            if lo_vol < vol < hi_vol:
                ring = geometry.one_cell_ring_volume(current_set)
                if ring <= min(vol, 1.0 - vol) / 16.0:
                    defect = max(float(np.mean(current ^ p)) for p in pres)
                    key = (defect, abs(vol - 0.5))
                    entry = (key, vol, ring, current.copy())
                    if best_resolved is None or key < best_resolved[0]:
                        best_resolved = entry
                    if defect <= 3.0 * ring and (
                        best_qualifying is None or key < best_qualifying[0]
                    ):
                        best_qualifying = entry
            votes = current.astype(np.int16)
            for p in pres:
                votes += p
            new = votes >= majority_needed
            if np.array_equal(new, current):
                break
            current = new
    best = best_qualifying or best_resolved
    found = best is not None and best is best_qualifying
    (defect, _), vol, ring, bits = best or ((1.0, 0.0), 0.0, 0.0, None)
    verdict = CANDIDATE_FOUND if found else UNRESOLVED if best is None else NO_CANDIDATE
    return defect, vol, verdict, bits if found else None, ring


_NORTH_SOUTH = CircleNorthSouth(0.7, 0.0)
_SQUARE_96 = Domain.planar((-2.0, 2.0, -2.0, 2.0), 96)
# (system, resolution, seed_sets, refine_steps, seed, planar chart or None)
_ERGODICITY_CASES = {
    "third-candidate": (lambda: SystemSpec((CircleRotation(1.0 / 3.0),)), 3072, 16, 12, 7, None),
    "north-south-candidate": (lambda: SystemSpec((_NORTH_SOUTH,)), 1024, 16, 12, 7, None),
    "golden": (lambda: SystemSpec((CircleRotation(GOLD),)), 1024, 16, 12, 7, None),
    "unresolved": (lambda: SystemSpec((CircleRotation(1.0 / 3.0),)), 16, 4, 3, 0, None),
    # seed counts on either side of a 16-seed block
    "one-seed": (lambda: SystemSpec((_NORTH_SOUTH,)), 2048, 1, 8, 2, None),
    "five-seeds": (lambda: SystemSpec((_NORTH_SOUTH, CircleRotation(GOLD))), 1024, 5, 12, 9,
                   None),
    "seventeen-seeds": (lambda: SystemSpec((_NORTH_SOUTH,)), 2048, 17, 8, 2, None),
    "forty-seeds": (lambda: SystemSpec((_NORTH_SOUTH, CircleRotation(GOLD))), 4096, 40, 24, 1,
                    None),
    "no-refinement": (lambda: SystemSpec((CircleRotation(1.0 / 3.0),)), 3072, 20, 0, 7, None),
    # 1, 2, 3 and 8 generators: a vote of 2 of 2, 2 of 3, 3 of 4 and 5 of 9
    "two-generators": (lambda: SystemSpec((_NORTH_SOUTH, CircleRotation(GOLD))), 2048, 16, 16,
                       7, None),
    "three-generators": (
        lambda: SystemSpec((_NORTH_SOUTH, CircleRotation(GOLD), CircleRotation(1.0 / 3.0))),
        1024, 16, 12, 5, None),
    "perturbed-pair": (
        lambda: SystemSpec((Perturbed(_NORTH_SOUTH, 0.02, seed=4), CircleRotation(5.0 / 8.0))),
        4096, 16, 24, 5, None),
    "probes": (lambda: parse_system(_PROBES_FAMILY), 128, 16, 24, 3,
               lambda: ball_domain(Disk((0.0, 0.0), 16.0), 128)),
    # an expanding member sends the outer cells off the chart, which reads
    # as outside
    "planar-off-chart-candidate": (lambda: SystemSpec((AffineSimilarity(1.1, 0.0),)),
                                   96, 18, 10, 4, lambda: _SQUARE_96),
    "planar-off-chart": (
        lambda: SystemSpec((AffineSimilarity(1.1, 90.0), AffineSimilarity(0.9, 0.0, (0.2, 0.0)))),
        96, 18, 10, 4, lambda: _SQUARE_96),
}


@pytest.mark.baseline_dispatch
@pytest.mark.parametrize("name", sorted(_ERGODICITY_CASES))
def test_ergodicity_probe_matches_seed_by_seed_loop(name):
    make, res, seed_sets, steps, seed, chart = _ERGODICITY_CASES[name]
    sys = make()
    dom = chart() if chart else None
    rep = ergodicity_probe(sys, res, seed_sets, steps, seed, domain=dom)
    defect, vol, verdict, bits, ring = reference_ergodicity_probe(
        sys, res, seed_sets, steps, seed, domain=dom)
    assert (rep.best_defect, rep.best_volume, rep.verdict, rep.candidate_ring_volume) == (
        defect, vol, verdict, ring)
    assert {type(rep.best_defect), type(rep.best_volume), type(rep.candidate_ring_volume)} == {
        float}
    if bits is None:
        assert rep.candidate is None
    else:
        assert np.array_equal(rep.candidate.bitmap, bits)


def _quarter_turn_seed(*runs):
    """A seed on 4096 circle cells for the quarter turn, whose vote of 2 of 2
    is B & g^-1(B).  Each orbit {x, x + 1024, x + 2048, x + 3072} holds 0-4
    consecutive cells, given as runs of (cells held, orbits) along x.  A
    partly held orbit loses one cell per step and adds 2 to the defect
    count; a full one is invariant."""
    held = np.zeros((4, 1024), dtype=bool)
    x = 0
    for size, orbits in runs:
        held[:size, x:x + orbits] = True
        x += orbits
    return held.ravel()


def _probe_and_reference(sys, seed_sets, refine_steps):
    rep = ergodicity_probe(sys, 4096, seed_sets, refine_steps)
    defect, vol, verdict, bits, ring = reference_ergodicity_probe(
        sys, 4096, seed_sets, refine_steps, 0)
    assert (rep.best_defect, rep.best_volume, rep.verdict, rep.candidate_ring_volume) == (
        defect, vol, verdict, ring)
    assert rep.verdict == CANDIDATE_FOUND
    assert np.array_equal(rep.candidate.bitmap, bits)
    return rep


@pytest.mark.baseline_dispatch
def test_ergodicity_ties_keep_the_first_seed_then_step(monkeypatch):
    sys = SystemSpec((CircleRotation(0.25),))
    # seed 1 reaches the best key (4, 1020) / 4096 at step 1 only; seeds 2
    # and 16 (bit 0 of the next block) hold that key at step 0, with other
    # bitmaps; the empty seeds are never scored
    first = _quarter_turn_seed((4, 256), (3, 2), (1, 1))
    empty = np.zeros(4096, dtype=bool)
    seeds = ([empty, first, _quarter_turn_seed((4, 256), (0, 10), (2, 2))] + [empty] * 13
             + [_quarter_turn_seed((4, 256), (0, 20), (2, 2))])
    monkeypatch.setattr(analysis, "_seed_bitmaps", lambda domain, count, rngs: seeds[:count])
    rep = _probe_and_reference(sys, len(seeds), 1)
    assert (rep.best_defect, rep.best_volume) == (4 / 4096, 1028 / 4096)
    assert np.array_equal(rep.candidate.bitmap, first & np.roll(first, -1024))
    # one seed with the best key at steps 0 and 1: volumes 2050 and 2046
    seeds = [_quarter_turn_seed((4, 510), (3, 2), (2, 2))]
    rep = _probe_and_reference(sys, 1, 1)
    assert (rep.best_defect, rep.best_volume) == (8 / 4096, 2050 / 4096)
    assert np.array_equal(rep.candidate.bitmap, seeds[0])


@pytest.mark.baseline_dispatch
@pytest.mark.parametrize("count", range(1, 10))
def test_bit_sliced_vote_matches_integer_count(count):
    planes = rng_from(count).integers(0, 1 << 16, size=(count, 999), dtype=np.uint16)
    shifts = np.arange(16, dtype=np.uint16)
    per_bit = ((planes[..., None] >> shifts) & 1).sum(axis=0)  # (999, 16) counts
    for threshold in range(count + 2):
        got = analysis._at_least(list(planes), threshold)
        assert got.dtype == np.uint16
        assert np.array_equal((got[:, None] >> shifts) & 1, per_bit >= threshold)


def test_ergodicity_planar_needs_domain(reference):
    with pytest.raises(ValidationError):
        ergodicity_probe(reference.system, 256)


def test_ergodicity_planar_probe_runs(reference):
    dom = Domain.planar((-17.0, 17.0, -17.0, 17.0), 256)
    rep = ergodicity_probe(
        reference.system, 256, seed_sets=10, refine_steps=6, seed=7, domain=dom
    )
    assert rep.verdict in (CANDIDATE_FOUND, NO_CANDIDATE)
    assert 0.0 <= rep.best_defect <= 1.0


# -- distortion statistics, pinned bit for bit -------------------------------
#
# Recorded with repr() before the determinant rule moved into maps; the
# perturbed planar system reaches the per-point log|det| step and, with
# inverses, the Newton inverses, and its unperturbed member the affine step.


def test_planar_distortion_statistics_pinned():
    gens = (
        Perturbed(AffineSimilarity(0.8, 120.0, (0.1, 0.1)), 0.02, seed=3),
        Perturbed(AffineSimilarity(0.76, 179.0, (-0.2, 0.3)), 0.03, seed=8),
        AffineSimilarity(0.7, 30.0, (0.4, 0.0)),
    )
    region = rasterize_disk(Domain.planar((-1.0, 1.0, -1.0, 1.0), 64), Disk((0.0, 0.0), 0.8))
    sys = SystemSpec(gens)
    assert [holder_constant(m, 0.5, region, 64, seed=1) for m in gens] == [
        0.007862312008325042, 0.017406736882235114, 0.0,
    ]
    assert contraction_factor(sys, region, 64, seed=1) == 0.8024956362925075
    e = empirical_distortion(sys, region, 6, 5, 8, seed=2)
    assert (e.emp_min, e.emp_max) == (0.9671385205214623, 1.0291580090948738)
    # re-recorded when the Newton inverse began to stop point by point; equal
    # to reference_empirical_distortion
    e = empirical_distortion(SystemSpec(gens, include_inverses=True), region, 6, 5, 8, seed=2)
    assert (e.emp_min, e.emp_max) == (0.9536549241744745, 1.0406260247766217)


def test_circle_distortion_statistics_pinned():
    gens = (
        CircleNorthSouth(0.7),
        CircleRotation(GOLD),
        Perturbed(CircleNorthSouth(0.6, 0.3), 0.01, seed=6),
    )
    region = full_set(Domain.circle(256))
    assert [holder_constant(m, 1.0, region, 64, seed=1) for m in gens] == [
        2.2292695776870617, 0.0, 3.343267014690635,
    ]
    e = empirical_distortion(SystemSpec(gens), region, 6, 5, 8, seed=2)
    assert (e.emp_min, e.emp_max) == (0.06123275451023092, 16.576958797505085)


def reference_holder_constant(m, alpha, region, pair_samples, seed):
    """holder_constant with the wraparound metric and the Euclidean norm
    written out, as it computed them before geometry.point_distance."""
    rng = rng_from(seed)
    xs = sample_cells(region, pair_samples, rng)
    ys = sample_cells(region, pair_samples, rng)
    dx = np.abs(m.jacobian_det(xs))
    dy = np.abs(m.jacobian_det(ys))
    if m.kind == "circle":
        diff = np.abs(xs - ys)
        dist = np.minimum(diff, 1.0 - diff)
    else:
        dist = np.sqrt(((xs - ys) ** 2).sum(-1))
    keep = dist > 0
    num = np.abs(np.log(dx[keep]) - np.log(dy[keep]))
    return float((num / dist[keep] ** alpha).max())


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_holder_constant_matches_written_out_metric(alpha):
    circle_map = Perturbed(CircleNorthSouth(0.6, 0.3), 0.05, seed=6)
    planar_map = Perturbed(AffineSimilarity(0.76, 179.0, (0.2, -0.1)), 0.05, seed=3)
    circle_region = full_set(Domain.circle(512))
    planar_region = rasterize_disk(
        Domain.planar((-1.0, 1.0, -1.0, 1.0), 128), Disk((0.0, 0.0), 0.9))
    for m, region in ((circle_map, circle_region), (planar_map, planar_region)):
        got = holder_constant(m, alpha, region, 4096, seed=11)
        assert got == reference_holder_constant(m, alpha, region, 4096, 11)


@pytest.mark.baseline_dispatch
def test_distortion_affine_tail_pinned(skx):
    # two of the three maps are similarities, so many words end, in the order
    # the maps act, in a run of constant log-dets; those constants are added
    # one at a time, as each map acts, and a pre-summed tail changes these bits;
    # each line is recorded with numpy's AVX512_SKX kernels (True) and without
    gens = (
        Perturbed(AffineSimilarity(0.8, 120.0, (0.1, 0.1)), 0.02, seed=3),
        AffineSimilarity(0.7, 30.0, (0.4, 0.0)),
        AffineSimilarity(0.61, 77.0, (-0.3, 0.2)),
    )
    region = rasterize_disk(Domain.planar((-1.0, 1.0, -1.0, 1.0), 64), Disk((0.0, 0.0), 0.8))
    e = empirical_distortion(SystemSpec(gens), region, 6, 5, 8, seed=6)
    assert (e.emp_min, e.emp_max) == {
        True: (0.9930757685080619, 1.0027492847383925),
        False: (0.993075768508062, 1.0027492847383925),
    }[skx]
    e = empirical_distortion(SystemSpec(gens, include_inverses=True), region, 6, 5, 8, seed=6)
    assert (e.emp_min, e.emp_max) == {
        True: (0.9860843897370446, 1.0212010206108262),
        False: (0.9860843897370446, 1.0212010206108262),
    }[skx]
    # families where every step, or every step but the rotation's, takes the
    # fused image/log-det step (the inverses are Newton inverses); recorded
    # before that step existed, the planar inverses' line again when the
    # Newton inverse began to stop point by point
    all_perturbed = (
        Perturbed(AffineSimilarity(0.8, 120.0, (0.1, 0.1)), 0.02, seed=3),
        Perturbed(AffineSimilarity(0.7, 30.0, (0.4, 0.0)), 0.03, seed=5),
        Perturbed(AffineSimilarity(0.61, 77.0, (-0.3, 0.2)), 0.01, seed=8),
    )
    circle = (
        Perturbed(CircleNorthSouth(0.7, 0.0), 0.01, seed=4),
        CircleRotation(0.6180339887498949),
        CircleNorthSouth(0.6, 0.37),
    )
    circle_region = full_set(Domain.circle(256))
    for family, where, inverses, expected in (
        (all_perturbed, region, False, {True: (0.9871399686726957, 1.0132746965805486),
                                        False: (0.9871399686726957, 1.0132746965805486)}),
        (all_perturbed, region, True, {True: (0.9429197916202883, 1.1349986328733002),
                                       False: (0.9429197916202883, 1.1349986328733002)}),
        (circle, circle_region, False, {True: (0.11810399619636539, 10.09147662437497),
                                        False: (0.11810399619636539, 10.09147662437497)}),
        (circle, circle_region, True, {True: (0.023861859623638872, 112.63261254939911),
                                       False: (0.023861859623638872, 112.63261254939911)}),
    ):
        e = empirical_distortion(SystemSpec(family, inverses), where, 6, 5, 8, seed=6)
        assert (e.emp_min, e.emp_max) == expected[skx]


def reference_empirical_distortion(sys, region, word_length, word_count, pair_count, seed):
    """empirical_distortion written out one word at a time, as it pushed
    words before they were pushed together."""
    rng = rng_from(seed)
    xs = sample_cells(region, pair_count, rng)
    ys = sample_cells(region, pair_count, rng)
    pts0 = np.concatenate([xs, ys], axis=0)
    maps = sys.maps()
    consts = [m.constant_log_abs_det for m in maps]
    symbols = rng.integers(0, len(maps), size=(word_count, word_length))
    lo, hi = 1.0, 1.0
    for w in range(word_count):
        order = symbols[w, ::-1]
        live = max((i for i, s in enumerate(order) if consts[s] is None), default=-1)
        pts = pts0
        logdet = np.zeros(pts0.shape[0])
        for i, sym in enumerate(order):
            m, const = maps[sym], consts[sym]
            if const is not None:
                logdet += const
                if i < live:
                    pts = m.eval(pts)
            elif i < live:
                pts, step = m.eval_log_abs_det(pts)
                logdet += step
            else:
                logdet += m.log_abs_det(pts)
        ratios = np.exp(logdet[:pair_count] - logdet[pair_count:])
        lo = min(lo, float(ratios.min()))
        hi = max(hi, float(ratios.max()))
    return lo, hi


_SIMILARITIES = (
    AffineSimilarity(0.8, 120.0, (0.1, 0.1)),
    AffineSimilarity(0.7, 30.0, (0.4, 0.0)),
    AffineSimilarity(0.61, 77.0, (-0.3, 0.2)),
)
_DISTORTION_FAMILIES = {
    "similarity": _SIMILARITIES,
    "mixed": (Perturbed(_SIMILARITIES[0], 0.02, seed=3),) + _SIMILARITIES[1:],
    "perturbed": tuple(
        Perturbed(g, a, seed=s) for g, a, s in zip(_SIMILARITIES, (0.02, 0.03, 0.01), (3, 5, 8))
    ),
    "circle": (
        Perturbed(CircleNorthSouth(0.7, 0.0), 0.01, seed=4),
        CircleRotation(GOLD),
        CircleNorthSouth(0.6, 0.37),
    ),
}


@pytest.mark.baseline_dispatch
@pytest.mark.parametrize("chunk_points", [None, 24])
@pytest.mark.parametrize(
    "word_length, word_count, pair_count",
    [(0, 3, 4), (1, 7, 4), (30, 1, 4), (30, 7, 4), (30, 13, 1), (30, 4, 16)],
)
@pytest.mark.parametrize("inverses", [False, True])
@pytest.mark.parametrize("family", sorted(_DISTORTION_FAMILIES))
def test_empirical_distortion_matches_word_by_word_loop(
    monkeypatch, family, inverses, word_length, word_count, pair_count, chunk_points
):
    # a 24-point chunk holds 12, 3 or 1 words at 1, 4 or 16 pairs, so the
    # counts above end on a partial chunk
    if chunk_points is not None:
        monkeypatch.setattr(analysis, "_CHUNK_POINTS", chunk_points)
    gens = _DISTORTION_FAMILIES[family]
    if family == "circle":
        region = full_set(Domain.circle(256))
    else:
        region = rasterize_disk(Domain.planar((-1.0, 1.0, -1.0, 1.0), 64), Disk((0.0, 0.0), 0.8))
    sys = SystemSpec(gens, inverses)
    e = empirical_distortion(sys, region, word_length, word_count, pair_count, seed=6)
    expected = reference_empirical_distortion(
        sys, region, word_length, word_count, pair_count, 6)
    assert (e.emp_min, e.emp_max) == expected


def test_perturbed_attractor_pinned():
    # every member is pushed forward; recorded before the push gathered each
    # bump's sines from the chart's axes
    import hashlib

    from ifslab.geometry import ball_domain

    res = 256
    built = build_construction(ConstructionParams(kappa=0.76, theta_deg=179.0), resolution=res)
    sys = SystemSpec(tuple(Perturbed(g, 0.01, 20 + i) for i, g in enumerate(built.system.generators)))
    ball = built.absorbing_ball
    result = attractor(sys, ball, tol=2 * ball_domain(ball, res).cell_sizes[0], resolution=res)
    assert result.iterations == 14
    assert repr(result.final_hausdorff) == "0.18230096702465678"
    digest = hashlib.sha256(np.packbits(result.attractor.bitmap)).hexdigest()
    assert digest == "6f0ca5952a5efd4add372db84a512d93f5b1b0f37f6da632c842b0b68cb20aa1"


# -- vacuous verdicts ----------------------------------------------------------


@pytest.mark.parametrize(
    "probe",
    [
        lambda sys, region: minimality_test(sys, region, 0.2, 10, 0),
        lambda sys, region: ergodicity_probe(sys, 64, seed_sets=0, domain=region.domain),
        lambda sys, region: distortion_report(sys, region, 1.0, 10, 0, 8),
        lambda sys, region: distortion_report(sys, region, 1.0, 10, 8, 0),
        lambda sys, region: empirical_distortion(sys, region, 10, 0, 8),
        lambda sys, region: distortion_report(sys, region, 1.0, 10, 8, 8, holder_pairs=0),
        lambda sys, region: holder_constant(sys.maps()[0], 1.0, region, 0),
        lambda sys, region: contraction_factor(sys, region, 0),
        lambda sys, region: distortion_report(sys, region, 1.0, 0, 8, 8),
        lambda sys, region: ergodicity_probe(sys, 64, refine_steps=-1, domain=region.domain),
        lambda sys, region: minimality_test(sys, region, float("nan"), 10, 4),
    ],
    ids=["samples", "seed_sets", "word_count", "pair_count", "empirical_word_count",
         "holder_pairs", "holder_pair_samples", "contraction_samples", "word_length",
         "refine_steps", "epsilon-nan"],
)
def test_probe_rejects_empty_sample(probe):
    # a probe that examined nothing must not return a verdict
    dom = Domain.planar((-1.0, 1.0, -1.0, 1.0), 64)
    sys = SystemSpec((AffineSimilarity(0.5, 30.0, (0.0, 0.0)),))
    with pytest.raises(ValidationError):
        probe(sys, rasterize_disk(dom, Disk((0.0, 0.0), 0.5)))
