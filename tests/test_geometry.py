import math

import numpy as np
import pytest
import scipy.ndimage as ndi
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifslab.errors import (
    EmptySetError,
    ResolutionError,
    ValidationError,
)
from ifslab.geometry import (
    Disk,
    Domain,
    GridSet,
    boundary_cell_count,
    density_points,
    diameter,
    empty_set,
    full_set,
    hausdorff_distance,
    one_cell_ring_volume,
    points_to_gridset,
    rasterize_disk,
    read_pgm,
    volume,
    write_pgm,
)
from ifslab.seeding import rng_from


@pytest.fixture
def square():
    return Domain.planar((0.0, 1.0, 0.0, 1.0), 256)


def half_plane(domain, axis=0):
    xs = domain.axis_centers()[axis]
    mask = xs >= 0.5
    if axis == 0:
        return GridSet(domain, np.broadcast_to(mask[:, None], domain.shape))
    return GridSet(domain, np.broadcast_to(mask[None, :], domain.shape))


def test_domain_validation():
    with pytest.raises(ValidationError):
        Domain.planar((0, 1, 0, 1), 8)
    with pytest.raises(ValidationError):
        Domain.planar((1, 0, 0, 1), 64)
    with pytest.raises(ValidationError):
        Domain("circle", 64, (0, 1, 0, 1))


def test_disk_validation():
    with pytest.raises(ValidationError):
        Disk((0.0, 0.0), 0.0)
    with pytest.raises(ValidationError):
        Disk(0.3, 0.6)  # circle arc radius >= 1/2


def test_volume_empty_and_full(square):
    assert volume(empty_set(square)) == 0.0
    assert volume(full_set(square)) == 1.0


def test_volume_half_plane(square):
    assert volume(half_plane(square)) == pytest.approx(0.5, abs=1.0 / 256)


def test_volume_additive_on_disjoint(square):
    rng = rng_from(1)
    bits = rng.random(square.shape) < 0.3
    a = GridSet(square, bits)
    b = GridSet(square, ~bits & (rng.random(square.shape) < 0.4))
    assert volume(a.union(b)) == pytest.approx(volume(a) + volume(b), abs=0)


def test_density_points_half_plane_interior_and_boundary(square):
    a = half_plane(square)
    h = square.max_cell_size
    dp = density_points(a, 4 * h, 0.9)
    # interior point: ratio 1
    assert dp.lookup(np.array([[0.8, 0.5]]))[0]
    # boundary point: ratio about 0.5 < 0.9
    assert not dp.lookup(np.array([[0.5, 0.5]]))[0]


def test_density_points_random_half_density(square):
    # direct simulation with a fixed seed; threshold 0.9 excludes almost all
    rng = rng_from(2024)
    a = GridSet(square, rng.random(square.shape) < 0.5)
    h = square.max_cell_size
    dp = density_points(a, 2 * h, 0.9)
    frac = float(dp.bitmap.mean())
    assert frac == pytest.approx(0.00128173828125, abs=0)
    assert frac < 0.01


def test_density_points_inside_disk_union(square):
    h = square.max_cell_size
    r_min = 8 * h
    disks = [Disk((0.3, 0.3), 0.1), Disk((0.6, 0.6), 0.15)]
    union = empty_set(square)
    for d in disks:
        union = union.union(rasterize_disk(square, d))
    dp = density_points(union, r_min, 0.95)
    # every cell at depth >= r_min inside a disk is a density point
    for d in disks:
        inner = rasterize_disk(square, Disk(d.center, d.radius - r_min))
        assert inner.minus(dp).is_empty()


def test_density_points_preconditions(square):
    a = half_plane(square)
    h = square.max_cell_size
    with pytest.raises(ResolutionError):
        density_points(a, 0.5 * h, 0.9)
    with pytest.raises(ValidationError):
        density_points(a, 4 * h, 0.4)


def test_hausdorff_identity(square):
    d = rasterize_disk(square, Disk((0.5, 0.5), 0.2))
    assert hausdorff_distance(d, d) == 0.0


def test_hausdorff_two_cells(square):
    h = square.max_cell_size
    b1 = np.zeros(square.shape, bool)
    b1[30, 40] = True
    b2 = np.zeros(square.shape, bool)
    b2[130, 40] = True
    assert hausdorff_distance(GridSet(square, b1), GridSet(square, b2)) == pytest.approx(
        100 * h, abs=0
    )


def test_hausdorff_dilated_disk(square):
    d = rasterize_disk(square, Disk((0.5, 0.5), 0.2))
    dil = GridSet(square, ndi.binary_dilation(d.bitmap))
    assert hausdorff_distance(d, dil) <= 2 * square.max_cell_size


def test_hausdorff_symmetry_and_triangle(square):
    rng = rng_from(5)
    sets = []
    for _ in range(3):
        c = rng.uniform(0.25, 0.75, size=2)
        sets.append(rasterize_disk(square, Disk((c[0], c[1]), rng.uniform(0.05, 0.2))))
    a, b, c = sets
    assert hausdorff_distance(a, b) == hausdorff_distance(b, a)
    diag = square.max_cell_size * np.sqrt(2)
    assert hausdorff_distance(a, c) <= hausdorff_distance(a, b) + hausdorff_distance(b, c) + diag


def test_hausdorff_empty_error(square):
    with pytest.raises(EmptySetError):
        hausdorff_distance(empty_set(square), full_set(square))


def test_circle_domain_wraparound():
    dom = Domain.circle(360)
    arc = rasterize_disk(dom, Disk(0.0, 0.1))
    # the arc wraps: both sides of 0 included
    assert volume(arc) == pytest.approx(0.2, abs=2 / 360)
    assert arc.lookup(np.array([0.95]))[0]
    assert arc.lookup(np.array([0.05]))[0]
    assert not arc.lookup(np.array([0.5]))[0]


def test_circle_diameter():
    dom = Domain.circle(1000)
    bits = np.zeros(1000, bool)
    bits[0] = bits[600] = True  # wrapped distance 0.4
    assert diameter(GridSet(dom, bits)) == pytest.approx(0.4, abs=2e-3)


def test_planar_diameter_matches_disk(square):
    d = rasterize_disk(square, Disk((0.5, 0.5), 0.2))
    assert diameter(d) == pytest.approx(0.4, abs=2 * square.max_cell_size)


def test_boundary_ring(square):
    d = rasterize_disk(square, Disk((0.5, 0.5), 0.2))
    count = boundary_cell_count(d)
    # roughly the perimeter in cells
    expected = 2 * np.pi * 0.2 / square.max_cell_size
    assert 0.5 * expected < count < 3 * expected
    assert one_cell_ring_volume(d) == count * square.cell_volume


def test_pgm_roundtrip_planar(tmp_path, square):
    d = rasterize_disk(square, Disk((0.4, 0.6), 0.17))
    for binary in (True, False):
        path = tmp_path / ("b.pgm" if binary else "a.pgm")
        write_pgm(d, path, binary=binary)
        back = read_pgm(path, square)
        assert back.equals(d)


def test_pgm_roundtrip_circle(tmp_path):
    dom = Domain.circle(512)
    arc = rasterize_disk(dom, Disk(0.3, 0.12))
    path = tmp_path / "c.pgm"
    write_pgm(arc, path)
    assert read_pgm(path).equals(arc)


def test_pgm_header(tmp_path, square):
    path = tmp_path / "h.pgm"
    write_pgm(rasterize_disk(square, Disk((0.5, 0.5), 0.1)), path)
    head = path.read_bytes()[:20]
    assert head.startswith(b"P5\n256 256\n1\n")


# Centers are placed in chart units (u, v in [0, 1] is inside the chart) and
# the radius is a fraction of the chart width, so the draws cover disks
# hanging off every edge, sub-cell disks and disks wholly outside the chart.
@settings(deadline=None)
@given(
    res=st.integers(16, 48),
    x0=st.floats(-2.0, 2.0),
    y0=st.floats(-2.0, 2.0),
    width=st.floats(0.1, 4.0),
    height=st.floats(0.1, 4.0),
    u=st.floats(-1.0, 2.0),
    v=st.floats(-1.0, 2.0),
    r=st.floats(1e-3, 1.5),
)
@example(res=16, x0=0.0, y0=0.0, width=1.0, height=1.0, u=0.0, v=0.5, r=0.3)  # left edge
@example(res=16, x0=0.0, y0=0.0, width=1.0, height=1.0, u=1.0, v=0.5, r=0.3)  # right edge
@example(res=16, x0=0.0, y0=0.0, width=1.0, height=1.0, u=0.5, v=0.0, r=0.3)  # bottom edge
@example(res=16, x0=0.0, y0=0.0, width=1.0, height=1.0, u=0.5, v=1.0, r=0.3)  # top edge
@example(res=16, x0=0.0, y0=0.0, width=1.0, height=1.0, u=0.03125, v=0.03125, r=0.01)  # sub-cell
@example(res=16, x0=0.0, y0=0.0, width=1.0, height=1.0, u=0.5, v=0.5, r=0.01)  # between centers
@example(res=16, x0=0.0, y0=0.0, width=1.0, height=1.0, u=-0.5, v=0.5, r=0.3)  # outside left
@example(res=16, x0=0.0, y0=0.0, width=1.0, height=1.0, u=1.5, v=1.5, r=0.3)  # outside top right
@example(res=16, x0=0.0, y0=0.0, width=1.0, height=1.0, u=0.5, v=0.5, r=1.5)  # covers the chart
# cell centers lying exactly on the circle
@example(res=16, x0=0.0, y0=0.0, width=1.0, height=1.0, u=0.53125, v=0.53125, r=0.125)
def test_rasterize_disk_matches_full_grid_rule(res, x0, y0, width, height, u, v, r):
    dom = Domain.planar((x0, x0 + width, y0, y0 + height), res)
    d = Disk((x0 + u * width, y0 + v * height), r * width)
    xs, ys = dom.axis_centers()
    cx, cy = d.center
    expected = (xs[:, None] - cx) ** 2 + (ys[None, :] - cy) ** 2 <= d.radius**2
    assert np.array_equal(rasterize_disk(dom, d).bitmap, expected)


def _reference_cell(dom, p):
    """The floor rule on the half-open chart, one point at a time: a cell or None."""
    n = dom.resolution
    if dom.kind == "circle":
        return (min(math.floor((p % 1.0) * n), n - 1),)
    xmin, xmax, ymin, ymax = dom.bounds
    x, y = p
    if not (xmin <= x < xmax and ymin <= y < ymax):
        return None
    dx, dy = dom.cell_sizes
    return (min(math.floor((x - xmin) / dx), n - 1), min(math.floor((y - ymin) / dy), n - 1))


def _check_cell_index(dom, points, bits):
    """lookup, pull and points_to_gridset against the reference, point by point."""
    cells = [_reference_cell(dom, p) for p in points]
    expected = np.array([c is not None and bool(bits[c]) for c in cells])
    marked = np.zeros(dom.shape, bool)
    for c in cells:
        if c is not None:
            marked[c] = True
    a = GridSet(dom, bits)
    idx = dom.point_cells(points)
    assert idx.shape == expected.shape
    assert np.array_equal(a.pull(idx), expected)
    assert np.array_equal(a.lookup(points), expected)
    assert np.array_equal(points_to_gridset(dom, points).bitmap, marked)
    assert np.array_equal(a.included_points(), dom.cell_centers()[bits])


# Points are drawn in chart units (u, v in [0, 1) is on the chart), so they
# fall off every side; cell-edge points sit at xmin + i * dx for i in [-1, res + 1].
@settings(deadline=None)
@given(
    res=st.integers(16, 40),
    x0=st.floats(-2.0, 2.0),
    y0=st.floats(-2.0, 2.0),
    width=st.floats(0.1, 4.0),
    height=st.floats(0.1, 4.0),
    uv=st.lists(st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5)), max_size=40),
    edges=st.lists(st.tuples(st.integers(-1, 41), st.integers(-1, 41)), max_size=40),
    seed=st.integers(0, 2**16),
)
# x / dx rounds x == xmax down into the last cell
@example(res=22, x0=0.0, y0=0.0, width=0.1, height=0.1, uv=[], edges=[], seed=0)
# x / dx rounds a point just below xmax up past the last cell
@example(res=24, x0=0.0, y0=0.0, width=0.1, height=0.1, uv=[], edges=[], seed=0)
def test_planar_cell_index_matches_floor_rule(res, x0, y0, width, height, uv, edges, seed):
    dom = Domain.planar((x0, x0 + width, y0, y0 + height), res)
    xmin, xmax, ymin, ymax = dom.bounds
    dx, dy = dom.cell_sizes
    below_x, below_y = np.nextafter(xmax, -np.inf), np.nextafter(ymax, -np.inf)
    corners = [(xmin, ymin), (below_x, below_y), (xmax, ymin), (xmin, ymax), (xmax, ymax)]
    # the chart is [xmin, xmax) x [ymin, ymax): xmax and ymax are off it
    assert dom.point_cells(np.array(corners)).tolist() == [0, res * res - 1, -1, -1, -1]
    points = np.array(
        corners
        + [(xmin + u * (xmax - xmin), ymin + v * (ymax - ymin)) for u, v in uv]
        + [(xmin + min(i, res + 1) * dx, ymin + min(j, res + 1) * dy) for i, j in edges]
    )
    _check_cell_index(dom, points, rng_from(seed).random(dom.shape) < 0.5)


def test_cell_edge_belongs_to_the_cell_above():
    # dyadic chart: every edge i * dx is exact, so no rounding hides the rule
    dom = Domain.planar((0.0, 1.0, -1.0, 1.0), 16)
    i = np.arange(17)
    edges = np.stack([i / 16, -1.0 + i / 8], axis=-1)
    assert dom.point_cells(edges).tolist() == [k * 16 + k for k in range(16)] + [-1]


def test_lookup_single_point():
    # one planar point has shape (2,), so its cell index is a 0-d array
    s = GridSet(Domain.planar((0.0, 1.0, 0.0, 1.0), 16), np.eye(16, dtype=bool))
    assert s.lookup(np.array([0.5, 0.5])) and not s.lookup(np.array([0.5, 0.1]))
    assert not s.lookup(np.array([1.5, 1.5]))
    assert full_set(Domain.circle(16)).lookup(np.float64(1.3))

@settings(deadline=None)
@given(
    res=st.integers(16, 64),
    ps=st.lists(st.floats(-3.0, 3.0), max_size=40),
    seed=st.integers(0, 2**16),
)
def test_circle_cell_index_wraps(res, ps, seed):
    dom = Domain.circle(res)
    # whole turns and points just below 0 and 1
    turns = [-1.0, 0.0, 1.0, 2.0, -1e-18, np.nextafter(1.0, 0.0), -0.25, 1.25]
    points = np.array(turns + ps)
    assert dom.point_cells(points[:4]).tolist() == [0, 0, 0, 0]
    assert dom.point_cells(points[4:6]).tolist() == [res - 1, res - 1]
    wrapped = dom.point_cells(np.array([0.75, 0.25]))
    assert dom.point_cells(points[6:8]).tolist() == wrapped.tolist()
    _check_cell_index(dom, points, rng_from(seed).random(dom.shape) < 0.5)


# -- Hausdorff distance against two whole-chart distance transforms


def _two_transform_hausdorff(a, b):
    """The distance as two full transforms give it, one to each set."""
    if np.array_equal(a.bitmap, b.bitmap):
        return 0.0
    dx, dy = a.domain.cell_sizes
    if a.domain.kind == "circle":
        n = a.domain.resolution

        def to(s):
            return ndi.distance_transform_edt(~np.tile(s.bitmap, 3), sampling=dx)[n : 2 * n]

    else:

        def to(s):
            return ndi.distance_transform_edt(~s.bitmap, sampling=(dx, dy))

    return float(max(to(b)[a.bitmap].max(), to(a)[b.bitmap].max()))


def _random_patch(dom, rng, start, size, density):
    """Random cells inside a box of the chart (an arc on the circle) holding at least one."""
    n = dom.resolution
    bits = np.zeros(dom.shape, bool)
    if dom.kind == "circle":
        idx = (start[0] + np.arange(size[0])) % n  # the arc may wrap across 0
        bits[idx] = rng.random(len(idx)) < density
        bits[idx[0]] = True
    else:
        x0, y0 = (min(s, n - 1) for s in start)
        box = (slice(x0, min(x0 + size[0], n)), slice(y0, min(y0 + size[1], n)))
        bits[box] = rng.random(bits[box].shape) < density
        bits[x0, y0] = True
    return GridSet(dom, bits)


# Patches start at a cell index (clipped to the chart), so index 0 and sizes
# reaching past the last cell give sets that touch the chart edge.
@settings(deadline=None)
@given(
    circle=st.booleans(),
    res=st.integers(16, 40),
    width=st.floats(0.1, 4.0),
    height=st.floats(0.1, 4.0),
    start=st.tuples(st.integers(0, 40), st.integers(0, 40)),
    size=st.tuples(st.integers(1, 40), st.integers(1, 40)),
    other=st.tuples(st.integers(0, 40), st.integers(0, 40)),
    density=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**16),
)
# square cells and a 1:2 aspect ratio, where many cells tie for nearest
@example(circle=False, res=16, width=1.0, height=1.0, start=(0, 0), size=(40, 40),
         other=(15, 15), density=0.1, seed=0)
@example(circle=False, res=16, width=1.0, height=2.0, start=(3, 0), size=(9, 40),
         other=(0, 15), density=0.2, seed=1)
# an arc across 0 on the circle
@example(circle=True, res=32, width=1.0, height=1.0, start=(28, 0), size=(9, 1),
         other=(10, 0), density=0.5, seed=2)
def test_hausdorff_matches_two_transform_reference(
    circle, res, width, height, start, size, other, density, seed
):
    dom = Domain.circle(res) if circle else Domain.planar((-1.0, width - 1.0, 0.0, height), res)
    rng = rng_from(seed)
    outer = _random_patch(dom, rng, start, size, density)
    # a random part of outer, holding at least the patch's first cell
    inner = outer.intersection(GridSet(dom, rng.random(dom.shape) < 0.5))
    inner = inner.union(_random_patch(dom, rng, start, (1, 1), 1.0))
    apart = _random_patch(dom, rng, other, size, density)
    for a, b in ((inner, outer), (outer, apart), (inner, apart)):
        d = hausdorff_distance(a, b)
        assert d == hausdorff_distance(b, a) == _two_transform_hausdorff(a, b)
        assert (d == 0.0) == a.equals(b)
    assert hausdorff_distance(outer, outer) == 0.0


# -- PGM round trip


@settings(deadline=None)
@given(
    circle=st.booleans(),
    res=st.integers(16, 80),
    binary=st.booleans(),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_pgm_roundtrip_property(tmp_path_factory, circle, res, binary, density, seed):
    dom = Domain.circle(res) if circle else Domain.planar((0.0, 1.0, 0.0, 1.0), res)
    s = GridSet(dom, rng_from(seed).random(dom.shape) < density)
    path = tmp_path_factory.mktemp("pgm") / "s.pgm"
    write_pgm(s, path, binary=binary)
    assert read_pgm(path).equals(s)
    assert read_pgm(path, dom).equals(s)
    # the same pixels on another chart of the same size
    if not circle:
        other = Domain.planar((-2.0, 3.0, 1.0, 1.5), res)
        assert np.array_equal(read_pgm(path, other).bitmap, s.bitmap)


@pytest.mark.parametrize("binary", [True, False])
def test_pgm_size_errors(tmp_path, binary):
    path = tmp_path / "s.pgm"
    # a non-square image with no domain to place it on
    if binary:
        path.write_bytes(b"P5\n20 18\n1\n" + bytes(20 * 18))
    else:
        path.write_bytes(b"P2\n20 18\n1\n" + b"0 " * (20 * 18))
    for domain in (None, Domain.planar((0.0, 1.0, 0.0, 1.0), 20)):
        with pytest.raises(ValidationError):
            read_pgm(path, domain)
    square = Domain.planar((0.0, 1.0, 0.0, 1.0), 32)
    write_pgm(full_set(square), path, binary=binary)
    for wrong in (Domain.planar((0.0, 1.0, 0.0, 1.0), 33), Domain.circle(32), Domain.circle(32 * 32)):
        with pytest.raises(ValidationError):
            read_pgm(path, wrong)
    write_pgm(full_set(Domain.circle(40)), path, binary=binary)
    for wrong in (Domain.circle(41), Domain.planar((0.0, 1.0, 0.0, 1.0), 40)):
        with pytest.raises(ValidationError):
            read_pgm(path, wrong)
