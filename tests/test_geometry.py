import csv
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.ndimage as ndi
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ifslab
from ifslab.errors import (
    EmptySetError,
    ResolutionError,
    ValidationError,
)
from ifslab.geometry import (
    CIRCLE,
    Disk,
    Domain,
    GridSet,
    all_neighbours,
    boundary_cell_count,
    density_points,
    density_points_at,
    diameter,
    empty_set,
    full_set,
    grid_distances,
    hausdorff_distance,
    local_density,
    nearest_point_distances,
    one_cell_ring_volume,
    point_distance,
    points_to_gridset,
    rasterize_disk,
    read_pgm,
    write_pgm,
    volume,
    write_points_csv,
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


def test_domain_refuses_cells_too_small_to_square():
    # a squared cell size below the smallest normal float underflows, so
    # squared lengths on the chart lose their bits; one narrow axis suffices
    tiny = np.finfo(float).tiny
    for bounds in ((0.0, 1e-160, 0.0, 1e-160), (0.0, 1.0, 0.0, 64 * math.sqrt(tiny) / 2)):
        with pytest.raises(ValidationError, match="cells too small to square"):
            Domain.planar(bounds, 64)
    ok = Domain.planar((0.0, 2.0**-500, 0.0, 2.0**-500), 64)
    assert min(ok.cell_sizes) ** 2 >= tiny


def test_disk_validation():
    with pytest.raises(ValidationError):
        Disk((0.0, 0.0), 0.0)
    with pytest.raises(ValidationError):
        Disk(0.3, 0.6)  # circle arc radius >= 1/2
    # json.load reads NaN and Infinity from an instance file
    for center, radius in (((np.nan, 0.5), 0.1), ((0.5, -np.inf), 0.1), ((0.5, 0.5), np.inf),
                           (np.nan, 0.1)):
        with pytest.raises(ValidationError):
            Disk(center, radius)


@pytest.mark.filterwarnings("error")
def test_disk_radius_squared_must_be_finite():
    # disk_cells compares squared lengths against r**2, which overflows past ~1.34e154
    for radius in (1e155, np.float64(1e200), 1.7e308):
        with pytest.raises(ValidationError, match="squared"):
            Disk((0.0, 0.0), radius)
    # just below that bound a disk rasterizes as its unit-scale copy does
    huge = Domain.planar((-1e154, 1e154, -1e154, 1e154), 16)
    big = rasterize_disk(huge, Disk((0.0, 0.0), 1e154))
    unit = rasterize_disk(Domain.planar((-1.0, 1.0, -1.0, 1.0), 16), Disk((0.0, 0.0), 1.0))
    assert np.array_equal(big.bitmap, unit.bitmap)


def test_volume_empty_and_full(square):
    assert float(empty_set(square).bitmap.mean()) == 0.0
    assert float(full_set(square).bitmap.mean()) == 1.0


def test_volume_half_plane(square):
    assert float(half_plane(square).bitmap.mean()) == pytest.approx(0.5, abs=1.0 / 256)


def test_volume_additive_on_disjoint(square):
    rng = rng_from(1)
    bits = rng.random(square.shape) < 0.3
    a = GridSet(square, bits)
    b = GridSet(square, ~bits & (rng.random(square.shape) < 0.4))
    total = float(a.bitmap.mean()) + float(b.bitmap.mean())
    assert float(a.union(b).bitmap.mean()) == pytest.approx(total, abs=0)


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
    points = np.array([[0.5, 0.5]])
    with pytest.raises(ResolutionError):
        density_points_at(a, 0.5 * h, 0.9, points)
    with pytest.raises(ValidationError):
        density_points_at(a, 4 * h, 0.4, points)


@pytest.mark.baseline_dispatch
@pytest.mark.parametrize("threshold", [0.75, 1.0])
def test_density_points_at_matches_full_grid_lookup_on_the_circle(threshold):
    # arcs wrap across 0, so positions near either end count both sides
    dom = Domain.circle(512)
    rng = rng_from(29)
    a = GridSet(dom, rng.random(dom.shape) < 0.8)
    h = dom.max_cell_size
    points = np.concatenate([rng.uniform(0, 1, 64), rng.uniform(0, 5 * h, 16),
                             1 - rng.uniform(1e-9, 5 * h, 16), [0.0, 1.0, -0.25, 1.5]])
    for radius in (2 * h, 4.5 * h, 9 * h):
        want = density_points(a, radius, threshold).lookup(points)
        assert np.array_equal(density_points_at(a, radius, threshold, points), want)


def _density_by_offsets(a, radius):
    """Counts over the kernel offsets one shifted slice at a time: zeros beyond
    a planar chart's edges, wraparound on the circle."""
    dom = a.domain
    dx, dy = dom.cell_sizes
    bits = a.bitmap.astype(np.int64)
    n = dom.resolution
    if dom.kind == CIRCLE:
        m = int(np.floor(radius / dx))
        offsets = range(-m, m + 1)
        counts = sum(np.roll(bits, -k) for k in offsets)
        return counts / len(offsets)
    mx, my = int(np.floor(radius / dx)), int(np.floor(radius / dy))
    padded = np.pad(bits, ((mx, mx), (my, my)))
    counts = np.zeros(dom.shape, dtype=np.int64)
    ksum = 0
    for i in range(-mx, mx + 1):
        for j in range(-my, my + 1):
            if (i * dx) ** 2 + (j * dy) ** 2 <= radius**2:
                counts += padded[mx + i:mx + i + n, my + j:my + j + n]
                ksum += 1
    return counts / ksum


@pytest.mark.parametrize("cells", [2, 4, 8])
def test_local_density_matches_offset_loop_planar(cells):
    dom = Domain.planar((-2.0, 3.0, 0.1, 0.7), 48)
    a = GridSet(dom, rng_from(cells).random(dom.shape) < 0.6)
    radius = cells * dom.max_cell_size
    assert np.array_equal(local_density(a, radius), _density_by_offsets(a, radius))


@pytest.mark.parametrize("n", [64, 1000])
@pytest.mark.parametrize("radius_cells", [2, 3.5, 10, None])
def test_local_density_matches_offset_loop_circle(n, radius_cells):
    dom = Domain.circle(n)
    a = GridSet(dom, rng_from(n).random(dom.shape) < 0.5)
    radius = 0.45 if radius_cells is None else radius_cells / n
    assert np.array_equal(local_density(a, radius), _density_by_offsets(a, radius))


def _scipy_modules_after(code, *argv):
    """The scipy modules a fresh interpreter holds after running ``code``."""
    code += "\nprint(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    src = str(Path(ifslab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code, *map(str, argv)], capture_output=True,
                         text=True, env=env, timeout=120, check=True).stdout
    return out.strip().splitlines()[-1]


def test_import_leaves_scipy_signal_and_stats_out():
    # scipy is imported on first use by the kernels that call it, so the CLI
    # loads none of it: neither scipy.signal and scipy.stats nor scipy.ndimage
    # and scipy.spatial
    assert _scipy_modules_after("import sys, ifslab.cli") == "[]"


_NO_SCIPY_RUNS = {
    "construct": "assert main(['construct', '--kappa', '0.76', '--resolution', '64', "
                 "'--out', sys.argv[1]]) == 0",
    "greedy_pack": "dom = Domain.planar((0.0, 1.0, 0.0, 1.0), 512)\n"
                   "greedy_pack(empty_set(dom), Disk((0.5, 0.5), 0.4), 8 / 512, 200)",
    # the planar probe chain: an attractor of perturbed similarities, then
    # its distortion, its minimality and a shrink time
    "probes": "from ifslab import analysis, construction, geometry, maps\n"
              "sys_ = maps.parse_system('affine kappa=0.5 theta=30 anchor=0,0\\n"
              "affine kappa=0.5 theta=200 anchor=1,0\\nperturb base=1 amp=0.01 seed=3\\n"
              "perturb base=2 amp=0.01 seed=4\\n')\n"
              "att = construction.attractor(sys_, Disk((0.5, 0.0), 2.0), tol=0.07, resolution=128,"
              " verify_absorbing=False).attractor\n"
              "analysis.distortion_report(sys_, att, 1.0, 12, 40, 16, holder_pairs=64, seed=2)\n"
              "eps = 0.05 * geometry.diameter(att)\n"
              "assert analysis.minimality_test(sys_, att, eps, 12, 4, seed=2).samples == 4\n"
              "analysis.shrink_time(sys_, maps.Word((1, 2) * 8, 'reverse'), Disk((0.5, 0.0), 1.0),"
              " 0.05, 16, resolution=128)",
}


@pytest.mark.parametrize("run", sorted(_NO_SCIPY_RUNS))
def test_runs_without_a_scipy_kernel_load_no_scipy(tmp_path, run):
    code = ("import sys\nfrom ifslab.cli import main\n"
            "from ifslab.geometry import Disk, Domain, empty_set\n"
            "from ifslab.packing import greedy_pack\n" + _NO_SCIPY_RUNS[run])
    assert _scipy_modules_after(code, tmp_path) == "[]"


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
    assert float(arc.bitmap.mean()) == pytest.approx(0.2, abs=2 / 360)
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


# The distances below are checked for equality against the formulas each
# caller wrote out before point_distance held them: the explicit wraparound
# min(d, 1 - d) with its neighbour scans, and the explicit Euclidean norm.


def reference_circle_diameter(pos):
    if len(pos) == 1:
        return 0.0
    pos = np.sort(pos)
    idx = np.searchsorted(pos, (pos + 0.5) % 1.0)
    best = 0.0
    for off in (-1, 0):
        diff = np.abs(pos[(idx + off) % len(pos)] - pos)
        best = max(best, float(np.minimum(diff, 1.0 - diff).max()))
    return best


def reference_nearest(cells, pts):
    pos = np.sort(pts % 1.0)
    idx = np.searchsorted(pos, cells % 1.0)
    best = np.full(cells.shape, np.inf)
    for off in (-1, 0):
        diff = np.abs(pos[(idx + off) % len(pos)] - cells % 1.0)
        best = np.minimum(best, np.minimum(diff, 1.0 - diff))
    return best


def reference_planar_diameter(pts):
    # every pair, a block of rows at a time
    best = 0.0
    for i in range(0, len(pts), 256):
        d = pts[i:i + 256, None, :] - pts[None, :, :]
        best = max(best, float(np.sqrt((d**2).sum(-1)).max()))
    return best


def circle_sets():
    dom = Domain.circle(997)
    one = np.zeros(997, bool)
    one[3] = True
    antipodal = np.zeros(1000, bool)
    antipodal[[0, 500]] = True
    return {
        "arc-across-0": rasterize_disk(dom, Disk(0.02, 0.1)),
        "two-arcs-across-0": rasterize_disk(dom, Disk(0.98, 0.05)).union(
            rasterize_disk(dom, Disk(0.4, 0.01))),
        "one-point": GridSet(dom, one),
        "antipodal-pair": GridSet(Domain.circle(1000), antipodal),
        "sparse": GridSet(dom, rng_from(5).random(997) < 0.01),
    }


@pytest.mark.parametrize("name", list(circle_sets()))
def test_circle_diameter_matches_wraparound_scan(name):
    s = circle_sets()[name]
    assert diameter(s) == reference_circle_diameter(s.included_points())


@pytest.mark.parametrize(
    "points",
    [[0.98, 0.01, 0.5], [0.3], [0.25, 0.75], [0.999, 0.0005], [1.2, -0.1]],
    ids=["across-0", "one-point", "antipodal-pair", "both-ends", "off-the-unit-interval"],
)
def test_circle_nearest_distances_match_wraparound_scan(points):
    pts = np.array(points)
    for s in circle_sets().values():
        want = reference_nearest(s.included_points(), pts)
        assert np.array_equal(nearest_point_distances(s, pts), want)


@pytest.mark.parametrize("count", [1, 2, 399, 400, 401, 2000])
def test_planar_diameter_matches_euclidean_norm(square, count):
    cells = rng_from(count).choice(square.resolution**2, count, replace=False)
    bits = np.zeros(square.resolution**2, bool)
    bits[cells] = True
    s = GridSet(square, bits.reshape(square.shape))
    assert diameter(s) == reference_planar_diameter(s.included_points())


def _diameter_sets(n):
    """One row, one column, a diagonal, one cell, and random sets from sparse to full."""
    sets = {"row": np.s_[7, :], "column": np.s_[:, 11], "one-cell": np.s_[5, 9]}
    bits = {name: np.zeros((n, n), bool) for name in sets}
    for name, at in sets.items():
        bits[name][at] = True
    bits["diagonal"] = np.eye(n, dtype=bool)[:, ::-1]
    rng = rng_from(61)
    for density in (0.001, 0.05, 0.5, 1.0):
        bits[f"random-{density}"] = rng.uniform(size=(n, n)) < density
        bits[f"random-{density}"][rng.integers(n), rng.integers(n)] = True
    return bits


@pytest.mark.baseline_dispatch
@pytest.mark.parametrize(
    "bounds", [(0.0, 1.0, 0.0, 1.0), (-1.3, 1.9, -0.45, 0.35)], ids=["square", "wide"]
)
@pytest.mark.parametrize("name", list(_diameter_sets(16)))
def test_planar_diameter_is_the_all_pairs_maximum(bounds, name):
    dom = Domain.planar(bounds, 64)
    s = GridSet(dom, _diameter_sets(64)[name])
    assert diameter(s) == reference_planar_diameter(s.included_points())


def test_collinear_diameter_is_the_extent_of_the_projection():
    # one full grid row is a line of cells: the hull keeps its two ends
    dom = Domain.planar((0.0, 1.0, 0.0, 1.0), 512)
    bits = np.zeros(dom.shape, bool)
    bits[100] = True
    s = GridSet(dom, bits)
    ys = s.included_points()[:, 1]
    assert diameter(s) == reference_planar_diameter(s.included_points()) == ys.max() - ys.min()


def test_point_distance_broadcasts():
    a = rng_from(1).random((7, 1, 2))
    b = rng_from(2).random((1, 5, 2))
    d = a - b
    assert np.array_equal(point_distance("planar", a, b), np.sqrt((d**2).sum(-1)))
    assert point_distance("circle", 0.9, np.array([0.1, 0.5])).tolist() == [
        min(abs(0.9 - x), 1.0 - abs(0.9 - x)) for x in (0.1, 0.5)]


def test_boundary_ring(square):
    d = rasterize_disk(square, Disk((0.5, 0.5), 0.2))
    count = boundary_cell_count(d)
    # roughly the perimeter in cells
    expected = 2 * np.pi * 0.2 / square.max_cell_size
    assert 0.5 * expected < count < 3 * expected
    assert one_cell_ring_volume(d) == count * square.cell_volume


@pytest.mark.parametrize("domain", [Domain.planar((0.0, 1.0, 0.0, 1.0), 33), Domain.circle(257)],
                         ids=["planar", "circle"])
def test_boundary_rule_on_packed_words_matches_each_bitmap(domain):
    # bit b of each uint16 word is one set; the edges and the wrap must
    # give each bit the boundary its own bool bitmap has
    words = rng_from(3).integers(0, 1 << 16, size=domain.shape, dtype=np.uint16)
    words |= words >> 1  # bits 0-14 in 3/4 of the cells, so that some are interior
    edge = words & ~all_neighbours(words, domain.kind)
    for b in range(16):
        bits = (words & (1 << b)).astype(bool)
        assert 0 < np.count_nonzero(edge & (1 << b)) == boundary_cell_count(
            GridSet(domain, bits)) < bits.sum()


@pytest.mark.baseline_dispatch
@pytest.mark.parametrize("domain", [Domain.planar((-1.5, 1.0, -0.5, 2.0), 48), Domain.circle(256)],
                         ids=["planar", "circle"])
# as for the blocked cell maps: 5 cells make one-row planar blocks and cut an
# index inside rows, 96 and 100 make two-row planar blocks
@pytest.mark.parametrize("block", [5, 96, 100])
def test_blocks_yield_every_cell_once_in_flat_order(monkeypatch, domain, block):
    import ifslab.geometry as geometry
    from test_maps import _cell_sets

    monkeypatch.setattr(geometry, "_BLOCK_CELLS", block)
    row = domain.shape[-1] if domain.kind == "planar" else 1
    whole = np.indices(domain.shape).reshape(len(domain.shape), -1)
    sets = _cell_sets(domain)
    for index in [None] + [np.flatnonzero(b) for b in sets]:
        if index is None:
            want = whole
        else:  # a flat index is unravelled block by block
            want = np.array(np.unravel_index(index, domain.shape))
        stop = 0
        for at, cells in domain.blocks(index):
            assert at.start == stop < at.stop and at.step is None
            assert np.array_equal(np.array(cells), want[:, at])
            if index is None:  # whole grid rows
                assert at.start % row == 0 == at.stop % row
                assert at.stop - at.start <= max(block, row)
            else:
                assert at.stop - at.start <= block
            stop = at.stop
        assert stop == want.shape[1]


def test_volume_is_the_bitmap_mean():
    bits = rng_from(4).random((512, 512)) < 0.37
    assert volume(bits, bits.size) == float(bits.mean())


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
    if dom.kind == CIRCLE:
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


def test_point_cells_of_non_finite_and_huge_coordinates_warn_nothing():
    dom = Domain.planar((0.0, 1.0, 0.0, 1.0), 16)
    off = [[np.nan, 0.5], [0.5, np.nan], [np.inf, 0.5], [-np.inf, 0.5], [0.5, np.inf],
           [1e300, 0.5], [0.5, -1e300], [1e19, 1e19], [-1e19, 0.5]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cells = dom.point_cells(np.array([[0.03, 0.97], [0.5, 0.5]] + off))
    assert cells.tolist() == [15, 8 * 16 + 8] + [-1] * len(off)
    # circle points wrap, so only a NaN or an infinity has no cell
    circle = Domain.circle(16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cells = circle.point_cells(np.array([np.nan, np.inf, -np.inf, 1e300, -1e300, 0.53]))
        assert circle.point_cells(np.float64(np.nan)) == -1
        assert not full_set(circle).lookup([np.nan]).any()
        assert points_to_gridset(circle, [np.inf, -np.inf]).is_empty()
    assert cells[:3].tolist() == [-1, -1, -1]
    assert 0 <= cells[3] < 16 and 0 <= cells[4] < 16 and cells[5] == 8


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


# -- the one box distance transform against the whole chart's


def _one_cell(dom, *index):
    bits = np.zeros(dom.shape, bool)
    bits[index] = True
    return GridSet(dom, bits)


@pytest.mark.baseline_dispatch
@pytest.mark.parametrize(
    "dom",
    [Domain.planar((-1.0, 1.0, -1.0, 1.0), 48), Domain.planar((-1.3, 1.9, -0.45, 0.35), 40),
     Domain.circle(64), Domain.circle(65536)],
    ids=["square", "wide", "circle", "circle-65536"],
)
def test_grid_distances_match_the_whole_chart_transform(dom):
    n, (dx, dy) = dom.resolution, dom.cell_sizes
    rng = rng_from(53)
    blob = GridSet(dom, rng.random(dom.shape) < 0.3)
    sparse = GridSet(dom, rng.random(dom.shape) < 0.02)
    if dom.kind == CIRCLE:
        edge = GridSet(dom, np.isin(np.arange(n), [0, 1, n - 1]))  # an arc across 0
        ends = [_one_cell(dom, 0), _one_cell(dom, n - 1), _one_cell(dom, n // 3)]
    else:
        bits = np.zeros(dom.shape, bool)
        bits[0, :] = bits[:, n - 1] = True  # two sides of the chart
        edge = GridSet(dom, bits)
        ends = [_one_cell(dom, 0, 0), _one_cell(dom, n - 1, n - 1), _one_cell(dom, 0, n - 1),
                _one_cell(dom, n // 3, n // 2)]

    def transform(target):
        if dom.kind == CIRCLE:
            return ndi.distance_transform_edt(~np.tile(target.bitmap, 3), sampling=dx)[n : 2 * n]
        return ndi.distance_transform_edt(~target.bitmap, sampling=(dx, dy))

    sets = [blob, sparse, edge, full_set(dom)] + ends
    for target in sets:
        want = transform(target)
        for cells in sets:
            got = grid_distances(target, cells)
            assert got.dtype == want.dtype and np.array_equal(got, want[cells.bitmap])


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
    if dom.kind == CIRCLE:
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


# -- the bounded Hausdorff search against the exact form


def _blob(dom, rng, count):
    """A union of ``count`` random disks (arcs on the circle), one cell at least."""
    n, bits = dom.resolution, np.zeros(dom.shape, bool)
    for _ in range(count):
        if dom.kind == CIRCLE:
            bits |= rasterize_disk(dom, Disk(rng.random(), rng.uniform(0.02, 0.2))).bitmap
        else:
            xmin, xmax, ymin, ymax = dom.bounds
            c = (rng.uniform(xmin, xmax), rng.uniform(ymin, ymax))
            r = rng.uniform(0.02, 0.25) * min(xmax - xmin, ymax - ymin)
            bits |= rasterize_disk(dom, Disk(c, r)).bitmap
    bits.flat[rng.integers(n)] = True
    return bits


def _blob_pair(dom, relation, seed):
    rng = rng_from(seed)
    a = _blob(dom, rng, 3)
    b = {
        "b-in-a": lambda: a & _blob(dom, rng, 4),
        "a-in-b": lambda: a | _blob(dom, rng, 2),
        "overlapping": lambda: (a & ~_blob(dom, rng, 2)) | _blob(dom, rng, 2),
        "equal": lambda: a.copy(),
    }[relation]()
    b.flat[np.flatnonzero(a)[0]] = True  # b holds a cell of a, so both are nonempty
    return GridSet(dom, a), GridSet(dom, b)


@pytest.mark.baseline_dispatch
@pytest.mark.parametrize("search", ["default", "small-blocks-no-budget"])
@pytest.mark.parametrize("relation", ["b-in-a", "a-in-b", "overlapping", "equal"])
@pytest.mark.parametrize(
    "dom",
    [Domain.planar((-1.3, 1.9, -0.45, 0.35), 40), Domain.planar((0.0, 1.0, 0.0, 1.0), 48),
     Domain.circle(96)],
    ids=["wide", "square", "circle"],
)
def test_bounded_hausdorff_matches_exact(dom, relation, search, monkeypatch):
    # blocks only move where a block ends, and a spent budget hands the
    # answer to the transform; without a budget the search decides it
    import ifslab.geometry as geometry

    if search != "default":
        monkeypatch.setattr(geometry, "_BLOCK_CELLS", 37)
        monkeypatch.setattr(geometry, "_SEARCH_BUDGET", math.inf)
    cell = dom.max_cell_size
    beyond = 1.01 * math.hypot(*(s * dom.resolution for s in dom.cell_sizes))
    for seed in range(4):
        a, b = _blob_pair(dom, relation, seed)
        exact = hausdorff_distance(a, b)
        assert (exact == 0.0) == (relation == "equal")
        limits = [0.0, 0.3 * cell, cell, 2 * cell, 8 * cell, beyond, math.inf,
                  exact, np.nextafter(exact, 0.0)]
        for limit in limits:
            want = exact if exact <= limit else math.inf
            for got in (hausdorff_distance(a, b, limit), hausdorff_distance(b, a, limit)):
                assert type(got) is float and repr(got) == repr(want), (seed, limit)


# Three cells of one set about a fourth at offsets (-5, 0), (-4, 3) and
# (0, -5) on square cells of 0.0195503558363399: the offsets' distances are
# mathematically equal but round 1 ulp apart, and the transform (scipy 1.17)
# takes the larger, so the search must not read the nearest one.
@pytest.mark.baseline_dispatch
def test_bounded_hausdorff_reads_the_transform_at_rounding_ties(monkeypatch):
    import ifslab.geometry as geometry

    monkeypatch.setattr(geometry, "_SEARCH_BUDGET", math.inf)  # the search, not the budget, decides
    h = 0.0195503558363399
    dom = Domain.planar((0.0, 40 * h, 0.0, 40 * h), 40)
    bits = np.zeros(dom.shape, bool)
    bits[3, 25] = bits[4, 28] = bits[8, 20] = True
    three = GridSet(dom, bits.copy())
    bits[8, 25] = True
    four = GridSet(dom, bits)
    exact = hausdorff_distance(three, four)
    nearest = min(float(np.sqrt(np.add.reduce((np.array(o, float) * h) ** 2)))
                  for o in ((-5, 0), (-4, 3), (0, -5)))
    assert nearest <= exact <= np.nextafter(nearest, 1.0)
    for limit in (5 * h, 6 * h, nearest, exact):
        want = exact if exact <= limit else math.inf
        assert repr(hausdorff_distance(three, four, limit)) == repr(want), limit


def test_bounded_hausdorff_gives_way_to_the_transform(monkeypatch):
    import ifslab.geometry as geometry

    transforms = []
    monkeypatch.setattr(geometry, "grid_distances",
                        lambda *sets: transforms.append(1) or grid_distances(*sets))
    dom = Domain.planar((0.0, 1.0, 0.0, 1.0), 64)
    cell, disk = dom.max_cell_size, rasterize_disk(dom, Disk((0.5, 0.5), 0.4))
    rim = rasterize_disk(dom, Disk((0.5, 0.5), 0.4 + 1.5 * cell))
    core = rasterize_disk(dom, Disk((0.5, 0.5), 0.1))
    # the rim's cells lie within two cells of the disk: the search decides
    bounded = hausdorff_distance(rim, disk, 2 * cell)
    assert not transforms and bounded == hausdorff_distance(disk, rim)
    # the ring around the core lies up to 19 cells from it, past the budget's
    # worth of gathers at 30 cells; past the chart no table is built at all
    for limit, budget in ((30 * cell, geometry._SEARCH_BUDGET), (200 * cell, math.inf)):
        monkeypatch.setattr(geometry, "_SEARCH_BUDGET", budget)
        transforms.clear()
        bounded = hausdorff_distance(disk, core, limit)
        assert len(transforms) == 1 and bounded == hausdorff_distance(disk, core)


def _nested_pair(dom, rng):
    """A blob and the target left when random cells and disks are cut from
    it: the cells removed, as a flat int32 index, and the target."""
    a = _blob(dom, rng, 3)
    target = a & ~_blob(dom, rng, 2) & (rng.random(dom.shape) > 0.2)
    target.flat[np.flatnonzero(a)[0]] = True
    return np.flatnonzero(a & ~target).astype(np.int32), GridSet(dom, target)


@pytest.mark.baseline_dispatch
@pytest.mark.parametrize("budget", ["default", "transform-only"])
@pytest.mark.parametrize("res", [64, 101, 256])
@pytest.mark.parametrize("bounds", [(0.0, 1.0, 0.0, 1.0), (-1.3, 1.9, -0.45, 0.35)],
                         ids=["square", "wide"])
def test_directed_distance_matches_transform(bounds, res, budget, monkeypatch):
    # the removed cells' distance to a target nested in their set, the
    # attractor's stop test, is the transform's largest distance over them,
    # or inf past the limit; a spent budget runs the transform itself
    import ifslab.geometry as geometry

    if budget != "default":
        monkeypatch.setattr(geometry, "_SEARCH_BUDGET", 0)
    dom = Domain.planar(bounds, res)
    rng = rng_from(res + len(budget))
    for _ in range(4):
        index, target = _nested_pair(dom, rng)
        cells = np.zeros(dom.shape, bool)
        cells.flat[index] = True
        exact = float(grid_distances(target, GridSet(dom, cells)).max()) if index.size else 0.0
        for limit in (0.0, min(dom.cell_sizes), 2 * min(dom.cell_sizes), math.inf):
            want = exact if exact <= limit else math.inf
            got = geometry.directed_distance(index, target, limit)
            assert type(got) is float and repr(got) == repr(want), limit
    # an empty index is at distance 0 from any target
    assert geometry.directed_distance(np.array([], np.int32), target, 0.0) == 0.0


def test_bounded_hausdorff_rejects_a_negative_or_nan_limit(square):
    a = rasterize_disk(square, Disk((0.5, 0.5), 0.2))
    for limit in (-1.0, float("nan")):
        with pytest.raises(ValidationError):
            hausdorff_distance(a, a, limit)


# -- circle distances from the sorted-neighbour scan alone


@pytest.mark.baseline_dispatch
@pytest.mark.parametrize("res", [16, 97, 65536])
def test_circle_distances_take_no_transform_and_no_search(res, monkeypatch):
    import ifslab.geometry as geometry

    def refused(*args, **kwargs):
        raise AssertionError("a circle distance ran a transform or an offset search")

    monkeypatch.setattr(geometry, "distance_transform_edt", refused)
    monkeypatch.setattr(geometry, "_offset_search", refused)
    dom = Domain.circle(res)
    cell = dom.max_cell_size
    for seed in range(3):
        a, b = _blob_pair(dom, "overlapping", seed)
        want = ndi.distance_transform_edt(~np.tile(b.bitmap, 3), sampling=cell)[res : 2 * res]
        assert np.array_equal(grid_distances(b, a), want[a.bitmap])
        exact = _two_transform_hausdorff(a, b)
        for limit in (math.inf, cell, 8 * cell, exact, np.nextafter(exact, 0.0)):
            assert hausdorff_distance(a, b, limit) == (exact if exact <= limit else math.inf)


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


def test_pgm_pixel_not_a_number(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P2\n4 4\n1\n" + b"0 " * 7 + b"x " + b"1 " * 8)
    with pytest.raises(ValidationError):
        read_pgm(path)


def test_pgm_rejects_16_bit_samples(tmp_path):
    # maxval above 255 makes a P5 sample two bytes wide, big-endian
    image = np.zeros((16, 16), dtype=">u2")
    image[:, :8] = 1000
    path = tmp_path / "wide.pgm"
    path.write_bytes(b"P5\n16 16\n1000\n" + image.tobytes())
    with pytest.raises(ValidationError):
        read_pgm(path)


def reference_points_csv(points, path):
    # csv.writer with every value as repr(float(x))
    pts = np.asarray(points)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["x", "y"] if pts.ndim == 2 else ["x"])
        for row in pts:
            writer.writerow([repr(float(x)) for x in np.atleast_1d(row)])


@pytest.mark.parametrize(
    "points",
    [
        rng_from(3).normal(size=(500, 2)) * 1e3,
        rng_from(4).random(300),
        np.empty((0, 2)),
        np.array([[0.5, -0.0]]),
        np.array([[5e-324, -2.5e-310], [1e300, np.inf]]),
        np.arange(4),
        np.array([[0.0, np.nan], [-0.0, -np.nan], [0.0, np.inf], [-0.0, np.nan]]),
        np.repeat(rng_from(5).normal(size=(7, 2)), 3, axis=0),
    ],
    ids=["planar", "circle", "empty", "one-row", "subnormal-and-huge", "integers",
         "signed-zeros-and-nans", "repeated-values"],
)
def test_points_csv_bytes_match_csv_writer(tmp_path, points):
    write_points_csv(points, tmp_path / "a.csv")
    reference_points_csv(points, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("block", [1, 7, 14])
@pytest.mark.parametrize(
    "points",
    [
        rng_from(6).normal(size=(50, 2)),
        rng_from(7).random(23),
        np.tile([[0.0, np.nan], [-0.0, -np.nan], [np.inf, -0.0]], (7, 1)),
        np.empty(0),
    ],
    ids=["planar", "circle", "signed-zeros-and-nans", "empty-circle"],
)
def test_points_csv_bytes_in_blocks_match_csv_writer(tmp_path, monkeypatch, points, block):
    # rows are written a block at a time; the bytes do not depend on the cut,
    # a last block that is full or short, or a cloud of fewer rows than a block
    import ifslab.geometry as geometry

    monkeypatch.setattr(geometry, "_BLOCK_CELLS", block)
    write_points_csv(points, tmp_path / "a.csv")
    reference_points_csv(points, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


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
