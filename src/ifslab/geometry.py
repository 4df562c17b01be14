"""Flat-chart domains, disks, rasterized sets, and normalized measure.

A planar domain is an axis-aligned rectangle sampled on a regular grid of
``resolution`` cells per axis; the circle is modeled as [0, 1) with the
wraparound metric ``min(|x-y|, 1-|x-y|)``.  Volume is always normalized to
the chart, so every :class:`GridSet` has volume in [0, 1].

The rasterization rule throughout the package: a cell belongs to a set iff
its *center* satisfies the defining predicate.  This keeps set operations
unambiguous and bounds the rasterization error by one cell diagonal.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    EmptySetError,
    ResolutionError,
    ValidationError,
)

PLANAR = "planar"
CIRCLE = "circle"

MIN_RESOLUTION = 16
_BLOCK_CELLS = 2**14  # cells per block of Domain.blocks: a block's arrays stay in cache


@dataclass(frozen=True)
class Domain:
    """A planar chart rectangle or the unit-circumference circle.

    ``bounds`` is (xmin, xmax, ymin, ymax) for planar domains and ``None``
    for the circle.  ``resolution`` is the number of cells per axis.
    """

    kind: str
    resolution: int
    bounds: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        if self.kind not in (PLANAR, CIRCLE):
            raise ValidationError(f"unknown domain kind {self.kind!r}")
        if self.resolution < MIN_RESOLUTION:
            raise ValidationError(
                f"resolution must be >= {MIN_RESOLUTION}, got {self.resolution}"
            )
        if self.kind == PLANAR:
            if self.bounds is None:
                raise ValidationError("planar domain needs bounds")
            xmin, xmax, ymin, ymax = self.bounds
            if not (xmax > xmin and ymax > ymin):
                raise ValidationError("planar bounds must have positive extent")
        elif self.bounds is not None:
            raise ValidationError("circle domain takes no bounds")

    @staticmethod
    def planar(bounds=(0.0, 1.0, 0.0, 1.0), resolution: int = 1024) -> "Domain":
        return Domain(PLANAR, resolution, tuple(float(b) for b in bounds))

    @staticmethod
    def circle(resolution: int = 1024) -> "Domain":
        return Domain(CIRCLE, resolution)

    # -- grid metrics ------------------------------------------------------

    @property
    def cell_sizes(self) -> tuple[float, float]:
        """(dx, dy) for planar, (h, h) for the circle."""
        if self.kind == CIRCLE:
            h = 1.0 / self.resolution
            return (h, h)
        xmin, xmax, ymin, ymax = self.bounds
        n = self.resolution
        return ((xmax - xmin) / n, (ymax - ymin) / n)

    @property
    def max_cell_size(self) -> float:
        return max(self.cell_sizes)

    @property
    def cell_volume(self) -> float:
        """Normalized volume of one cell."""
        if self.kind == CIRCLE:
            return 1.0 / self.resolution
        return 1.0 / (self.resolution * self.resolution)

    @property
    def shape(self) -> tuple[int, ...]:
        if self.kind == CIRCLE:
            return (self.resolution,)
        return (self.resolution, self.resolution)

    def axis_centers(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinates along each axis, built once and read-only."""
        return self._axis_centers

    @cached_property
    def _axis_centers(self) -> tuple[np.ndarray, ...]:
        n = self.resolution
        if self.kind == CIRCLE:
            axes = ((np.arange(n) + 0.5) / n,)
        else:
            lows = self.bounds[::2]  # xmin, ymin
            axes = tuple(lo + (np.arange(n) + 0.5) * h for lo, h in zip(lows, self.cell_sizes))
        for axis in axes:
            axis.flags.writeable = False
        return axes

    def centers_at(self, index) -> np.ndarray:
        """Centers of the cells at per-axis index arrays, as :meth:`unravel` gives:
        (m, 2) planar, (m,) circle."""
        # read off the axes into one array, so a sparse set never builds the whole grid
        out = np.empty((len(index[0]), len(self.shape)))
        for k, (xs, i) in enumerate(zip(self.axis_centers(), index)):
            out[:, k] = xs[i]
        return out[:, 0] if self.kind == CIRCLE else out

    def blocks(self, index=None):
        """Cut every cell, or the cells at a flat index, into blocks of about
        ``_BLOCK_CELLS`` in flat order: yields ``(at, block)``, a slice of
        that order and the block's per-axis index arrays.  The whole chart
        is cut into whole grid rows."""
        whole = index is None
        row = math.prod(self.shape[1:]) if whole else 1  # cells per grid row
        size = math.prod(self.shape) if whole else len(index)
        step = max(_BLOCK_CELLS // row, 1) * row
        for start in range(0, size, step):
            at = slice(start, min(start + step, size))
            if whole:
                block = np.indices(((at.stop - start) // row,) + self.shape[1:])
                block = block.reshape(len(self.shape), -1)
                block[0] += start // row
            else:
                block = self.unravel(index[at])
            yield at, tuple(block)

    def unravel(self, index):
        """Per-axis index arrays of a flat index, by one divmod."""
        return divmod(index, self.shape[1]) if self.kind == PLANAR else (index,)

    def cell_centers(self) -> np.ndarray:
        """All cell centers: shape (n, n, 2) planar, (n,) circle."""
        if self.kind == CIRCLE:
            return self.axis_centers()[0]
        xs, ys = self.axis_centers()
        pts = np.empty((self.resolution, self.resolution, 2))
        pts[..., 0] = xs[:, None]
        pts[..., 1] = ys[None, :]
        return pts

    def contains_disk(self, d: "Disk") -> bool:
        if self.kind == CIRCLE:
            return d.radius < 0.5
        xmin, xmax, ymin, ymax = self.bounds
        cx, cy = d.center
        r = d.radius
        return (cx - r >= xmin and cx + r <= xmax
                and cy - r >= ymin and cy + r <= ymax)

    def point_cells(self, points: np.ndarray) -> np.ndarray:
        """Flat (row-major for planar) bitmap index of the cell holding each point.

        The planar chart is [xmin, xmax) x [ymin, ymax) and a cell is found
        by flooring (x - xmin) / dx.  A point off the chart gets -1, which
        :meth:`GridSet.pull` and :func:`points_to_gridset` read as "no cell";
        circle points wrap, so every finite one lands on a cell and only a
        NaN or an infinity gets -1.
        """
        n = self.resolution
        if self.kind == CIRCLE:
            # a NaN or an infinity leaves a NaN position, cast to an
            # arbitrary index and overwritten with -1 below
            with np.errstate(invalid="ignore"):
                pos = np.asarray(points, dtype=float) % 1.0
                cells = np.asarray(np.minimum((pos * n).astype(np.int64), n - 1))
            cells[np.isnan(pos)] = -1
            return cells
        pts = np.asarray(points, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        xmin, xmax, ymin, ymax = self.bounds
        dx, dy = self.cell_sizes
        on_chart = (x >= xmin) & (x < xmax) & (y >= ymin) & (y < ymax)
        # a NaN, an infinity or a huge coordinate casts to an arbitrary index;
        # it is off the chart, so it is overwritten with -1 below
        with np.errstate(invalid="ignore"):
            ix = np.asarray(np.floor((x - xmin) / dx), dtype=np.int64)
            iy = np.asarray(np.floor((y - ymin) / dy), dtype=np.int64)
        # (x - xmin) / dx can round up to n for a point just below xmax; the
        # updates are in place, as each int64 copy costs 8 bytes a point
        np.minimum(ix, n - 1, out=ix)
        np.minimum(iy, n - 1, out=iy)
        ix *= n
        ix += iy
        ix[~on_chart] = -1
        return ix


@dataclass(frozen=True)
class Disk:
    """A metric ball: center + radius in chart coordinates.

    Planar centers are (x, y) pairs; circle "disks" are arcs given by a
    scalar center in [0, 1) and must have radius < 1/2.
    """

    center: tuple[float, ...] | float
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValidationError(f"disk radius must be positive, got {self.radius}")
        if np.isscalar(self.center):
            if not self.radius < 0.5:
                raise ValidationError("circle arc radius must be < 1/2")
        else:
            object.__setattr__(self, "center", tuple(float(c) for c in self.center))
            if len(self.center) != 2:
                raise ValidationError("planar disk center needs 2 coordinates")
        if not np.isfinite(np.append(self.center, self.radius)).all():
            raise ValidationError(f"disk center and radius must be finite, got {self}")

    @property
    def is_circle(self) -> bool:
        return np.isscalar(self.center)


@dataclass(frozen=True, eq=False)
class GridSet:
    """A rasterized measurable subset: one inclusion bit per grid cell.

    Planar bitmaps are indexed ``bitmap[ix, iy]`` with x along axis 0.
    Treat the bitmap as immutable; derived sets are new objects.
    """

    domain: Domain
    bitmap: np.ndarray

    def __post_init__(self):
        bm = np.asarray(self.bitmap, dtype=bool)
        if bm.shape != self.domain.shape:
            raise ValidationError(
                f"bitmap shape {bm.shape} does not match domain shape {self.domain.shape}"
            )
        object.__setattr__(self, "bitmap", bm)

    # -- set algebra -------------------------------------------------------

    def complement(self) -> "GridSet":
        return GridSet(self.domain, ~self.bitmap)

    def union(self, other: "GridSet") -> "GridSet":
        self._check_same_domain(other)
        return GridSet(self.domain, self.bitmap | other.bitmap)

    def intersection(self, other: "GridSet") -> "GridSet":
        self._check_same_domain(other)
        return GridSet(self.domain, self.bitmap & other.bitmap)

    def minus(self, other: "GridSet") -> "GridSet":
        self._check_same_domain(other)
        return GridSet(self.domain, self.bitmap & ~other.bitmap)

    def equals(self, other: "GridSet") -> bool:
        return self.domain == other.domain and np.array_equal(self.bitmap, other.bitmap)

    def is_empty(self) -> bool:
        return not self.bitmap.any()

    def count(self) -> int:
        return int(np.count_nonzero(self.bitmap))

    def _check_same_domain(self, other: "GridSet"):
        if self.domain != other.domain:
            raise ValidationError("grid sets live on different domains")

    # -- queries -----------------------------------------------------------

    def lookup(self, points: np.ndarray) -> np.ndarray:
        """Membership of arbitrary points, via the cell containing each point."""
        return self.pull(self.domain.point_cells(points))

    def pull(self, cells: np.ndarray) -> np.ndarray:
        """Membership of :meth:`Domain.point_cells` indices; -1 reads as outside."""
        return np.append(self.bitmap.ravel(), False)[cells]

    def included_points(self) -> np.ndarray:
        """Centers of included cells: (m, 2) planar, (m,) circle."""
        return self.domain.centers_at(self.domain.unravel(np.flatnonzero(self.bitmap)))


def full_set(domain: Domain) -> GridSet:
    return GridSet(domain, np.ones(domain.shape, dtype=bool))


def empty_set(domain: Domain) -> GridSet:
    return GridSet(domain, np.zeros(domain.shape, dtype=bool))


def volume(bits: np.ndarray, cells: int) -> float:
    """Normalized volume of the nonzero entries of ``bits`` on a chart of
    ``cells`` cells: a correctly rounded count / cells, the same float as
    the full bool bitmap's mean()."""
    return int(np.count_nonzero(bits)) / cells


def ball_domain(u: Disk, resolution: int) -> Domain:
    """Square planar chart around a ball, with a margin of about 4 cells per side."""
    if u.is_circle:
        raise ValidationError("a ball domain needs a planar ball, not a circle arc")
    cx, cy = u.center
    half = u.radius * (1.0 + 8.0 / resolution)
    return Domain.planar((cx - half, cx + half, cy - half, cy + half), resolution)


def disk_cells(domain: Domain, d: Disk) -> tuple[tuple[slice, slice], np.ndarray]:
    """Cells of a planar disk by the cell-center rule, inside its bounding box.

    Returns ``(window, bits)``: ``window`` slices the domain's bitmap to the
    disk's bounding box padded by one cell against rounding, and ``bits``
    marks the window cells whose center lies within the closed disk.
    """
    if domain.kind == CIRCLE or d.is_circle:
        raise ValidationError("disk cells need a planar disk on a planar domain")
    xs, ys = domain.axis_centers()
    (cx, cy), r = d.center, d.radius
    wx, wy = (
        slice(max(np.searchsorted(a, c - r) - 1, 0), np.searchsorted(a, c + r, "right") + 1)
        for a, c in ((xs, cx), (ys, cy))
    )
    sq = (xs[wx] - cx)[:, None] ** 2 + (ys[wy] - cy)[None, :] ** 2
    return (wx, wy), sq <= r**2


def point_distance(kind: str, a, b) -> np.ndarray:
    """Chart distance between paired or broadcast points.

    The wraparound metric ``min(|x-y|, 1-|x-y|)`` between circle positions in
    [0, 1), the Euclidean norm between planar points on a trailing axis of
    size 2.  Every point distance in the package goes through here.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if kind == CIRCLE:
        diff = np.abs(a - b)
        return np.minimum(diff, 1.0 - diff)
    return np.sqrt((a[..., 0] - b[..., 0]) ** 2 + (a[..., 1] - b[..., 1]) ** 2)


def rasterize_disk(domain: Domain, d: Disk) -> GridSet:
    """Cells whose center lies within the disk (closed)."""
    if domain.kind == CIRCLE:
        if not d.is_circle:
            raise ValidationError("planar disk on a circle domain")
        dist = point_distance(CIRCLE, domain.axis_centers()[0], float(d.center) % 1.0)
        return GridSet(domain, dist <= d.radius)
    window, bits = disk_cells(domain, d)
    bitmap = np.zeros(domain.shape, dtype=bool)
    bitmap[window] = bits
    return GridSet(domain, bitmap)


# ---------------------------------------------------------------------------
# Measure operations
# ---------------------------------------------------------------------------


def _ball_kernel(domain: Domain, radius: float) -> np.ndarray:
    """The density ball as a centred bool mask over cell offsets: (i, j) with
    (i*dx)**2 + (j*dy)**2 <= radius**2 on the plane, and one row of the
    2*floor(radius/dx) + 1 cells of an arc on the circle."""
    dx, dy = domain.cell_sizes
    if domain.kind == CIRCLE:
        kernel = np.ones((1, 2 * int(np.floor(radius / dx)) + 1), dtype=bool)
    else:
        mx, my = int(np.floor(radius / dx)), int(np.floor(radius / dy))
        ox = (np.arange(-mx, mx + 1) * dx)[:, None]
        oy = (np.arange(-my, my + 1) * dy)[None, :]
        kernel = ox**2 + oy**2 <= radius**2
    if np.count_nonzero(kernel) <= 1:
        raise ResolutionError("density radius is below the grid scale")
    return kernel


def local_density(a: GridSet, radius: float) -> np.ndarray:
    """Per-cell ratio vol(a ∩ B(center, radius)) / vol(B) over the grid.

    The ball (:func:`_ball_kernel`) is a stack of runs, one per kernel row.
    Each count is exact: a sum of run sums read off one integer cumsum along
    the last axis of the bitmap, padded with wraparound on the circle and with
    zeros on the plane, where the chart truncates the ball; this only
    penalizes boundary cells.
    """
    runs = _ball_kernel(a.domain, radius).sum(axis=1)
    mode = "wrap" if a.domain.kind == CIRCLE else "constant"
    ksum = runs.sum()
    n = a.domain.resolution
    bits = a.bitmap.reshape(-1, n)
    # runs are odd and centred; one leading pad cell makes cum[k] - cum[k - run]
    # the run ending at padded cell k
    h = runs.max() // 2
    cum = np.cumsum(np.pad(bits, ((len(runs) // 2,) * 2, (h + 1, h)), mode=mode),
                    axis=-1, dtype=np.int32)
    counts = np.zeros(bits.shape, dtype=np.int32)
    for i, run in enumerate(runs):
        if run:
            rows, r = cum[i:i + len(bits)], run // 2
            counts += rows[:, h + 1 + r:h + 1 + r + n]
            counts -= rows[:, h - r:h - r + n]
    return (counts / ksum).reshape(a.domain.shape)


def _check_density_args(domain: Domain, radius: float, threshold: float) -> None:
    if radius < 2 * domain.max_cell_size:
        raise ResolutionError("density radius must be at least 2 cell widths")
    if not 0.5 < threshold <= 1.0:
        raise ValidationError("threshold must lie in (0.5, 1]")


def _dense(ratio: np.ndarray, threshold: float) -> np.ndarray:
    # counts are exact integers over the kernel, so a tiny slack only guards
    # against decimal-representation dust in threshold itself
    return ratio >= threshold - 1e-12


def density_points(a: GridSet, radius: float, threshold: float) -> GridSet:
    """Approximate Lebesgue density points of ``a``.

    ``radius`` is at least two cell widths and ``threshold`` lies in
    (0.5, 1].  A cell is kept iff the local density of ``a`` at ``radius``
    reaches the threshold — the radius is the proxy for the r -> 0 limit.
    """
    radius = float(radius)
    _check_density_args(a.domain, radius, threshold)
    return GridSet(a.domain, _dense(local_density(a, radius), threshold))


def density_points_at(a: GridSet, radius: float, threshold: float,
                      points: np.ndarray) -> np.ndarray:
    """``density_points(a, radius, threshold).lookup(points)``, counting the
    ball only at the cells holding the points.

    Each count is the same exact integer :func:`local_density` finds there:
    kernel cells off the planar chart count as outside, and arcs wrap on the
    circle.  A point off the chart is not a density point.
    """
    radius = float(radius)
    _check_density_args(a.domain, radius, threshold)
    kernel = _ball_kernel(a.domain, radius)
    n = a.domain.resolution
    bits = a.bitmap.reshape(-1, n)
    cells = a.domain.point_cells(points)
    ki, kj = np.nonzero(kernel)
    rows, cols = np.divmod(cells, n)
    i = rows[:, None] + (ki - kernel.shape[0] // 2)
    j = cols[:, None] + (kj - kernel.shape[1] // 2)
    if a.domain.kind == CIRCLE:
        j %= n
    on_chart = (i >= 0) & (i < len(bits)) & (j >= 0) & (j < n)
    hits = bits[np.clip(i, 0, len(bits) - 1), np.clip(j, 0, n - 1)] & on_chart
    ratio = np.count_nonzero(hits, axis=1) / len(ki)
    return _dense(ratio, threshold) & (cells >= 0)


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def distance_transform_edt(*args, **kwargs):
    """``scipy.ndimage.distance_transform_edt``, imported on the first call
    so that a run calling no transform never loads scipy."""
    from scipy.ndimage import distance_transform_edt

    return distance_transform_edt(*args, **kwargs)


def grid_distances(target: GridSet, cells: GridSet) -> np.ndarray:
    """Distance from each included cell center of ``cells``, in
    row-major order, to the nearest included cell center of ``target``.

    On the circle the nearest target cells on either side give the cell
    count ``k`` and the distance ``k * h``, the float a transform gives
    (``sqrt((k*h)**2)``).  On the plane this is the one exact distance
    transform of the package, over the bounding box of both sets: it only
    looks at differences of cell indices, and every target cell lies in the
    box, so the box gives the same distances as the whole chart.
    """
    dx, dy = target.domain.cell_sizes
    if target.domain.kind == CIRCLE:
        n, i = target.domain.resolution, np.flatnonzero(cells.bitmap)
        below, above = _circle_neighbours(np.flatnonzero(target.bitmap), i)
        return np.minimum((i - below) % n, (above - i) % n) * dx
    both = cells.bitmap | target.bitmap
    rows = np.flatnonzero(both.any(axis=1))
    cols = np.flatnonzero(both.any(axis=0))
    box = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
    return distance_transform_edt(~target.bitmap[box], sampling=(dx, dy))[cells.bitmap[box]]


def hausdorff_distance(a: GridSet, b: GridSet, limit: float = math.inf) -> float:
    """Hausdorff distance between two nonempty sets at the same resolution.

    Computed between cell centers, so it is a pseudo-metric: exact 0 iff
    the bitmaps are equal, and the triangle inequality holds up to one cell
    diagonal.  It is the larger of two directed distances, each over the
    cells of one set missing from the other.  A finite ``limit`` gives the
    same float when it is at most ``limit`` and ``math.inf`` otherwise,
    from :func:`_offset_search` on the plane where it can.
    """
    a._check_same_domain(b)
    if a.is_empty() or b.is_empty():
        raise EmptySetError("hausdorff distance needs nonempty sets")
    if not limit >= 0:
        raise ValidationError(f"limit must be >= 0, got {limit}")
    search, worst = limit < math.inf and a.domain.kind == PLANAR, 0.0
    for s, t in ((a, b), (b, a)):
        cells = s.minus(t)
        if cells.is_empty():
            continue
        d = _offset_search(cells, t, limit) if search else None
        worst = max(worst, float(grid_distances(t, cells).max()) if d is None else d)
        if worst > limit:
            return math.inf
    return worst


# a gathered cell costs 2-10 ns and the transform about 130 ns a cell of the
# box it spans (1024², scipy 1.17), so the search gives way to the transform
# after this many gathers per cell of the two sets
_SEARCH_BUDGET = 8


def _offset_search(cells: GridSet, target: GridSet, limit: float) -> float | None:
    """``grid_distances(target, cells).max()`` on the plane up to a finite
    ``limit``, else ``math.inf``: each cell looks for the target at the cell
    offsets within ``limit``, nearest first, each at the transform's own
    float.  None leaves the answer to the transform: where the search would
    cost more, and where equal distances round apart (the transform may take
    either) within 1e-9 of the result."""
    n, sampling = cells.domain.resolution, np.array(cells.domain.cell_sizes)
    budget = _SEARCH_BUDGET * (cells.count() + target.count())
    # offsets clipped to the chart, one cell beyond limit for the rounding test
    reach = (np.minimum(limit, n * sampling) // sampling + 1).clip(max=n - 1).astype(np.int64)
    if np.prod(2 * reach + 1) > cells.bitmap.size:
        return None
    off = np.indices(2 * reach + 1).reshape(2, -1) - reach[:, None]
    dist = np.sqrt(np.add.reduce((off.astype(np.float64) * sampling[:, None]) ** 2))
    near = np.flatnonzero((dist > 0) & (dist <= limit))
    near = near[np.argsort(dist[near])]
    # flat offsets into the target padded by reach with zeros
    strides = np.array([n + 2 * reach[1], 1])
    shifts, worst = strides @ off[:, near], 0.0
    other = np.pad(target.bitmap, [(r, r) for r in reach])
    for _, index in cells.domain.blocks(np.flatnonzero(cells.bitmap)):
        at, k = strides @ (np.array(index) + reach[:, None]), 0
        while at.size:
            if k >= near.size:
                return math.inf
            # as many offsets at once as keep the gather about a block
            ks = slice(k, k + max(_BLOCK_CELLS // at.size, 1))
            hit = other.take(shifts[ks, None] + at)
            budget -= hit.size
            if budget < 0:
                return None
            found = hit.any(axis=0)
            if found.any():
                worst = max(worst, dist[near[ks]][hit[:, found].argmax(axis=0)].max())
                at = at[~found]
            k = ks.stop
    tied = (np.abs(dist - worst) <= 1e-9 * worst) & (dist != worst)
    return None if tied.any() else float(worst)


def nearest_point_distances(region: GridSet, points: np.ndarray) -> np.ndarray:
    """Exact distance from each included cell center of ``region`` to the
    nearest of the given points (wrapped on the circle)."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise EmptySetError("no points given")
    cells = region.included_points()
    if region.domain.kind == CIRCLE:
        below, above = _circle_neighbours(np.sort(pts % 1.0), cells)
        return np.minimum(point_distance(CIRCLE, below, cells), point_distance(CIRCLE, above, cells))
    from scipy.spatial import cKDTree

    dist, _ = cKDTree(pts).query(cells, k=1)
    return dist


def points_to_gridset(domain: Domain, points: np.ndarray) -> GridSet:
    """Mark the cells containing the given points; points off the chart mark nothing."""
    # the spare last slot takes the -1 of every point off the chart
    flat = np.zeros(int(np.prod(domain.shape)) + 1, dtype=bool)
    flat[domain.point_cells(points)] = True
    return GridSet(domain, flat[:-1].reshape(domain.shape))


def diameter(s: GridSet) -> float:
    """Maximum pairwise distance between included cell centers; on the plane
    between the hull vertices of the end cells of each nonempty grid row."""
    if s.is_empty():
        raise EmptySetError("diameter of an empty set")
    if s.domain.kind == CIRCLE:
        pts = np.sort(s.included_points())
        # farthest partner of each point sits nearest to its antipode
        partners = _circle_neighbours(pts, (pts + 0.5) % 1.0)
        return max(float(point_distance(CIRCLE, p, pts).max()) for p in partners)
    rows = np.flatnonzero(s.bitmap.any(axis=1))
    bits = s.bitmap[rows]
    high = s.domain.resolution - 1 - bits[:, ::-1].argmax(axis=1)
    hull = _convex_chain(rows, bits.argmax(axis=1)) + _convex_chain(rows[::-1], high[::-1])
    pts = s.domain.centers_at(np.array(hull).T)
    return float(point_distance(PLANAR, pts[:, None], pts[None, :]).max())


def _convex_chain(rows: np.ndarray, cols: np.ndarray) -> list[tuple[int, int]]:
    """Half of Andrew's monotone chain (Inf. Process. Lett. 9(5), 1979) over
    cells in row order, collinear cells dropped, by exact integer products."""
    chain: list[tuple[int, int]] = []
    for r, c in zip(rows.tolist(), cols.tolist()):
        while len(chain) > 1 and ((chain[-1][0] - chain[-2][0]) * (c - chain[-2][1])
                                  <= (chain[-1][1] - chain[-2][1]) * (r - chain[-2][0])):
            chain.pop()
        chain.append((r, c))
    return chain


def _circle_neighbours(pos: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries of the sorted circle positions ``pos`` on either side of
    each query, wrapping past both ends."""
    idx = np.searchsorted(pos, queries)
    return pos[(idx - 1) % len(pos)], pos[idx % len(pos)]


def all_neighbours(bits: np.ndarray, kind: str) -> np.ndarray:
    """Bitwise AND of each cell's neighbors (four on the plane, two on the
    circle), for a bool bitmap or for packed integer words alike.

    Planar neighbors beyond the chart edge count as excluded (0); circle
    neighbors wrap.
    """
    if kind == CIRCLE:
        return np.roll(bits, 1) & np.roll(bits, -1)
    padded = np.pad(bits, 1)
    return padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]


def boundary_cell_count(s: GridSet) -> int:
    """Included cells with at least one excluded 4-neighbor."""
    return int(np.count_nonzero(s.bitmap & ~all_neighbours(s.bitmap, s.domain.kind)))


def one_cell_ring_volume(s: GridSet) -> float:
    """Normalized volume of the one-cell boundary ring of a set."""
    return boundary_cell_count(s) * s.domain.cell_volume


def sample_cells(s: GridSet, n: int, rng: np.random.Generator) -> np.ndarray:
    """Centers of n included cells drawn uniformly with replacement."""
    index = np.flatnonzero(s.bitmap)  # row-major, the order of included_points
    if len(index) == 0:
        raise EmptySetError("cannot sample from an empty set")
    return s.domain.centers_at(s.domain.unravel(index[rng.integers(0, len(index), size=n)]))


# ---------------------------------------------------------------------------
# PGM bitmaps and point CSV
# ---------------------------------------------------------------------------


def write_pgm(s: GridSet, path, binary: bool = True) -> None:
    """Write the bitmap as a PGM image with maxval 1 (1 = included).

    Planar bitmaps are emitted row-major with row 0 at the top (largest y);
    circle bitmaps become a 1-pixel-tall image.
    """
    bm = s.bitmap
    if s.domain.kind == CIRCLE:
        img = bm[None, :]
    else:
        img = bm.T[::-1]  # rows scan y top-down, columns scan x
    h, w = img.shape
    data = img.astype(np.uint8)
    with open(path, "wb") as f:
        if binary:
            f.write(f"P5\n{w} {h}\n1\n".encode())
            f.write(data.tobytes())
        else:
            f.write(f"P2\n{w} {h}\n1\n".encode())
            for row in data:
                f.write((" ".join(str(v) for v in row) + "\n").encode())


# one header field: whitespace and whole comment lines, then a number that
# whitespace ends
_PGM_FIELD = re.compile(rb"(?:\s|#[^\n]*\n)+(\d+)(?=\s)")


def read_pgm(path, domain: Domain | None = None) -> GridSet:
    """Read a maxval-1 PGM written by :func:`write_pgm`.

    Without an explicit domain, a 1-pixel-tall image becomes a circle set
    and a square image becomes a set on the unit-square chart.
    """
    with open(path, "rb") as f:
        raw = f.read()
    magic = raw[:2]
    if magic not in (b"P2", b"P5"):
        raise ValidationError(f"unsupported PGM magic {magic!r}")
    fields = []
    pos = len(magic)
    for name in ("width", "height", "maxval"):
        field = _PGM_FIELD.match(raw, pos)
        if field is None:
            raise ValidationError(f"PGM header has no {name}: cut short or not a number")
        fields.append(int(field[1]))
        pos = field.end()
    w, h, maxval = fields
    if maxval < 1:
        raise ValidationError("PGM maxval must be >= 1")
    if magic == b"P5":
        if maxval > 255:
            raise ValidationError(f"P5 PGM maxval {maxval} > 255 stores 16-bit samples; not read")
        pixels = np.frombuffer(raw[pos + 1 : pos + 1 + w * h], dtype=np.uint8)
    else:
        try:
            pixels = np.array(raw[pos:].split(), dtype=int)[: w * h]
        except (ValueError, OverflowError) as exc:
            # a pixel that is not a whole number, or one too large for int64
            raise ValidationError(f"PGM body holds a bad pixel: {exc}") from None
    if pixels.size != w * h:
        raise ValidationError(f"PGM body holds {pixels.size} of {w * h} pixels")
    bits = pixels.reshape(h, w) > 0
    if domain is None:
        if h == 1:
            domain = Domain.circle(resolution=w)
        elif h == w:
            domain = Domain.planar((0.0, 1.0, 0.0, 1.0), resolution=w)
        else:
            raise ValidationError("non-square PGM needs an explicit domain")
    if domain.kind == CIRCLE:
        if h != 1 or w != domain.resolution:
            raise ValidationError("PGM size does not match circle domain")
        return GridSet(domain, bits[0])
    if (h, w) != (domain.resolution, domain.resolution):
        raise ValidationError("PGM size does not match planar domain")
    return GridSet(domain, bits[::-1].T)


def write_points_csv(points: np.ndarray, path) -> None:
    """Point cloud as CSV: x,y for planar points, x for circle positions."""
    pts = np.asarray(points, dtype=float)
    columns = []
    for column in np.atleast_2d(pts.T):
        # repr once per distinct value, told apart by its bits so that -0.0
        # and each NaN keep their own text; a grid cloud repeats its values
        keys, at = np.unique(np.ascontiguousarray(column).view(np.int64), return_inverse=True)
        text = np.array([repr(v) for v in keys.view(float).tolist()], dtype=object)
        columns.append(text[at].tolist())
    lines = ["x,y" if pts.ndim == 2 else "x"] + list(map(",".join, zip(*columns)))
    # csv's line ending, closing the last row too
    with open(path, "w", newline="") as f:
        f.write("\r\n".join(lines) + "\r\n")
