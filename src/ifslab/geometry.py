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

import csv
import re
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import convolve1d, distance_transform_edt
from scipy.signal import fftconvolve
from scipy.spatial import ConvexHull, QhullError

from .errors import (
    EmptySetError,
    ResolutionError,
    ValidationError,
)

PLANAR = "planar"
CIRCLE = "circle"

MIN_RESOLUTION = 16


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
        """Cell-center coordinates along each axis."""
        n = self.resolution
        if self.kind == CIRCLE:
            return ((np.arange(n) + 0.5) / n,)
        xmin, xmax, ymin, ymax = self.bounds
        dx, dy = self.cell_sizes
        xs = xmin + (np.arange(n) + 0.5) * dx
        ys = ymin + (np.arange(n) + 0.5) * dy
        return (xs, ys)

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
        circle points wrap, so they always land on a cell.
        """
        n = self.resolution
        if self.kind == CIRCLE:
            pos = np.asarray(points, dtype=float) % 1.0
            return np.minimum((pos * n).astype(np.int64), n - 1)
        pts = np.asarray(points, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        xmin, xmax, ymin, ymax = self.bounds
        dx, dy = self.cell_sizes
        on_chart = (x >= xmin) & (x < xmax) & (y >= ymin) & (y < ymax)
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
        return int(self.bitmap.sum())

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
        # read off the axes, so a sparse set never builds the whole grid
        coords = [xs[i] for xs, i in zip(self.domain.axis_centers(), np.nonzero(self.bitmap))]
        return coords[0] if self.domain.kind == CIRCLE else np.stack(coords, axis=-1)


def full_set(domain: Domain) -> GridSet:
    return GridSet(domain, np.ones(domain.shape, dtype=bool))


def empty_set(domain: Domain) -> GridSet:
    return GridSet(domain, np.zeros(domain.shape, dtype=bool))


def ball_domain(u: Disk, resolution: int) -> Domain:
    """Square planar chart around a ball, with a margin of about 4 cells per side."""
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


def rasterize_disk(domain: Domain, d: Disk) -> GridSet:
    """Cells whose center lies within the disk (closed)."""
    if domain.kind == CIRCLE:
        if not d.is_circle:
            raise ValidationError("planar disk on a circle domain")
        xs = domain.axis_centers()[0]
        diff = np.abs(xs - (float(d.center) % 1.0))
        dist = np.minimum(diff, 1.0 - diff)
        return GridSet(domain, dist <= d.radius)
    window, bits = disk_cells(domain, d)
    bitmap = np.zeros(domain.shape, dtype=bool)
    bitmap[window] = bits
    return GridSet(domain, bitmap)


# ---------------------------------------------------------------------------
# Measure operations
# ---------------------------------------------------------------------------


def volume(s: GridSet) -> float:
    """Normalized volume: included cells / total cells."""
    return float(s.bitmap.mean())


def _disk_kernel(domain: Domain, radius: float) -> np.ndarray:
    dx, dy = domain.cell_sizes
    if domain.kind == CIRCLE:
        m = int(np.floor(radius / dx))
        return np.ones(2 * m + 1)
    mx = int(np.floor(radius / dx))
    my = int(np.floor(radius / dy))
    ox = (np.arange(-mx, mx + 1) * dx)[:, None]
    oy = (np.arange(-my, my + 1) * dy)[None, :]
    return (ox**2 + oy**2 <= radius**2).astype(float)


def local_density(a: GridSet, radius: float) -> np.ndarray:
    """Per-cell ratio vol(a ∩ B(center, radius)) / vol(B) over the grid.

    Near planar chart boundaries the ball is truncated by the chart; the
    missing part counts as not-in-a (zero padding), which only penalizes
    boundary cells.
    """
    kernel = _disk_kernel(a.domain, radius)
    ksum = kernel.sum()
    if ksum <= 1:
        raise ResolutionError("density radius is below the grid scale")
    field = a.bitmap.astype(float)
    if a.domain.kind == CIRCLE:
        counts = convolve1d(field, kernel, mode="wrap")
    else:
        counts = fftconvolve(field, kernel, mode="same")
    # inputs are 0/1, so true counts are integers; rounding removes FFT dust
    counts = np.rint(counts)
    return counts / ksum


def density_points(a: GridSet, radius: float, threshold: float) -> GridSet:
    """Approximate Lebesgue density points of ``a``.

    ``radius`` is at least two cell widths and ``threshold`` lies in
    (0.5, 1].  A cell is kept iff the local density of ``a`` at ``radius``
    reaches the threshold — the radius is the proxy for the r -> 0 limit.
    """
    radius = float(radius)
    if radius < 2 * a.domain.max_cell_size:
        raise ResolutionError("density radius must be at least 2 cell widths")
    if not 0.5 < threshold <= 1.0:
        raise ValidationError("threshold must lie in (0.5, 1]")
    ratio = local_density(a, radius)
    # counts are exact integers over the kernel, so a tiny slack only guards
    # against decimal-representation dust in threshold itself
    return GridSet(a.domain, ratio >= threshold - 1e-12)


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def _farthest_cell(cells: GridSet, target: GridSet) -> float:
    """Largest distance from an included cell center of ``cells`` to the
    nearest included cell center of ``target``."""
    dx, dy = target.domain.cell_sizes
    if target.domain.kind == CIRCLE:
        n = target.domain.resolution
        tiled = np.concatenate([target.bitmap] * 3)
        dist = distance_transform_edt(~tiled, sampling=dx)[n : 2 * n]
        return float(dist[cells.bitmap].max())
    # the transform only looks at differences of cell indices, and every
    # target cell lies in the bounding box of both sets, so the box gives
    # the same distances as the whole chart
    both = cells.bitmap | target.bitmap
    rows = np.flatnonzero(both.any(axis=1))
    cols = np.flatnonzero(both.any(axis=0))
    box = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
    dist = distance_transform_edt(~target.bitmap[box], sampling=(dx, dy))
    return float(dist[cells.bitmap[box]].max())


def hausdorff_distance(a: GridSet, b: GridSet) -> float:
    """Hausdorff distance between two nonempty sets at the same resolution.

    Computed between cell centers, so it is a pseudo-metric: exact 0 iff
    the bitmaps are equal, and the triangle inequality holds up to one cell
    diagonal.  When one set contains the other, the inner set's cells are
    at distance 0 from the outer one, so one distance transform suffices.
    """
    a._check_same_domain(b)
    if a.is_empty() or b.is_empty():
        raise EmptySetError("hausdorff distance needs nonempty sets")
    if a.minus(b).is_empty():
        return _farthest_cell(b, a)
    if b.minus(a).is_empty():
        return _farthest_cell(a, b)
    return max(_farthest_cell(a, b), _farthest_cell(b, a))


def nearest_point_distances(region: GridSet, points: np.ndarray) -> np.ndarray:
    """Exact distance from each included cell center of ``region`` to the
    nearest of the given points (wrapped on the circle)."""
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise EmptySetError("no points given")
    cells = region.included_points()
    if region.domain.kind == CIRCLE:
        pos = np.sort(pts % 1.0)
        idx = np.searchsorted(pos, cells % 1.0)
        best = np.full(cells.shape, np.inf)
        n = len(pos)
        for off in (-1, 0):
            cand = pos[(idx + off) % n]
            diff = np.abs(cand - cells % 1.0)
            best = np.minimum(best, np.minimum(diff, 1.0 - diff))
        return best
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
    """Maximum pairwise distance between included cell centers."""
    if s.is_empty():
        raise EmptySetError("diameter of an empty set")
    if s.domain.kind == CIRCLE:
        return _circle_diameter(s.included_points())
    pts = s.included_points()
    if len(pts) == 1:
        return 0.0
    if len(pts) <= 400:
        d = pts[:, None, :] - pts[None, :, :]
        return float(np.sqrt((d**2).sum(-1)).max())
    try:
        hull = pts[ConvexHull(pts).vertices]
    except QhullError:
        # collinear set: spread along the principal direction
        c = pts - pts.mean(axis=0)
        u = np.linalg.svd(c, full_matrices=False)[2][0]
        proj = c @ u
        return float(proj.max() - proj.min())
    d = hull[:, None, :] - hull[None, :, :]
    return float(np.sqrt((d**2).sum(-1)).max())


def _circle_diameter(pos: np.ndarray) -> float:
    if len(pos) == 1:
        return 0.0
    pos = np.sort(pos)
    # farthest partner of each point sits nearest to its antipode
    targets = (pos + 0.5) % 1.0
    idx = np.searchsorted(pos, targets)
    best = 0.0
    n = len(pos)
    for off in (-1, 0):
        cand = pos[(idx + off) % n]
        diff = np.abs(cand - pos)
        d = np.minimum(diff, 1.0 - diff)
        best = max(best, float(d.max()))
    return best


def boundary_cell_count(s: GridSet) -> int:
    """Included cells with at least one excluded 4-neighbor.

    Planar neighbors beyond the chart edge count as excluded; circle
    neighbors wrap.
    """
    bm = s.bitmap
    if s.domain.kind == CIRCLE:
        nb_all = np.roll(bm, 1) & np.roll(bm, -1)
        return int(np.count_nonzero(bm & ~nb_all))
    padded = np.pad(bm, 1, constant_values=False)
    nb_all = (
        padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    )
    return int(np.count_nonzero(bm & ~nb_all))


def one_cell_ring_volume(s: GridSet) -> float:
    """Normalized volume of the one-cell boundary ring of a set."""
    return boundary_cell_count(s) * s.domain.cell_volume


def sample_cells(s: GridSet, n: int, rng: np.random.Generator) -> np.ndarray:
    """Centers of n included cells drawn uniformly with replacement."""
    pts = s.included_points()
    if len(pts) == 0:
        raise EmptySetError("cannot sample from an empty set")
    idx = rng.integers(0, len(pts), size=n)
    return pts[idx]


# ---------------------------------------------------------------------------
# Serialization: PGM bitmaps and disk CSV lists
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
        pixels = np.frombuffer(raw[pos + 1 : pos + 1 + w * h], dtype=np.uint8)
    else:
        pixels = np.array(raw[pos:].split(), dtype=int)[: w * h]
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
    pts = np.asarray(points)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        if pts.ndim == 2:
            writer.writerow(["x", "y"])
            for x, y in pts:
                writer.writerow([repr(float(x)), repr(float(y))])
        else:
            writer.writerow(["x"])
            for x in pts:
                writer.writerow([repr(float(x))])
