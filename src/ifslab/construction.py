"""Planar contraction family with a verified cover and its attractor.

The family consists of one contracting similarity T fixing the origin
(scale kappa, rotation angle near 180 degrees, so every Jacobian has a
complex eigenvalue pair) together with translated conjugates S_y of T
anchored at equally spaced points on the circle |y| = (3/4) * delta.  The
module verifies two facts numerically instead of assuming them:

* cover: the images of V = B(0, delta) under T and the S_y jointly cover
  the closure of V (this is what makes the family's action minimal on its
  attractor), and
* absorption: a ball U = B(0, u_factor * delta) is mapped into itself by
  every member, so iterating the set operator A -> union of images from U
  converges to the unique compact invariant set with nonempty interior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import ConstructionError, ConvergenceError, EmptySetError, ValidationError
from .geometry import Disk, Domain, GridSet
from .maps import AffineSimilarity, SystemSpec

_COVER_PAD = 1.0625  # grid box half-width over V, as a multiple of delta
_MAX_ANCHORS = 256


@dataclass(frozen=True)
class ConstructionParams:
    """Parameters of the contraction family.

    kappa in (3/4, 1) keeps every member a contraction with complex
    rotation; delta scales the covered ball V; u_factor sizes the absorbing
    ball U = B(0, u_factor * delta).
    """

    kappa: float
    theta_deg: float = 179.0
    delta: float = 1.0
    u_factor: float = 16.0

    def __post_init__(self):
        if not 0.75 < self.kappa < 1.0:
            raise ValidationError(f"kappa must lie in (3/4, 1), got {self.kappa}")
        if not np.isfinite([self.theta_deg, self.delta, self.u_factor]).all():
            raise ValidationError("theta_deg, delta and u_factor must be finite")
        if not self.delta > 0:
            raise ValidationError("delta must be positive")
        if not self.u_factor > 1:
            raise ValidationError("u_factor must exceed 1")


@dataclass(frozen=True)
class ConstructionResult:
    """The verified family: T plus k-1 anchored conjugates."""

    params: ConstructionParams
    system: SystemSpec
    anchors: tuple[tuple[float, float], ...]
    absorbing_ball: Disk

    @property
    def k(self) -> int:
        """Total number of generators (T included)."""
        return len(self.anchors) + 1


def _anchor_points(params: ConstructionParams, count: int):
    r = 0.75 * params.delta
    ang = 2.0 * np.pi * np.arange(count) / count
    return tuple((r * float(np.cos(a)), r * float(np.sin(a))) for a in ang)


def _family(params: ConstructionParams, anchors) -> SystemSpec:
    base = AffineSimilarity(params.kappa, params.theta_deg, (0.0, 0.0))
    gens = (base,) + tuple(
        AffineSimilarity(params.kappa, params.theta_deg, y) for y in anchors
    )
    return SystemSpec(gens)


def _cover_check(params: ConstructionParams, resolution: int):
    """The fraction of closure(V) cells missed by the union of member
    images, as a function of the anchors.  V's cells and T's image test do
    not depend on the anchors, so they are taken once, and a count starts
    from the cells left by the largest set of its anchors already applied.

    Images of the ball V under similarities are again balls, so coverage is
    an exact distance test against each image ball at cell centers.
    """
    delta = params.delta
    half = _COVER_PAD * delta
    dom = Domain.planar((-half, half, -half, half), resolution)
    (wx, wy), target = geometry.disk_cells(dom, Disk((0.0, 0.0), delta))
    xs, ys = dom.axis_centers()
    px = np.broadcast_to(xs[wx, None], target.shape)[target]
    py = np.broadcast_to(ys[None, wy], target.shape)[target]
    total = px.size

    image_r = params.kappa * delta
    th = np.deg2rad(params.theta_deg)
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    eye = np.eye(2)
    r2 = image_r * image_r
    left = px**2 + py**2 >= r2  # T fixes the origin, the center of its image ball
    px, py = px[left], py[left]
    applied = {frozenset(): np.arange(px.size)}

    def uncovered(anchors) -> float:
        done = max((s for s in applied if s <= set(anchors)), key=len)
        alive = applied[done]
        for y in set(anchors) - done:
            c = (eye - params.kappa * rot) @ np.array(y)  # S_y(0) = y - T(y)
            d2 = (px[alive] - float(c[0])) ** 2 + (py[alive] - float(c[1])) ** 2
            alive = alive[d2 >= r2]
        applied[frozenset(anchors)] = alive
        return alive.size / total

    return uncovered


def build_construction(
    params: ConstructionParams,
    resolution: int = 1024,
    max_anchors: int = _MAX_ANCHORS,
) -> ConstructionResult:
    """Find the smallest anchor count whose images cover closure(V).

    Anchors are equally spaced on |y| = (3/4) delta; the count is doubled
    until the rasterized cover check passes and then bisected down.  If no
    count up to ``max_anchors`` covers, raises :class:`ConstructionError`
    carrying the uncovered fraction at the largest count tried.
    """
    tried: dict[int, float] = {}
    cover = _cover_check(params, resolution)

    def uncovered(count: int) -> float:
        if count not in tried:
            tried[count] = cover(_anchor_points(params, count))
        return tried[count]

    passing = None
    count = 1
    while count <= max_anchors:
        if uncovered(count) == 0.0:
            passing = count
            break
        count *= 2
    if passing is None:
        worst = uncovered(min(count // 2, max_anchors))
        raise ConstructionError(
            f"no anchor count up to {max_anchors} covers closure(V); "
            f"uncovered fraction {worst:.4f}",
            uncovered_fraction=worst,
        )
    lo = passing // 2 + 1
    hi = passing
    while lo < hi:
        mid = (lo + hi) // 2
        if uncovered(mid) == 0.0:
            hi = mid
        else:
            lo = mid + 1
    best = hi
    anchors = _anchor_points(params, best)
    return ConstructionResult(
        params=params,
        system=_family(params, anchors),
        anchors=anchors,
        absorbing_ball=Disk((0.0, 0.0), params.u_factor * params.delta),
    )


# ---------------------------------------------------------------------------
# Absorption and the set operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbsorbingCheck:
    absorbed: bool
    escape_distance: float


def check_absorbing(sys: SystemSpec, u: Disk, resolution: int = 1024) -> AbsorbingCheck:
    """Whether every member maps U into U, with the worst escape distance.

    The escape distance is the largest amount by which an image of a U-cell
    center leaves U (0 when the union of images stays inside).  An affine
    member's distance from U's center is convex, so it peaks at a corner of
    the hull of U's cells, which ends a grid row: only row ends are evaluated.
    Every other member is evaluated at each cell of U, in :meth:`Domain.blocks`
    (a circle system raises :class:`DimensionError` there).
    """
    dom = geometry.ball_domain(u, resolution)
    bits = geometry.rasterize_disk(dom, u).bitmap
    ends = bits & ~np.pad(bits[:, :-2] & bits[:, 2:], ((0, 0), (1, 1)))  # U's row ends
    walks = [([m for m in sys.maps() if m.affine], np.flatnonzero(ends))]
    if not all(m.affine for m in sys.maps()):
        walks.append(([m for m in sys.maps() if not m.affine], np.flatnonzero(bits)))
    worst = 0.0
    for members, index in walks:
        for _, block in dom.blocks(index):  # each block unravelled once for its members
            for m in members:
                d = geometry.point_distance(sys.kind, m.eval_cells(dom, block), u.center)
                worst = max(worst, float(d.max()) - u.radius)
    return AbsorbingCheck(absorbed=worst == 0.0, escape_distance=worst)


def _cell_box(a: GridSet):
    """The chart coordinates of the edges of A's cell bounding box, a (low,
    high) array per axis, or None for an empty A."""
    dom = a.domain
    rows = np.flatnonzero(a.bitmap.any(axis=1))
    if rows.size == 0:
        return None
    # the columns of A's rows only: one reduction over the whole bitmap
    cols = np.flatnonzero(a.bitmap[rows[0]:rows[-1] + 1].any(axis=0))
    return [lo + h * np.array([s[0], s[-1] + 1])
            for lo, h, s in zip(dom.bounds[::2], dom.cell_sizes, (rows, cols))]


def _image_box(m: AffineSimilarity, dom: Domain, edges) -> tuple[slice, slice]:
    """The chart cells whose centers can pull back through the affine member
    ``m`` into A, given the edges of A's cell bounding box (:func:`_cell_box`):
    the bounding box of m's image of A's box, widened on each side by a
    margin and clipped to the chart.

    The margin bounds the rounding of m at the corners, of its inverse at a
    cell center and of :meth:`Domain.point_cells` at the pull-back, carried
    to the image: each is a few ulps of a coordinate of at most ``reach`` (the
    chart's and the anchor's), times 1 + scale.  It is one cell while that
    bound is below half a cell, and a huge scale widens it to the whole chart.
    """
    n = dom.resolution
    if edges is None:
        return slice(0, 0), slice(0, 0)
    lows, sizes = np.array(dom.bounds[::2]), np.array(dom.cell_sizes)
    reach = max(map(abs, dom.bounds + m.anchor))
    with np.errstate(over="ignore", invalid="ignore"):
        corners = m.eval(np.stack(np.meshgrid(*edges, indexing="ij"), axis=-1).reshape(-1, 2))
        margin = np.ceil(0.5 + 32 * np.finfo(float).eps * (1 + m.scale) * reach / sizes)
    if not (np.isfinite(corners).all() and (margin < n).all()):
        return slice(0, n), slice(0, n)
    first = np.clip(np.floor((corners.min(axis=0) - lows) / sizes) - margin, 0, n)
    stop = np.clip(np.floor((corners.max(axis=0) - lows) / sizes) + 1 + margin, 0, n)
    return tuple(slice(int(f), int(e)) for f, e in zip(first, stop))


def _pulled_cells(inverse, dom: Domain, at: slice, block, box) -> np.ndarray:
    """``inverse``'s cells at a block of whole grid rows, evaluated at the
    block's cells inside ``box`` only (at all of them for ``None``); every
    other cell gets -1, as a point off the chart does."""
    if box is None:
        return inverse.image_cells(dom, block)
    first, n = at.start // dom.resolution, dom.resolution
    rows = slice(max(box[0].start - first, 0), max(box[0].stop - first, 0))
    out = np.full(((at.stop - at.start) // n, n), -1)
    window = out[rows, box[1]]  # a view
    if window.size:
        inner = tuple(i.reshape(out.shape)[rows, box[1]].ravel() for i in block)
        window[...] = inverse.image_cells(dom, inner).reshape(window.shape)
    return out.ravel()


def hutchinson_step(sys: SystemSpec, a: GridSet, *, cell_maps: list | None = None) -> GridSet:
    """One application of the set operator A -> union of member images.

    Members with closed-form inverses are rasterized exactly by the
    cell-center rule (a cell is in the image iff its center pulls back into
    A); an affine member's inverse is evaluated only inside its image box
    (:func:`_image_box`), as no cell outside it pulls back into A.  Every
    other member is pushed forward: its images of the included cell centers
    are marked, which draws the image to within one cell when the member
    contracts, as the families iterated here do.

    Given a list ``cell_maps`` and a result inside A, the step appends each
    member's int32 cell map (a closed-form member's inverse's) at the
    result's cells, which :func:`attractor`'s later steps run through; a cell
    outside a member's image box keeps -1 there, which reads as outside as
    the cell it stands for does, since every later iterate lies in A.  A
    keyword of the public step keeps the attractor's first step in its traces.
    """
    dom, maps = a.domain, sys.maps()
    for m in maps:  # before any image box is built
        m.check_chart(dom)
    edges = _cell_box(a) if any(m.affine for m in maps) else None
    # the spare last slot reads a -1 index as outside and takes its writes
    bits = np.append(a.bitmap.ravel(), False)
    out, inside = np.zeros_like(bits), bits[:-1]
    # one buffer per member, filled from the front: pages past its map stay untouched
    kept = [np.empty(np.count_nonzero(inside), np.int32) for _ in maps]
    pushed = [j for j, m in enumerate(maps) if not m.closed_form_inverse]
    pulled = [(j, m.inverse(), _image_box(m, dom, edges) if m.affine else None)
              for j, m in enumerate(maps) if m.closed_form_inverse]
    # pushes first, at A's cells, so that each block's output is final when
    # the pulls, over the whole chart, cut their maps to its cells in A
    n = 0
    for at, block in dom.blocks() if pushed else ():
        block = tuple(i[inside[at]] for i in block)
        for j in pushed:
            c = kept[j][n:n + block[0].size] = maps[j].image_cells(dom, block)
            out[c] = True
        n += block[0].size
    n = 0
    for at, block in dom.blocks() if pulled else ():
        pre = [_pulled_cells(m, dom, at, block, box) for _, m, box in pulled]
        hits = out[at]  # a view of the block's output
        for c in pre:
            hits |= bits.take(c)
        cut = hits & inside[at]
        size = np.count_nonzero(cut)
        for (j, _, _), c in zip(pulled, pre):
            kept[j][n:n + size] = c[cut]
        n += size
    stepped = GridSet(dom, out[:-1].reshape(dom.shape))
    if cell_maps is not None and stepped.minus(a).is_empty():
        cut = out[:-1][inside]
        for j, m in enumerate(maps):  # a buffer goes once it is cut
            c, kept[j] = kept[j], None
            cell_maps.append(c[:n] if m.closed_form_inverse else c[cut])
    return stepped


def _cached_step(sys: SystemSpec, index, bits, cells: list[np.ndarray], keep=None):
    """:func:`hutchinson_step` of an A holding its own image, through the maps
    ``cells`` that step keeps: it evaluates no map.  A is its int32 flat
    ``index`` and its bitmap ``bits`` (spare slot last), cleared here to the
    result.  Returns the result's index, the removed cells and the result's
    mask among A's cells, the next step's ``keep``: it cuts ``cells`` first."""
    for j, c in enumerate(cells if keep is not None else ()):
        cells[j] = c[keep]
    hits = np.zeros(len(index), dtype=bool)
    for m, c in zip(sys.maps(), cells):
        if m.closed_form_inverse:
            hits |= bits.take(c)
    pushed = [c for m, c in zip(sys.maps(), cells) if not m.closed_form_inverse]
    if pushed:  # marks, in A or the spare slot, go in once the pulls have read A
        bits[index] = hits
        for c in pushed:
            bits[c] = True
        bits[-1], hits = False, bits.take(index)
    removed = index[~hits]
    bits[removed] = False
    return index[hits], removed, hits


@dataclass(frozen=True)
class AttractorResult:
    attractor: GridSet
    iterations: int
    final_hausdorff: float
    absorbing: AbsorbingCheck | None  # None when the check was skipped


def attractor(
    sys: SystemSpec,
    u: Disk,
    tol: float,
    max_iter: int = 200,
    resolution: int = 1024,
    verify_absorbing: bool = True,
) -> AttractorResult:
    """Iterate the set operator from U until successive iterates stabilize.

    Stops when the Hausdorff distance between successive iterates reaches
    ``tol`` (a length; grid distances are quantized to cell multiples, so
    the comparison is <=); raises :class:`ConvergenceError` with the last
    distance if ``max_iter`` is hit first.  Intermediate distances above
    ``tol`` are not computed, only found to exceed it.  With
    ``verify_absorbing`` it first runs :func:`check_absorbing` on U, raises
    :class:`ValidationError` if U is not absorbing and keeps the check in
    the result.
    """
    if not tol >= 0:
        raise ValidationError(f"tol must be >= 0, got {tol}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
    chk = check_absorbing(sys, u, resolution) if verify_absorbing else None
    if chk is not None and not chk.absorbed:
        raise ValidationError(f"ball is not absorbing (escape distance {chk.escape_distance:.4g})")
    dom = geometry.ball_domain(u, resolution)
    current = geometry.rasterize_disk(dom, u)
    last = np.inf
    # The operator is monotone: once an iterate lies inside the one before it,
    # so does every later iterate, each holding its own image, and the cell
    # maps kept by the step that first nests serve every later step.
    cells, keep, index = [], None, None
    for it in range(1, max_iter + 1):
        limit = tol if it < max_iter else np.inf  # beyond tol only the last distance is needed
        if index is None:  # an uncached step is the public one, whose calls perfbench traces
            stepped = hutchinson_step(sys, current, cell_maps=cells)
            last = geometry.hausdorff_distance(stepped, current, limit)
            if cells:  # it nests: from here A is an index and a bitmap, which current views
                index = np.flatnonzero(stepped.bitmap).astype(np.int32)
                bits = np.append(stepped.bitmap.ravel(), False)
                stepped = GridSet(dom, bits[:-1].reshape(dom.shape))
            current = stepped
        else:  # the distance between nested iterates is that of the removed cells
            index, removed, keep = _cached_step(sys, index, bits, cells, keep)
            if not index.size:
                raise EmptySetError("hausdorff distance needs nonempty sets")
            last = geometry.directed_distance(removed, current, limit)
        if last <= tol:
            return AttractorResult(current, it, last, chk)
    raise ConvergenceError(
        f"attractor iteration did not stabilize in {max_iter} steps "
        f"(last distance {last:.4g})",
        last_distance=last,
    )


def construction_report(result: ConstructionResult, attr: AttractorResult) -> dict:
    """The construct report: a result exists only once its cover passed, and
    an attractor run that skipped the absorbing check reports it unverified."""
    return {
        "kappa": result.params.kappa,
        "theta": result.params.theta_deg,
        "delta": result.params.delta,
        "k": result.k,
        "cover_verified": True,
        "absorbing_verified": attr.absorbing is not None and attr.absorbing.absorbed,
        "iterations": attr.iterations,
        "final_hausdorff": attr.final_hausdorff,
    }
