"""Minimality, invariance, bounded-distortion, and ergodicity probes.

These are numerical probes, not proofs: the minimality test certifies
eps-density of finitely many sampled orbits, the distortion machinery
checks the two-sided determinant-ratio bound on samples, and the
ergodicity probe is a falsification search for an intermediate-volume
invariant set.  Absence of a counterexample is reported as consistency at
the probed resolution, never as a theorem.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import geometry
from .errors import (
    BudgetExceededError,
    DegeneracyError,
    DimensionError,
    DomainError,
    EmptySetError,
    HorizonError,
    NonFiniteError,
    NotAContractionError,
    OrbitRangeError,
    ResolutionError,
    ValidationError,
)
from .geometry import CIRCLE, PLANAR, Disk, Domain, GridSet
from .maps import REVERSE, SystemSpec, Word, apply_word
from .seeding import rng_from, spawn_rngs

_EVAL_BUDGET = 10**7
_CHUNK_POINTS = 2**18  # points pushed per chunk of words in empirical_distortion
_VOLUME_WINDOW = (0.05, 0.95)  # candidate volumes the ergodicity probe scores
_SEED_BLOCK = 16  # ergodicity seeds refined together, one per bit of a uint16 word
_ROUND_SLACK = 1e-9  # minimality's rounding margin at epsilon, relative to the chart's scale
_RUN_BLOCK = 2**16  # (point, grid row) runs per block of the planar minimality count

EPS_DENSE = "eps-dense"
NOT_EPS_DENSE = "not-eps-dense"

CANDIDATE_FOUND = "candidate invariant set found"
NO_CANDIDATE = "no intermediate invariant set found at this resolution"
UNRESOLVED = "no iterate resolved at this resolution"


def _require_positive(**counts: int) -> None:
    # a probe that examined nothing must not report a verdict
    for name, value in counts.items():
        if value < 1:
            raise ValidationError(f"{name} must be >= 1, got {value}")


# ---------------------------------------------------------------------------
# Minimality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinimalityReport:
    epsilon: float
    max_word_len: int
    samples: int
    uncovered_fraction: float
    verdict: str

    def to_json_dict(self) -> dict:
        return asdict(self)


def _pruning_keys(pts: np.ndarray, q: float, circle: bool) -> np.ndarray:
    """The pruning cell of each point: ``floor(x % 1 / q)`` on the circle,
    the ``floor(x / q)`` pair packed into one int64 on the plane.  A point
    that is not finite, or 2^31 cells or more from the origin on an axis,
    where packed pairs could collide, raises :class:`OrbitRangeError`."""
    with np.errstate(over="ignore", invalid="ignore"):  # an infinity is caught below
        k = np.floor((pts % 1.0 if circle else pts) / q)
    if (far := ~(np.abs(k) < 2.0**31).reshape(len(k), -1).all(axis=1)).any():
        p = pts[far.argmax()]
        where = ("2^31 or more pruning cells from the origin" if np.isfinite(p).all()
                 else "not finite")
        raise OrbitRangeError(f"orbit point {p} is {where}")
    k = k.astype(np.int64)
    return k if circle else k[..., 0] * np.int64(1 << 32) + k[..., 1]


def _orbit_points(
    sys: SystemSpec, start, max_word_len: int, epsilon: float
) -> tuple[np.ndarray, bool]:
    """Breadth-first orbit of one start point with proximity pruning.

    A branch stops expanding once its point lands in an occupied pruning
    cell; cells are sized so that same-cell points are within epsilon/2 of
    each other.  Every visited point is an orbit point.  The enumeration
    budget of 10^7 map evaluations applies per start point; returns the
    orbit found and whether that budget ran out before the enumeration
    finished, in which case the orbit is partial.
    """
    circle = sys.kind == CIRCLE
    q = (epsilon / 2.0) if circle else epsilon / (2.0 * math.sqrt(2.0))
    maps = sys.maps()
    frontier = np.asarray(start, dtype=float).reshape((1,) if circle else (1, 2))
    occupied = _pruning_keys(frontier, q, circle)  # kept sorted for searchsorted
    collected = [frontier]
    evals = 0
    for _ in range(max_word_len):
        if evals + len(maps) * len(frontier) > _EVAL_BUDGET:
            # a depth the budget cannot finish adds none of its images
            return np.concatenate(collected), True
        evals += len(maps) * len(frontier)
        images = np.concatenate(tuple(m.eval(frontier) for m in maps))
        keys, first = np.unique(_pruning_keys(images, q, circle), return_index=True)
        at = np.searchsorted(occupied, keys)
        fresh = occupied[np.minimum(at, len(occupied) - 1)] != keys
        if not fresh.any():
            break
        occupied = np.insert(occupied, at[fresh], keys[fresh])
        # the first point of each fresh cell, in map-then-point scan order
        frontier = images[np.sort(first[fresh])]
        collected.append(frontier)
    return np.concatenate(collected), False


def _uncovered_count(region: GridSet, orbit: np.ndarray, epsilon: float) -> int:
    """The count of region cells beyond ``epsilon`` of every orbit point.

    On the plane the cells of a grid row within ``epsilon`` of a point form
    a run of columns, whose ends the circle's half-width in that row gives;
    an end within rounding of a cell center is settled by that cell's exact
    point distance.  The runs of every point and row are summed over the
    region's bounding box.  A circle region takes one exact nearest-point
    query.
    """
    domain = region.domain
    if domain.kind == CIRCLE:
        return int(np.count_nonzero(geometry.nearest_point_distances(region, orbit) > epsilon))
    pts = np.asarray(orbit, dtype=float)
    if not (finite := np.isfinite(pts).all(axis=1)).all():
        raise NonFiniteError(f"orbit point {finite.argmin()} of {len(pts)} is not finite")
    (xmin, xmax, ymin, ymax), (dx, dy) = domain.bounds, domain.cell_sizes
    # a point farther than epsilon from the chart is farther from every center
    low, high = (xmin - epsilon, ymin - epsilon), (xmax + epsilon, ymax + epsilon)
    pts = pts[((pts >= low) & (pts <= high)).all(axis=1)]
    rows, cols = (np.flatnonzero(region.bitmap.any(axis=k)) for k in (1, 0))
    crop = region.bitmap[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
    # grid coordinates: the center of cell (i, j) sits at (i, j)
    gx, gy = ((pts - (xmin, ymin)) / (dx, dy) - 0.5).T
    first = np.maximum(np.ceil(gx - epsilon / dx) - 1, rows[0])
    count = np.maximum(np.minimum(np.floor(gx + epsilon / dx) + 1, rows[-1]) - first + 1, 0)
    count = count.astype(np.int64)
    # an end this near a center, in cells, is read exactly: it covers the
    # rounding of the centers, of the half-widths and of the distances, and
    # from half a cell on every end is read
    slack = _ROUND_SLACK * (max(map(abs, domain.bounds)) + epsilon)
    near = min((math.sqrt(2.0 * epsilon * slack) + slack) / dy, 0.5)
    width = crop.shape[1] + 1
    runs = np.zeros(len(crop) * width, dtype=np.int64)  # +1 at a run's start, -1 past its end
    step = max(1, _RUN_BLOCK // max(int(count.max(initial=0)), 1))
    for s in range(0, len(pts), step):
        n = count[s:s + step]
        k = np.repeat(np.arange(s, s + len(n)), n)  # the point of each (point, row) run
        r = np.arange(len(k)) + np.repeat(first[s:s + step] - (np.cumsum(n) - n), n)
        cx = xmin + (r + 0.5) * dx
        half = np.sqrt(np.maximum(epsilon * epsilon - (cx - pts[k, 0]) ** 2, 0.0)) / dy
        ends = []
        for sign in (-1, 1):
            # an end past the box is read halfway past the column beyond it
            t = np.clip(gy[k] + sign * half, cols[0] - 1.5, cols[-1] + 1.5)
            end, c = (np.floor(t) if sign > 0 else np.ceil(t)), np.round(t)
            i = np.flatnonzero(np.abs(t - c) < near)
            at = np.stack([cx[i], ymin + (c[i] + 0.5) * dy], axis=-1)
            inside = geometry.point_distance(PLANAR, at, pts[k[i]]) <= epsilon
            end[i] = c[i] + sign * (inside - 1.0)
            ends.append(end)
        lo, hi = np.maximum(ends[0], cols[0]), np.minimum(ends[1], cols[-1])
        keep = lo <= hi
        base = (r[keep] - rows[0]) * width - cols[0]
        runs += np.bincount((base + lo[keep]).astype(np.int64), minlength=len(runs))
        runs -= np.bincount((base + hi[keep] + 1).astype(np.int64), minlength=len(runs))
    covered = np.cumsum(runs.reshape(len(crop), width)[:, :-1], axis=1) > 0
    return int(np.count_nonzero(crop & ~covered))


def minimality_test(
    sys: SystemSpec,
    region: GridSet,
    epsilon: float,
    max_word_len: int,
    samples: int,
    seed: int = 0,
) -> MinimalityReport:
    """Check whether every sampled orbit is eps-dense in the region.

    For each seeded start cell the word tree is explored breadth-first up
    to ``max_word_len`` with proximity pruning, and the region cells beyond
    ``epsilon`` of the orbit are counted exactly: on the circle by one
    full nearest-point query; on the plane each grid row's cells within
    ``epsilon`` of an orbit point form a run of columns, and only a run end
    within rounding of a cell center reads a point distance.  A
    non-finite planar orbit point raises :class:`NonFiniteError`.  The
    verdict is eps-dense iff no start point leaves any region cell
    uncovered.  Exceeding the enumeration budget of 10^7 map evaluations
    for any single start point raises :class:`BudgetExceededError`
    carrying the partial report.
    """
    if not epsilon >= 2 * region.domain.max_cell_size:
        raise ResolutionError("epsilon must be at least 2 cell widths")
    if max_word_len < 1:
        raise ValidationError("max_word_len must be >= 1")
    _require_positive(samples=samples)
    if region.is_empty():
        raise EmptySetError("minimality region is empty")
    rng = rng_from(seed)
    starts = geometry.sample_cells(region, samples, rng)
    worst = 0

    def report(done: int) -> MinimalityReport:
        return MinimalityReport(
            epsilon=epsilon,
            max_word_len=max_word_len,
            samples=done,
            uncovered_fraction=worst / region.count(),
            verdict=NOT_EPS_DENSE if worst else EPS_DENSE,
        )

    for i in range(samples):
        try:
            orbit, exhausted = _orbit_points(sys, starts[i], max_word_len, epsilon)
            worst = max(worst, _uncovered_count(region, orbit, epsilon))
        except (NonFiniteError, OrbitRangeError) as exc:
            raise type(exc)(f"sample {i + 1} of {samples}, from {starts[i]}: {exc}") from None
        if exhausted:
            raise BudgetExceededError(
                f"word budget of {_EVAL_BUDGET} evaluations exhausted "
                f"after {i + 1} of {samples} samples",
                partial=report(i + 1),
            )
    return report(samples)


# ---------------------------------------------------------------------------
# Invariance defect
# ---------------------------------------------------------------------------


def invariance_defect(sys: SystemSpec, a: GridSet, direction: str = "image") -> float:
    """Volume by which a set fails to be invariant.

    ``image``: vol of the symmetric difference between a and the union of
    generator images.  ``preimage``: the worst symmetric difference between
    a and a single generator preimage (the ergodicity notion of invariance).
    """
    if direction not in ("image", "preimage"):
        raise ValidationError(f"direction must be image or preimage, got {direction!r}")
    if direction == "image":
        # a cell is in m(A) iff its center pulls back into A; exact for
        # expanding members too, unlike a forward push of cell centers
        union = np.zeros(a.domain.shape, dtype=bool)
        for m in sys.maps():
            union |= a.pull(m.inverse().cell_map(a.domain))
        return geometry.volume(a.bitmap ^ union, union.size)
    worst = 0.0
    for m in sys.maps():
        pre = a.pull(m.cell_map(a.domain))
        worst = max(worst, geometry.volume(a.bitmap ^ pre, pre.size))
    return worst


# ---------------------------------------------------------------------------
# Bounded distortion
# ---------------------------------------------------------------------------


def holder_constant(m, alpha: float, domain_set: GridSet, pair_samples: int,
                    seed: int = 0) -> float:
    """Sampled Hoelder constant of log|det D| over a set.

    The maximum of |log|det D(x)| - log|det D(y)|| / ||x-y||^alpha over
    sampled cell pairs: a lower estimate of the true constant (affine maps
    give exactly 0).
    """
    if not 0 < alpha <= 1:
        raise ValidationError("alpha must lie in (0, 1]")
    _require_positive(pair_samples=pair_samples)
    rng = rng_from(seed)
    xs = geometry.sample_cells(domain_set, pair_samples, rng)
    ys = geometry.sample_cells(domain_set, pair_samples, rng)
    dx = np.abs(m.jacobian_det(xs))
    dy_ = np.abs(m.jacobian_det(ys))
    dist = geometry.point_distance(m.kind, xs, ys)
    if dx.min() < 1e-14 or dy_.min() < 1e-14:
        raise DegeneracyError("Jacobian determinant vanishes on the sample")
    keep = dist > 0
    if not keep.any():
        return 0.0
    num = np.abs(np.log(dx[keep]) - np.log(dy_[keep]))
    return float((num / dist[keep] ** alpha).max())


def contraction_factor(sys: SystemSpec, region: GridSet, samples: int,
                       seed: int = 0) -> float:
    """Largest sampled Jacobian operator norm over the generators.

    Raises :class:`NotAContractionError` when the factor reaches 1 (e.g.
    any isometry).
    """
    _require_positive(samples=samples)
    rng = rng_from(seed)
    pts = geometry.sample_cells(region, samples, rng)
    xi = 0.0
    for m in sys.maps():
        xi = max(xi, float(m.operator_norm(pts).max()))
    if xi >= 1.0:
        raise NotAContractionError(f"sampled derivative norm {xi} is not < 1")
    return xi


def distortion_bound(c: float, xi: float, alpha: float, diam: float) -> float:
    """Closed-form two-sided determinant-ratio bound for reverse iteration.

    exp(c * xi^alpha * diam^alpha / (1 - xi^alpha)); equals 1 iff c = 0.
    """
    if not 0 < xi < 1:
        raise DomainError(f"contraction factor must lie in (0, 1), got {xi}")
    if c < 0:
        raise DomainError("Hoelder constant must be >= 0")
    if not 0 < alpha <= 1:
        raise DomainError("alpha must lie in (0, 1]")
    if not diam > 0:
        raise DomainError("diameter must be positive")
    xa = xi**alpha
    return math.exp(c * xa * diam**alpha / (1.0 - xa))


@dataclass(frozen=True)
class EmpiricalDistortion:
    emp_min: float
    emp_max: float
    words: int
    word_length: int
    pairs: int
    dropped: int  # words whose ratios hold a NaN, which neither extreme reads


def empirical_distortion(
    sys: SystemSpec,
    delta_set: GridSet,
    word_length: int,
    word_count: int,
    pair_count: int,
    seed: int = 0,
) -> EmpiricalDistortion:
    """Extreme observed determinant ratios over random reverse words.

    Words are drawn uniformly per symbol; the same point pairs (sampled
    from the attractor set) are pushed through every word, accumulating
    log|det D| along the reverse orbit.  Words are pushed together, up to
    ``_CHUNK_POINTS`` points per chunk: at each depth every symbol makes
    one call on the rows of the words that apply it there.  Each point's
    bits depend on that point alone, so the ratios do not depend on the
    chunking.  A word whose maps all have constant log-dets gives every
    point the same sum, hence ratios of exactly 1, and is skipped.  A word
    whose ratios hold a NaN (an orbit that overflowed) is dropped and
    counted; when every word whose log-det varies is dropped, the probe has
    measured nothing and raises :class:`NonFiniteError`.
    """
    _require_positive(word_count=word_count, pair_count=pair_count)
    if word_length < 0:
        raise ValidationError(f"word_length must be >= 0, got {word_length}")
    rng = rng_from(seed)
    xs = geometry.sample_cells(delta_set, pair_count, rng)
    ys = geometry.sample_cells(delta_set, pair_count, rng)
    pts0 = np.concatenate([xs, ys], axis=0)
    maps = sys.maps()
    symbols = rng.integers(0, len(maps), size=(word_count, word_length))
    varies = np.array([m.constant_log_abs_det is None for m in maps])
    # reverse iteration: last symbol acts first; a word with no varying
    # log-det has every ratio exactly 1, which moves neither extreme
    order = symbols[:, ::-1]
    order = order[varies[order].any(axis=1)]
    per_chunk = max(1, _CHUNK_POINTS // pts0.shape[0])
    lo, hi, dropped = 1.0, 1.0, 0
    for start in range(0, order.shape[0], per_chunk):
        logdet = _word_log_dets(maps, order[start:start + per_chunk], pts0)
        ratios = np.exp(logdet[:, :pair_count] - logdet[:, pair_count:])
        # a row's min is NaN iff the row holds one; fmin/fmax drop such a
        # word, as a word-by-word min(lo, ...) fold does, so the extremes do
        # not depend on the chunking
        least = ratios.min(axis=1)
        dropped += int(np.count_nonzero(np.isnan(least)))
        lo = min(lo, float(np.fmin.reduce(least)))
        hi = max(hi, float(np.fmax.reduce(ratios.max(axis=1))))
    if dropped and dropped == order.shape[0]:
        raise NonFiniteError(
            f"every one of the {dropped} words whose log-det varies gave a NaN "
            "determinant ratio; no word was scored"
        )
    return EmpiricalDistortion(
        emp_min=lo, emp_max=hi, words=word_count,
        word_length=word_length, pairs=pair_count, dropped=dropped,
    )


def _word_log_dets(maps, order: np.ndarray, pts0: np.ndarray) -> np.ndarray:
    """log|det D| of each word along its orbit, one row per word of ``order``.

    ``order`` holds symbols in the order the maps act, and every word holds
    at least one map whose log-det varies.
    """
    consts = np.array([m.constant_log_abs_det or 0.0 for m in maps])
    varying = np.array([m.constant_log_abs_det is None for m in maps])[order]
    # after the last map whose log-det varies, no step reads the points
    live = order.shape[1] - 1 - varying[:, ::-1].argmax(axis=1)
    pts = np.broadcast_to(pts0, (order.shape[0],) + pts0.shape).copy()
    logdet = np.zeros(pts.shape[:2])
    for i, col in enumerate(order.T):
        if not varying[:, i].all():
            # 0.0 on the rows of varying maps leaves their sums unchanged
            logdet += consts[col][:, None]
        for sym in np.unique(col[i <= live]):
            # a row at its last varying step moves too; no later step reads it
            m = maps[sym]
            rows = np.flatnonzero((col == sym) & (i <= live))
            if m.constant_log_abs_det is None:
                pts[rows], step = m.eval_log_abs_det(pts[rows])
                logdet[rows] += step
            else:
                pts[rows] = m.eval(pts[rows])
    return logdet


_CONSISTENCY_SLACK = 0.05


@dataclass(frozen=True)
class DistortionReport:
    """Sampled Hoelder data, the closed-form bound, and the observed ratios.

    ``consistent`` requires the observed ratios to fall inside
    [1/l_bound, l_bound] with 5% slack; the sampled constant is a lower
    estimate, so the slack absorbs estimation error.
    """

    alpha: float
    c: float
    xi: float
    diam: float
    l_bound: float
    emp_min: float
    emp_max: float
    consistent: bool
    words: int
    word_length: int
    pairs: int

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "C": self.c,
            "xi": self.xi,
            "diam": self.diam,
            "L_H": self.l_bound,
            "emp_min": self.emp_min,
            "emp_max": self.emp_max,
            "consistent": self.consistent,
        }


def distortion_report(
    sys: SystemSpec,
    delta_set: GridSet,
    alpha: float,
    word_length: int,
    word_count: int,
    pair_count: int,
    holder_pairs: int = 4096,
    seed: int = 0,
) -> DistortionReport:
    """Full pipeline: estimate C and xi, form the bound, check it empirically."""
    _require_positive(word_length=word_length, word_count=word_count, pair_count=pair_count,
                      holder_pairs=holder_pairs)
    c = max(holder_constant(m, alpha, delta_set, holder_pairs, seed) for m in sys.maps())
    xi = contraction_factor(sys, delta_set, holder_pairs, seed)
    diam = geometry.diameter(delta_set)
    l_bound = distortion_bound(c, xi, alpha, diam)
    emp = empirical_distortion(sys, delta_set, word_length, word_count, pair_count, seed)
    consistent = (
        emp.emp_min >= (1.0 / l_bound) * (1.0 - _CONSISTENCY_SLACK)
        and emp.emp_max <= l_bound * (1.0 + _CONSISTENCY_SLACK)
    )
    return DistortionReport(
        alpha=alpha, c=c, xi=xi, diam=diam, l_bound=l_bound,
        emp_min=emp.emp_min, emp_max=emp.emp_max, consistent=consistent,
        words=word_count, word_length=word_length, pairs=pair_count,
    )


# ---------------------------------------------------------------------------
# Shrink time
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShrinkTimeResult:
    r0: int
    diam_at_r0: float
    diam_before: float | None  # diameter at r0 - 1 (>= delta when r0 >= 1)


def shrink_time(
    sys: SystemSpec,
    word: Word,
    u: Disk,
    delta: float,
    max_r: int,
    resolution: int = 1024,
) -> ShrinkTimeResult:
    """First reverse-iteration depth at which the image of U shrinks below delta.

    The image of the rasterized ball under the first r symbols (reverse
    order: the r-th symbol acts first) is measured by its rasterized
    diameter; returns the depth together with the diameters at r0 and
    r0 - 1.  Raises :class:`HorizonError` if the diameter never drops below
    delta within ``max_r`` (or the word runs out of symbols).
    """
    if sys.kind == CIRCLE:
        raise DimensionError("shrink time applies to planar systems")
    if word.direction != REVERSE:
        raise ValidationError("shrink time is defined for reverse words")
    if max_r < 0:
        raise ValidationError("max_r must be >= 0")
    dom = geometry.ball_domain(u, resolution)
    base = geometry.rasterize_disk(dom, u)
    pts0 = base.included_points()

    def rasterized_diameter(pts: np.ndarray) -> float:
        return geometry.diameter(geometry.points_to_gridset(dom, pts))

    prev = rasterized_diameter(pts0)
    if prev < delta:
        return ShrinkTimeResult(r0=0, diam_at_r0=prev, diam_before=None)
    horizon = min(max_r, len(word.symbols))
    for r in range(1, horizon + 1):
        d = rasterized_diameter(apply_word(sys, Word(word.symbols[:r], REVERSE), pts0))
        if d < delta:
            return ShrinkTimeResult(r0=r, diam_at_r0=d, diam_before=prev)
        prev = d
    raise HorizonError(
        f"image diameter stayed >= {delta} for all depths up to {horizon}"
    )


# ---------------------------------------------------------------------------
# Ergodicity probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErgodicityReport:
    resolution: int
    best_defect: float
    best_volume: float
    verdict: str
    candidate: GridSet | None
    candidate_ring_volume: float

    def to_json_dict(self) -> dict:
        return {
            "resolution": self.resolution,
            "best_defect": self.best_defect,
            "best_volume": self.best_volume,
            "verdict": self.verdict,
        }


def _seed_bitmaps(domain: Domain, count: int, rngs) -> list[np.ndarray]:
    """Canonical seed sets: stripes, half-space cuts, then random blobs.

    Striped seeds are invariant under finite-order rotations whose order
    divides the stripe frequency, which lets the probe recover exact
    intermediate invariant sets where they exist.  All seeds have volume
    about 1/2.
    """
    seeds: list[np.ndarray] = []
    n = domain.resolution
    if domain.kind == CIRCLE:
        xs = domain.axis_centers()[0]
        for m in (2, 3, 4, 5, 6, 8, 10, 12):
            seeds.append((m * xs) % 1.0 < 0.5)
        for off in (0.0, 0.125, 0.25, 0.375):
            seeds.append((xs - off) % 1.0 < 0.5)
    else:
        xs, ys = domain.axis_centers()
        xmin, xmax, ymin, ymax = domain.bounds
        cxm, cym = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)
        u = (np.broadcast_to(xs[:, None], (n, n)) - cxm) / (xmax - xmin)
        v = (np.broadcast_to(ys[None, :], (n, n)) - cym) / (ymax - ymin)
        for m in (2, 3, 4, 6):
            seeds.append(((m * (u + 0.5)) % 1.0 < 0.5) ^ ((m * (v + 0.5)) % 1.0 < 0.5))
        for a, b in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0)):
            seeds.append(a * u + b * v > 0)
    ri = 0
    while len(seeds) < count:
        rng = rngs[ri % len(rngs)]
        ri += 1
        field = rng.normal(size=domain.shape)
        # cheap smoothing keeps candidate boundaries short
        for axis in range(field.ndim):
            for shift in (1, -1, 2, -2):
                field = field + np.roll(field, shift, axis=axis)
        seeds.append(field > np.median(field))
    return seeds[:count]


def _words(flat: np.ndarray) -> np.ndarray:
    """Packed seed words with a spare 0 at the end, so that the -1 of a cell
    map reads as outside."""
    words = np.zeros(flat.size + 1, dtype=np.uint16)
    words[:-1] = flat
    return words


def _at_least(planes: list[np.ndarray], threshold: int) -> np.ndarray:
    """Bitwise vote over packed words: bit b of the result is set where at
    least ``threshold`` >= 0 of the ``planes`` set bit b.

    The per-bit count is held bit-sliced, one word array per binary digit
    (Knuth, TAOCP 4A, 7.1.3), so no per-bit integer array is built.
    """
    if threshold > len(planes):
        return np.zeros_like(planes[0])
    digits: list[np.ndarray] = []  # least significant first
    for count, x in enumerate(planes, 1):
        carry = x
        for i, d in enumerate(digits):
            digits[i], carry = d ^ carry, d & carry
        if count.bit_length() > len(digits):
            digits.append(carry)
    # count >= threshold, decided from the most significant digit down
    above = np.zeros_like(planes[0])
    equal = ~above
    for i in reversed(range(len(digits))):
        if threshold >> i & 1:
            equal = equal & digits[i]
        else:
            above = above | (equal & digits[i])
            equal = equal & ~digits[i]
    return above | equal


def ergodicity_probe(
    sys: SystemSpec,
    resolution: int,
    seed_sets: int = 16,
    refine_steps: int = 24,
    seed: int = 0,
    domain: Domain | None = None,
) -> ErgodicityReport:
    """Search for an intermediate-volume set invariant under all preimages.

    Candidate sets are refined toward consensus by replacing B with the
    cellwise majority of {B, g1^-1(B), ..., gs^-1(B)}.  An iterate is
    scored when its volume lies inside (0.05, 0.95) and it is
    *resolved* at this resolution: its one-cell boundary ring occupies at
    most 1/16 of min(vol, 1 - vol), since a set whose boundary ring rivals
    its bulk is indistinguishable from rasterization noise.  A resolved
    iterate qualifies as a candidate when its worst preimage defect is
    below 3x its one-cell-ring volume (invariance up to rasterization).
    Candidates are ranked by (defect, distance of volume from 1/2);
    absence of any qualifier is reported as consistency with ergodicity at
    this resolution, not as a proof; with no resolved iterate at all, the
    verdict is :data:`UNRESOLVED`.
    """
    _require_positive(seed_sets=seed_sets)
    if refine_steps < 0:
        # 0 still scores the seed sets themselves
        raise ValidationError(f"refine_steps must be >= 0, got {refine_steps}")
    if domain is None:
        if sys.kind != CIRCLE:
            raise ValidationError("planar ergodicity probe needs an explicit domain")
        domain = Domain.circle(resolution)
    elif domain.resolution != resolution:
        raise ValidationError("explicit domain resolution must match the probe resolution")

    maps = sys.maps()
    # g^-1(B) holds a cell iff B holds the cell of g(cell center)
    pre_cells = [m.cell_map(domain) for m in maps]
    majority_needed = (len(maps) + 1) // 2 + 1
    lo_vol, hi_vol = _VOLUME_WINDOW
    n = math.prod(domain.shape)

    # entries are ((key, seed), vol, ring, words, bit); ranking by (key, seed)
    # with strict < keeps the first best in seed-then-step order, the choice
    # of refining the seeds one after another
    best_resolved = None
    best_qualifying = None

    seeds = _seed_bitmaps(domain, seed_sets, spawn_rngs(seed, seed_sets))
    for first in range(0, seed_sets, _SEED_BLOCK):
        block = seeds[first:first + _SEED_BLOCK]
        words = _words(sum(bits.ravel().astype(np.uint16) << b for b, bits in enumerate(block)))
        live = range(len(block))  # the seeds not yet at a fixed point
        for step in range(refine_steps + 1):
            current = words[:n].reshape(domain.shape)
            # take casts the int32 maps faster than indexing does
            pres = [words.take(cells) for cells in pre_cells]
            edge = diffs = None
            for b in live:
                vol = geometry.volume(current & (1 << b), n)
                if not lo_vol < vol < hi_vol:
                    continue
                if edge is None:
                    edge = current & ~geometry.all_neighbours(current, domain.kind)
                ring = int(np.count_nonzero(edge & (1 << b))) * domain.cell_volume
                if ring > min(vol, 1.0 - vol) / 16.0:
                    continue
                if diffs is None:
                    diffs = [current ^ p for p in pres]
                defect = max(geometry.volume(d & (1 << b), n) for d in diffs)
                rank = ((defect, abs(vol - 0.5)), first + b)
                entry = (rank, vol, ring, words, b)
                if best_resolved is None or rank < best_resolved[0]:
                    best_resolved = entry
                if defect <= 3.0 * ring and (
                    best_qualifying is None or rank < best_qualifying[0]
                ):
                    best_qualifying = entry
            if step == refine_steps:
                break
            new = _at_least([current, *pres], majority_needed)
            # a seed whose step changes none of its bits is a fixed point:
            # its bits stay put, and it is scored no more
            changed = int(np.bitwise_or.reduce(new ^ current, axis=None))
            live = [b for b in live if changed >> b & 1]
            if not live:
                break
            words = _words(new.ravel())

    best = best_qualifying or best_resolved
    found = best is not None and best is best_qualifying
    # with no resolved iterate at all, report the worst possible defect
    ((defect, _), _), vol, ring, words, b = best or (((1.0, 0.0), 0), 0.0, 0.0, None, 0)
    return ErgodicityReport(
        resolution=resolution,
        best_defect=defect,
        best_volume=vol,
        verdict=CANDIDATE_FOUND if found else UNRESOLVED if best is None else NO_CANDIDATE,
        candidate=(
            GridSet(domain, (words[:n] & (1 << b)).astype(bool).reshape(domain.shape))
            if found else None
        ),
        candidate_ring_volume=ring,
    )
