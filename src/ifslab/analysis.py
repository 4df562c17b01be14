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
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import (
    BudgetExceededError,
    DegeneracyError,
    DomainError,
    EmptySetError,
    HorizonError,
    InvertibilityError,
    NotAContractionError,
    ResolutionError,
    ValidationError,
)
from .geometry import CIRCLE, Disk, Domain, GridSet
from .maps import REVERSE, SystemSpec, Word, apply_word
from .seeding import rng_from, spawn_rngs

_EVAL_BUDGET = 10**7
_VOLUME_WINDOW = (0.05, 0.95)  # candidate volumes the ergodicity probe scores

EPS_DENSE = "eps-dense"
NOT_EPS_DENSE = "not-eps-dense"

CANDIDATE_FOUND = "candidate invariant set found"
NO_CANDIDATE = "no intermediate invariant set found at this resolution"


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
        return {
            "epsilon": self.epsilon,
            "max_word_len": self.max_word_len,
            "samples": self.samples,
            "uncovered_fraction": self.uncovered_fraction,
            "verdict": self.verdict,
        }


def _quantize_key_planar(pts: np.ndarray, q: float) -> np.ndarray:
    k = np.floor(pts / q).astype(np.int64)
    return k[..., 0] * np.int64(1 << 32) + k[..., 1]


def _orbit_points(sys: SystemSpec, start, max_word_len: int, epsilon: float) -> np.ndarray:
    """Breadth-first orbit of one start point with proximity pruning.

    A branch stops expanding once its point lands in an occupied pruning
    cell; cells are sized so that same-cell points are within epsilon/2 of
    each other.  Every visited point is an orbit point.  The enumeration
    budget of 10^7 map evaluations applies per start point.
    """
    circle = sys.kind == CIRCLE
    q = (epsilon / 2.0) if circle else epsilon / (2.0 * math.sqrt(2.0))
    maps = sys.maps()
    if circle:
        frontier = np.atleast_1d(np.asarray(start, dtype=float))
        keys = {int(np.floor(frontier[0] % 1.0 / q))}
    else:
        frontier = np.asarray(start, dtype=float).reshape(1, 2)
        keys = {int(_quantize_key_planar(frontier, q)[0])}
    collected = [frontier.copy()]
    evals = 0
    for _ in range(max_word_len):
        if frontier.shape[0] == 0:
            break
        imgs = []
        img_keys = []
        for m in maps:
            evals += frontier.shape[0]
            if evals > _EVAL_BUDGET:
                raise _BudgetSignal(np.concatenate(collected))
            img = m.eval(frontier)
            imgs.append(img)
            if circle:
                img_keys.append(np.floor(img % 1.0 / q).astype(np.int64))
            else:
                img_keys.append(_quantize_key_planar(img, q))
        cat_pts = np.concatenate(imgs)
        cat_keys = np.concatenate(img_keys)
        # first occurrence per cell, in map-then-point scan order
        _, first_idx = np.unique(cat_keys, return_index=True)
        order = np.sort(first_idx)
        fresh = [
            i for i, k in zip(order.tolist(), cat_keys[order].tolist()) if k not in keys
        ]
        if not fresh:
            break
        keys.update(cat_keys[fresh].tolist())
        frontier = cat_pts[fresh]
        collected.append(frontier)
    return np.concatenate(collected)


class _BudgetSignal(Exception):
    def __init__(self, partial_orbit):
        self.partial_orbit = partial_orbit


def _uncovered_count(region: GridSet, orbit: np.ndarray, epsilon: float) -> int:
    dists = geometry.nearest_point_distances(region, orbit)
    return int(np.count_nonzero(dists > epsilon))


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
    ``epsilon`` of the orbit (exact point distances) are counted.  The
    verdict is eps-dense iff no start point leaves any region cell
    uncovered.  Exceeding the enumeration budget of 10^7 map evaluations
    for any single start point raises :class:`BudgetExceededError`
    carrying the partial report.
    """
    if epsilon < 2 * region.domain.max_cell_size:
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
            orbit = _orbit_points(sys, starts[i], max_word_len, epsilon)
        except _BudgetSignal as sig:
            worst = max(worst, _uncovered_count(region, sig.partial_orbit, epsilon))
            raise BudgetExceededError(
                f"word budget of {_EVAL_BUDGET} evaluations exhausted "
                f"after {i + 1} of {samples} samples",
                partial=report(i + 1),
            ) from None
        worst = max(worst, _uncovered_count(region, orbit, epsilon))
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
    centers = a.domain.cell_centers()
    if direction == "image":
        # a cell is in m(A) iff its center pulls back into A; exact for
        # expanding members too, unlike a forward push of cell centers
        union = np.zeros(a.domain.shape, dtype=bool)
        for m in sys.maps():
            union |= a.lookup(m.inverse().eval(centers))
        return float(np.mean(a.bitmap ^ union))
    worst = 0.0
    for m in sys.maps():
        if not m.invertible:
            raise InvertibilityError("preimage invariance needs invertible generators")
        pre = a.lookup(m.eval(centers))
        worst = max(worst, float(np.mean(a.bitmap ^ pre)))
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
    if m.kind == CIRCLE:
        diff = np.abs(xs - ys)
        dist = np.minimum(diff, 1.0 - diff)
    else:
        dist = np.sqrt(((xs - ys) ** 2).sum(-1))
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
    log|det D| along the reverse orbit.
    """
    _require_positive(word_count=word_count, pair_count=pair_count)
    rng = rng_from(seed)
    xs = geometry.sample_cells(delta_set, pair_count, rng)
    ys = geometry.sample_cells(delta_set, pair_count, rng)
    pts0 = np.concatenate([xs, ys], axis=0)
    maps = sys.maps()
    consts = [m.constant_log_abs_det for m in maps]
    symbols = rng.integers(0, len(maps), size=(word_count, word_length))
    lo, hi = 1.0, 1.0
    for w in range(word_count):
        # reverse iteration: last symbol acts first
        order = symbols[w, ::-1]
        # after the last map whose log-det varies, no step reads the points
        live = max((i for i, s in enumerate(order) if consts[s] is None), default=-1)
        pts = pts0
        logdet = np.zeros(pts0.shape[0])
        for i, sym in enumerate(order):
            m, const = maps[sym], consts[sym]
            logdet += m.log_abs_det(pts) if const is None else const
            if i <= live:
                pts = m.eval(pts)
        ratios = np.exp(logdet[:pair_count] - logdet[pair_count:])
        lo = min(lo, float(ratios.min()))
        hi = max(hi, float(ratios.max()))
    return EmpiricalDistortion(
        emp_min=lo, emp_max=hi, words=word_count,
        word_length=word_length, pairs=pair_count,
    )


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
    _require_positive(word_count=word_count, pair_count=pair_count, holder_pairs=holder_pairs)
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
    this resolution, not as a proof.
    """
    _require_positive(seed_sets=seed_sets)
    for m in sys.maps():
        if not m.invertible:
            raise InvertibilityError("ergodicity probe needs invertible generators")
    if domain is None:
        if sys.kind != CIRCLE:
            raise ValidationError("planar ergodicity probe needs an explicit domain")
        domain = Domain.circle(resolution)
    elif domain.resolution != resolution:
        raise ValidationError("explicit domain resolution must match the probe resolution")

    maps = sys.maps()
    centers = domain.cell_centers()
    # g^-1(B) holds a cell iff B holds the cell of g(cell center)
    pre_cells = [domain.point_cells(m.eval(centers)) for m in maps]
    majority_needed = (len(maps) + 1) // 2 + 1
    lo_vol, hi_vol = _VOLUME_WINDOW

    best_resolved = None  # (defect, |vol-1/2|), vol, ring, bits
    best_qualifying = None

    rngs = spawn_rngs(seed, seed_sets)
    for bits in _seed_bitmaps(domain, seed_sets, rngs):
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
    # with no resolved iterate at all, report the worst possible defect
    (defect, _), vol, ring, bits = best or ((1.0, 0.0), 0.0, 0.0, None)
    return ErgodicityReport(
        resolution=resolution,
        best_defect=defect,
        best_volume=vol,
        verdict=CANDIDATE_FOUND if found else NO_CANDIDATE,
        candidate=GridSet(domain, bits) if found else None,
        candidate_ring_volume=ring,
    )
