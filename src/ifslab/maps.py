"""Self-maps of planar charts and the circle, words, and iteration.

Every map evaluates single points or numpy arrays of points — shape
``(..., 2)`` for planar maps, any shape for circle maps — and exposes an
exact Jacobian (a 2x2 matrix field for planar maps, a scalar derivative
field on the circle).  Each point's result depends on that point alone,
so a batch gives the same bits as its points one at a time; a Newton
inverse stops each point on its own residual.  Circle maps act on [0, 1)
and commute with integer shifts, so values are always reported mod 1.

Word semantics: a word w = (w1, ..., wr) applied *forward* composes the
corresponding generators with the first symbol innermost, i.e. the orbit
is x -> g_{w1}(x) -> g_{w2}(g_{w1}(x)) -> ...  Applied in *reverse*, the
first symbol is outermost, so g_{wr} acts first and g_{w1} last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlphabetError,
    ConvergenceError,
    DimensionError,
    ValidationError,
)
from .seeding import rng_from

FORWARD = "forward"
REVERSE = "reverse"

_NEWTON_TOL = 1e-13
_NEWTON_ULPS = 4  # a point's tolerance is at least this many ulps of its largest coordinate
_NEWTON_MAX_ITER = 80


def _planar_points(x) -> np.ndarray:
    a = np.asarray(x, dtype=float)
    if a.shape == () or a.shape[-1] != 2:
        raise ValidationError("planar points need a trailing axis of size 2")
    return a


def circle_position(x: float) -> float:
    """x mod 1 as a float in [0, 1); a non-finite x raises ValidationError.

    For a tiny negative x, ``x % 1.0`` rounds up to 1.0, which names the
    same circle point as 0.0 but is not the canonical coordinate.
    """
    if not math.isfinite(x):
        raise ValidationError(f"circle position must be finite, got {x}")
    w = float(x) % 1.0
    return w if w < 1.0 else 0.0


def _largest_abs(a, circle):
    """The largest |coordinate| of each point: |a| on the circle."""
    return np.abs(a) if circle else np.maximum(np.abs(a[..., 0]), np.abs(a[..., 1]))


def _det(j):
    """Determinants of a field of 2x2 matrices with shape (..., 2, 2)."""
    return _det_of_entries(j[..., 0, 0], j[..., 0, 1], j[..., 1, 0], j[..., 1, 1])


def _det_of_entries(j00, j01, j10, j11):
    """Determinants of the 2x2 matrices [[j00, j01], [j10, j11]], entrywise."""
    return j00 * j11 - j01 * j10


class Map:
    """Base class: a differentiable self-map of a chart or the circle."""

    kind: str = "planar"  # or "circle"
    # log |det D| when it is the same at every point, else None
    constant_log_abs_det: float | None = None
    # True when inverse() is exact rather than a Newton iteration
    closed_form_inverse: bool = False
    affine: bool = False  # True when eval is affine in the point

    def eval(self, x):
        raise NotImplementedError

    def check_chart(self, domain):
        """Raise :class:`DimensionError` unless the map acts on the domain's chart kind."""
        if self.kind != domain.kind:
            raise DimensionError(f"a {self.kind} map has no cell map on a {domain.kind} chart")

    def eval_cells(self, domain, index):
        """Images of the centers of the cells at a block's index arrays, as
        :meth:`Domain.blocks` yields them."""
        self.check_chart(domain)
        return self.eval(domain.centers_at(index))

    def image_cells(self, domain, index):
        """:meth:`Domain.point_cells` of :meth:`eval_cells`: the one rule from
        a map to cells, for one block's index arrays."""
        return domain.point_cells(self.eval_cells(domain, index))

    def cell_map(self, domain, index=None):
        """int32 :meth:`image_cells` of every cell (shaped like the domain)
        or of the cells at a flat index (flat).

        The cells go through :meth:`image_cells` in the blocks of
        :meth:`Domain.blocks`, so no array spans the grid; a point's image
        does not depend on its block.
        """
        whole = index is None
        out = np.empty(math.prod(domain.shape) if whole else len(index), dtype=np.int32)
        for at, block in domain.blocks(index):
            out[at] = self.image_cells(domain, block)
        return out.reshape(domain.shape) if whole else out

    def eval_log_abs_det(self, x):
        """(eval(x), log_abs_det(x)), for a caller that needs both at x."""
        return self.eval(x), self.log_abs_det(x)

    def jacobian(self, x):
        """2x2 matrices with shape (..., 2, 2), or scalar derivatives."""
        raise NotImplementedError

    def jacobian_det(self, x):
        """det D at each point; on the circle, the derivative itself."""
        j = self.jacobian(np.asarray(x, dtype=float))
        return j if self.kind == "circle" else _det(j)

    def log_abs_det(self, x):
        """log |det D| at each point; default goes through the Jacobian."""
        return np.log(np.abs(self.jacobian_det(x)))

    def inverse(self) -> "Map":
        raise NotImplementedError

    def operator_norm(self, x):
        """Largest singular value of the Jacobian at each point."""
        j = self.jacobian(np.asarray(x, dtype=float))
        if self.kind == "circle":
            return np.abs(j)
        a, b = j[..., 0, 0], j[..., 0, 1]
        c, d = j[..., 1, 0], j[..., 1, 1]
        frob = a * a + b * b + c * c + d * d
        det = _det(j)
        gap = np.sqrt(np.maximum(frob * frob - 4.0 * det * det, 0.0))
        return np.sqrt((frob + gap) / 2.0)


@dataclass(frozen=True)
class AffineSimilarity(Map):
    """x -> scale * R(angle) (x - anchor) + anchor: a contracting similarity
    about its fixed point when scale < 1."""

    scale: float
    angle_deg: float
    anchor: tuple[float, float] = (0.0, 0.0)

    kind = "planar"
    closed_form_inverse = True
    affine = True

    def __post_init__(self):
        if not 0 < self.scale < math.inf:
            raise ValidationError(
                f"similarity scale must be positive and finite, got {self.scale}"
            )
        object.__setattr__(self, "anchor", tuple(float(a) for a in self.anchor))
        if not np.isfinite((self.angle_deg,) + self.anchor).all():
            raise ValidationError(
                f"similarity angle and anchor must be finite, got {self.angle_deg}, {self.anchor}"
            )
        object.__setattr__(self, "constant_log_abs_det", 2.0 * math.log(self.scale))
        th = np.deg2rad(self.angle_deg)
        c, s = np.cos(th), np.sin(th)
        m = self.scale * np.array([[c, -s], [s, c]])
        anchor = np.array(self.anchor)
        # the linear part, stored once for row vectors (x @ rows == (m @ x.T).T)
        # and contiguous: a lone point then rounds as it would inside a batch
        object.__setattr__(self, "_rows", np.ascontiguousarray(m.T))
        object.__setattr__(self, "_offset", anchor - m @ anchor)

    def eval(self, x):
        pts = _planar_points(x)
        image = pts @ self._rows
        # in place: a batch of m points holds one (m, 2) array fewer; one
        # add per axis, as a (2,) broadcast runs an inner loop of length 2
        image[..., 0] += self._offset[0]
        image[..., 1] += self._offset[1]
        return image

    def jacobian(self, x):
        pts = _planar_points(x)
        return np.broadcast_to(self._rows.T, pts.shape[:-1] + (2, 2))

    def log_abs_det(self, x):
        pts = _planar_points(x)
        return np.full(pts.shape[:-1], self.constant_log_abs_det)

    def inverse(self) -> "AffineSimilarity":
        return AffineSimilarity(1.0 / self.scale, -self.angle_deg, self.anchor)


@dataclass(frozen=True)
class CircleRotation(Map):
    """x -> x + angle (mod 1); angle is a fraction of a full turn."""

    angle: float

    kind = "circle"
    constant_log_abs_det = 0.0
    closed_form_inverse = True

    def eval(self, x):
        return (np.asarray(x, dtype=float) + self.angle) % 1.0

    def jacobian(self, x):
        return np.ones(np.asarray(x, dtype=float).shape)

    def inverse(self) -> "CircleRotation":
        return CircleRotation(circle_position(-self.angle))


@dataclass(frozen=True)
class CircleNorthSouth(Map):
    """Two-fixed-point circle diffeomorphism with prescribed multipliers.

    Conjugate of t -> multiplier * t on the real line via the half-angle
    projection: the fixed point at ``pole`` has derivative ``multiplier``
    and the antipodal fixed point has derivative ``1/multiplier``.  With
    multiplier in (0, 1) the pole attracts and the antipode repels.
    """

    multiplier: float
    pole: float = 0.0

    kind = "circle"
    closed_form_inverse = True

    def __post_init__(self):
        if not (0 < self.multiplier < math.inf and self.multiplier != 1.0):
            raise ValidationError(
                f"multiplier must be positive, finite and != 1, got {self.multiplier}"
            )
        if not math.isfinite(self.pole):
            raise ValidationError(f"pole must be finite, got {self.pole}")

    def eval(self, x):
        s = np.asarray(x, dtype=float) - self.pole
        psi = np.pi * s
        out = self.pole + np.arctan2(self.multiplier * np.sin(psi), np.cos(psi)) / np.pi
        return out % 1.0

    def jacobian(self, x):
        s = np.asarray(x, dtype=float) - self.pole
        psi = np.pi * s
        m = self.multiplier
        return m / (m * m * np.sin(psi) ** 2 + np.cos(psi) ** 2)

    def inverse(self) -> "CircleNorthSouth":
        return CircleNorthSouth(1.0 / self.multiplier, self.pole)


@dataclass(frozen=True)
class Perturbed(Map):
    """A seeded smooth bump added to a base map, measured in the C1 norm.

    The perturbation p satisfies sup|p| <= amplitude and sup|Dp| <= amplitude
    (operator norm), so the result is a C1-perturbation of the base of size
    at most ``amplitude``.  Phases are drawn once from the seed, making the
    perturbation reproducible.
    """

    base: Map
    amplitude: float
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.amplitude < math.inf:
            raise ValidationError(
                f"perturbation amplitude must be finite and >= 0, got {self.amplitude}"
            )
        rng = rng_from(self.seed)
        if self.base.kind == "circle":
            object.__setattr__(self, "_phase", float(rng.uniform(0, 2 * np.pi)))
        else:
            object.__setattr__(
                self, "_phases", rng.uniform(0, 2 * np.pi, size=(2, 2))
            )
            object.__setattr__(self, "_half_amplitude", 0.5 * self.amplitude)
        object.__setattr__(self, "kind", self.base.kind)

    # The planar bump is p(u, v) = a/2 (sin(u + f00) sin(v + f01),
    # sin(u + f10) sin(v + f11)).  Every method below takes the sine and
    # cosine of each of its four shifted arguments at most once per point.

    def _circle_angle(self, pts):
        return 2 * np.pi * pts + self._phase

    def _arguments(self, u, v):
        """The bump's shifted arguments, as a (u, v) pair per output axis."""
        ph = self._phases
        return (u + ph[0, 0], v + ph[0, 1]), (u + ph[1, 0], v + ph[1, 1])

    def _trig(self, pts):
        """(sine pairs, cosine pairs) of the arguments at planar points."""
        args = self._arguments(pts[..., 0], pts[..., 1])
        return (
            tuple((np.sin(a), np.sin(b)) for a, b in args),
            tuple((np.cos(a), np.cos(b)) for a, b in args),
        )

    def _add_bump(self, image, sine_pairs):
        """Add the bump into the base image in place, given the sines of the
        (u, v) arguments of each output axis in turn."""
        # every planar eval returns a new array, so nothing else sees the write
        for axis, (su, sv) in enumerate(sine_pairs):
            image[..., axis] += self._half_amplitude * (su * sv)
        return image

    def _jacobian_entries(self, pts, sines, cosines):
        """The four Jacobian entries j00, j01, j10, j11 at planar points."""
        ((su0, sv0), (su1, sv1)), ((cu0, cv0), (cu1, cv1)) = sines, cosines
        a = self._half_amplitude
        bj = self.base.jacobian(pts)
        return (
            bj[..., 0, 0] + a * cu0 * sv0,
            bj[..., 0, 1] + a * su0 * cv0,
            bj[..., 1, 0] + a * cu1 * sv1,
            bj[..., 1, 1] + a * su1 * cv1,
        )

    def eval(self, x):
        if self.kind == "circle":
            pts = np.asarray(x, dtype=float)
            bump = np.sin(self._circle_angle(pts)) / (2 * np.pi)
            return (self.base.eval(pts) + self.amplitude * bump) % 1.0
        pts = _planar_points(x)
        args = self._arguments(pts[..., 0], pts[..., 1])
        return self._add_bump(self.base.eval(pts), ((np.sin(a), np.sin(b)) for a, b in args))

    def eval_cells(self, domain, index):
        self.check_chart(domain)
        if self.kind == "circle":
            return super().eval_cells(domain, index)
        # each sine is taken on the n axis values and gathered per cell; the
        # gathered entry had the same float as input, so the bits agree
        (xs, ys), (ix, iy) = domain.axis_centers(), index
        sines = [(np.sin(a), np.sin(b)) for a, b in self._arguments(xs, ys)]
        image = self.base.eval_cells(domain, index)
        # gathered one axis at a time, so only one pair of cell arrays is alive
        return self._add_bump(image, ((su[ix], sv[iy]) for su, sv in sines))

    def eval_log_abs_det(self, x):
        if self.kind == "circle":
            return super().eval_log_abs_det(x)
        pts = _planar_points(x)
        sines, cosines = self._trig(pts)
        det = _det_of_entries(*self._jacobian_entries(pts, sines, cosines))
        return self._add_bump(self.base.eval(pts), sines), np.log(np.abs(det))

    def jacobian(self, x):
        if self.kind == "circle":
            pts = np.asarray(x, dtype=float)
            dbump = np.cos(self._circle_angle(pts))
            return self.base.jacobian(pts) + self.amplitude * dbump
        pts = _planar_points(x)
        j = np.empty(pts.shape[:-1] + (2, 2))
        j[..., 0, 0], j[..., 0, 1], j[..., 1, 0], j[..., 1, 1] = self._jacobian_entries(
            pts, *self._trig(pts)
        )
        return j

    def inverse(self) -> "Map":
        return _NewtonInverse(self)


@dataclass(frozen=True)
class _NewtonInverse(Map):
    """Numerical inverse of a perturbed map, which has no closed-form inverse.

    Newton iteration seeded at the base inverse of the perturbed map;
    accurate to ~1e-13, well inside the documented 1e-9 roundtrip contract.
    Each point stops once its residual is below its own tolerance, so its
    bits do not depend on the rest of its call: ``_NEWTON_TOL``, or
    ``_NEWTON_ULPS`` ulps of the point's largest coordinate where that is
    larger (from |w| = 128 on), since no residual can fall below the
    rounding of the image.  A residual still at or above it after
    ``_NEWTON_MAX_ITER`` steps raises :class:`ConvergenceError`.
    """

    target: Perturbed

    def __post_init__(self):
        object.__setattr__(self, "kind", self.target.kind)

    def eval(self, w):
        w = np.asarray(w, dtype=float)
        circle = self.kind == "circle"
        # one row per point; out keeps each point's iterate once it has
        # converged, and rows, z, goal and tol hold the points still going
        goal = w.reshape(-1) if circle else w.reshape(-1, 2)
        out = self.target.base.inverse().eval(goal)
        tol = np.maximum(_NEWTON_TOL, _NEWTON_ULPS * np.spacing(_largest_abs(goal, circle)))
        rows, z = np.arange(len(goal)), out
        for step in range(_NEWTON_MAX_ITER + 1):
            r = self.target.eval(z) - goal
            if circle:
                r = (r + 0.5) % 1.0 - 0.5
            err = _largest_abs(r, circle)
            going = ~(err < tol)
            left = np.count_nonzero(going)
            if step == _NEWTON_MAX_ITER and left:
                raise ConvergenceError(
                    f"Newton inverse residual {np.max(err[going]):.3g} is still at or "
                    f"above its point's tolerance after {_NEWTON_MAX_ITER} steps"
                )
            if not left:  # an empty batch has converged, not failed
                out[rows] = z
                out = out.reshape(w.shape)
                return out % 1.0 if circle else out
            if left < len(going):
                out[rows[~going]] = z[~going]
                rows, z, r, goal, tol = rows[going], z[going], r[going], goal[going], tol[going]
            j = self.target.jacobian(z)
            if circle:
                z = z - r / j
            else:
                det = _det(j)
                dz0 = (j[..., 1, 1] * r[..., 0] - j[..., 0, 1] * r[..., 1]) / det
                dz1 = (-j[..., 1, 0] * r[..., 0] + j[..., 0, 0] * r[..., 1]) / det
                z = z - np.stack([dz0, dz1], axis=-1)

    def jacobian(self, w):
        z = self.eval(w)
        j = self.target.jacobian(z)
        if self.kind == "circle":
            return 1.0 / j
        det = _det(j)
        inv = np.empty_like(j)
        inv[..., 0, 0] = j[..., 1, 1] / det
        inv[..., 0, 1] = -j[..., 0, 1] / det
        inv[..., 1, 0] = -j[..., 1, 0] / det
        inv[..., 1, 1] = j[..., 0, 0] / det
        return inv

    def log_abs_det(self, w):
        return -self.target.log_abs_det(self.eval(w))

    def eval_log_abs_det(self, w):
        z = self.eval(w)
        return z, -self.target.log_abs_det(z)

    def inverse(self) -> Map:
        return self.target


# ---------------------------------------------------------------------------
# Words and systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Word:
    """Finite symbol sequence over {1..s} plus an iteration direction."""

    symbols: tuple[int, ...]
    direction: str = FORWARD

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(int(s) for s in self.symbols))
        if self.direction not in (FORWARD, REVERSE):
            raise ValidationError(f"direction must be forward or reverse, got {self.direction!r}")
        if any(s < 1 for s in self.symbols):
            raise AlphabetError("word symbols are 1-based positive integers")

    def __len__(self):
        return len(self.symbols)


@dataclass(frozen=True)
class SystemSpec:
    """A finite generating family, optionally closed under inverses.

    With ``include_inverses`` the effective alphabet is the generators
    followed by their inverses, so symbol s+i names the inverse of
    generator i.
    """

    generators: tuple[Map, ...]
    include_inverses: bool = False

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if not self.generators:
            raise ValidationError("system needs at least one generator")
        kinds = {m.kind for m in self.generators}
        if len(kinds) > 1:
            raise ValidationError("generators must all act on the same space")
        maps = self.generators
        if self.include_inverses:
            maps = maps + tuple(m.inverse() for m in self.generators)
        object.__setattr__(self, "_maps", maps)

    @property
    def kind(self) -> str:
        return self.generators[0].kind

    def maps(self) -> tuple[Map, ...]:
        return self._maps

    @property
    def alphabet_size(self) -> int:
        return len(self._maps)

    def map_for(self, symbol: int) -> Map:
        if not 1 <= symbol <= self.alphabet_size:
            raise AlphabetError(
                f"symbol {symbol} outside alphabet 1..{self.alphabet_size}"
            )
        return self._maps[symbol - 1]


def _application_order(word: Word):
    return word.symbols if word.direction == FORWARD else tuple(reversed(word.symbols))


def apply_word(sys: SystemSpec, word: Word, x):
    """Evaluate the word's composition at x; the empty word is the identity."""
    pts = np.asarray(x, dtype=float)
    for sym in _application_order(word):
        pts = sys.map_for(sym).eval(pts)
    return pts


def word_jacobian_det(sys: SystemSpec, word: Word, x) -> float:
    """Chain-rule product of Jacobian determinants along the word's orbit."""
    pts = np.asarray(x, dtype=float)
    det = np.ones(pts.shape if sys.kind == "circle" else pts.shape[:-1])
    for sym in _application_order(word):
        m = sys.map_for(sym)
        det = det * m.jacobian_det(pts)
        pts = m.eval(pts)
    return float(det) if det.shape == () else det


def complex_eigenvalue_check(m: Map, x) -> bool:
    """True iff the Jacobian at x has a non-real eigenvalue pair."""
    if m.kind != "planar":
        raise DimensionError("eigenvalue check applies to planar maps only")
    j = m.jacobian(np.asarray(x, dtype=float))
    tr = j[..., 0, 0] + j[..., 1, 1]
    disc = tr * tr - 4.0 * _det(j)
    return bool(np.all(disc < -1e-12))


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------
#
# One map per line, e.g.
#
#     affine kappa=0.76 theta=179 anchor=0,0
#     rotation angle=0.6180339887
#     moebius lambda=0.7 pole=0.0
#     perturb base=1 amp=0.01 seed=42
#     inverses=false
#
# A perturb line wraps the map defined on the (1-based) line it references;
# the referenced line then serves as a definition only and is not itself a
# generator of the parsed system.


def _parse_kv(tokens):
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ValidationError(f"expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def parse_system(text: str) -> SystemSpec:
    """Parse the one-generator-per-line system format."""
    entries: list[Map] = []
    consumed: set[int] = set()
    include_inverses = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *rest = line.split()
        try:
            if line.lower().startswith("inverses"):
                val = _parse_kv([line])["inverses"].lower()
                if val not in ("true", "false"):
                    raise ValidationError("inverses must be true or false")
                include_inverses = val == "true"
                continue
            kv = _parse_kv(rest)
            if head == "affine":
                kappa = float(kv["kappa"])
                if not 0 < kappa < 1:
                    raise ValidationError("affine kappa must be in (0, 1)")
                ax, ay = (float(v) for v in kv.get("anchor", "0,0").split(","))
                entries.append(AffineSimilarity(kappa, float(kv["theta"]), (ax, ay)))
            elif head == "rotation":
                entries.append(CircleRotation(circle_position(float(kv["angle"]))))
            elif head == "moebius":
                lam = float(kv["lambda"])
                if not 0.5 < lam < 1:
                    raise ValidationError("moebius lambda must be in (1/2, 1)")
                entries.append(CircleNorthSouth(lam, circle_position(float(kv.get("pole", "0.0")))))
            elif head == "perturb":
                base_idx = int(kv["base"])
                if not 1 <= base_idx <= len(entries):
                    raise ValidationError(
                        f"perturb base={base_idx} must reference an earlier map line"
                    )
                consumed.add(base_idx - 1)
                entries.append(
                    Perturbed(entries[base_idx - 1], float(kv["amp"]), int(kv.get("seed", "0")))
                )
            else:
                raise ValidationError(f"unknown map kind {head!r}")
        except KeyError as exc:
            raise ValidationError(f"line {line_no}: {head} needs {exc.args[0]}=<value>") from None
        except ValueError as exc:
            # a non-number, a wrong count of anchor values or a value out of range
            raise ValidationError(f"line {line_no}: {exc}") from None
    generators = tuple(m for i, m in enumerate(entries) if i not in consumed)
    if not generators:
        raise ValidationError("system text defines no generators")
    return SystemSpec(generators, include_inverses)


def format_system(sys: SystemSpec) -> str:
    """Emit the text format; inverse of :func:`parse_system` for parsed systems."""
    lines: list[str] = []

    def emit(m: Map) -> int:
        if isinstance(m, AffineSimilarity):
            ax, ay = m.anchor
            lines.append(f"affine kappa={m.scale!r} theta={m.angle_deg!r} anchor={ax!r},{ay!r}")
        elif isinstance(m, CircleRotation):
            lines.append(f"rotation angle={m.angle!r}")
        elif isinstance(m, CircleNorthSouth):
            lines.append(f"moebius lambda={m.multiplier!r} pole={m.pole!r}")
        elif isinstance(m, Perturbed):
            base_line = emit(m.base)
            lines.append(f"perturb base={base_line} amp={m.amplitude!r} seed={m.seed}")
        else:
            raise ValidationError(f"map {m!r} has no text form")
        return len(lines)

    for g in sys.generators:
        emit(g)
    lines.append(f"inverses={'true' if sys.include_inverses else 'false'}")
    return "\n".join(lines) + "\n"
