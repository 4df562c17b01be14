import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ifslab import geometry, maps
from ifslab.errors import (
    AlphabetError,
    ConvergenceError,
    DimensionError,
    ValidationError,
)
from ifslab.geometry import Domain, GridSet
from ifslab.maps import (
    AffineSimilarity,
    CircleNorthSouth,
    CircleRotation,
    Perturbed,
    SystemSpec,
    Word,
    apply_word,
    complex_eigenvalue_check,
    format_system,
    parse_system,
    word_jacobian_det,
)
from ifslab.seeding import rng_from


def fd_jacobian(m, x, h=1e-5):
    """Central-difference Jacobian, wrap-aware on the circle."""
    if m.kind == "circle":
        d = (m.eval(x + h) - m.eval(x - h) + 0.5) % 1.0 - 0.5
        return d / (2 * h)
    x = np.asarray(x, dtype=float)
    cols = []
    for axis in range(2):
        e = np.zeros(2)
        e[axis] = h
        cols.append((m.eval(x + e) - m.eval(x - e)) / (2 * h))
    return np.stack(cols, axis=-1)


def sample_maps():
    return [
        AffineSimilarity(0.76, 179.0, (0.0, 0.0)),
        AffineSimilarity(0.9, 45.0, (0.3, -0.2)),
        CircleRotation(0.6180339887498949),
        CircleNorthSouth(0.7, 0.0),
        CircleNorthSouth(0.6, 0.37),
        Perturbed(AffineSimilarity(0.8, 120.0, (0.1, 0.1)), 0.02, seed=3),
        Perturbed(CircleNorthSouth(0.7, 0.0), 0.01, seed=4),
    ]


@pytest.mark.parametrize("m", sample_maps(), ids=lambda m: type(m).__name__)
def test_jacobian_matches_finite_differences(m):
    rng = rng_from(11)
    for _ in range(100):
        if m.kind == "circle":
            x = float(rng.uniform(0, 1))
        else:
            x = rng.uniform(-2, 2, size=2)
        j = m.jacobian(x)
        fd = fd_jacobian(m, x)
        scale = max(float(np.max(np.abs(j))), 1e-6)
        assert np.max(np.abs(j - fd)) <= 1e-4 * scale


@pytest.mark.parametrize("m", sample_maps(), ids=lambda m: type(m).__name__)
def test_inverse_roundtrip(m):
    rng = rng_from(12)
    if m.kind == "circle":
        xs = rng.uniform(0, 1, size=200)
        back = m.inverse().eval(m.eval(xs))
        err = np.abs((back - xs + 0.5) % 1.0 - 0.5)
    else:
        xs = rng.uniform(-2, 2, size=(200, 2))
        err = np.abs(m.inverse().eval(m.eval(xs)) - xs)
    assert err.max() < 1e-9


def test_affine_fixed_point_and_anchor():
    t = AffineSimilarity(0.76, 179.0, (0.0, 0.0))
    assert np.allclose(t.eval(np.zeros(2)), np.zeros(2))
    rng = rng_from(3)
    for _ in range(10):
        y = tuple(rng.uniform(-1, 1, size=2))
        s = AffineSimilarity(0.76, 179.0, y)
        assert np.allclose(s.eval(np.array(y)), np.array(y))


def test_affine_jacobian_is_scaled_rotation():
    t = AffineSimilarity(0.5, 90.0)
    j = t.jacobian(np.zeros(2))
    assert np.allclose(j, [[0.0, -0.5], [0.5, 0.0]], atol=1e-15)
    det = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
    assert det == pytest.approx(0.25)


@pytest.mark.parametrize("scale", [0.0, -0.5, math.inf, math.nan])
def test_affine_rejects_scale_outside_positive_reals(scale):
    with pytest.raises(ValidationError):
        AffineSimilarity(scale, 10.0)


@pytest.mark.parametrize(
    "build",
    [lambda: AffineSimilarity(0.5, math.nan), lambda: AffineSimilarity(0.5, math.inf),
     lambda: AffineSimilarity(0.5, 10.0, (math.inf, 0.0)),
     lambda: AffineSimilarity(0.5, 10.0, (0.0, math.nan)),
     lambda: CircleNorthSouth(math.inf), lambda: CircleNorthSouth(0.7, math.nan),
     lambda: Perturbed(AffineSimilarity(0.5, 10.0), math.inf),
     lambda: Perturbed(CircleRotation(0.3), math.nan),
     lambda: maps.circle_position(math.nan), lambda: maps.circle_position(-math.inf)],
    ids=["affine-angle-nan", "affine-angle-inf", "affine-anchor-inf", "affine-anchor-nan",
         "north-south-multiplier-inf", "north-south-pole-nan", "perturbed-amplitude-inf",
         "perturbed-amplitude-nan", "circle-position-nan", "circle-position-inf"],
)
def test_maps_reject_non_finite_parameters(build):
    with pytest.raises(ValidationError):
        build()


def test_constant_log_abs_det_declared_by_the_map():
    t = AffineSimilarity(0.76, 179.0)
    assert t.constant_log_abs_det == 2.0 * math.log(0.76)
    assert t.log_abs_det(np.zeros((3, 2))).tolist() == [t.constant_log_abs_det] * 3
    assert CircleRotation(0.3).constant_log_abs_det == 0.0
    for m in (CircleNorthSouth(0.7), Perturbed(t, 0.01), Perturbed(t, 0.01).inverse()):
        assert m.constant_log_abs_det is None


def test_closed_form_inverse_declared_by_the_map():
    t = AffineSimilarity(0.76, 179.0)
    for m in (t, t.inverse(), CircleRotation(0.3), CircleNorthSouth(0.7)):
        assert m.closed_form_inverse
    for m in (Perturbed(t, 0.01), Perturbed(t, 0.01).inverse()):
        assert not m.closed_form_inverse


def test_rotation_translation_mod_one():
    r = CircleRotation(0.25)
    assert r.eval(0.5) == pytest.approx(0.75)
    assert r.eval(0.9) == pytest.approx(0.15)
    assert np.all(r.jacobian(np.linspace(0, 1, 50)) == 1.0)


def test_north_south_multipliers():
    ns = CircleNorthSouth(0.7, 0.0)
    assert ns.eval(0.0) == pytest.approx(0.0, abs=1e-15)
    assert ns.eval(0.5) == pytest.approx(0.5, abs=1e-15)
    assert ns.jacobian(0.0) == pytest.approx(0.7)
    assert ns.jacobian(0.5) == pytest.approx(1 / 0.7)
    inv = ns.inverse()
    assert inv.jacobian(0.5) == pytest.approx(0.7)
    # derivative product at the two fixed points is 1 for the conjugated model
    assert ns.jacobian(0.0) * ns.jacobian(0.5) == pytest.approx(1.0, abs=1e-6)


def test_north_south_monotone_degree_one():
    ns = CircleNorthSouth(0.7, 0.2)
    xs = np.linspace(0, 1, 2000, endpoint=False)
    vals = ns.eval(xs)
    lifted = np.unwrap(vals * 2 * np.pi) / (2 * np.pi)
    assert np.all(np.diff(lifted) > 0)
    assert lifted[-1] - lifted[0] < 1.0


def test_complex_eigenvalue_check():
    x = np.array([0.3, 0.4])
    assert complex_eigenvalue_check(AffineSimilarity(0.76, 179.0), x)
    assert not complex_eigenvalue_check(AffineSimilarity(0.76, 180.0), x)
    assert not complex_eigenvalue_check(AffineSimilarity(0.76, 0.0), x)
    with pytest.raises(DimensionError):
        complex_eigenvalue_check(CircleRotation(0.25), 0.1)


def test_perturbed_c1_contract():
    # sup|f - base| <= amplitude and sup|Df - Dbase| <= amplitude on 1e4 points
    rng = rng_from(9)
    amp = 0.03
    base = AffineSimilarity(0.8, 150.0, (0.2, 0.0))
    p = Perturbed(base, amp, seed=21)
    pts = rng.uniform(-3, 3, size=(10_000, 2))
    val_gap = np.sqrt(((p.eval(pts) - base.eval(pts)) ** 2).sum(-1))
    assert val_gap.max() <= amp + 1e-12
    jac_gap = p.jacobian(pts) - base.jacobian(pts)
    frob = np.sqrt((jac_gap**2).sum(axis=(-2, -1)))
    assert frob.max() <= amp + 1e-12

    ns = CircleNorthSouth(0.7, 0.0)
    pc = Perturbed(ns, amp, seed=22)
    xs = rng.uniform(0, 1, size=10_000)
    vg = np.abs((pc.eval(xs) - ns.eval(xs) + 0.5) % 1.0 - 0.5)
    assert vg.max() <= amp + 1e-12
    assert np.abs(pc.jacobian(xs) - ns.jacobian(xs)).max() <= amp + 1e-12


def test_perturbed_amplitude_zero_is_identity_perturbation():
    base = CircleNorthSouth(0.7, 0.0)
    p = Perturbed(base, 0.0, seed=5)
    xs = np.linspace(0, 1, 100, endpoint=False)
    assert np.allclose(p.eval(xs), base.eval(xs))


def test_word_validation():
    with pytest.raises(ValidationError):
        Word((1, 2), "sideways")
    with pytest.raises(AlphabetError):
        Word((0, 1))


@pytest.fixture
def two_gen():
    return SystemSpec(
        (
            AffineSimilarity(0.76, 179.0, (0.0, 0.0)),
            AffineSimilarity(0.76, 179.0, (0.75, 0.0)),
        )
    )


def test_apply_word_identity_and_single(two_gen):
    x = np.array([0.3, -0.2])
    assert np.allclose(apply_word(two_gen, Word(()), x), x)
    for direction in ("forward", "reverse"):
        got = apply_word(two_gen, Word((1,), direction), x)
        assert np.allclose(got, two_gen.maps()[0].eval(x))


def test_apply_word_directions(two_gen):
    x = np.array([0.3, -0.2])
    g1, g2 = two_gen.maps()
    fwd = apply_word(two_gen, Word((1, 2), "forward"), x)
    rev = apply_word(two_gen, Word((1, 2), "reverse"), x)
    assert np.allclose(fwd, g2.eval(g1.eval(x)))
    assert np.allclose(rev, g1.eval(g2.eval(x)))


def test_apply_word_palindrome_agrees(two_gen):
    x = np.array([0.1, 0.4])
    w = (1, 2, 1)
    fwd = apply_word(two_gen, Word(w, "forward"), x)
    rev = apply_word(two_gen, Word(w, "reverse"), x)
    assert np.allclose(fwd, rev)


def test_apply_word_concatenation_is_composition(two_gen):
    rng = rng_from(17)
    for _ in range(20):
        x = rng.uniform(-1, 1, size=2)
        w = tuple(rng.integers(1, 3, size=rng.integers(0, 8)))
        v = tuple(rng.integers(1, 3, size=rng.integers(0, 8)))
        lhs = apply_word(two_gen, Word(w + v, "forward"), x)
        rhs = apply_word(two_gen, Word(v, "forward"), apply_word(two_gen, Word(w, "forward"), x))
        assert np.allclose(lhs, rhs)


def test_apply_word_alphabet_error(two_gen):
    with pytest.raises(AlphabetError):
        apply_word(two_gen, Word((3,)), np.zeros(2))


def test_word_jacobian_det_product(two_gen):
    x = np.array([0.2, 0.1])
    assert word_jacobian_det(two_gen, Word(()), x) == 1.0
    w = Word(tuple(rng_from(8).integers(1, 3, size=12)), "forward")
    assert word_jacobian_det(two_gen, w, x) == pytest.approx(0.76**24, rel=1e-12)
    # affine: value independent of the base point
    y = np.array([-0.4, 0.9])
    assert word_jacobian_det(two_gen, w, x) == word_jacobian_det(two_gen, w, y)


def test_word_jacobian_det_chain_rule(two_gen):
    rng = rng_from(23)
    for _ in range(20):
        x = rng.uniform(-1, 1, size=2)
        n = int(rng.integers(1, 21))
        w = tuple(int(s) for s in rng.integers(1, 3, size=n))
        head, tail = w[0], w[1:]
        lhs = word_jacobian_det(two_gen, Word(w, "forward"), x)
        step = two_gen.maps()[head - 1].eval(x)
        rhs = word_jacobian_det(two_gen, Word((head,), "forward"), x) * word_jacobian_det(
            two_gen, Word(tail, "forward"), step
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_composed_jacobian_chain():
    a = AffineSimilarity(0.76, 179.0)
    b = AffineSimilarity(0.9, 30.0, (0.5, 0.5))
    sys = SystemSpec((a, b), include_inverses=True)
    x = np.array([0.3, 0.2])
    expected = b.jacobian(a.eval(x)) @ a.jacobian(x)
    assert word_jacobian_det(sys, Word((1, 2)), x) == pytest.approx(np.linalg.det(expected))
    # symbols 3 and 4 are the inverses of a and b: a^-1 b^-1 undoes b a
    there = apply_word(sys, Word((1, 2)), x)
    assert np.allclose(apply_word(sys, Word((4, 3)), there), x)


_WORD_FAMILIES = {
    "planar": SystemSpec(
        (
            Perturbed(AffineSimilarity(0.8, 150.0, (0.2, 0.0)), 0.05, seed=31),
            AffineSimilarity(0.76, 179.0),
        ),
        include_inverses=True,
    ),
    "circle": SystemSpec(
        (
            CircleNorthSouth(0.7),
            CircleRotation(0.6180339887498949),
            Perturbed(CircleNorthSouth(0.6, 0.3), 0.01, seed=6),
        ),
        include_inverses=True,
    ),
}


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(sorted(_WORD_FAMILIES)), data=st.data(), seed=st.integers(0, 2**16))
def test_reverse_word_is_reversed_forward_word(family, data, seed):
    sys = _WORD_FAMILIES[family]
    symbols = st.lists(st.integers(1, sys.alphabet_size), max_size=6).map(tuple)
    head, tail = data.draw(symbols), data.draw(symbols)
    rng = rng_from(seed)
    x = rng.uniform(-1, 1, size=(4, 2)) if family == "planar" else rng.uniform(0, 1, size=4)
    s = head + tail
    forward = apply_word(sys, Word(s, "forward"), x)
    assert np.array_equal(apply_word(sys, Word(s, "reverse"), x),
                          apply_word(sys, Word(s[::-1], "forward"), x))
    assert np.array_equal(apply_word(sys, Word(tail), apply_word(sys, Word(head), x)), forward)


def test_newton_inverse_jacobian_matches_finite_differences():
    rng = rng_from(19)
    for base, planar in (
        (Perturbed(AffineSimilarity(0.8, 120.0, (0.1, 0.1)), 0.02, seed=3), True),
        (Perturbed(CircleNorthSouth(0.7, 0.0), 0.01, seed=4), False),
    ):
        inv = base.inverse()
        for _ in range(30):
            w = rng.uniform(-1, 1, size=2) if planar else float(rng.uniform(0, 1))
            j = inv.jacobian(w)
            fd = fd_jacobian(inv, w)
            scale = max(float(np.max(np.abs(j))), 1e-6)
            assert np.max(np.abs(j - fd)) <= 1e-4 * scale


@pytest.mark.parametrize(
    "m, w",
    [
        (Perturbed(AffineSimilarity(0.8, 120.0, (0.1, 0.1)), 0.02, seed=3), [[0.3, -0.4]]),
        (Perturbed(CircleNorthSouth(0.7, 0.0), 0.01, seed=4), [0.3]),
    ],
    ids=["planar", "circle"],
)
def test_newton_inverse_raises_when_not_converged(monkeypatch, m, w):
    # one Newton step from the base inverse leaves a residual far above 1e-13
    monkeypatch.setattr(maps, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(ConvergenceError):
        m.inverse().eval(np.array(w))


def test_newton_inverse_converges_at_large_coordinates():
    # one ulp of a coordinate beyond 512 exceeds 1e-13, so a fixed absolute
    # tolerance could never be met there
    m = Perturbed(AffineSimilarity(0.8, 120.0, (0.1, 0.1)), 0.02, seed=3)
    xs = rng_from(23).uniform(-1, 1, size=(200, 2)) + np.array([1000.0, -1000.0])
    w = m.eval(xs)
    assert np.abs(w).max() > 512
    back = m.inverse().eval(w)
    assert np.abs(back - xs).max() < 1e-9
    assert np.abs(m.eval(back) - w).max() <= 4 * np.spacing(np.abs(w).max())


def test_word_det_matches_composed_log_det():
    gens = (
        Perturbed(AffineSimilarity(0.8, 150.0, (0.2, 0.0)), 0.05, seed=31),
        AffineSimilarity(0.76, 179.0),
    )
    sys = SystemSpec(gens)
    rng = rng_from(37)
    for direction in ("forward", "reverse"):
        w = Word(tuple(rng.integers(1, 3, size=9)), direction)
        x = rng.uniform(-1, 1, size=2)
        via_chain = word_jacobian_det(sys, w, x)
        # per-step log-dets along the orbit of the word's prefixes, in the
        # order the symbols act
        order = w.symbols if direction == "forward" else w.symbols[::-1]
        via_steps = sum(
            float(sys.map_for(sym).log_abs_det(apply_word(sys, Word(order[:k]), x)))
            for k, sym in enumerate(order)
        )
        assert np.log(abs(via_chain)) == pytest.approx(via_steps, rel=1e-10)


def test_system_include_inverses():
    sys = SystemSpec((CircleRotation(0.3),), include_inverses=True)
    assert sys.alphabet_size == 2
    x = 0.7
    assert sys.maps()[1].eval(sys.maps()[0].eval(x)) == pytest.approx(x)


def test_parse_and_format_roundtrip():
    text = (
        "affine kappa=0.76 theta=179.0 anchor=0.0,0.0\n"
        "affine kappa=0.76 theta=179.0 anchor=0.75,0.0\n"
        "inverses=false\n"
    )
    sys = parse_system(text)
    assert sys.alphabet_size == 2
    again = parse_system(format_system(sys))
    assert again == sys


_finite = st.floats(allow_nan=False, allow_infinity=False)
# kappa stays above 1e-300: a smaller one has an infinite inverse scale, which
# parse_system rejects when inverses=true
_affine_line = st.builds(
    "affine kappa={!r} theta={!r} anchor={!r},{!r}".format,
    st.floats(1e-300, 1.0, exclude_max=True), st.floats(-1e4, 1e4),
    st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
)
_circle_line = st.one_of(
    st.builds("rotation angle={!r}".format, _finite),
    st.builds(
        "moebius lambda={!r} pole={!r}".format,
        st.floats(0.5, 1.0, exclude_min=True, exclude_max=True), _finite,
    ),
)


@st.composite
def _system_texts(draw):
    """System text in the line format: map lines, perturb lines wrapping
    some of them, and an inverses line."""
    maps_ = draw(st.lists(draw(st.sampled_from([_affine_line, _circle_line])), min_size=1, max_size=4))
    wrapped = draw(st.lists(st.booleans(), min_size=len(maps_), max_size=len(maps_)))
    lines = list(maps_)
    for i, wrap in enumerate(wrapped, start=1):
        if wrap:
            amp, seed = draw(st.floats(0.0, 1.0)), draw(st.integers(0, 2**31 - 1))
            lines.append(f"perturb base={i} amp={amp!r} seed={seed}")
    lines.append(f"inverses={draw(st.sampled_from(['true', 'false']))}")
    return "\n".join(lines) + "\n"


@settings(deadline=None)
@given(text=_system_texts())
# -1e-17 % 1.0 rounds up to 1.0, which would be written as 1.0 and read back as 0.0
@example(text="rotation angle=-1e-17\n")
@example(text="moebius lambda=0.7 pole=-1e-17\n")
def test_parse_format_roundtrip_property(text):
    sys = parse_system(text)
    again = parse_system(format_system(sys))
    assert again == sys
    assert format_system(again) == format_system(sys)


def test_circle_coordinates_wrap_into_unit_interval():
    assert maps.circle_position(-1e-17) == 0.0
    assert maps.circle_position(-0.25) == 0.75
    assert maps.circle_position(1.0) == 0.0
    assert CircleRotation(1e-17).inverse() == CircleRotation(0.0)
    assert CircleRotation(0.0).inverse() == CircleRotation(0.0)
    assert CircleRotation(0.25).inverse() == CircleRotation(0.75)
    assert parse_system("rotation angle=-1e-17\n").generators == (CircleRotation(0.0),)
    assert parse_system("moebius lambda=0.7 pole=-1e-17\n").generators[0].pole == 0.0


def test_parse_perturb_consumes_base():
    text = (
        "moebius lambda=0.7 pole=0.0\n"
        "rotation angle=0.618\n"
        "perturb base=1 amp=0.01 seed=42\n"
        "perturb base=2 amp=0.01 seed=43\n"
    )
    sys = parse_system(text)
    assert sys.alphabet_size == 2
    assert all(type(g).__name__ == "Perturbed" for g in sys.generators)
    again = parse_system(format_system(sys))
    assert again == sys


def test_parse_validation_errors():
    with pytest.raises(ValidationError):
        parse_system("affine kappa=1.2 theta=10\n")
    with pytest.raises(ValidationError):
        # the inverse of a similarity this small has an infinite scale
        parse_system("affine kappa=5e-324 theta=1\ninverses=true\n")
    with pytest.raises(ValidationError):
        parse_system("moebius lambda=0.4\n")
    with pytest.raises(ValidationError):
        parse_system("perturb base=1 amp=0.01\n")
    with pytest.raises(ValidationError):
        parse_system("waffle size=9\n")
    with pytest.raises(ValidationError):
        parse_system("rotation angle=0.1\nmoebius lambda=0.7\ninverses=maybe\n")


# -- Jacobian arithmetic, pinned bit for bit ------------------------------------
#
# The values below were recorded with repr() before the determinant rule moved
# into maps._det and Map.jacobian_det; they must stay equal, not just close.

GOLD = (math.sqrt(5.0) - 1.0) / 2.0
PINNED_PLANAR = Perturbed(AffineSimilarity(0.8, 120.0, (0.1, 0.1)), 0.02, seed=3)
PINNED_POINTS = np.array([[0.3, -0.4], [1.2, 0.5], [-0.7, 0.05]])
PINNED_ARCS = np.array([0.1, 0.45, 0.9])


def test_word_jacobian_det_pinned():
    affine = SystemSpec(
        (AffineSimilarity(0.76, 179.0), AffineSimilarity(0.9, 45.0, (0.3, -0.2)))
    )
    circle = SystemSpec(
        (
            Perturbed(CircleNorthSouth(0.7), 0.01, seed=4),
            Perturbed(CircleRotation(GOLD), 0.01, seed=5),
        )
    )
    perturbed = SystemSpec((PINNED_PLANAR, AffineSimilarity(0.9, 45.0, (0.3, -0.2))))
    w = Word((1, 2, 2, 1, 2), "reverse")
    assert word_jacobian_det(affine, w, PINNED_POINTS).tolist() == [0.17730028175616006] * 3
    w = Word((1, 2, 1, 1, 2), "forward")
    assert word_jacobian_det(perturbed, w, PINNED_POINTS).tolist() == [
        0.16573451404195483, 0.16804531556986377, 0.16707434432842372,
    ]
    assert word_jacobian_det(circle, w, PINNED_ARCS).tolist() == [
        0.7591901106352215, 0.7151796742470781, 1.394209460023535,
    ]
    assert word_jacobian_det(circle, Word((2, 1), "reverse"), 0.3) == 1.0611540639366583


@pytest.mark.parametrize(
    "m, x, expected",
    [
        (CircleRotation(0.3), PINNED_ARCS, [0.0, 0.0, 0.0]),
        (CircleNorthSouth(0.7, 0.2), PINNED_ARCS,
         [-0.3067484346175277, -0.062303883336154865, 0.04948940893249696]),
        (PINNED_PLANAR, PINNED_POINTS,
         [-0.45951109466954976, -0.4504250559486428, -0.45507228621098333]),
        (PINNED_PLANAR.inverse(), PINNED_POINTS,
         [0.45526416349413185, 0.45399081470006236, 0.4489426698061546]),
        (Perturbed(CircleNorthSouth(0.7), 0.01, seed=4).inverse(), PINNED_ARCS,
         # each value is the point's lone-call value, with and without AVX512_SKX
         {True: [0.25194026707680417, -0.33773339096629024, 0.25998365788700567],
          False: [0.25194026707680417, -0.33773339096629024, 0.2599836578870055]}),
    ],
    ids=["rotation", "north-south", "perturbed", "newton", "newton-circle"],
)
@pytest.mark.baseline_dispatch
def test_log_abs_det_pinned(m, x, expected, skx):
    if isinstance(expected, dict):
        expected = expected[skx]
    assert m.log_abs_det(x).tolist() == expected


def test_newton_inverse_and_operator_norm_pinned():
    inv = PINNED_PLANAR.inverse()
    assert PINNED_PLANAR.operator_norm(PINNED_POINTS).tolist() == [
        0.7964846469606869, 0.8046774999624418, 0.7978903968384342,
    ]
    assert inv.eval(PINNED_POINTS).tolist() == [
        [-0.5733655015564999, 0.1995878836499549],
        [-0.1462924280804435, -1.3447295988752672],
        [0.5421756935671153, 1.0070809880924503],
    ]
    assert inv.jacobian(PINNED_POINTS).tolist() == [
        [[-0.619113112125886, 1.0922288168543666], [-1.0948651723576752, -0.614986997085118]],
        [[-0.6193535971780345, 1.0849515988710907], [-1.0929336918717418, -0.6277567123235134]],
        [[-0.6261792953095153, 1.096440376386066], [-1.0735066854434534, -0.6222159797955069]],
    ]


_coord = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    scale=st.floats(1e-3, 10.0),
    angle=st.floats(-720.0, 720.0),
    anchor=st.tuples(_coord, _coord),
    shape=st.sampled_from([(2,), (5, 2), (4, 4, 2)]),
    seed=st.integers(0, 2**16),
)
@example(scale=1.0, angle=1.0, anchor=(0.0, 0.0), shape=(2,), seed=1)
def test_affine_eval_matches_column_vector_reference(scale, angle, anchor, shape, seed):
    th = np.deg2rad(angle)
    c, s = np.cos(th), np.sin(th)
    m = scale * np.array([[c, -s], [s, c]])
    offset = np.array(anchor) - m @ np.array(anchor)
    pts = rng_from(seed).uniform(-100.0, 100.0, size=shape)
    # the reference maps a batch of at least two rows: a lone point through a
    # transposed view takes BLAS's matrix-vector kernel, which can round the
    # last bit differently from the same point inside a batch
    flat = pts.reshape(-1, 2)
    ref = (np.concatenate([flat, flat]) @ m.T + offset)[: len(flat)].reshape(shape)
    t = AffineSimilarity(scale, angle, anchor)
    assert np.array_equal(t.eval(pts), ref)
    assert np.array_equal(t.jacobian(pts), np.broadcast_to(m, shape[:-1] + (2, 2)))


@pytest.mark.baseline_dispatch
@pytest.mark.parametrize("shape", [(2,), (7, 2), (3, 5, 2)])
def test_affine_eval_offset_matches_broadcast_add(shape):
    # the per-axis offset adds are the same IEEE sums as a (2,) broadcast add
    for t in (AffineSimilarity(0.76, 179.0, (0.3, -0.2)), AffineSimilarity(0.61, 77.0, (-31.7, 2.9))):
        pts = rng_from(29).uniform(-50.0, 50.0, size=shape)
        ref = pts @ t._rows
        ref += t._offset
        assert np.array_equal(t.eval(pts), ref)


# -- the fused log-det step and the gathered cell evaluation -------------------


def _cell_sets(domain):
    """Empty, one-cell, sparse and full bitmaps on the domain."""
    one = np.zeros(domain.shape, dtype=bool)
    one[(3,) * len(domain.shape)] = True
    sparse = rng_from(17).uniform(size=domain.shape) < 0.05
    return [np.zeros(domain.shape, dtype=bool), one, sparse, np.ones(domain.shape, dtype=bool)]


def _check_fused_and_gathered(m, domain):
    for bits in _cell_sets(domain):
        pts = GridSet(domain, bits).included_points()
        image = m.eval(pts)
        gathered = m.eval_cells(domain, np.nonzero(bits))
        assert gathered.shape == image.shape
        assert np.array_equal(gathered, image)
        fused_image, fused_logdet = m.eval_log_abs_det(pts)
        assert np.array_equal(fused_image, image)
        assert np.array_equal(fused_logdet, m.log_abs_det(pts))


_PLANAR_CHART = Domain.planar((-1.5, 1.0, -0.5, 2.0), 48)
_CIRCLE_CHART = Domain.circle(256)

_EVERY_KIND = pytest.mark.parametrize(
    "m",
    [
        AffineSimilarity(0.8, 120.0, (0.1, 0.1)),
        CircleRotation(0.6180339887498949),
        CircleNorthSouth(0.6, 0.37),
        Perturbed(AffineSimilarity(0.8, 120.0, (0.1, 0.1)), 0.02, seed=3),
        Perturbed(Perturbed(AffineSimilarity(0.7, 30.0), 0.05, seed=8), 0.01, seed=9),
        Perturbed(CircleNorthSouth(0.7, 0.0), 0.01, seed=4),
        Perturbed(AffineSimilarity(0.8, 120.0, (0.1, 0.1)), 0.02, seed=3).inverse(),
        Perturbed(CircleNorthSouth(0.7, 0.0), 0.01, seed=4).inverse(),
    ],
    ids=[
        "affine", "rotation", "north-south", "perturbed", "perturbed-twice",
        "perturbed-circle", "newton", "newton-circle",
    ],
)


@_EVERY_KIND
def test_fused_and_gathered_steps_match_eval(m):
    domain = _CIRCLE_CHART if m.kind == "circle" else _PLANAR_CHART
    _check_fused_and_gathered(m, domain)
    # a lone point takes the same route as a batch
    x = 0.3 if m.kind == "circle" else np.array([0.3, -0.2])
    image, logdet = m.eval_log_abs_det(x)
    assert np.array_equal(image, m.eval(x))
    assert np.array_equal(logdet, m.log_abs_det(x))


# -- blocked cell maps: the same bits as one whole-grid evaluation -------------


@pytest.mark.baseline_dispatch
@_EVERY_KIND
# 5 cells cut the index inside rows and make one-row planar blocks; 96 and
# 100 cells make two-row planar blocks and cut the full index on a row
# boundary and inside a row
@pytest.mark.parametrize("block", [5, 96, 100])
def test_blocked_cell_map_matches_one_evaluation(monkeypatch, m, block):
    monkeypatch.setattr(geometry, "_BLOCK_CELLS", block)
    domain = _CIRCLE_CHART if m.kind == "circle" else _PLANAR_CHART
    got = m.cell_map(domain)
    assert got.dtype == np.int32 and got.shape == domain.shape
    assert np.array_equal(got, domain.point_cells(m.eval(domain.cell_centers())))
    for bits in _cell_sets(domain):
        index = np.nonzero(bits)
        got = m.cell_map(domain, index)
        assert got.dtype == np.int32 and got.shape == (np.count_nonzero(bits),)
        assert np.array_equal(got, domain.point_cells(m.eval(domain.centers_at(index))))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    amplitude=st.sampled_from([0.0, 1e-3, 0.01]) | st.floats(0.0, 0.3),
    circle=st.booleans(),
    inverse=st.booleans(),
)
def test_fused_and_gathered_steps_match_eval_property(seed, amplitude, circle, inverse):
    base = CircleNorthSouth(0.7, 0.2) if circle else AffineSimilarity(0.76, 179.0, (0.4, -0.3))
    m = Perturbed(base, amplitude, seed)
    _check_fused_and_gathered(m.inverse() if inverse else m, _CIRCLE_CHART if circle else _PLANAR_CHART)


# -- batch invariance: a stacked call equals its blocks' calls, bit for bit ----


@pytest.mark.baseline_dispatch
@_EVERY_KIND
@pytest.mark.parametrize("blocks, size", [(1, 1), (3, 1), (5, 7), (4, 33), (2, 513)])
def test_stacked_batch_matches_its_blocks(m, blocks, size):
    # empirical_distortion stacks many words' points into one call, and a
    # Newton inverse stops each point on its own residual
    rng = rng_from(blocks * 1000 + size)
    if m.kind == "circle":
        stack = rng.uniform(0.0, 1.0, (blocks, size))
    else:
        stack = rng.uniform(-1.5, 1.5, (blocks, size, 2))
    for method in ("eval", "eval_log_abs_det", "log_abs_det"):
        got = getattr(m, method)(stack)
        parts = [getattr(m, method)(np.ascontiguousarray(block)) for block in stack]
        if method == "eval_log_abs_det":
            for k in range(2):
                assert np.array_equal(got[k], np.stack([p[k] for p in parts]))
        else:
            assert np.array_equal(got, np.stack(parts))
