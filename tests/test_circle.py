import numpy as np
import pytest

from ifslab.circle import (
    GOLDEN_ANGLE,
    CircleExampleParams,
    build_circle_example,
    rational_substitution_experiment,
    robustness_sweep,
    sweep_rows_csv,
)
from ifslab.errors import MultiplierError, ValidationError
from ifslab.geometry import Domain, full_set
from ifslab.analysis import EPS_DENSE, NOT_EPS_DENSE, UNRESOLVED, minimality_test
from ifslab.maps import CircleNorthSouth, CircleRotation, SystemSpec


def fd_derivative(m, x, h=1e-6):
    return ((m.eval(x + h) - m.eval(x - h) + 0.5) % 1.0 - 0.5) / (2 * h)


def test_params_validation():
    with pytest.raises(MultiplierError):
        CircleExampleParams(multiplier=0.4)
    with pytest.raises(MultiplierError):
        CircleExampleParams(multiplier=1.0)
    with pytest.raises(ValidationError):
        CircleExampleParams(multiplier=0.7, perturb_amplitude=-0.1)


def test_example_fixed_points_and_multipliers():
    sys = build_circle_example(CircleExampleParams(multiplier=0.7))
    f1 = sys.generators[0]
    # exactly two fixed points, derivative 0.7 at the attractor and 1/0.7 at
    # the repeller, confirmed by finite differences
    n = 4096
    xs = np.linspace(0, 1, n, endpoint=False)
    gaps = np.abs((f1.eval(xs) - xs + 0.5) % 1.0 - 0.5)
    fixed_cells = np.flatnonzero(gaps < 1e-4)
    clusters = np.split(fixed_cells, np.where(np.diff(fixed_cells) > 1)[0] + 1)
    if len(clusters) > 1 and fixed_cells[0] == 0 and fixed_cells[-1] == n - 1:
        clusters = clusters[1:-1] + [np.concatenate([clusters[-1], clusters[0]])]
    assert len(clusters) == 2
    assert fd_derivative(f1, 0.0) == pytest.approx(0.7, rel=1e-4)
    assert fd_derivative(f1, 0.5) == pytest.approx(1 / 0.7, rel=1e-4)


def test_example_inverse_identity():
    sys = build_circle_example(CircleExampleParams(multiplier=0.7))
    f1 = sys.generators[0]
    xs = np.linspace(0, 1, 10_000, endpoint=False)
    err = np.abs((f1.inverse().eval(f1.eval(xs)) - xs + 0.5) % 1.0 - 0.5)
    assert err.max() < 1e-9


def test_example_pair_is_minimal_at_golden_angle():
    sys = build_circle_example(CircleExampleParams(multiplier=0.7))
    region = full_set(Domain.circle(2048))
    rep = minimality_test(sys, region, 0.01, 300, 8, seed=1)
    assert rep.verdict == EPS_DENSE


def test_example_zero_angle_fails_minimality():
    sys = build_circle_example(CircleExampleParams(multiplier=0.7, rotation_angle=0.0))
    region = full_set(Domain.circle(1024))
    rep = minimality_test(sys, region, 0.02, 200, 8, seed=1)
    assert rep.verdict == NOT_EPS_DENSE


def test_minimality_invariant_under_rotated_coordinates():
    # conjugating the whole system by a rotation does not change the verdict
    shift = 0.3
    base = SystemSpec((CircleNorthSouth(0.7, 0.0), CircleRotation(GOLDEN_ANGLE)))
    rotated = SystemSpec((CircleNorthSouth(0.7, shift), CircleRotation(GOLDEN_ANGLE)))
    region = full_set(Domain.circle(1024))
    rep_a = minimality_test(base, region, 0.02, 200, 6, seed=2)
    rep_b = minimality_test(rotated, region, 0.02, 200, 6, seed=2)
    assert rep_a.verdict == rep_b.verdict == EPS_DENSE


def test_substitution_golden_convergent_five_eighths():
    # 5/8 is close enough to the golden angle for the pair to stay minimal,
    # while each single generator fails both probes
    p = CircleExampleParams(multiplier=0.7, rational_approx=(5, 8), seed=3)
    rep = rational_substitution_experiment(p)
    assert rep["pair_passes_both"]
    assert rep["singles_fail_both"]
    assert rep["single_rotation"]["minimality"]["verdict"] == NOT_EPS_DENSE
    assert not rep["single_north_south"]["ergodic_consistent"]


def test_substitution_finer_convergent_scale_limits():
    # at 377/610 the rotation's 610-point orbits are already finer than
    # epsilon = 0.01, so the single-rotation probes pass at this scale;
    # the report records the measured verdicts as-is
    p = CircleExampleParams(multiplier=0.7, rational_approx=(377, 610), seed=3)
    rep = rational_substitution_experiment(p)
    assert rep["pair_passes_both"]
    assert rep["single_rotation"]["minimal"]
    assert not rep["singles_fail_both"]


def test_substitution_half_and_zero():
    rep = rational_substitution_experiment(
        CircleExampleParams(multiplier=0.7, rational_approx=(1, 2), seed=3)
    )
    assert not rep["single_rotation"]["minimal"]
    assert not rep["pair"]["minimal"]
    rep0 = rational_substitution_experiment(
        CircleExampleParams(multiplier=0.7, rational_approx=(0, 1), seed=3)
    )
    assert not rep0["pair"]["minimal"]


def test_substitution_unresolved_probes_read_as_neither_pass_nor_fail():
    # at 32 cells no ergodicity iterate is resolved, so no probe may read as
    # consistent with ergodicity, nor as a single generator failing it
    p = CircleExampleParams(multiplier=0.625, rational_approx=(5, 8))
    rep = rational_substitution_experiment(
        p, epsilon=0.1, max_word_len=40, samples=4, resolution=32
    )
    for entry in (rep["pair"], rep["single_north_south"], rep["single_rotation"]):
        assert entry["ergodicity"]["verdict"] == UNRESOLVED
        assert not entry["ergodic_consistent"]
    assert not rep["pair_passes_both"] and not rep["singles_fail_both"]


def test_substitution_requires_rational():
    with pytest.raises(ValidationError):
        rational_substitution_experiment(CircleExampleParams(multiplier=0.7))


def test_robustness_sweep_baseline_and_small_amplitudes():
    p = CircleExampleParams(multiplier=0.7, seed=5)
    rep = robustness_sweep(p, [0.0, 0.001, 0.005, 0.01])
    assert rep["rows"][0]["verdicts_unchanged"]  # amplitude 0 = baseline
    assert all(row["minimality_verdict"] == EPS_DENSE for row in rep["rows"])
    assert rep["largest_unchanged_amplitude"] == 0.01


def test_robustness_sweep_rejects_large_amplitude():
    p = CircleExampleParams(multiplier=0.7, seed=5)
    with pytest.raises(ValidationError):
        robustness_sweep(p, [0.5])


def test_sweep_csv_header():
    p = CircleExampleParams(multiplier=0.7, seed=5)
    rep = robustness_sweep(p, [0.0], max_word_len=100, resolution=512)
    csv_text = sweep_rows_csv(rep)
    assert csv_text.splitlines()[0] == (
        "amplitude,minimality_verdict,uncovered_fraction,ergodicity_verdict,best_defect"
    )
    assert len(csv_text.splitlines()) == 2
