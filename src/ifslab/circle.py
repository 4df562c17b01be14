"""The two-generator circle system: north-south map plus a rotation.

Builds the pair {f1, R}, runs the minimality and ergodicity probes on it
and on each generator alone, and sweeps C1-perturbations to measure how
robust the probe verdicts are.  The default rotation angle is the golden
ratio fraction, the most badly approximable angle, which equidistributes
fastest at small word lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .analysis import CANDIDATE_FOUND, EPS_DENSE, NO_CANDIDATE, ergodicity_probe, minimality_test
from .errors import MultiplierError, ValidationError
from .geometry import Domain, full_set
from .maps import CircleNorthSouth, CircleRotation, Perturbed, SystemSpec, circle_position
from .seeding import spawn_rngs

GOLDEN_ANGLE = (math.sqrt(5.0) - 1.0) / 2.0

_MAX_SWEEP_AMPLITUDE = 0.1
# ergodicity probe settings shared by every circle experiment
_SEED_SETS = 16
_REFINE_STEPS = 12


@dataclass(frozen=True)
class CircleExampleParams:
    """Parameters of the north-south + rotation pair.

    ``multiplier`` is the derivative at the attracting fixed point and must
    lie in (1/2, 1) so that both the map and its inverse contract at their
    respective attractors.  ``rational_approx`` optionally names a fraction
    p/q standing in for the rotation angle in substitution experiments.
    """

    multiplier: float
    rotation_angle: float = GOLDEN_ANGLE
    rational_approx: tuple[int, int] | None = None
    perturb_amplitude: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.5 < self.multiplier < 1.0:
            raise MultiplierError(
                f"multiplier must lie in (1/2, 1), got {self.multiplier}"
            )
        if self.perturb_amplitude < 0:
            raise ValidationError("perturb amplitude must be >= 0")
        if self.rational_approx is not None:
            p, q = self.rational_approx
            if q <= 0:
                raise ValidationError("rational approximation needs denominator > 0")
            object.__setattr__(self, "rational_approx", (int(p), int(q)))


def build_circle_example(p: CircleExampleParams) -> SystemSpec:
    """The pair {north-south, rotation}, optionally C1-perturbed."""
    f1 = CircleNorthSouth(p.multiplier, pole=0.0)
    rot = CircleRotation(circle_position(p.rotation_angle))
    if p.perturb_amplitude > 0:
        rngs = spawn_rngs(p.seed, 2)
        seeds = [int(r.integers(0, 2**31)) for r in rngs]
        return SystemSpec(
            (
                Perturbed(f1, p.perturb_amplitude, seeds[0]),
                Perturbed(rot, p.perturb_amplitude, seeds[1]),
            )
        )
    return SystemSpec((f1, rot))


def _prober(seed: int, epsilon: float, max_word_len: int, samples: int, resolution: int):
    """Both probes on a system at one set of settings, as a report entry."""
    region = full_set(Domain.circle(resolution))

    def probe(sys: SystemSpec) -> dict:
        minim = minimality_test(sys, region, epsilon, max_word_len, samples, seed)
        ergo = ergodicity_probe(sys, resolution, _SEED_SETS, _REFINE_STEPS, seed)
        return {
            "minimality": minim.to_json_dict(),
            "ergodicity": ergo.to_json_dict(),
            "minimal": minim.verdict == EPS_DENSE,
            "ergodic_consistent": ergo.verdict == NO_CANDIDATE,
        }

    return probe


def rational_substitution_experiment(
    p: CircleExampleParams,
    epsilon: float = 0.01,
    max_word_len: int = 300,
    samples: int = 8,
    resolution: int = 4096,
) -> dict:
    """Swap the rotation for its rational approximation and probe everything.

    Runs the minimality test and ergodicity probe on the pair
    {f1, R_{p/q}} and on each single generator, and reports whether the
    outcomes fit the expected pattern: every single generator fails both
    probes while the pair passes both.  The measured verdicts are reported
    as-is; the pattern flags simply evaluate them.
    """
    if p.rational_approx is None:
        raise ValidationError("substitution experiment needs rational_approx")
    num, den = p.rational_approx
    pair_sys = build_circle_example(replace(p, rotation_angle=num / den, perturb_amplitude=0.0))
    f1, rot = pair_sys.generators
    probe = _prober(p.seed, epsilon, max_word_len, samples, resolution)
    pair = probe(pair_sys)
    single_ns = probe(SystemSpec((f1,)))
    single_rot = probe(SystemSpec((rot,)))
    # a single fails the ergodicity probe only by a candidate it found, not
    # by a probe that resolved nothing
    singles_fail_both = all(
        not r["minimal"] and r["ergodicity"]["verdict"] == CANDIDATE_FOUND
        for r in (single_ns, single_rot)
    )
    return {
        "gamma": rot.angle,
        "rational": [num, den],
        "pair": pair,
        "single_north_south": single_ns,
        "single_rotation": single_rot,
        "pair_passes_both": pair["minimal"] and pair["ergodic_consistent"],
        "singles_fail_both": singles_fail_both,
    }


def robustness_sweep(
    p: CircleExampleParams,
    amplitudes,
    epsilon: float = 0.01,
    max_word_len: int = 300,
    samples: int = 8,
    resolution: int = 1024,
) -> dict:
    """Re-run both probes on C1-perturbations of both generators.

    Each amplitude below 0.1 gets its own seeded perturbation of the pair;
    the report lists per-amplitude verdicts and the largest amplitude whose
    verdicts match the unperturbed baseline.
    """
    amplitudes = [float(a) for a in amplitudes]
    if any(a < 0 or a >= _MAX_SWEEP_AMPLITUDE for a in amplitudes):
        raise ValidationError(
            f"amplitudes must lie in [0, {_MAX_SWEEP_AMPLITUDE})"
        )
    probe = _prober(p.seed, epsilon, max_word_len, samples, resolution)
    baseline = probe(build_circle_example(replace(p, perturb_amplitude=0.0)))
    rows = []
    largest_unchanged = None
    for amp in amplitudes:
        row = probe(build_circle_example(replace(p, perturb_amplitude=amp)))
        unchanged = (
            row["minimal"] == baseline["minimal"]
            and row["ergodicity"]["verdict"] == baseline["ergodicity"]["verdict"]
        )
        rows.append(
            {
                "amplitude": amp,
                "minimality_verdict": row["minimality"]["verdict"],
                "uncovered_fraction": row["minimality"]["uncovered_fraction"],
                "ergodicity_verdict": row["ergodicity"]["verdict"],
                "best_defect": row["ergodicity"]["best_defect"],
                "verdicts_unchanged": unchanged,
            }
        )
        if unchanged and (largest_unchanged is None or amp > largest_unchanged):
            largest_unchanged = amp
    return {
        "baseline": baseline,
        "rows": rows,
        "largest_unchanged_amplitude": largest_unchanged,
    }


def sweep_rows_csv(report: dict) -> str:
    """The sweep table in CSV form: one row per amplitude."""
    lines = [
        "amplitude,minimality_verdict,uncovered_fraction,ergodicity_verdict,best_defect"
    ]
    for row in report["rows"]:
        lines.append(
            f'{row["amplitude"]!r},{row["minimality_verdict"]},'
            f'{row["uncovered_fraction"]!r},{row["ergodicity_verdict"]},'
            f'{row["best_defect"]!r}'
        )
    return "\n".join(lines) + "\n"
