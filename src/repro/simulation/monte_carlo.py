"""Statistics helpers shared by the Monte-Carlo harnesses."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ConfigurationError


def wilson_interval(
    successes: int, trials: int, z: float = 1.96
) -> tuple[float, float]:
    """Wilson score confidence interval for a binomial proportion.

    Preferred over the normal approximation because the tail probabilities we
    estimate (logical error rates, overflow probabilities) are often very
    small relative to the number of trials.
    """
    if trials <= 0:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ConfigurationError(
            f"successes must lie in [0, {trials}], got {successes}"
        )
    proportion = successes / trials
    denominator = 1.0 + z * z / trials
    centre = proportion + z * z / (2 * trials)
    margin = z * math.sqrt(
        proportion * (1.0 - proportion) / trials + z * z / (4 * trials * trials)
    )
    return (
        max(0.0, (centre - margin) / denominator),
        min(1.0, (centre + margin) / denominator),
    )


def wilson_width(successes: int, trials: int, z: float = 1.96) -> float:
    """Width of the Wilson interval — the convergence metric of adaptive runs."""
    low, high = wilson_interval(successes, trials, z)
    return high - low


@dataclass(frozen=True)
class WilsonStoppingRule:
    """Adaptive trial-allocation rule: stop when the Wilson interval is tight.

    The rule is consulted by
    :class:`repro.simulation.scheduler.SweepScheduler` after each wave of an
    adaptive point's shards.  A run stops once the Wilson interval on the
    tracked proportion is no wider than ``target_width`` — but never before
    ``min_trials`` trials have been observed, and always by ``max_trials``
    (the budget cap), whether or not the target was reached.

    ``next_wave`` doubles the consumed trial count each round (clamped to the
    remaining budget), so the shard sequence a run consumes is a pure function
    of the observed counts — which is what keeps adaptive runs deterministic
    per seed, independent of the worker count.
    """

    target_width: float
    min_trials: int
    max_trials: int
    z: float = 1.96

    def __post_init__(self) -> None:
        if not 0.0 < self.target_width <= 1.0:
            raise ConfigurationError(
                f"target_width must lie in (0, 1], got {self.target_width}"
            )
        if self.min_trials <= 0:
            raise ConfigurationError(
                f"min_trials must be positive, got {self.min_trials}"
            )
        if self.max_trials < self.min_trials:
            raise ConfigurationError(
                f"max_trials ({self.max_trials}) must be >= min_trials "
                f"({self.min_trials})"
            )

    def satisfied(self, successes: int, trials: int) -> bool:
        """True when sampling should stop given the observed counts."""
        if trials < self.min_trials:
            return False
        if trials >= self.max_trials:
            return True
        return wilson_width(successes, trials, self.z) <= self.target_width

    def next_wave(self, trials_so_far: int) -> int:
        """Trials in the next shard wave (0 when the budget is exhausted)."""
        return max(0, min(trials_so_far, self.max_trials - trials_so_far))


def until_wilson(
    target_width: float,
    min_trials: int = 200,
    max_trials: int = 100_000,
    z: float = 1.96,
) -> WilsonStoppingRule:
    """Stopping rule: sample until the Wilson interval reaches ``target_width``.

    ``min_trials`` guards against stopping on the optimistically tight
    intervals of tiny samples (and is where degenerate 0%/100% proportions
    terminate); ``max_trials`` caps the budget when the target width is
    unreachable.
    """
    return WilsonStoppingRule(
        target_width=target_width, min_trials=min_trials, max_trials=max_trials, z=z
    )


__all__ = [
    "wilson_interval",
    "wilson_width",
    "WilsonStoppingRule",
    "until_wilson",
]
