"""Diurnal traffic patterns.

"Most stream processing jobs at Facebook exhibit diurnal load patterns:
while the workload varies during a given day, it is normally similar —
within 1% variation on aggregate — to the workload at the same time in
prior days." (paper section V-C).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.sim.rng import SeededRng
from repro.types import Seconds

DAY: Seconds = 86400.0

#: Rate functions map simulated time to MB/s.
RateFn = Callable[[Seconds], float]


class DiurnalPattern:
    """A smooth daily curve with small deterministic day-over-day noise.

    ``rate(t) = base · (1 + amplitude · sin(2π(t − phase)/day)) · day_noise``

    ``day_noise`` is a per-calendar-day multiplier within ``±daily_variation``
    drawn from a seeded stream, so two runs with the same seed see the same
    traffic and the "same time yesterday" really is within ~1 %.
    """

    def __init__(
        self,
        base_rate_mb: float,
        amplitude: float = 0.3,
        phase: Seconds = 0.0,
        daily_variation: float = 0.01,
        rng: Optional[SeededRng] = None,
    ) -> None:
        if base_rate_mb < 0:
            raise ValueError(f"base rate must be non-negative: {base_rate_mb}")
        if not 0 <= amplitude < 1:
            raise ValueError(f"amplitude must be in [0, 1): {amplitude}")
        self.base_rate_mb = base_rate_mb
        self.amplitude = amplitude
        self.phase = phase
        self.daily_variation = daily_variation
        self._rng = rng or SeededRng(0)
        self._day_noise: dict = {}

    def _noise_for_day(self, day: int) -> float:
        if day not in self._day_noise:
            fork = self._rng.fork(f"day-{day}")
            self._day_noise[day] = 1.0 + fork.uniform(
                -self.daily_variation, self.daily_variation
            )
        return self._day_noise[day]

    def rate(self, t: Seconds) -> float:
        """MB/s at simulated time ``t``."""
        curve = 1.0 + self.amplitude * math.sin(
            2.0 * math.pi * (t - self.phase) / DAY
        )
        return self.base_rate_mb * curve * self._noise_for_day(int(t // DAY))

    def __call__(self, t: Seconds) -> float:
        return self.rate(t)


def constant(rate_mb: float) -> RateFn:
    """A flat rate function."""
    if rate_mb < 0:
        raise ValueError(f"rate must be non-negative: {rate_mb}")
    return lambda __: rate_mb


def scaled(inner: RateFn, factor: float) -> RateFn:
    """``inner`` multiplied by a constant factor."""
    return lambda t: inner(t) * factor
