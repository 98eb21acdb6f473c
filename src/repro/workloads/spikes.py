"""Traffic spikes.

Fig. 7's instability is "caused by traffic spikes in the input of some
jobs", modelled as time-windowed rate multipliers. Imbalanced input
(section V-A) is producer skew across partitions: a category's
:meth:`~repro.scribe.category.Category.set_weights`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.types import Seconds
from repro.workloads.diurnal import RateFn


@dataclass(frozen=True)
class Spike:
    """One multiplicative traffic spike over ``[start, end)``."""

    start: Seconds
    end: Seconds
    factor: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("spike end must be after start")
        if self.factor < 0:
            raise ValueError("spike factor must be non-negative")

    def active(self, t: Seconds) -> bool:
        return self.start <= t < self.end


class SpikeSchedule:
    """A rate function with scheduled multiplicative spikes."""

    def __init__(self, inner: RateFn, spikes: Sequence[Spike] = ()) -> None:
        self._inner = inner
        self.spikes: List[Spike] = list(spikes)

    def add(self, start: Seconds, end: Seconds, factor: float) -> None:
        """Schedule another spike."""
        self.spikes.append(Spike(start, end, factor))

    def rate(self, t: Seconds) -> float:
        value = self._inner(t)
        for spike in self.spikes:
            if spike.active(t):
                value *= spike.factor
        return value

    def __call__(self, t: Seconds) -> float:
        return self.rate(t)

