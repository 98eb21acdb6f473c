"""Seeded random number generation helpers.

All randomness in the simulation flows through :class:`SeededRng` so a run
is fully determined by its seed. Components that need independent streams
derive child generators with :meth:`fork`, which keeps their draws decoupled
(adding a draw in one component does not perturb another component's
sequence).
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Sequence, TypeVar

T = TypeVar("T")


class SeededRng:
    """A deterministic random source with convenience helpers."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._random = random.Random(seed)

    @property
    def seed(self) -> int:
        """The seed this generator was created with."""
        return self._seed

    def fork(self, label: str) -> "SeededRng":
        """Derive an independent child generator.

        The child's seed mixes the parent seed with ``label`` so that two
        forks with different labels produce unrelated streams, while the
        same (seed, label) pair always produces the same stream. The mix
        uses a stable digest — not Python's ``hash()``, which is salted
        per process and would break run-to-run reproducibility.
        """
        digest = hashlib.md5(f"{self._seed}:{label}".encode("utf-8")).digest()
        child_seed = int.from_bytes(digest[:4], "big") & 0x7FFFFFFF
        return SeededRng(child_seed)

    def uniform(self, low: float, high: float) -> float:
        """A float drawn uniformly from ``[low, high]``."""
        return self._random.uniform(low, high)

    def expovariate(self, rate: float) -> float:
        """An exponential inter-arrival time with the given rate."""
        return self._random.expovariate(rate)

    def gauss(self, mu: float, sigma: float) -> float:
        """A normal draw."""
        return self._random.gauss(mu, sigma)

    def choice(self, items: Sequence[T]) -> T:
        """A uniformly random element of ``items``."""
        return self._random.choice(items)

    def sample(self, items: Sequence[T], k: int) -> List[T]:
        """``k`` distinct elements of ``items``, in random order."""
        return self._random.sample(items, k)

    def shuffle(self, items: List[T]) -> None:
        """Shuffle ``items`` in place."""
        self._random.shuffle(items)

    def random(self) -> float:
        """A float in ``[0, 1)``."""
        return self._random.random()

    def jitter(self, value: float, fraction: float) -> float:
        """``value`` perturbed by up to ``±fraction`` of itself.

        Used to de-synchronize periodic timers the way real deployments do
        (e.g. Task Manager refresh threads do not all fire together).
        """
        if fraction < 0:
            raise ValueError("jitter fraction must be non-negative")
        return value * (1.0 + self._random.uniform(-fraction, fraction))
