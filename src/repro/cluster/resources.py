"""Multi-dimensional resource vectors.

Turbine adjusts resource allocation "in multiple dimensions (CPU, memory,
disk and others)" (paper section I). Everything that carries a footprint —
hosts, containers, shards, tasks, scaling plans — is expressed as a
:class:`ResourceVector` so the same arithmetic serves the balancer's
bin-packing, the scaler's estimates, and the capacity manager's accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

#: Names of the dimensions, in canonical order.
DIMENSIONS: Tuple[str, ...] = ("cpu", "memory_gb", "disk_gb", "network_mbps")


@dataclass(frozen=True)
class ResourceVector:
    """An immutable (cpu, memory, disk, network) tuple with vector algebra.

    Attributes:
        cpu: CPU cores (fractional cores allowed — most Scuba tailer tasks
            use well under one core, paper Fig. 5a).
        memory_gb: resident memory in GiB.
        disk_gb: local disk in GiB (stateful jobs only, usually).
        network_mbps: network bandwidth in Mbit/s.
    """

    cpu: float = 0.0
    memory_gb: float = 0.0
    disk_gb: float = 0.0
    network_mbps: float = 0.0

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls) -> "ResourceVector":
        """The additive identity."""
        return cls()

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.cpu + other.cpu,
            self.memory_gb + other.memory_gb,
            self.disk_gb + other.disk_gb,
            self.network_mbps + other.network_mbps,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.cpu - other.cpu,
            self.memory_gb - other.memory_gb,
            self.disk_gb - other.disk_gb,
            self.network_mbps - other.network_mbps,
        )

    def scaled(self, factor: float) -> "ResourceVector":
        """This vector multiplied component-wise by ``factor``."""
        return ResourceVector(
            self.cpu * factor,
            self.memory_gb * factor,
            self.disk_gb * factor,
            self.network_mbps * factor,
        )

    def clamped_non_negative(self) -> "ResourceVector":
        """Each component floored at zero (useful after subtraction)."""
        return ResourceVector(
            max(0.0, self.cpu),
            max(0.0, self.memory_gb),
            max(0.0, self.disk_gb),
            max(0.0, self.network_mbps),
        )

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------
    def fits_within(self, capacity: "ResourceVector") -> bool:
        """True when every component is at most the capacity's component."""
        return (
            self.cpu <= capacity.cpu + 1e-9
            and self.memory_gb <= capacity.memory_gb + 1e-9
            and self.disk_gb <= capacity.disk_gb + 1e-9
            and self.network_mbps <= capacity.network_mbps + 1e-9
        )

    def any_negative(self) -> bool:
        """True when any component is negative (invalid as a footprint)."""
        return any(value < -1e-9 for __, value in self.items())

    # ------------------------------------------------------------------
    # Utilization
    # ------------------------------------------------------------------
    def utilization_of(self, capacity: "ResourceVector") -> float:
        """Dominant-share utilization of this load against a capacity.

        Returns the maximum per-dimension ratio, skipping dimensions where
        the capacity is zero (they cannot constrain placement). This is the
        quantity the balancer keeps within its utilization band.
        """
        ratios = [
            load / cap
            for (__, load), (__, cap) in zip(self.items(), capacity.items())
            if cap > 0
        ]
        return max(ratios) if ratios else 0.0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def items(self) -> Iterator[Tuple[str, float]]:
        """Yield ``(dimension_name, value)`` pairs in canonical order."""
        yield "cpu", self.cpu
        yield "memory_gb", self.memory_gb
        yield "disk_gb", self.disk_gb
        yield "network_mbps", self.network_mbps

    def as_dict(self) -> dict:
        """A plain dict, e.g. for JSON serialization into job configs."""
        return dict(self.items())

    @classmethod
    def from_dict(cls, data: dict) -> "ResourceVector":
        """Inverse of :meth:`as_dict`; missing dimensions default to zero."""
        unknown = set(data) - set(DIMENSIONS)
        if unknown:
            raise ValueError(f"unknown resource dimensions: {sorted(unknown)}")
        return cls(**{key: float(value) for key, value in data.items()})

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}={value:g}" for name, value in self.items() if value
        )
        return f"ResourceVector({parts or '0'})"
