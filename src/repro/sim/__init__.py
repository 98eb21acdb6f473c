"""Discrete-event simulation kernel.

Everything in the Turbine reproduction is driven by this engine: services
register periodic timers (the State Syncer's 30-second round, the Task
Manager's 60-second refresh, the Shard Manager's balancing interval) and the
engine delivers callbacks in deterministic time order. Determinism is a core
design goal — the same seed always produces the same run, which makes the
paper's experiments reproducible bit-for-bit.
"""

from repro.sim.engine import Engine, Timer
from repro.sim.events import Event, EventQueue
from repro.sim.rng import SeededRng

__all__ = ["Engine", "Timer", "Event", "EventQueue", "SeededRng"]
