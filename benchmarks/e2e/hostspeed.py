"""Host-speed normalisation for a shared, drifting machine.

On the sizing box (2 vCPUs of a shared VM) identical code with an identical
seed ran the same measured phase in 7.2 s – 11 s: the host's speed drifts by
tens of percent, in regimes that last from seconds to many minutes, and a
pure-Python loop drifts with it — so it is the machine, not the program. A
bound of 10-25 % on a raw wall-clock metric cannot tell a regression from a
regime change.

So every host-time metric is reported **at nominal host speed**: two small
fixed kernels (one cache-resident, one walking ~6 MB of objects) are timed
between blocks of the measured work, and each block's wall-clock is divided
by how slow the kernels ran relative to the constants below. The kernels are
benchmark code — no change to the program can move them — so the ratio of
two commits is preserved, while a regime change cancels out. Raw wall-clock
is reported next to every normalised figure.

Normalisation removes the slow drift (medians taken minutes apart agree to a
few percent where raw medians differed by 30 %); it does not remove the
second-to-second jitter inside a regime (about ±3 %).
"""

from __future__ import annotations

from time import perf_counter, process_time
from typing import List

#: Kernel times on the sizing box in its fast regime (2.1 GHz Xeon vCPU,
#: Python 3.11.7). They only fix the scale: a factor of 1.0 means "as fast as
#: the sizing box at its best".
NOMINAL_SMALL_S = 0.00105
NOMINAL_BIG_S = 0.00061

#: A block of measured work is closed (and the kernels run) once it has
#: lasted this long, so calibration costs about 2 % and is never timed.
BLOCK_S = 0.25

_BIG_CELLS = 16_000
_BIG_STRIDE = 2


class _Cell:
    __slots__ = ("a", "b", "d")

    def __init__(self, index: int) -> None:
        self.a = float(index)
        self.b = 0.0
        self.d = {"x": float(index), "y": 1.0, f"k{index}": 2.0}


class HostSpeed:
    """Measures how slow the host is right now (1.0 = nominal)."""

    def __init__(self) -> None:
        self._cells = [_Cell(index) for index in range(_BIG_CELLS)]
        self._phase = 0

    def _small(self) -> float:
        table: dict = {}
        total = 0.0
        for index in range(8000):
            table[index & 1023] = total
            total += table.get((index * 7) & 1023, 0.0) * 0.5 + index
        return total

    def _big(self) -> float:
        total = 0.0
        self._phase = (self._phase + 1) % _BIG_STRIDE
        for cell in self._cells[self._phase::_BIG_STRIDE]:
            values = cell.d
            total += values["x"] * 0.5 + cell.a
            cell.b = total
            values["y"] = total
        return total

    def sample(self) -> float:
        """The slowness factor now: the faster of two passes per kernel,
        each relative to its nominal time, averaged over the two kernels."""
        small = big = float("inf")
        for _ in range(2):
            started = perf_counter()
            self._small()
            middle = perf_counter()
            self._big()
            ended = perf_counter()
            small = min(small, middle - started)
            big = min(big, ended - middle)
        return 0.5 * (small / NOMINAL_SMALL_S + big / NOMINAL_BIG_S)


class NormalisedClock:
    """Accumulates timed work in blocks; each block is scaled by the mean
    of the slowness factors sampled just before and just after it."""

    def __init__(self, speed: HostSpeed) -> None:
        self._speed = speed
        self._factor = speed.sample()
        self._block_wall = 0.0
        self._block_pieces: List[float] = []
        #: Raw and nominal-speed totals of everything closed so far.
        self.raw_s = 0.0
        self.nominal_s = 0.0
        self.cpu_s = 0.0
        #: Nominal-speed duration of every piece added (slice timings).
        self.pieces: List[float] = []
        #: Slowness factor applied to each closed block.
        self.factors: List[float] = []
        self._piece_started = 0.0
        self._cpu_started = 0.0

    def start(self) -> None:
        """Start timing one piece of work."""
        self._cpu_started = process_time()
        self._piece_started = perf_counter()

    def stop(self) -> None:
        """Stop timing the piece; close the block if it is long enough."""
        wall = perf_counter() - self._piece_started
        self.cpu_s += process_time() - self._cpu_started
        self._block_wall += wall
        self._block_pieces.append(wall)
        if self._block_wall >= BLOCK_S:
            self.close()

    def close(self) -> None:
        """Close the open block (call once more when the work ends)."""
        if not self._block_pieces:
            return
        after = self._speed.sample()
        factor = 0.5 * (self._factor + after)
        self._factor = after
        self.raw_s += self._block_wall
        self.nominal_s += self._block_wall / factor
        self.pieces.extend(wall / factor for wall in self._block_pieces)
        self.factors.append(factor)
        self._block_wall = 0.0
        self._block_pieces = []
