"""Shard-sliced task runtime: a columnar data plane for fleet-scale runs.

The object-per-task runtime (:mod:`repro.tasks.runtime`) models a single
container faithfully but tops out around a few thousand tasks per
simulated day. This module is the 100k-task representation used by the
parallel substrate (:mod:`repro.sim.parallel`): task state lives in
parallel arrays, grouped into one contiguous segment per job, and one
:class:`ShardSlicedTasks` instance holds exactly the tasks whose MD5
shard falls into its partition's shard set.

Determinism rules (the whole point of this layout):

* every random quantity is derived from a **stable entity key** — an
  MD5 base key per ``(seed, job)`` finalized with a splitmix64-style
  integer mix per ``(task index, crash number)`` — so a task behaves
  identically no matter which partition simulates it, and a whole
  index range of draws vectorizes to one NumPy expression instead of
  one digest per task;
* all elementwise dynamics use the same IEEE-754 expressions in the
  NumPy and pure-Python paths, and each task's trajectory depends only
  on its own state plus job-level scalars every partition computes from
  the spec — never on which other tasks share its arrays;
* every aggregate that leaves the slice (:meth:`stats_rows`, orphan lag
  from scale-downs) is quantized **per task** to fixed-point micro-MB
  *before* summation, making merge addition associative and therefore
  independent of how tasks are distributed over partitions.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_left
from itertools import chain
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.tasks.shard import shard_index_for_task

try:  # pragma: no cover - exercised implicitly by whichever path runs
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Fixed-point scale for merged aggregates: 1 unit = 1e-6 MB (one byte,
#: near enough). Integer sums are associative, so merged totals cannot
#: depend on partition count or reduction order.
MICRO_MB = 1_000_000.0

#: Per-task arrival-rate skew range: multipliers in [0.75, 1.25).
MULT_BASE = 0.75
MULT_SPREAD = 0.5


def stable_u01(seed: int, label: str) -> float:
    """A uniform draw in ``[0, 1)`` fully determined by ``(seed, label)``.

    Uses MD5 like :meth:`repro.sim.rng.SeededRng.fork` — a stable digest,
    not Python's per-process salted ``hash()`` — so draws agree across
    worker processes and across runs. Used for job-level scalars (a
    handful per fleet); the per-task hot path goes through
    :func:`_job_key` + :func:`_mix64` instead, which costs integer
    arithmetic rather than a digest per task.
    """
    digest = hashlib.md5(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


MASK64 = (1 << 64) - 1
#: Index stride — odd (golden-ratio) constant, so distinct task indexes
#: land on distinct mix inputs.
_MIX_A = 0x9E3779B97F4A7C15
#: Crash-sequence stride, decoupled from the index stride.
_MIX_B = 0xC2B2AE3D27D4EB4F
_MIX_C1 = 0xBF58476D1CE4E5B9
_MIX_C2 = 0x94D049BB133111EB


def _job_key(seed: int, job_id: str) -> int:
    """The 64-bit MD5 base key of one job's entity-keyed draw stream."""
    digest = hashlib.md5(f"{seed}:{job_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _mix64(x: int) -> int:
    """splitmix64 finalizer: avalanche a 64-bit word (pure integers,
    so the NumPy ``uint64`` vector form is bit-identical)."""
    x &= MASK64
    x ^= x >> 30
    x = (x * _MIX_C1) & MASK64
    x ^= x >> 27
    x = (x * _MIX_C2) & MASK64
    x ^= x >> 31
    return x


def _vmix64(x):
    """Vector :func:`_mix64` over a ``uint64`` ndarray (wrapping
    arithmetic matches the scalar ``& MASK64`` form bit for bit)."""
    x = x ^ (x >> _np.uint64(30))
    x *= _np.uint64(_MIX_C1)
    x ^= x >> _np.uint64(27)
    x *= _np.uint64(_MIX_C2)
    x ^= x >> _np.uint64(31)
    return x


def _u01_from_word(word: int) -> float:
    """Top 53 bits of a mixed word as a float in ``[0, 1)`` — an exact
    integer scaled by an exact power of two, identical in scalar and
    vector arithmetic."""
    return (word >> 11) / 2.0**53


#: Module-level memo of MD5 shard indexes: ``(job_id, num_shards) ->
#: [shard_index_for_task(f"{job_id}/{i}") for i]``. Seed-independent and
#: partition-independent, so one table serves every slice in a process —
#: and, under the ``fork`` start method, worker processes inherit the
#: coordinator's warm table copy-on-write instead of redoing the digests.
_SHARD_TABLE: Dict[Tuple[str, int], List[int]] = {}


def _shard_indexes(job_id: str, num_shards: int, count: int) -> List[int]:
    """The job's task->shard table, grown to ``count`` entries."""
    table = _SHARD_TABLE.setdefault((job_id, num_shards), [])
    if len(table) < count:
        md5 = hashlib.md5
        task_prefix = f"{job_id}/".encode("utf-8")
        # Inlined shard_index_for_task(f"{job_id}/{i}"): the MD5
        # task->shard mapping is load-bearing and must not change.
        table.extend(
            int.from_bytes(
                md5(task_prefix + b"%d" % i).digest(), "big"
            ) % num_shards
            for i in range(len(table), count)
        )
    return table


def _crash_gap(key: int, tindex: int, k: int, mtbf_s: float) -> float:
    """The k-th exponential inter-crash gap of one task (entity-keyed)."""
    u = _u01_from_word(_mix64(key + tindex * _MIX_A + (k + 1) * _MIX_B))
    return -mtbf_s * math.log1p(-u)


def _task_mult(key: int, tindex: int) -> float:
    return MULT_BASE + MULT_SPREAD * _u01_from_word(
        _mix64(key + tindex * _MIX_A)
    )


class _JobCache:
    """Memoized pure-function values for one job's task indexes.

    Everything here is a pure function of ``(seed, job_id, index)`` —
    the per-task rate multiplier, its sequential prefix sum (bit-for-bit
    the same left-to-right accumulation the share denominator has always
    used), the first crash gap, and whether this partition owns the
    task's shard. Caching them turns rescales from O(task_count) MD5
    digests into O(owned) arithmetic without changing a single bit.
    """

    __slots__ = ("key", "mults", "prefix", "gap0", "owned", "size")

    def __init__(self, key: int = 0) -> None:
        #: The job's 64-bit draw-stream base key (:func:`_job_key`).
        self.key = key
        self.mults: List[float] = []
        #: ``prefix[i]`` = sum of ``mults[0:i]`` accumulated left to
        #: right, so ``prefix[count]`` is the exact float the original
        #: ``total_mult += mult`` loop produced.
        self.prefix: List[float] = [0.0]
        self.gap0: List[float] = []
        #: Ascending owned task indexes (this partition's shards only).
        self.owned: List[int] = []
        self.size = 0


class _JobSlice:
    """Authoritative per-job columns (this partition's tasks only)."""

    __slots__ = (
        "tindex", "share", "cap", "lag", "processed", "down_until",
        "next_crash", "crash_n", "retired_processed_u", "crash_count",
    )

    def __init__(self) -> None:
        self.tindex: List[int] = []
        self.share: List[float] = []
        self.cap: List[float] = []
        self.lag: List[float] = []
        self.processed: List[float] = []
        self.down_until: List[float] = []
        self.next_crash: List[float] = []
        self.crash_n: List[int] = []
        #: Processed micro-MB of tasks retired by scale-downs, kept so the
        #: job's cumulative throughput series never goes backwards.
        self.retired_processed_u: int = 0
        #: Crashes recorded so far (fingerprint bookkeeping).
        self.crash_count: int = 0


class ShardSlicedTasks:
    """The tasks of one partition's shard set, in columnar form.

    ``jobs`` is any iterable of objects with the :class:`FleetJob`
    attributes (``job_id``, ``task_count``, ``rate_per_task_mb``,
    ``mtbf_s``, ``restore_s``); ``owns`` decides shard ownership, so the
    same class serves a single-loop run (owns everything) and any
    partition of an N-way run.
    """

    def __init__(
        self,
        jobs: Iterable,
        seed: int,
        num_shards: int,
        owns: Callable[[int], bool],
        now: float = 0.0,
    ) -> None:
        self._seed = seed
        self._num_shards = num_shards
        self._owns = owns
        self._jobs: Dict[str, object] = {
            job.job_id: job for job in jobs
        }
        self._job_order: List[str] = sorted(self._jobs)
        self._counts: Dict[str, int] = {
            job_id: self._jobs[job_id].task_count for job_id in self._job_order
        }
        self._threads_mult: Dict[str, float] = {
            job_id: 1.0 for job_id in self._job_order
        }
        self._cache: Dict[str, _JobCache] = {
            job_id: _JobCache(_job_key(seed, job_id))
            for job_id in self._job_order
        }
        self._slices: Dict[str, _JobSlice] = {}
        for job_id in self._job_order:
            self._slices[job_id] = self._build_job_slice(
                job_id, self._counts[job_id], now
            )
        self._dirty = True
        self._c: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Construction / membership
    # ------------------------------------------------------------------
    def _ensure_cache(self, job_id: str, count: int) -> _JobCache:
        """Grow the job's memoized pure-function columns up to ``count``.

        The splitmix64 words vectorize when NumPy is present (bit-equal
        to the scalar mix — pure ``uint64`` arithmetic); the float steps
        after the words stay scalar in both paths, so the cached values
        never depend on which path filled them in. Shard ownership is
        the one per-index digest left: it must stay the platform's MD5
        mapping (paper section IV-A1), which is what the partitioning
        rule is reusing in the first place.
        """
        cache = self._cache[job_id]
        if cache.size < count:
            job = self._jobs[job_id]
            lo, hi = cache.size, count
            key = cache.key
            if _np is not None and hi - lo > 256:
                base = _np.uint64(key) + _np.arange(
                    lo, hi, dtype=_np.uint64
                ) * _np.uint64(_MIX_A)
                mult_words = _vmix64(base).tolist()
                gap_words = _vmix64(base + _np.uint64(_MIX_B)).tolist()
            else:
                mult_words = [
                    _mix64(key + i * _MIX_A) for i in range(lo, hi)
                ]
                gap_words = [
                    _mix64(key + i * _MIX_A + _MIX_B) for i in range(lo, hi)
                ]
            mtbf_s = job.mtbf_s
            log1p = math.log1p
            accum = cache.prefix[-1]
            for word_m, word_g in zip(mult_words, gap_words):
                mult = MULT_BASE + MULT_SPREAD * _u01_from_word(word_m)
                cache.mults.append(mult)
                accum += mult
                cache.prefix.append(accum)
                cache.gap0.append(
                    -mtbf_s * log1p(-_u01_from_word(word_g))
                )
            table = _shard_indexes(job_id, self._num_shards, hi)
            owns = self._owns
            cache.owned.extend(
                i for i in range(lo, hi) if owns(table[i])
            )
            cache.size = count
        return cache

    def _build_job_slice(self, job_id: str, count: int, now: float) -> _JobSlice:
        """Fresh columns for one job at ``count`` tasks (initial build).

        The arrival share of task *i* is ``mult_i / sum(mult_0..n-1)``
        where the denominator runs over the job's *entire* task list —
        every partition agrees on the shares without talking because the
        multipliers are pure functions of stable labels (memoized in
        :class:`_JobCache` so only first-touch indexes pay any work).
        Resizes never rebuild; :meth:`_rescale` edits columns in place.
        """
        job = self._jobs[job_id]
        cache = self._ensure_cache(job_id, count)
        total_mult = cache.prefix[count]
        cut = bisect_left(cache.owned, count)
        owned = cache.owned[:cut]
        n = len(owned)
        mults = cache.mults
        gap0 = cache.gap0
        sl = _JobSlice()
        sl.tindex = owned
        sl.share = (
            [mults[i] / total_mult for i in owned]
            if total_mult > 0 else [0.0] * n
        )
        sl.cap = [job.rate_per_task_mb] * n
        sl.lag = [0.0] * n
        sl.processed = [0.0] * n
        sl.down_until = [now] * n
        sl.next_crash = [now + gap0[i] for i in owned]
        sl.crash_n = [0] * n
        return sl

    def _refresh(self) -> None:
        """(Re)build the concatenated hot arrays from per-job columns."""
        if not self._dirty:
            return
        names = (
            "share", "cap", "lag", "processed", "down_until", "next_crash",
        )
        offsets: List[Tuple[int, int]] = []
        start = 0
        chunks: Dict[str, List[Sequence[float]]] = {n: [] for n in names}
        jobpos: List[int] = []
        for pos, job_id in enumerate(self._job_order):
            sl = self._slices[job_id]
            n = len(sl.tindex)
            offsets.append((start, start + n))
            start += n
            jobpos.extend([pos] * n)
            for name in names:
                chunks[name].append(getattr(sl, name))
        self._offsets = offsets
        self._size = start
        if _np is not None:
            self._c = {
                name: _np.fromiter(
                    chain.from_iterable(chunks[name]),
                    dtype=_np.float64,
                    count=start,
                )
                for name in names
            }
            self._c["jobpos"] = _np.array(jobpos, dtype=_np.intp)
        else:
            self._c = {
                name: list(chain.from_iterable(chunks[name]))
                for name in names
            }
            self._c["jobpos"] = jobpos
        self._dirty = False

    def _writeback(self) -> None:
        """Copy mutable concatenated columns back into per-job lists."""
        if self._dirty:
            return
        for pos, job_id in enumerate(self._job_order):
            start, end = self._offsets[pos]
            sl = self._slices[job_id]
            for name in ("lag", "processed", "down_until", "next_crash"):
                col = self._c[name][start:end]
                # ndarray.tolist() yields the same Python floats as
                # float(v) per element, in bulk.
                setattr(
                    sl,
                    name,
                    col.tolist() if _np is not None else list(col),
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def job_order(self) -> List[str]:
        return list(self._job_order)

    def task_count(self, job_id: str) -> int:
        """The job's *global* task count (all partitions)."""
        return self._counts[job_id]

    def owned_task_total(self) -> int:
        return sum(len(sl.tindex) for sl in self._slices.values())

    def threads_mult(self, job_id: str) -> float:
        return self._threads_mult[job_id]

    # ------------------------------------------------------------------
    # Commands (applied at round barriers)
    # ------------------------------------------------------------------
    def apply_commands(
        self, now: float, commands: Sequence[Tuple]
    ) -> List[Tuple[str, int]]:
        """Apply control-plane commands; return orphan lag per job.

        Commands are wire tuples: ``("scale", job, count)`` resizes a
        job, ``("threads", job, mult)`` adjusts its vertical multiplier,
        ``("credit", job, lag_u)`` lands a previous round's orphan lag on
        the job's task 0 (wherever it lives). Orphan lag — the lag of
        tasks retired by a scale-down — is returned as per-job micro-MB
        so the coordinator can re-credit it next round.
        """
        orphans: List[Tuple[str, int]] = []
        for command in commands:
            kind = command[0]
            if kind == "threads":
                self._threads_mult[command[1]] = float(command[2])
            elif kind == "credit":
                self._credit_lag(command[1], int(command[2]))
            elif kind == "scale":
                orphan_u = self._rescale(command[1], int(command[2]), now)
                if orphan_u:
                    orphans.append((command[1], orphan_u))
            else:
                raise ValueError(f"unknown command kind: {kind!r}")
        return orphans

    def _rescale(self, job_id: str, new_count: int, now: float) -> int:
        """Resize a job's columns in place: O(owned rows), no rebuild.

        ``tindex`` is always ascending (built ascending, scale-ups
        append larger indexes, scale-downs truncate the tail), so both
        directions are a bisect plus a tail edit; only the shares — a
        function of the job-wide denominator — are recomputed for every
        surviving row, exactly as a fresh build would.
        """
        old_count = self._counts[job_id]
        if new_count == old_count:
            return 0
        self._writeback()
        cache = self._ensure_cache(job_id, max(new_count, old_count))
        sl = self._slices[job_id]
        orphan_u = 0
        if new_count < old_count:
            cut = bisect_left(sl.tindex, new_count)
            for row in range(cut, len(sl.tindex)):
                orphan_u += int(round(sl.lag[row] * MICRO_MB))
                sl.retired_processed_u += int(
                    round(sl.processed[row] * MICRO_MB)
                )
            for name in (
                "tindex", "cap", "lag", "processed", "down_until",
                "next_crash", "crash_n",
            ):
                del getattr(sl, name)[cut:]
        else:
            lo = bisect_left(cache.owned, old_count)
            hi = bisect_left(cache.owned, new_count)
            grown = cache.owned[lo:hi]
            n = len(grown)
            job = self._jobs[job_id]
            sl.tindex.extend(grown)
            sl.cap.extend([job.rate_per_task_mb] * n)
            sl.lag.extend([0.0] * n)
            sl.processed.extend([0.0] * n)
            sl.down_until.extend([now] * n)
            sl.next_crash.extend(now + cache.gap0[i] for i in grown)
            sl.crash_n.extend([0] * n)
        total_mult = cache.prefix[new_count]
        mults = cache.mults
        sl.share = (
            [mults[i] / total_mult for i in sl.tindex]
            if total_mult > 0 else [0.0] * len(sl.tindex)
        )
        self._counts[job_id] = new_count
        self._dirty = True
        return orphan_u

    def _credit_lag(self, job_id: str, lag_u: int) -> None:
        """Land orphan lag on task 0 if this partition owns it."""
        if not self._owns(
            shard_index_for_task(f"{job_id}/0", self._num_shards)
        ):
            return
        self._writeback()
        sl = self._slices[job_id]
        for row, i in enumerate(sl.tindex):
            if i == 0:
                sl.lag[row] = sl.lag[row] + lag_u / MICRO_MB
                self._dirty = True
                return

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------
    def step(
        self, t_start: float, dt: float, rates: Sequence[float]
    ) -> List[Tuple[float, str, int]]:
        """Advance every owned task over ``[t_start, t_start + dt)``.

        ``rates`` is the per-job arrival rate (MB/s) at ``t_start``, in
        ``job_order`` — a job-level scalar every partition computes
        identically from the spec. Returns crash records
        ``(crash_time, job_id, task_index)``.
        """
        if dt <= 0:
            return []
        self._refresh()
        if self._size == 0:
            return []
        t_end = t_start + dt
        crashes: List[Tuple[float, str, int]] = []
        if _np is not None:
            c = self._c
            down = _np.clip(c["down_until"] - t_start, 0.0, dt)
            active = 1.0 - down / dt
            hit = _np.nonzero(c["next_crash"] < t_end)[0]
            for idx in hit:
                crashes.append(self._crash_one(int(idx), t_start, dt, active))
            rates_task = _np.asarray(rates, dtype=_np.float64)[c["jobpos"]]
            tm_task = _np.asarray(
                [self._threads_mult[j] for j in self._job_order],
                dtype=_np.float64,
            )[c["jobpos"]]
            arrival = (c["share"] * rates_task) * dt
            cap_step = ((c["cap"] * tm_task) * active) * dt
            drained = _np.minimum(c["lag"] + arrival, cap_step)
            _np.clip(drained, 0.0, None, out=drained)
            c["lag"] += arrival - drained
            c["processed"] += drained
        else:
            c = self._c
            tm = [self._threads_mult[j] for j in self._job_order]
            lag = c["lag"]
            processed = c["processed"]
            for i in range(self._size):
                down = min(max(c["down_until"][i] - t_start, 0.0), dt)
                active_i = 1.0 - down / dt
                if c["next_crash"][i] < t_end:
                    active_arr = [active_i]
                    crashes.append(
                        self._crash_one(i, t_start, dt, active_arr, scalar=True)
                    )
                    active_i = active_arr[0]
                pos = c["jobpos"][i]
                arrival = (c["share"][i] * rates[pos]) * dt
                cap_step = ((c["cap"][i] * tm[pos]) * active_i) * dt
                drained = min(lag[i] + arrival, cap_step)
                if drained < 0.0:
                    drained = 0.0
                lag[i] = lag[i] + (arrival - drained)
                processed[i] = processed[i] + drained
        return crashes

    def _crash_one(self, idx, t_start, dt, active, scalar=False):
        """Record one crash event and schedule the task's next one."""
        c = self._c
        pos = int(c["jobpos"][idx])
        job_id = self._job_order[pos]
        job = self._jobs[job_id]
        sl = self._slices[job_id]
        start, _end = self._offsets[pos]
        row = idx - start
        tindex = sl.tindex[row]
        tc = float(c["next_crash"][idx])
        resume = tc + job.restore_s
        c["down_until"][idx] = resume
        extra_down = min(t_start + dt, resume) - tc
        if extra_down > 0:
            if scalar:
                active[0] = max(0.0, active[0] - extra_down / dt)
            else:
                active[idx] = max(0.0, active[idx] - extra_down / dt)
        sl.crash_n[row] += 1
        sl.crash_count += 1
        c["next_crash"][idx] = resume + _crash_gap(
            self._cache[job_id].key, tindex, sl.crash_n[row], job.mtbf_s
        )
        return (tc, job_id, tindex)

    # ------------------------------------------------------------------
    # Mergeable aggregates
    # ------------------------------------------------------------------
    def stats_rows(self, t: float) -> List[Tuple[float, str, int, int]]:
        """``(t, job_id, lag_u, processed_u)`` per job, fixed-point.

        Each task quantizes *individually* to micro-MB before the sum,
        so any distribution of tasks over partitions produces the same
        merged totals (integer addition is associative).
        """
        self._refresh()
        rows: List[Tuple[float, str, int, int]] = []
        if _np is not None and self._size > 0:
            lag_u = _np.rint(self._c["lag"] * MICRO_MB).astype(_np.int64)
            proc_u = _np.rint(self._c["processed"] * MICRO_MB).astype(
                _np.int64
            )
            for pos, job_id in enumerate(self._job_order):
                start, end = self._offsets[pos]
                retired = self._slices[job_id].retired_processed_u
                rows.append((
                    t, job_id,
                    int(lag_u[start:end].sum()),
                    int(proc_u[start:end].sum()) + retired,
                ))
        else:
            for pos, job_id in enumerate(self._job_order):
                start, end = self._offsets[pos]
                lag_sum = 0
                proc_sum = 0
                for i in range(start, end):
                    lag_sum += int(round(self._c["lag"][i] * MICRO_MB))
                    proc_sum += int(round(self._c["processed"][i] * MICRO_MB))
                retired = self._slices[job_id].retired_processed_u
                rows.append((t, job_id, lag_sum, proc_sum + retired))
        return rows

    def crash_totals(self) -> Dict[str, int]:
        """Crashes recorded so far, per job."""
        return {
            job_id: self._slices[job_id].crash_count
            for job_id in self._job_order
        }

    def __repr__(self) -> str:
        return (
            f"ShardSlicedTasks(jobs={len(self._job_order)}, "
            f"owned_tasks={self.owned_task_total()})"
        )
