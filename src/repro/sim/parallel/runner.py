"""The parallel round loop: N partitions, one coordinator.

The execution plan is the same for every mode:

1. every partition applies the previous barrier's commands and runs its
   engine to the next barrier (``drain_until`` — events strictly below);
2. the coordinator merges the round deltas canonically;
3. the control plane runs once on the merged view and emits the next
   round's commands.

With ``use_processes=False`` all partitions run in-process, in index
order. With ``use_processes=True`` partitions 1..N-1 live in worker
processes fed over pipes, while partition 0 runs inline in the
coordinator process (the control plane runs "on partition 0") —
the coordinator sends the round to every worker *first*, computes
partition 0 while they work, then collects. Both modes produce the same
deltas, so exports are byte-identical across modes and partition counts;
only wall-clock differs. If worker processes cannot start (exotic
platforms, restricted sandboxes) the runner falls back to in-process
execution and records that in the result.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import SimulationError
from repro.sim.parallel.barrier import ControlPlane
from repro.sim.parallel.fleet import FleetSpec, PartitionRunner, RoundDelta
from repro.sim.parallel.merge import merge_deltas


def _worker_main(conn, spec: FleetSpec, num_partitions: int, index: int):
    """Worker process: one partition, driven round by round over a pipe."""
    runner = PartitionRunner(spec, num_partitions, index)
    try:
        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            _kind, barrier, commands = message
            conn.send(runner.run_round(barrier, commands))
    finally:
        conn.close()


@dataclass
class ParallelResult:
    """Everything a run produces.

    The export fields (``fingerprint_json``, ``timeline_text``,
    ``slo_json``, ``telemetry_jsonl``, the metric ``store``) are
    byte-identical across partition counts and execution modes; the
    diagnostic fields (``wall_s``, ``events``, ``used_processes``) are
    not and must never be written into a compared artifact.
    """

    fingerprint: dict
    fingerprint_json: str
    timeline_text: str
    slo_json: str
    telemetry_jsonl: str
    store: object
    partitions: int
    rounds: int
    used_processes: bool
    wall_s: float
    events: int


class ParallelSimulation:
    """Run one fleet spec across N partitions."""

    def __init__(
        self,
        spec: FleetSpec,
        partitions: int = 1,
        use_processes: bool = False,
    ) -> None:
        if partitions <= 0:
            raise SimulationError(
                f"partitions must be positive: {partitions}"
            )
        if partitions > spec.num_shards:
            raise SimulationError(
                f"cannot split {spec.num_shards} shards into "
                f"{partitions} partitions"
            )
        self.spec = spec
        self.partitions = partitions
        self.use_processes = use_processes

    # ------------------------------------------------------------------
    def run(self) -> ParallelResult:
        started = time.perf_counter()
        control = ControlPlane(self.spec)
        barriers = self.spec.barriers()
        if self.use_processes and self.partitions > 1:
            deltas_by_round, used_processes = self._run_rounds_processes(
                control, barriers
            )
        else:
            deltas_by_round = self._run_rounds_inline(control, barriers)
            used_processes = False
        wall_s = time.perf_counter() - started
        duration = self.spec.duration
        events = sum(
            delta.events for deltas in deltas_by_round for delta in deltas
        )
        fingerprint = control.fingerprint(duration)
        return ParallelResult(
            fingerprint=fingerprint,
            fingerprint_json=json.dumps(
                fingerprint, sort_keys=True, indent=2
            ) + "\n",
            timeline_text=control.timeline_text(),
            slo_json=json.dumps(
                control.slo_report(duration), sort_keys=True, indent=2
            ) + "\n",
            telemetry_jsonl=control.telemetry.to_jsonl(deterministic=True),
            store=control.store,
            partitions=self.partitions,
            rounds=len(barriers),
            used_processes=used_processes,
            wall_s=wall_s,
            events=events,
        )

    # ------------------------------------------------------------------
    def _run_rounds_inline(
        self, control: ControlPlane, barriers: Sequence[float]
    ) -> List[List[RoundDelta]]:
        runners = [
            PartitionRunner(self.spec, self.partitions, index)
            for index in range(self.partitions)
        ]
        commands: List[Tuple] = []
        all_deltas: List[List[RoundDelta]] = []
        for barrier in barriers:
            deltas = [
                runner.run_round(barrier, commands) for runner in runners
            ]
            all_deltas.append(deltas)
            commands = control.on_round(barrier, merge_deltas(deltas))
        return all_deltas

    def _run_rounds_processes(
        self, control: ControlPlane, barriers: Sequence[float]
    ) -> Tuple[List[List[RoundDelta]], bool]:
        """Partition 0 inline, partitions 1..N-1 in worker processes.

        Any failure to *start* the workers falls back to the inline path;
        a failure mid-run is a real error and propagates (the run cannot
        be trusted after a worker died holding a partition's state).
        """
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            ctx = multiprocessing.get_context("spawn")
        # Build partition 0 BEFORE forking: its construction warms the
        # module-level MD5 shard table, which forked workers then
        # inherit copy-on-write instead of recomputing the digests.
        local = PartitionRunner(self.spec, self.partitions, 0)
        workers = []
        pipes = []
        try:
            for index in range(1, self.partitions):
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, self.spec, self.partitions, index),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                workers.append(process)
                pipes.append(parent_conn)
        except OSError:  # pragma: no cover - fork-restricted sandboxes
            for process in workers:
                process.terminate()
            return self._run_rounds_inline(control, barriers), False
        commands: List[Tuple] = []
        all_deltas: List[List[RoundDelta]] = []
        try:
            for barrier in barriers:
                for conn in pipes:
                    conn.send(("round", barrier, commands))
                local_delta = local.run_round(barrier, commands)
                deltas = [local_delta] + [conn.recv() for conn in pipes]
                all_deltas.append(deltas)
                commands = control.on_round(barrier, merge_deltas(deltas))
        finally:
            for conn in pipes:
                try:
                    conn.send(("stop",))
                    conn.close()
                except (OSError, BrokenPipeError):
                    pass
            for process in workers:
                process.join(timeout=30)
                if process.is_alive():  # pragma: no cover - hung worker
                    process.terminate()
        return all_deltas, True


def run_fleet(
    spec: FleetSpec,
    partitions: int = 1,
    use_processes: bool = False,
) -> ParallelResult:
    """Convenience wrapper: build and run in one call."""
    return ParallelSimulation(
        spec, partitions=partitions, use_processes=use_processes
    ).run()
