#!/usr/bin/env python3
"""Interleaved A/B timing of one workload on two source trees.

``python benchmarks/interleave.py --a TREE --b TREE --workload W [--seed N]
[--seconds S] [--scale F]`` starts one child process per tree, each
importing that tree's ``repro`` and ``benchmarks.e2e`` (``PYTHONPATH`` is
the tree's ``src`` and root, ``PYTHONHASHSEED=0``). Each child builds the
workload and runs its set-up untimed; then the measured phase is stepped
one ``SLICE_SIM_S`` slice at a time, alternating A B B A, so a slow spell
of the host lands on both sides alike. Two raw measured-phase walls of one
tree taken minutes apart can differ by more than any change under test;
the ratio of interleaved slices is far steadier.

It prints each side's measured seconds, the ratio B/A (and the median of
the per-slice ratios), and both end ``export_sha256`` digests, computed as
``benchmarks/e2e/child.py`` computes them. It exits 1 when the digests
differ: the two trees did not run the same simulation.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


# ----------------------------------------------------------------------
# Child: one tree's platform, stepped on command
# ----------------------------------------------------------------------
def _child(name: str, seed: int, seconds: float, scale: float) -> None:
    """Build and warm up, reply ``ready``; then answer ``step`` with the
    slice's wall seconds and ``finish`` with the export digest."""
    import hashlib

    from benchmarks.e2e.spec import RUN_SECONDS
    from benchmarks.e2e.workloads import SLICE_SIM_S, WORKLOADS
    from repro.chaos.runner import platform_fingerprint

    def reply(**fields) -> None:
        sys.stdout.write(json.dumps(fields) + "\n")
        sys.stdout.flush()

    workload = WORKLOADS[name](seed, scale=scale, time_factor=seconds / RUN_SECONDS)
    platform = workload.build()
    engine = platform.engine
    while platform.now < workload.setup_sim_s:
        engine.run_until(min(workload.setup_sim_s, platform.now + 60.0))
    workload.begin(platform)
    end_sim = platform.now + workload.horizon
    reply(ready=True)
    for line in sys.stdin:
        command = line.strip()
        if command == "step":
            started = time.perf_counter()
            engine.run_until(min(end_sim, platform.now + SLICE_SIM_S))
            workload.on_slice(platform)
            reply(wall_s=time.perf_counter() - started, done=platform.now >= end_sim)
        elif command == "finish":
            workload.finish(platform)
            digest = hashlib.sha256()
            for part in (platform_fingerprint(platform), platform.slo.to_json(platform.now)):
                digest.update(part.encode())
            reply(export_sha256=digest.hexdigest())
            return


# ----------------------------------------------------------------------
# Parent: two children, A B B A
# ----------------------------------------------------------------------
class _Side:
    def __init__(self, label: str, tree: Path, argv) -> None:
        self.label = label
        self.tree = tree
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join((str(tree / "src"), str(tree)))
        env["PYTHONHASHSEED"] = "0"
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--child", *argv],
            cwd=str(tree), env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        self.walls = []

    def ask(self, command: str = "") -> dict:
        if command:
            self.process.stdin.write(command + "\n")
            self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"child {self.label} ({self.tree}) exited early")
        return json.loads(line)

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", type=Path, required=True, help="tree A (the baseline)")
    parser.add_argument("--b", type=Path, required=True, help="tree B (the change)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20260926)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _child(args.workload, args.seed, args.seconds, args.scale)
        return 0

    child_argv = [
        "--a", ".", "--b", ".", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--scale", str(args.scale),
    ]
    sides = [
        _Side("A", args.a.resolve(), child_argv),
        _Side("B", args.b.resolve(), child_argv),
    ]
    try:
        for side in sides:
            side.ask()  # ready: built and warmed up, untimed
        index, done = 0, False
        while not done:
            order = sides if index % 2 == 0 else sides[::-1]
            replies = []
            for side in order:
                reply = side.ask("step")
                side.walls.append(reply["wall_s"])
                replies.append(reply["done"])
            if replies[0] != replies[1]:
                raise RuntimeError("the two trees' measured phases differ in length")
            done = replies[0]
            index += 1
        digests = [side.ask("finish")["export_sha256"] for side in sides]
    finally:
        for side in sides:
            side.close()

    a, b = sides
    total_a, total_b = sum(a.walls), sum(b.walls)
    slice_ratios = [wall_b / wall_a for wall_a, wall_b in zip(a.walls, b.walls) if wall_a > 0]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"scale {args.scale:g}: {len(a.walls)} slices each, A B B A")
    for side, total, digest in ((a, total_a, digests[0]), (b, total_b, digests[1])):
        print(f"{side.label}: {total:.3f} s measured  export_sha256 {digest}  ({side.tree})")
    print(f"B/A: {total_b / total_a:.4f}  (median slice ratio "
          f"{statistics.median(slice_ratios):.4f})")
    if digests[0] != digests[1]:
        print("export_sha256 differs: the trees did not run the same simulation")
        return 1
    return 0


if __name__ == "__main__":
    if "--child" in sys.argv:
        # Import the tree under test, not this script's directory.
        del sys.path[0]
    sys.exit(main())
