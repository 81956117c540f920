"""Benchmark for relu-knots: end-to-end runs, checks and a traced run.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src``. With
``--trace 0`` the workload runs whole rounds for ``--seconds`` seconds and
the last line reports the end-to-end metrics. With ``--trace 1`` half the
time runs untraced and half traced, and the last line reports the
per-layer metrics. Either way the outputs are checked (see checks.py).
``--workload all`` runs every workload in turn, each in a process of its
own. Scratch files go to ``.bench_work/`` and are removed at exit. Set-up
(import plus input generation) is repeated SETUPS times and reported as
its median.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("cli", "jsonio", "construct", "network", "spline", "canonical", "verify", "rational")
SETUPS = 15
E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "round_s": "s"}


def import_program():
    """A fresh import of relu_knots from this checkout's ``src``."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "relu_knots" or m.startswith("relu_knots.")]:
        del sys.modules[name]
    program = importlib.import_module("relu_knots")
    if not Path(program.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise ImportError(f"relu_knots comes from {program.__file__}, not {src}")
    modules = {"": program}
    for name in MODULES:
        modules[name] = importlib.import_module(f"relu_knots.{name}")
    return program, modules


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def keep(rounds: list, rnd) -> None:
    """Add a round; a later round is compared with the first and its
    outputs dropped, so memory does not grow with the number of rounds."""
    if rounds:
        rnd.differs = rnd.outputs != rounds[0].outputs
        rnd.outputs = None
    rounds.append(rnd)


def rounds_for(workload, seconds: float, probe: SpeedProbe) -> list:
    """Whole rounds until ``seconds`` have passed; at least one."""
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        keep(rounds, workload.run_round(probe))
    return rounds


def traced_rounds(workload, modules, seconds: float, rounds: list, probe: SpeedProbe) -> list:
    """Whole traced rounds until ``seconds`` have passed; the rounds join
    ``rounds``. Returns each round's tracer and reference seconds."""
    traced = []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        tracer = Tracer(modules, workload.layer_shape)
        tracer.install()
        probe.listener = tracer.probe_span
        try:
            with tracer.root():
                rnd = workload.run_round(None)
        finally:
            probe.listener = None
            tracer.remove()
        keep(rounds, rnd)
        traced.append((tracer, probe.measure(*tracer.bounds())[1]))
    return traced


def set_up(name: str, seed: int, work: Path, probe: SpeedProbe):
    """SETUPS fresh imports and input generations; the last one is used."""
    ref_times = []
    for _ in range(SETUPS):
        shutil.rmtree(work, ignore_errors=True)
        gc.collect()  # the garbage of the previous set-up is not charged to this one
        probe.sample()  # set-up is shorter than the sampling interval
        start = perf_counter()
        program, modules = import_program()
        workload = WORKLOADS[name](program, seed, work)
        workload.setup()
        ref_times.append(probe.measure(start, perf_counter())[1])
    return program, modules, workload, median(ref_times)


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    probe = SpeedProbe()
    probe.start()
    try:
        program, modules, workload, setup_s = set_up(name, seed, work, probe)
        rounds = rounds_for(workload, seconds / 2 if trace else seconds, probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        every = list(rounds)
        traced = traced_rounds(workload, modules, seconds / 2, every, probe) if trace else []
        probe.stop()
        problems = []
        if any(rnd.differs for rnd in every):
            problems.append("outputs differ between rounds of the same operations")
        problems += workload.check(every)
        counts = workload.counts()
    finally:
        probe.stop()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    result = {
        "correct": not problems,
        "attempted": sum(rnd.attempted for rnd in every),
        "failed": sum(rnd.failed for rnd in every),
    }
    human = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "round_s": (median(sum(rnd.ref_seconds.values()) for rnd in rounds), "s"),
        "round_wall_s": (median(sum(rnd.seconds.values()) for rnd in rounds), "s"),
    }
    for metric, phase, unit, per_round in workload.PHASES:
        ref = median(rnd.ref_seconds.get(phase, 0.0) for rnd in rounds)
        human[metric] = (per_round / ref if per_round else ref, unit)
    if trace:
        per_round = [t.metrics() for t, _ in traced]
        layers = {k: median(m[k] for m in per_round) for k in per_round[0]}
        layers.update(counts)
        layers["trace.overhead_s"] = median(ref for _, ref in traced) - human["round_s"][0]
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": human[k][0], "unit": u} for k, u in E2E_UNITS.items()}

    for k, (v, u) in human.items():
        print(f"{name:<10} {k:<22} {v:>14.6g} {u}")
    if trace:
        walls = [end - start for start, end in (t.bounds() for t, _ in traced)]
        gap = max(abs(wall - sum(v for k, v in m.items() if k.endswith(".self_s")))
                  for wall, m in zip(walls, per_round))
        print(f"{name:<10} traced round {median(walls):.4f} s wall (median); in every traced "
              f"round the self times add up to the wall time within {gap:.1e} s:")
        selfs = {k: v["value"] for k, v in metrics.items() if k.endswith(".self_s")}
        for k, v in sorted(selfs.items(), key=lambda kv: -kv[1]):
            print(f"{name:<10}   {k:<20} {v:>10.4f} s")
    for p in [e for rnd in every for e in rnd.errors][:10]:
        print(f"{name:<10} FAILED {p}")
    for p in problems[:20]:
        print(f"{name:<10} PROBLEM {p}")
    meta = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": len(rounds), "traced_rounds": len(traced),
        "backend": f"{program.Rational.__module__}.{program.Rational.__name__}",
        "python": platform.python_version(), "cores": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }
    print("meta " + json.dumps(meta))
    result["metrics"] = metrics
    return result


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "bits" if metric.endswith("max_bits") else "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0
    # one process per workload, one after the other, so that the peak
    # memory of one workload is not reported for the next
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        code = subprocess.run([sys.executable, __file__, *argv]).returncode
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
