"""Benchmark entry point: runs one workload in fresh processes, checks its
outputs and prints its metrics.

    python3 perfbench/run.py --workload zeus-flagship [--seed N]
        [--seconds S] [--trace 0|1] [--size full|smoke]

Run from the repository root.  Every measurement runs in a fresh
``worker.py`` process, so peak RSS belongs to that workload alone.

``--trace 0`` (default) runs untraced processes until their measured
phases add up to ``--seconds`` (at least one), plus the workload's
set-up-only processes, and reports each end-to-end metric as the median
over them.  ``--trace 1`` runs one untraced and one traced process
(side by side when the host has the cores) and reports the per-layer
metrics; the traced process writes its spans to
``perfbench/out/spans-<workload>-<seed>.json``.  Without ``--seed`` the
workload's default seed is used.

The human-readable table comes first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (names and units from BENCHMARK.json).  Exits non-zero,
without that line, if the program's sources are missing or a worker
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Wall-clock budget of one invocation, kept under three minutes.
BUDGET_S = 170.0

#: Per workload: default seed, set-up-only processes added per run so
#: that ``setup_s`` is a median (only where set-up is cheap next to the
#: run), the sweep's pool size (``workers``; the captures run in one
#: process), and the output hash recorded at the default seed per size.
WORKLOADS = json.loads((HERE / "workloads.json").read_text())


class WorkerError(RuntimeError):
    pass


def start_worker(args: List[str]) -> subprocess.Popen:
    """Start worker.py in its own process group."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # The workload seed also fixes str/bytes hashing, so all runs of a
    # seed share one dict and set layout; outputs do not depend on it.
    env["PYTHONHASHSEED"] = str(int(args[args.index("--seed") + 1]) % 2**32)
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        start_new_session=True,
    )


def finish_worker(proc: subprocess.Popen, deadline: float) -> Dict[str, Any]:
    """Wait for a worker's result; kill its whole process group if it
    outlives ``deadline``."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"worker {proc.args[2:]} ran past the time budget")
    if proc.returncode != 0:
        raise WorkerError(f"worker {proc.args[2:]} exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def run_worker(args: List[str], deadline: float) -> Dict[str, Any]:
    return finish_worker(start_worker(args), deadline)


def load_metric_units() -> Tuple[Dict[str, str], Dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def measure_untraced(
    base: List[str], seconds: float, extra_setups: int, deadline: float
) -> Tuple[List[Dict[str, Any]], List[float]]:
    """Untraced runs until their measured phases add up to ``seconds``
    (at least one, and none that would overrun the budget), then the
    set-up-only runs.  Returns the run results and set-up times."""
    samples: List[Dict[str, Any]] = []
    while True:
        started = time.monotonic()
        samples.append(run_worker(base, deadline))
        took = time.monotonic() - started
        if sum(s["run_s"] for s in samples) >= seconds or time.monotonic() + took > deadline:
            break
    setups = [s["setup_s"] for s in samples]
    setups += [run_worker(base + ["--setup-only"], deadline)["setup_s"] for _ in range(extra_setups)]
    return samples, setups


def measure_traced(
    base: List[str], span_file: Path, busy_processes: int, deadline: float
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One untraced and one traced run.  They run side by side when the
    host has a core for every busy process of both (a traced capture
    then fits the time budget), else one after the other."""
    traced_args = base + ["--spans", str(span_file)]
    if (os.cpu_count() or 1) <= busy_processes:
        return run_worker(base, deadline), run_worker(traced_args, deadline)
    procs = [start_worker(base), start_worker(traced_args)]
    try:
        return finish_worker(procs[0], deadline), finish_worker(procs[1], deadline)
    finally:
        for proc in procs:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    default_seed = workload["default_seed"]
    seed = default_seed if args.seed is None else args.seed
    end_to_end_units, per_layer_units = load_metric_units()
    deadline = time.monotonic() + BUDGET_S
    base = ["--workload", args.workload, "--seed", str(seed), "--size", args.size]
    span_file = OUT / f"spans-{args.workload}-{seed}.json"
    traced = None
    try:
        if args.trace:
            OUT.mkdir(exist_ok=True)
            sample, traced = measure_traced(base, span_file, workload.get("workers", 1), deadline)
            samples, setups = [sample], [sample["setup_s"]]
        else:
            samples, setups = measure_untraced(base, args.seconds, workload["extra_setups"], deadline)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    checks: List[Tuple[str, bool]] = []
    for sample in samples + ([traced] if traced else []):
        checks.extend((name, bool(ok)) for name, ok in sample["checks"])
    hashes = {s["hash"] for s in samples}
    if len(samples) > 1:
        checks.append(("repeated runs agree", len(hashes) == 1))
    expected = workload["expected_hash"][args.size]
    if seed == default_seed and expected is not None:
        checks.append(("output hash matches the recorded one", hashes == {expected}))
    if traced:
        checks.append(("traced run reproduces the untraced outputs", hashes == {traced["hash"]}))
    failed = sum(1 for _, ok in checks if not ok)

    end_to_end = {
        "setup_s": (statistics.median(setups), len(setups)),
        "run_s": (statistics.median(s["run_s"] for s in samples), len(samples)),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in samples), len(samples)),
    }
    print(f"workload {args.workload}  seed {seed}  size {args.size}  hash {samples[0]['hash']}")
    for name, (value, n) in end_to_end.items():
        print(f"  {name:<28} {value:>14.6g} {end_to_end_units[name]:<6} n={n}")
    print(f"  {'failed_share':<28} {failed / len(checks):>14.6g} {'ratio':<6} n={len(checks)}")
    for name, ok in checks:
        if not ok:
            print(f"  FAILED CHECK: {name}")

    if traced:
        # runner.* come from the untraced run; they are 0 without a sweep.
        layers = dict.fromkeys((n for n in per_layer_units if n.startswith("runner.")), 0)
        layers.update(traced["layers"])
        layers.update(samples[0].get("runner", {}))
        layers["trace_overhead"] = traced["run_s"] / samples[0]["run_s"]
        print(f"  per-layer (traced run, n=1; spans in {span_file.relative_to(ROOT)})")
        for name in per_layer_units:
            print(f"  {name:<28} {layers[name]:>14.6g} {per_layer_units[name]:<6} n=1")
        metrics = {n: {"value": layers[n], "unit": u} for n, u in per_layer_units.items()}
    else:
        metrics = {
            n: {"value": end_to_end[n][0], "unit": u} for n, u in end_to_end_units.items()
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
