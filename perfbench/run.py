#!/usr/bin/env python3
"""The repository benchmark: pinned model-checking workloads via ``verify()``.

Run from the repository root::

    python3 perfbench/run.py --workload e9-sym --seed 1 --seconds 42 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, seed order

Each run is a fresh ``perfbench/workload.py`` process (so ``setup_s`` and
``peak_rss_mb`` are per run) started one after another -- the only other
load is ``e7-full-par2``'s two worker processes.  Runs repeat until
``--seconds`` of measurement is spent (the first is an unmeasured warm-up);
each run has a wall-clock timeout,
its process group is killed and reaped when it ends, and a crash, hang or
any deviation from the workload's pins counts as a failed run.

``--trace 0`` prints the end-to-end metrics (medians over the measured runs);
``--trace 1`` alternates traced and untraced runs and prints the per-layer
metrics of the traced ones plus the tracing overhead (traced minus untraced
``verify_s``).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads, metrics and what each layer
metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workload import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


#: Wall-clock limit of one run (a normal run takes 3-7 s on a 2-vCPU
#: Xeon VM); a hung run is killed at this point and counts as failed.
RUN_TIMEOUT_S = 60.0
#: How long a finished run's leftover processes (the multiprocessing
#: resource tracker) may take to exit before they are killed.
REAP_GRACE_S = 5.0


def _metric_units(section: str) -> dict[str, str]:
    """``{name: unit}`` of a metric section of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def _become_subreaper() -> None:
    """Adopt orphaned grandchildren (Linux), so every process a run leaves
    behind -- worker or resource tracker -- can be waited for."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        libc.prctl.restype = ctypes.c_int
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid: int) -> None:
    """Wait for every process of a finished run's group; kill stragglers."""
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-pgid, os.WNOHANG)
        except ChildProcessError:
            break
        if pid == 0:
            if time.monotonic() > deadline:
                _kill_group(pgid)
            time.sleep(0.01)
    # Without subreaper support orphans are not ours to wait for.
    _kill_group(pgid)


def run_once(name: str, seed: int, traced: bool, workdir: Path) -> dict:
    """One run in its own process group; returns its record (``ok`` false,
    with the reason in ``errors``, on a crash, timeout or pin mismatch)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name,
           "--seed", str(seed), "--trace", str(int(traced)),
           "--workdir", str(workdir)]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
        failure = None
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        out, err = proc.communicate()
        failure = f"timed out after {RUN_TIMEOUT_S:.0f} s"
    finally:
        _reap_group(proc.pid)
    wall = time.monotonic() - start
    if failure is None and proc.returncode != 0:
        failure = f"exit code {proc.returncode}: {err.strip()[-2000:]}"
    record = None
    if failure is None:
        try:
            record = json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            failure = f"no result record: {err.strip()[-2000:]}"
    if record is None:
        record = {"workload": name, "seed": seed, "traced": traced,
                  "ok": False, "errors": [failure]}
    record["wall_s"] = wall
    return record


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> list[dict]:
    """Repeat runs until *seconds* is spent (a run that would overrun the
    budget, judged by the median run so far, is not started).  The first
    run is an untraced warm-up (it compiles the ``.pyc`` files of a fresh
    checkout and warms the page cache): it is gated like every run but
    left out of the metrics.  With *trace*, the measured runs alternate
    traced/untraced, starting traced."""
    runs: list[dict] = []
    start = time.monotonic()
    minimum = 3 if trace else 2
    while True:
        elapsed = time.monotonic() - start
        if len(runs) >= minimum:
            typical = statistics.median(r["wall_s"] for r in runs)
            if elapsed + typical > seconds:
                break
        warmup = not runs
        traced = trace and len(runs) % 2 == 1
        record = run_once(name, seed, traced, workdir)
        record["warmup"] = warmup
        print("run " + json.dumps(record, sort_keys=True), flush=True)
        runs.append(record)
    return runs


def _summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values)}


def end_to_end(runs: list[dict]) -> dict:
    good = [r for r in runs if r["ok"] and not r["warmup"]]
    if not good:
        return {}
    samples = {
        "verify_s": [r["verify_s"] for r in good],
        "states_per_s": [r["states"] / r["verify_s"] for r in good],
        "setup_s": [r["setup_s"] for r in good],
        "cpu_s": [r["cpu_s"] for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
        "pinned_run_share": [sum(r["ok"] for r in runs) / len(runs)],
    }
    return {metric: _summary(values) for metric, values in samples.items()}


def per_layer(runs: list[dict], metrics) -> dict:
    measured = [r for r in runs if r["ok"] and not r["warmup"]]
    traced = [r for r in measured if r["traced"]]
    untraced = [r for r in measured if not r["traced"]]
    if not traced or not untraced:
        return {}
    out = {metric: _summary([r["layers"][metric] for r in traced])
           for metric in metrics if metric != "trace.overhead_s"}
    overhead = (statistics.median(r["verify_s"] for r in traced)
                - statistics.median(r["verify_s"] for r in untraced))
    out["trace.overhead_s"] = {"median": overhead, "min": overhead,
                               "max": overhead, "n": len(traced)}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0,
                        help="picks e7-full-resume's leg-1 state budget and, "
                             "for --workload all, the workload order")
    parser.add_argument("--seconds", type=float, default=42.0,
                        help="measurement time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from a "
              "full checkout of the repository", file=sys.stderr)
        return 2
    # Turn a termination request into an exit that runs the clean-up below
    # (and the kill/reap of the run in progress).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    _become_subreaper()
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))

    names = [args.workload] if args.workload != "all" else list(WORKLOADS)
    random.Random(args.seed).shuffle(names)
    units = _metric_units("per_layer" if args.trace else "end_to_end")
    print(f"perfbench seed={args.seed} workloads={names} "
          f"seconds={args.seconds:g} trace={args.trace}", flush=True)
    attempted = failed = 0
    metrics: dict = {}
    try:
        for name in names:
            runs = run_workload(name, args.seed, args.seconds,
                                bool(args.trace), workdir)
            attempted += len(runs)
            failed += sum(1 for r in runs if not r["ok"])
            summary = (per_layer(runs, units) if args.trace
                       else end_to_end(runs))
            print(f"{name} (seed {args.seed}, {len(runs)} runs):")
            for metric, unit in units.items():
                if metric not in summary:
                    print(f"  {metric:34s} n/a")
                    continue
                s = summary[metric]
                print(f"  {metric:34s} {s['median']:14.6g} {unit:6s} "
                      f"median of {s['n']} (min {s['min']:.6g}, "
                      f"max {s['max']:.6g})")
                key = metric if len(names) == 1 else f"{name}/{metric}"
                metrics[key] = {"value": s["median"], "unit": unit}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
