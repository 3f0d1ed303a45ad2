"""One benchmark run, in a fresh process: set up a workload, verify, gate.

Run from the repository root (``perfbench/run.py`` starts it)::

    PYTHONPATH=src python3 perfbench/workload.py --workload e9-sym \
        --seed 1 --trace 0 --workdir perfbench/.work-manual

The run builds its workload through the public API (``generate()``,
``System(...)``, the kernel builders), calls ``verify()``, checks the result
against the workload's pins and prints one JSON record as the last line of
its standard output.  With ``--trace 1`` it first wraps the layer boundaries
(:mod:`tracing`) and adds the per-layer numbers to the record.
"""

import time

# setup_s runs from here -- before the first repro (and NumPy) import -- to
# the first verify() call.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

#: Exhaustive pins: every run must land on exactly these counts with a PASS.
E7_STATES, E7_TRANSITIONS = 174_189, 449_079
E9_SYM_STATES, E9_SYM_TRANSITIONS = 75_148, 194_882

#: name -> how the run builds and verifies it.  ``kernel``/``strategy`` are
#: what the run requests and what ``result.kernel``/``result.strategy`` must
#: report back, so a silent backend fallback fails the gate.
WORKLOADS = {
    "e9-sym": dict(
        protocol="MSI-Unordered", config="nonstalling", unordered=True,
        symmetry=True, kernel="compiled", strategy="bfs", processes=None,
        resume=False, states=E9_SYM_STATES, transitions=E9_SYM_TRANSITIONS),
    "e7-full-par2": dict(
        protocol="MSI", config="stalling", unordered=False, symmetry=False,
        kernel="compiled", strategy="parallel", processes=2, resume=False,
        states=E7_STATES, transitions=E7_TRANSITIONS),
    "e7-full-resume": dict(
        protocol="MSI", config="stalling", unordered=False, symmetry=False,
        kernel="vectorized", strategy="bfs", processes=None, resume=True,
        states=E7_STATES, transitions=E7_TRANSITIONS),
}

#: Leg 1 of ``e7-full-resume`` stops at a state budget drawn by the seed from
#: this share range of the full space (the vectorized search then saves at
#: the level boundary below the budget).
RESUME_BUDGET_SHARE = (0.45, 0.55)


def resume_budget(seed: int, states: int) -> int:
    low, high = RESUME_BUDGET_SHARE
    return random.Random(seed).randint(int(low * states), int(high * states))


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def run(name: str, seed: int, traced: bool, workdir: str) -> dict:
    spec = WORKLOADS[name]
    timings = {}
    mark = time.perf_counter()

    def lap(key):
        nonlocal mark
        now = time.perf_counter()
        timings[key] = now - mark
        mark = now

    from repro import protocols
    from repro.core import GenerationConfig, generate
    from repro.dsl.types import AccessKind
    from repro.system import System, Workload
    from repro.verification import verify
    lap("setup.import_s")

    config = (GenerationConfig.stalling() if spec["config"] == "stalling"
              else GenerationConfig.nonstalling())
    generated = generate(protocols.load(spec["protocol"]), config)
    lap("core.generate_s")
    if spec["unordered"]:
        workload = Workload(max_accesses_per_cache=2,
                            access_kinds=(AccessKind.LOAD, AccessKind.STORE))
    else:
        workload = Workload(max_accesses_per_cache=2)
    system = System(generated, num_caches=3, workload=workload,
                    ordered=not spec["unordered"])
    lap("system.build_s")
    system.kernel()
    lap("system.kernel_build_s")
    if spec["kernel"] == "vectorized":
        system.vectorized_kernel()
    lap("system.vectorized_build_s")
    if spec["symmetry"]:
        system.symmetry_permutations()
    lap("system.perms_s")
    setup_s = time.perf_counter() - _T0

    tracer = None
    if traced:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)

    run_verify = verify if tracer is None else tracer.timed("search", verify)

    def call(**extra):
        kwargs = dict(symmetry=spec["symmetry"], kernel=spec["kernel"],
                      strategy=spec["strategy"], processes=spec["processes"],
                      **extra)
        start = time.perf_counter()
        result = run_verify(system, **kwargs)
        return result, time.perf_counter() - start

    errors = []
    self_before = resource.getrusage(resource.RUSAGE_SELF)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    if spec["resume"]:
        path = os.path.join(workdir, f"resume-{os.getpid()}.ckpt")
        if os.path.exists(path):
            os.remove(path)
        budget = resume_budget(seed, spec["states"])
        leg1, leg1_s = call(max_states=budget, checkpoint=path)
        if not (leg1.ok and leg1.partial):
            errors.append(f"leg 1 not a partial PASS: {leg1.summary}")
        if not os.path.exists(path):
            errors.append("leg 1 left no checkpoint")
        result, leg2_s = call(checkpoint=path)
        if os.path.exists(path):
            errors.append("leg 2 did not consume the checkpoint")
            os.remove(path)
        if result.stats.get("resume_level") is None:
            errors.append("leg 2 did not resume")
        legs = [leg1, result]
        verify_s = leg1_s + leg2_s
    else:
        budget = None
        result, verify_s = call()
        legs = [result]
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    parent_cpu = _cpu(self_after) - _cpu(self_before)
    worker_cpu = _cpu(children_after) - _cpu(children_before)

    def stat_sum(key):
        return sum(leg.stats.get(key) or 0 for leg in legs)

    observed = (result.ok, result.partial, result.states_explored,
                result.transitions_explored, result.kernel, result.strategy,
                result.symmetry_reduced)
    pinned = (True, False, spec["states"], spec["transitions"],
              spec["kernel"], spec["strategy"], spec["symmetry"])
    if observed != pinned:
        errors.append(f"(ok, partial, states, transitions, kernel, strategy, "
                      f"symmetry) = {observed}, pinned {pinned}")
    if stat_sum("decode_count") != 0:
        errors.append(f"decode_count {stat_sum('decode_count')} != 0")
    if spec["kernel"] == "vectorized" and stat_sum("fallback_transitions"):
        errors.append(f"fallback_transitions "
                      f"{stat_sum('fallback_transitions')} != 0")

    record = {
        "workload": name, "seed": seed, "traced": traced,
        "resume_budget": budget,
        "verify_s": verify_s,
        "setup_s": setup_s,
        "cpu_s": parent_cpu + worker_cpu,
        "peak_rss_mb": self_after.ru_maxrss / 1024,
        "states": result.states_explored,
        "transitions": result.transitions_explored,
    }
    if tracer is not None:
        tracer.restore()
        layers = dict(timings)
        layers.update(_layer_metrics(
            tracer, spec, legs, stat_sum, verify_s=verify_s,
            parent_cpu=parent_cpu, worker_cpu=worker_cpu,
            worker_rss_mb=children_after.ru_maxrss / 1024))
        errors.extend(_trace_sanity(tracer, layers, stat_sum, verify_s))
        record["layers"] = layers
    record["errors"] = errors
    record["ok"] = not errors
    return record


def _layer_metrics(tracer, spec, legs, stat_sum, *, verify_s, parent_cpu,
                   worker_cpu, worker_rss_mb) -> dict:
    from tracing import STORE_SPANS

    get = tracer.get
    levels = get("vectorized.collect_level")
    store = [get(name) for name in STORE_SPANS]
    rows = sum(entry[3] for entry in store)
    parallel = spec["strategy"] == "parallel"
    worker_states = legs[-1].stats.get("worker_states") or []
    return {
        "kernel.enabled_s": get("kernel.enabled")[0],
        "kernel.enabled_calls": get("kernel.enabled")[2],
        "kernel.check_s": get("kernel.check")[0],
        "kernel.check_calls": get("kernel.check")[2],
        "codec.pack_s": get("codec.pack")[0],
        "codec.pack_calls": get("codec.pack")[2],
        "codec.decode_count": stat_sum("decode_count"),
        "vectorized.collect_level_s": levels[0],
        "vectorized.assemble_s": get("vectorized.assemble")[0],
        "vectorized.check_level_s": get("vectorized.check_level")[0],
        "vectorized.levels": levels[2],
        "vectorized.mean_batch_width":
            levels[3] / levels[2] if levels[2] else 0.0,
        "vectorized.fallback_transitions": stat_sum("fallback_transitions"),
        "canonical.canonicalize_s": get("canonical.canonicalize")[0],
        "canonical.calls": get("canonical.canonicalize")[2],
        "canonical.calls_per_transition":
            get("canonical.canonicalize")[2] / spec["transitions"],
        "store.intern_s": sum(entry[0] for entry in store),
        "store.intern_rows": rows,
        "store.new_per_attempt":
            sum(entry[4] for entry in store) / rows if rows else 0.0,
        "parallel.spinup_s": get("parallel.spinup")[0],
        "parallel.drive_s": get("parallel.drive")[0],
        "parallel.shutdown_s": get("parallel.shutdown")[0],
        "parallel.parent_wait_s": verify_s - parent_cpu if parallel else 0.0,
        "parallel.worker_cpu_s": worker_cpu if parallel else 0.0,
        "parallel.worker_peak_rss_mb": worker_rss_mb if parallel else 0.0,
        "parallel.cpu_per_state_us":
            (parent_cpu + worker_cpu) / spec["states"] * 1e6,
        "parallel.worker_imbalance":
            max(worker_states) / statistics.fmean(worker_states)
            if worker_states else 0.0,
        "parallel.steal_count": stat_sum("steal_count"),
        "parallel.spill_bytes": stat_sum("spill_bytes"),
        "checkpoint.save_s": get("checkpoint.save")[0],
        "checkpoint.load_s": get("checkpoint.load")[0],
        "checkpoint.bytes": get("checkpoint.save")[3],
        "checkpoint.resume_level": legs[-1].stats.get("resume_level") or 0,
        "search.self_s": get("search")[1],
    }


def _trace_sanity(tracer, layers, stat_sum, verify_s) -> list[str]:
    """The wrappers must observe the search without changing it (the pin
    gate in :func:`run` covers the counts and ``decode_count``)."""
    errors = []
    ours = layers["canonical.canonicalize_s"]
    program = stat_sum("canonicalization_seconds")
    # The program times each canonicalize call around the wrapper, so its
    # figure also holds the wrapper's own cost.
    if abs(ours - program) > 0.1 * program + 0.01:
        errors.append(f"canonical.canonicalize_s {ours:.4f} disagrees with "
                      f"stats canonicalization_seconds {program:.4f}")
    batches = stat_sum("expansion_batches")
    if layers["vectorized.levels"] != batches:
        errors.append(f"vectorized.levels {layers['vectorized.levels']} != "
                      f"stats expansion_batches {batches}")
    self_total = sum(entry[1] for entry in tracer.totals.values())
    if self_total > verify_s * (1 + 1e-9):
        errors.append(f"layer self times sum to {self_total:.4f} s, more "
                      f"than verify_s {verify_s:.4f} s")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True,
                        help="directory for the resume workload's checkpoint")
    args = parser.parse_args(argv)
    record = run(args.workload, args.seed, bool(args.trace), args.workdir)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
