"""Shared-memory parallel engine: forced spin-up correctness suite.

The engine only forks its worker fleet once a frontier crosses
``POOL_SPINUP_FRONTIER``; these tests pin the threshold to 0 so every
search -- even the small two-cache spaces the fast tier can afford --
actually exercises the zero-copy arenas, the work-stealing chunk claims,
the owner-sharded dedup and the sharded checkpoint, rather than the
in-process warm-up path.

Contracts under test:

* count parity with the serial engine across the symmetry / hash-compaction
  / kernel axes (the engine shares the serial search's canonical frames, so
  states, transitions and complete-state counts must match exactly);
* failure verdicts (protocol error, SWMR violation, deadlock) survive the
  fleet: the winning counterexample replays step-by-step through
  ``System.apply``.  Which equal-depth counterexample wins is
  schedule-dependent after sharded dedup, so traces are replay-verified
  rather than compared to the serial run's;
* cold visited-set partitions spill to disk when a ``spill_dir`` is given
  (forced here with a tiny threshold) without changing any count;
* a sharded checkpoint resumes under a *different* worker count -- the
  digest dumps are re-sharded on seed -- and still lands on the serial
  totals;
* a worker that dies without reporting fails the search loudly
  (``WorkerLost``) instead of hanging it, and leaves no process behind.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.system import System, Workload
from repro.verification import verify
from repro.verification.engine import parallel as parallel_mod
from repro.verification.engine import search as search_mod
from repro.verification.engine.shard import SpillableKeySet

from verification_helpers import (
    MessageDroppingSystem,
    make_missing_inv_mutant,
    make_swmr_mutant,
    replay_and_check,
)


@pytest.fixture(autouse=True)
def force_spinup(monkeypatch):
    monkeypatch.setattr(search_mod, "POOL_SPINUP_FRONTIER", 0)


@pytest.fixture(scope="module")
def msi_missing_inv_mutant(msi_spec):
    return make_missing_inv_mutant(msi_spec)


@pytest.fixture(scope="module")
def msi_swmr_mutant(msi_spec):
    return make_swmr_mutant(msi_spec)


def forced_parallel(system, **kwargs):
    kwargs.setdefault("processes", 2)
    result = verify(system, strategy="parallel", **kwargs)
    if result.strategy != "parallel":  # fork unavailable: serial fallback
        pytest.skip("parallel strategy unavailable on this platform")
    return result


PARITY_MODES = [
    dict(),
    dict(symmetry=True),
    dict(symmetry=True, hash_compaction=True),
    dict(kernel="object"),
    dict(kernel="object", symmetry=True),
]


@pytest.mark.parametrize("mode", PARITY_MODES, ids=lambda m: "-".join(
    f"{k}={v}" for k, v in m.items()) or "compiled")
def test_forked_search_matches_serial_counts(msi_nonstalling, mode):
    system = System(msi_nonstalling, num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))
    serial = verify(system, **mode)
    result = forced_parallel(system, **mode)

    assert result.ok == serial.ok is True
    assert result.states_explored == serial.states_explored
    assert result.transitions_explored == serial.transitions_explored
    assert result.complete_states == serial.complete_states
    assert len(result.stats["worker_states"]) == 2
    assert sum(result.stats["worker_states"]) > 0


class TestForkedFailureVerdicts:
    def test_protocol_error_trace(self, msi_missing_inv_mutant):
        system = System(msi_missing_inv_mutant, num_caches=2,
                        workload=Workload(max_accesses_per_cache=2))
        result = forced_parallel(system, symmetry=True)
        assert not result.ok and result.error is not None
        assert result.trace, "a counterexample trace must be reported"
        replay_and_check(system, result)

    def test_invariant_violation_trace(self, msi_swmr_mutant):
        system = System(msi_swmr_mutant, num_caches=2,
                        workload=Workload(max_accesses_per_cache=2))
        result = forced_parallel(system, symmetry=True)
        assert not result.ok and result.violation is not None
        assert result.violation.name == "SWMR"
        replay_and_check(system, result)

    def test_deadlock_trace(self, msi_stalling):
        """The dropped-message system overrides ``enabled_events``, which
        pushes the workers onto the object executor -- the fleet's
        decode-and-apply fallback gets exercised too."""
        system = MessageDroppingSystem(
            msi_stalling, num_caches=2,
            workload=Workload(max_accesses_per_cache=1),
            dropped_mtype="GetM",
        )
        result = forced_parallel(system, symmetry=True)
        assert not result.ok and result.deadlock
        replay_and_check(system, result)


def test_spill_dir_bounds_shards_without_changing_counts(
        msi_nonstalling, tmp_path, monkeypatch):
    """A tiny spill threshold forces every worker shard onto the cold tier;
    membership answers must come back from the sorted disk runs with the
    same totals, and the spilled bytes must be reported."""
    class TinySpill(SpillableKeySet):
        def __init__(self, spill_dir=None, **kwargs):
            kwargs.setdefault("spill_threshold", 64)
            super().__init__(spill_dir, **kwargs)

    monkeypatch.setattr(parallel_mod, "SpillableKeySet", TinySpill)
    system = System(msi_nonstalling, num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))
    serial = verify(system, symmetry=True, hash_compaction=True)
    result = forced_parallel(system, symmetry=True, hash_compaction=True,
                             spill_dir=str(tmp_path))

    assert result.ok
    assert result.states_explored == serial.states_explored
    assert result.transitions_explored == serial.transitions_explored
    assert result.complete_states == serial.complete_states
    assert result.stats["spill_bytes"] > 0


def test_sharded_checkpoint_resumes_under_different_worker_count(
        msi_nonstalling, tmp_path):
    """The checkpoint carries worker digest dumps, not a key dict; seeding
    re-shards them, so leg 2 may run a different fleet size than leg 1 and
    must still land on the uninterrupted totals."""
    system = System(msi_nonstalling, num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))
    serial = verify(system, symmetry=True)
    path = str(tmp_path / "run.ckpt")

    cut = max(2, serial.states_explored // 2)
    leg = forced_parallel(system, symmetry=True, max_states=cut,
                          checkpoint=path)
    assert leg.partial and leg.ok
    assert os.path.exists(path), "the budgeted leg must persist a checkpoint"

    result = forced_parallel(system, symmetry=True, processes=3,
                             max_states=10 ** 6, checkpoint=path)
    assert result.ok and not result.partial
    assert result.stats["resume_level"] is not None
    assert result.states_explored == serial.states_explored
    assert result.transitions_explored == serial.transitions_explored
    assert result.complete_states == serial.complete_states
    assert len(result.stats["worker_states"]) == 3
    assert not os.path.exists(path), "a completed run consumes its checkpoint"


def test_lost_worker_fails_loudly_instead_of_hanging(msi_stalling,
                                                     monkeypatch):
    """A worker killed without a word (SIGKILL, the OOM killer) must raise
    WorkerLost naming it, and shutdown must reap the survivors."""
    spinup = parallel_mod.ShmEngine.spinup

    def spinup_then_kill(self, **seed):
        spinup(self, **seed)
        threading.Thread(target=os.kill,
                         args=(self.procs[0].pid, signal.SIGKILL)).start()

    monkeypatch.setattr(parallel_mod.ShmEngine, "spinup", spinup_then_kill)
    system = System(msi_stalling, num_caches=2,
                    workload=Workload(max_accesses_per_cache=2))

    def hung(signum, frame):
        raise TimeoutError("verify hung on a lost worker")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)  # a regression fails here instead of hanging the suite
    start = time.monotonic()
    try:
        with pytest.raises(parallel_mod.WorkerLost) as lost:
            forced_parallel(system)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 15
    assert lost.value.wid == 0
    assert lost.value.exitcode == -signal.SIGKILL
    assert lost.value.level is not None
    assert multiprocessing.active_children() == []
