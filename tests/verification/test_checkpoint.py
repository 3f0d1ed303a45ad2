"""Checkpoint/resume parity: a budgeted search chain must be bit-identical
to an uninterrupted run.

The contract under test (``verify(..., checkpoint=PATH)``):

* a run that stops at ``max_states`` persists its frontier, store links and
  counters atomically, and a later call with the same configuration resumes
  it under a fresh budget;
* the completed chain reports the same states/transitions/complete-state
  counts -- and, when the search fails, the same verdict and the same
  counterexample trace -- as a single uninterrupted run;
* a completed run consumes its checkpoint file;
* a checkpoint written by a *different* search configuration (symmetry,
  workload, backend, payload version) refuses to resume with
  :class:`CheckpointMismatch` instead of silently corrupting the search, and
  so does a truncated or corrupted file (the header digest must match).

Covers the level-boundary shape every BFS saves (serial compiled and object
kernels, both symmetry modes, hash compaction, the vectorized kernel, and
the parallel strategy before its pool spins up) and the DFS stack
(``deque``).  The sharded parallel shape has its own suite in
``test_parallel_engine.py``.
"""

import os
import pickle
import re

import pytest

from repro.system import System, Workload
from repro.verification import verify
from repro.verification.engine import CheckpointMismatch
from repro.verification.engine import checkpoint as checkpoint_mod

from verification_helpers import make_swmr_mutant


@pytest.fixture(scope="module")
def msi_swmr_mutant(msi_spec):
    return make_swmr_mutant(msi_spec)


def run_sliced(system, path, budgets, **mode):
    """Run the search as a chain of budgeted legs resuming one checkpoint.

    Every leg but the last must stop partial (with the checkpoint on disk
    and strictly more states than the leg before); the final leg's budget
    sits comfortably above the space, so it completes and consumes the file.
    """
    explored = 0
    for budget in budgets[:-1]:
        leg = verify(system, max_states=budget, checkpoint=path, **mode)
        assert leg.partial, f"budget {budget} should truncate the search"
        assert leg.ok, "no verdict may be reported from a truncated prefix"
        assert os.path.exists(path), "a truncated leg must persist a checkpoint"
        assert leg.states_explored > explored, "a resumed leg must progress"
        explored = leg.states_explored
    result = verify(system, max_states=budgets[-1], checkpoint=path, **mode)
    assert not os.path.exists(path), "a completed run consumes its checkpoint"
    return result


# Every checkpoint shape except the parallel engine's sharded one: the
# BFS level boundary (compiled / object / symmetry / hash-compaction /
# vectorized axes, and the parallel strategy's pre-spin-up phase, which
# runs the serial BFS driver on these small spaces) and the DFS stack.
CHECKPOINT_MODES = [
    dict(),
    dict(kernel="object"),
    dict(symmetry=True),
    dict(symmetry=True, hash_compaction=True),
    dict(kernel="vectorized"),
    dict(symmetry=True, kernel="vectorized"),
    dict(strategy="dfs"),
    dict(strategy="dfs", symmetry=True),
    dict(strategy="dfs", kernel="object"),
    dict(strategy="dfs", kernel="object", symmetry=True),
    dict(strategy="parallel"),
    dict(strategy="parallel", kernel="object", symmetry=True),
]


@pytest.mark.parametrize("mode", CHECKPOINT_MODES, ids=lambda m: "-".join(
    f"{k}={v}" for k, v in m.items()) or "compiled")
class TestResumeParity:
    def test_sliced_pass_matches_uninterrupted(self, msi_nonstalling,
                                               tmp_path, mode):
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=2))
        baseline = verify(system, **mode)
        assert baseline.ok and not baseline.partial

        path = str(tmp_path / "run.ckpt")
        result = run_sliced(system, path, [300, 600, 40_000], **mode)

        assert result.ok and not result.partial
        assert result.states_explored == baseline.states_explored
        assert result.transitions_explored == baseline.transitions_explored
        assert result.complete_states == baseline.complete_states

    def test_sliced_failure_verdict_and_trace_identical(
            self, msi_swmr_mutant, tmp_path, mode):
        """The violation must land in a *resumed* leg and still carry the
        exact trace an uninterrupted search reports (the traces themselves
        are replay-verified in test_engine.py)."""
        system = System(msi_swmr_mutant, num_caches=2,
                        workload=Workload(max_accesses_per_cache=2))
        baseline = verify(system, **mode)
        assert not baseline.ok and baseline.violation is not None

        path = str(tmp_path / "run.ckpt")
        cut = max(1, baseline.states_explored // 2)
        leg = verify(system, max_states=cut, checkpoint=path, **mode)
        assert leg.partial and leg.ok, (
            "the half-budget leg must stop before the violation"
        )
        result = verify(system, max_states=10 ** 6, checkpoint=path, **mode)

        assert not result.ok
        assert result.violation is not None
        assert str(result.violation) == str(baseline.violation)
        assert result.trace == baseline.trace
        assert result.states_explored == baseline.states_explored
        # A failing resumed run is finished, not truncated: the checkpoint
        # is consumed like any other completed search's.
        assert not os.path.exists(path)


class TestCheckpointLifecycle:
    def test_unbudgeted_completed_run_leaves_no_file(self, msi_nonstalling,
                                                     tmp_path):
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=2))
        path = str(tmp_path / "run.ckpt")
        result = verify(system, checkpoint=path)
        assert result.ok and not result.partial
        assert not os.path.exists(path)

    @pytest.mark.parametrize("kernel", ["vectorized", "compiled"])
    def test_resume_level_reported_in_stats(self, msi_nonstalling, tmp_path,
                                            kernel):
        """Every BFS saves at a level boundary and surfaces where the resume
        picked up."""
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=2))
        path = str(tmp_path / "run.ckpt")
        leg = verify(system, max_states=300, checkpoint=path, kernel=kernel)
        assert leg.partial
        result = verify(system, max_states=40_000, checkpoint=path,
                        kernel=kernel)
        assert result.ok
        assert result.stats["resume_level"] is not None
        assert result.stats["resume_level"] >= 1
        # A fresh (non-resumed) run reports None on the same key.
        fresh = verify(system, kernel=kernel)
        assert fresh.stats["resume_level"] is None


class TestMismatchRejection:
    @pytest.fixture
    def saved_checkpoint(self, msi_nonstalling, tmp_path):
        system = System(msi_nonstalling, num_caches=2,
                        workload=Workload(max_accesses_per_cache=2))
        path = str(tmp_path / "run.ckpt")
        leg = verify(system, max_states=300, checkpoint=path)
        assert leg.partial and os.path.exists(path)
        return system, path

    def test_symmetry_axis_mismatch(self, saved_checkpoint):
        system, path = saved_checkpoint
        with pytest.raises(CheckpointMismatch):
            verify(system, max_states=40_000, checkpoint=path, symmetry=True)

    def test_kernel_mismatch(self, saved_checkpoint):
        system, path = saved_checkpoint
        with pytest.raises(CheckpointMismatch):
            verify(system, max_states=40_000, checkpoint=path,
                   kernel="object")

    def test_workload_mismatch(self, msi_nonstalling, saved_checkpoint):
        _, path = saved_checkpoint
        other = System(msi_nonstalling, num_caches=2,
                       workload=Workload(max_accesses_per_cache=1))
        with pytest.raises(CheckpointMismatch):
            verify(other, max_states=40_000, checkpoint=path)

    def test_stale_payload_version(self, saved_checkpoint):
        """A well-formed header naming another payload version."""
        system, path = saved_checkpoint
        with open(path, "rb") as f:
            data = bytearray(f.read())
        magic, _version, digest = checkpoint_mod._HEADER.unpack_from(data)
        checkpoint_mod._HEADER.pack_into(data, 0, magic, 999, digest)
        with open(path, "wb") as f:
            f.write(data)
        with pytest.raises(CheckpointMismatch, match="payload version 999"):
            verify(system, max_states=40_000, checkpoint=path)

    def test_version_1_file_is_refused(self, saved_checkpoint):
        """Version 1 was a bare pickle with the version inside the payload
        (and serial BFS saved a mid-level ``deque`` then)."""
        system, path = saved_checkpoint
        with open(path, "rb") as f:
            f.seek(checkpoint_mod._HEADER.size)
            payload = pickle.load(f)
        payload.update(version=1, mode="deque", level=None)
        with open(path, "wb") as f:
            pickle.dump(payload, f)
        with pytest.raises(CheckpointMismatch, match=re.escape(repr(path))):
            verify(system, max_states=40_000, checkpoint=path)

    def test_truncated_file_is_refused(self, saved_checkpoint):
        system, path = saved_checkpoint
        os.truncate(path, os.path.getsize(path) // 2)
        with pytest.raises(CheckpointMismatch, match="corrupt"):
            verify(system, max_states=40_000, checkpoint=path)

    def test_flipped_body_byte_is_refused(self, saved_checkpoint):
        system, path = saved_checkpoint
        with open(path, "r+b") as f:
            f.seek((checkpoint_mod._HEADER.size + os.path.getsize(path)) // 2)
            byte = f.read(1)
            f.seek(-1, os.SEEK_CUR)
            f.write(bytes([byte[0] ^ 0x01]))
        with pytest.raises(CheckpointMismatch, match="corrupt"):
            verify(system, max_states=40_000, checkpoint=path)

    def test_budget_and_worker_count_are_not_bound(self, msi_nonstalling,
                                                   saved_checkpoint):
        """Resuming under a different budget is the whole point; the
        fingerprint deliberately excludes ``max_states``."""
        system, path = saved_checkpoint
        result = verify(system, max_states=40_000, checkpoint=path)
        assert result.ok and not result.partial
