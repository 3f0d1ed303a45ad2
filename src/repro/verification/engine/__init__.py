"""Symmetry-reduced, parallel-capable verification engine.

The engine is the repo's Murphi stand-in, rebuilt from the seed's flat BFS
explorer into cooperating modules:

* :mod:`~repro.verification.engine.canonical` -- cache-ID permutation
  algebra and scalarset-style state canonicalization;
* :mod:`~repro.verification.engine.store` -- interned state store with
  columnar parent links and optional hash compaction;
* :mod:`~repro.verification.engine.expand` -- the one per-state expander
  (over the compiled kernel or the object executor) and the BFS level loop;
* :mod:`~repro.verification.engine.search` -- pluggable search strategies
  (BFS, DFS, fork-based parallel BFS), drivers over that expander;
* :mod:`~repro.verification.engine.parallel` /
  :mod:`~repro.verification.engine.shard` -- the shared-memory parallel
  scale-out: zero-copy frontier arenas, work-stealing chunk claims, and
  digest-sharded (disk-spillable) visited sets;
* :mod:`~repro.verification.engine.checkpoint` -- budget checkpoint/resume
  for all of the above;
* :mod:`~repro.verification.engine.core` -- the :func:`verify` facade tying
  them together, including permutation-correct counterexample traces.

``verify(system)`` behaves exactly like the seed explorer;
``verify(system, symmetry=True)`` explores one representative per
cache-permutation orbit, which is what makes three-cache, two-access
workloads tractable (E7--E10).
"""

from repro.verification.engine.canonical import (
    Permutation,
    canonicalize,
    canonicalize_bruteforce,
    canonicalize_bruteforce_encoded,
    canonicalize_encoded,
    compose,
    identity_permutation,
    invert,
    relabel_event,
)
from repro.verification.engine.checkpoint import CheckpointMismatch
from repro.verification.engine.core import Exploration, VerificationResult, verify
from repro.verification.engine.parallel import ShmEngine, WorkerLost
from repro.verification.engine.shard import SpillableKeySet, digest128
from repro.verification.engine.search import (
    BreadthFirst,
    DepthFirst,
    ParallelBreadthFirst,
    SearchStrategy,
    resolve_strategy,
)
from repro.verification.engine.store import StateStore

__all__ = [
    "BreadthFirst",
    "CheckpointMismatch",
    "DepthFirst",
    "Exploration",
    "ParallelBreadthFirst",
    "Permutation",
    "SearchStrategy",
    "ShmEngine",
    "SpillableKeySet",
    "StateStore",
    "VerificationResult",
    "WorkerLost",
    "digest128",
    "canonicalize",
    "canonicalize_bruteforce",
    "canonicalize_bruteforce_encoded",
    "canonicalize_encoded",
    "compose",
    "identity_permutation",
    "invert",
    "relabel_event",
    "resolve_strategy",
    "verify",
]
