"""The :func:`verify` facade and its shared exploration context.

This module replaces the seed's monolithic BFS explorer with an engine that
composes three orthogonal pieces:

* **symmetry reduction** (:mod:`repro.verification.engine.canonical`) --
  cache-ID canonicalization before de-duplication, mirroring Murphi
  scalarsets; off by default so existing callers see bit-identical state
  counts, enabled with ``verify(system, symmetry=True)``;
* **an interned state store** (:mod:`repro.verification.engine.store`) --
  dense integer IDs and columnar parent links instead of a
  ``dict[GlobalState, (GlobalState, SystemEvent)]`` parent map, with
  optional hash compaction;
* **pluggable search strategies** (:mod:`repro.verification.engine.search`)
  -- breadth-first (default), depth-first, and a fork-based multiprocessing
  breadth-first search that shards the frontier across worker processes --
  all driving the one per-state expander
  (:mod:`repro.verification.engine.expand`).

Counterexample traces remain valid under symmetry reduction: every stored
transition records the permutation that canonicalized its successor, and
:meth:`Exploration.trace_events` relabels each event back through the
inverse of the accumulated permutation chain, so the reported event sequence
replays step-by-step through :meth:`repro.system.System.apply` from the real
initial state.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.system.system import System, SystemEvent
from repro.verification.engine.canonical import (
    Permutation,
    canonicalize_encoded,
    compose,
    invert,
    relabel_event,
)
from repro.verification.engine import checkpoint as checkpoint_mod
from repro.verification.engine.expand import Expander
from repro.verification.engine.store import StateStore
from repro.verification.invariants import (
    Invariant,
    InvariantViolation,
    compiled_invariant_codes,
    default_invariants,
)


@dataclass
class VerificationResult:
    """Outcome of an exhaustive exploration."""

    ok: bool
    states_explored: int
    transitions_explored: int
    elapsed_seconds: float
    violation: InvariantViolation | None = None
    error: str | None = None
    deadlock: bool = False
    truncated: bool = False
    trace: list[str] = field(default_factory=list)
    complete_states: int = 0
    #: The counterexample as replayable events (``trace`` is their ``str`` form).
    trace_events: list[SystemEvent] = field(default_factory=list)
    #: Whether cache-ID symmetry reduction was applied during the search.
    symmetry_reduced: bool = False
    #: Name of the search strategy that produced this result.
    strategy: str = "bfs"
    #: Which transition backend expanded states: "compiled" (the lowered
    #: table kernel over encoded states) or "object" (the dataclass executor).
    kernel: str = "object"
    #: Measured search breakdown, so bottleneck claims come from numbers
    #: instead of inference: ``kernel`` / ``strategy`` (the backends that
    #: ran), ``decode_count`` (``GlobalState`` decodes across the search,
    #: worker processes included -- 0 for a passing compiled-kernel search,
    #: reduced or not), ``canonicalization_seconds`` (CPU seconds inside
    #: symmetry canonicalization; summed across workers for the parallel
    #: strategy) and ``expansion_seconds`` (everything else: successor
    #: generation, interning, invariant checks).  For multi-process
    #: searches the worker CPU sum is not comparable against the parent's
    #: wall-clock, so ``expansion_seconds`` is ``None`` there instead of a
    #: bogus subtraction.
    stats: dict = field(default_factory=dict)

    @property
    def partial(self) -> bool:
        """True when the search stopped at the ``max_states`` budget.

        A partial PASS means *no violation was found within the budget*, not
        that the protocol is verified: only the explored prefix of the state
        space is covered.  The perf-smoke CI job and the benchmark reporter
        use budgeted runs; callers that need full coverage should check this
        flag (or ``truncated``, its storage field) before trusting ``ok``.
        """
        return self.truncated

    @property
    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        extra = ""
        if self.violation is not None:
            extra = f" [{self.violation}]"
        elif self.error is not None:
            extra = f" [{self.error}]"
        elif self.deadlock:
            extra = " [deadlock]"
        if self.truncated:
            extra += " (partial: state budget exhausted)"
        return (
            f"{status}: {self.states_explored} states, "
            f"{self.transitions_explored} transitions, "
            f"{self.elapsed_seconds:.2f}s{extra}"
        )


class Exploration:
    """Mutable context shared between :func:`verify` and a search strategy.

    Holds the system under test, the invariants, the (optional) symmetry
    permutation group, the interned state store, and the running counters;
    provides the result constructors and the permutation-aware trace
    reconstruction so every strategy reports identically-shaped results.
    """

    def __init__(
        self,
        *,
        system: System,
        invariants: tuple[Invariant, ...],
        perms: tuple[Permutation, ...] | None,
        store: StateStore,
        max_states: int,
        check_deadlock: bool,
        strategy_name: str,
        kernel=None,
        kernel_codes: tuple[str, ...] | None = None,
        check_workload_deadlock: bool = False,
        vkernel=None,
        checkpoint_path: str | None = None,
        spill_dir: str | None = None,
    ):
        self.system = system
        self.codec = system.codec()
        self.invariants = invariants
        self.perms = perms
        self.store = store
        self.max_states = max_states
        self.check_deadlock = check_deadlock
        self.strategy_name = strategy_name
        #: Compiled :class:`~repro.system.kernel.TransitionKernel`, or None
        #: to interpret the object model (``System.apply``) directly.
        self.kernel = kernel
        #: Encoded evaluator codes for ``invariants`` (compiled mode only).
        self.kernel_codes = kernel_codes
        #: Report quiescent states that still hold unissued workload budget
        #: as deadlocks (``verify(..., deadlock=True)``).
        self.check_workload_deadlock = check_workload_deadlock
        #: :class:`~repro.system.vectorized.VectorizedKernel` for the
        #: frontier-batch BFS, or None.  Requires ``kernel`` (the compiled
        #: kernel stays on as the memo-miss oracle and the fallback).
        self.vkernel = vkernel
        #: The per-state expansion step every driver shares (over the
        #: compiled kernel, or the object executor when ``kernel`` is None).
        self.expander = Expander(
            system, invariants, perms, kernel_codes,
            check_deadlock=check_deadlock,
            check_workload_deadlock=check_workload_deadlock,
        )
        #: Set by the strategy that actually ran ("vectorized") to override
        #: the kernel/backed-off naming in :meth:`_result`; None means the
        #: compiled/object naming applies.
        self.kernel_name: str | None = None
        #: Batch telemetry (vectorized searches): levels expanded as one
        #: batch, total rows across those batches, and the split of applied
        #: transitions between the batch path and the serial-replay fallback.
        self.expansion_batches = 0
        self.batch_rows = 0
        self.vectorized_transitions = 0
        self.fallback_transitions = 0
        self.start = time.perf_counter()
        self.explored = 0
        self.transitions = 0
        self.complete_states = 0
        self.truncated = False
        #: ``GlobalState`` decodes reported back by worker processes (their
        #: codecs are private copies, so the parent counter cannot see them).
        self.worker_decodes = 0
        #: Worker-process count of a multi-process search, 0 when the
        #: search ran in this process (drives the stats time-split shape).
        self.parallel_workers = 0
        #: Where to save (and look for) a resumable budget checkpoint; None
        #: disables checkpointing entirely.
        self.checkpoint_path = checkpoint_path
        #: Directory for the parallel workers' cold visited-set runs; None
        #: keeps every shard fully in memory.
        self.spill_dir = spill_dir
        #: Loaded checkpoint payload (set by ``checkpoint.load``); strategies
        #: pick their frontier up from here instead of the root.
        self.resume: dict | None = None
        #: Frontier level the loaded checkpoint stopped at (None = fresh run).
        self.resume_level: int | None = None
        #: Shared-memory engine telemetry: chunk claims beyond one per worker
        #: per round (work actually stolen), states expanded per worker, and
        #: bytes of visited-set digests currently spilled to disk.
        self.steal_count = 0
        self.worker_states: list[int] | None = None
        self.spill_bytes = 0
        # Decode baseline: the codec is cached per system, so its counter
        # carries history from earlier searches; stats report the delta.
        self._decode_base = self.codec.decode_count
        #: Store ID and flat int-tuple encoding of the (canonical) root.
        self.root_id: int | None = None
        self.root_enc: tuple | None = None

    # -- setup -----------------------------------------------------------------
    def seed(self) -> VerificationResult | None:
        """Intern the (canonicalized, encoded) initial state and check it.

        Returns a failure result if an invariant is already violated in the
        initial state, ``None`` otherwise.
        """
        codec = self.codec
        initial = self.system.initial_state()
        enc = codec.encode(initial)
        root_perm: Permutation | None = None
        if self.perms is not None:
            enc, root_perm = canonicalize_encoded(enc, codec, self.perms)
            if root_perm != self.perms[0]:
                initial = codec.decode(enc)
        self.root_enc = enc
        self.root_id, _ = self.store.intern(codec.pack(enc), perm=root_perm)
        for invariant in self.invariants:
            violation = invariant(self.system, initial)
            if violation is not None:
                return self.failure(violation=violation, leaf_id=self.root_id)
        return None

    # -- trace reconstruction ----------------------------------------------------
    def trace_events(
        self, leaf_id: int, final_event: SystemEvent | None = None
    ) -> list[SystemEvent]:
        """Rebuild the root-to-leaf event sequence in the *concrete* frame.

        The store records events in the frame of each canonical parent.  Let
        ``sigma_i`` be the accumulated permutation mapping the concrete run
        to the canonical representatives (``sigma_0`` is the root's
        canonicalizing permutation).  The concrete event at step ``i+1`` is
        the stored event relabeled through ``sigma_i`` **inverse**, and
        ``sigma_{i+1} = perm_{i+1} . sigma_i`` where ``perm_{i+1}`` is the
        permutation that canonicalized the raw successor.  The resulting
        sequence replays through :meth:`System.apply` from
        :meth:`System.initial_state`.
        """
        links = self.store.chain(leaf_id)
        # links[0] belongs to the root: no event, just its canonicalizing perm.
        sigma = links[0][1]
        events: list[SystemEvent] = []
        decode_event = self.codec.decode_event
        for event, perm in links[1:]:
            assert event is not None
            if not isinstance(event, SystemEvent):
                # The hot path stores codec event encodings; traces are the
                # only consumer, so they decode lazily -- here, on failure.
                event = decode_event(event)
            events.append(relabel_event(event, None if sigma is None else invert(sigma)))
            if perm is not None:
                sigma = perm if sigma is None else compose(perm, sigma)
        if final_event is not None:
            events.append(
                relabel_event(final_event, None if sigma is None else invert(sigma))
            )
        return events

    # -- result constructors -----------------------------------------------------
    def _result(self, ok: bool, **kwargs) -> VerificationResult:
        elapsed = time.perf_counter() - self.start
        canon_seconds = self.expander.canon_seconds
        kernel = self.kernel_name or (
            "compiled" if self.kernel is not None else "object"
        )
        stats = {
            "kernel": kernel,
            "strategy": self.strategy_name,
            "decode_count": (
                self.codec.decode_count - self._decode_base + self.worker_decodes
            ),
            "canonicalization_seconds": round(canon_seconds, 6),
            # Worker canonicalization time is CPU summed across processes;
            # subtracting it from this process's wall-clock would fabricate
            # a split, so multi-process searches report no expansion figure.
            "expansion_seconds": (
                None
                if self.parallel_workers
                else round(max(0.0, elapsed - canon_seconds), 6)
            ),
        }
        stats["resume_level"] = self.resume_level
        if self.worker_states is not None:
            stats["steal_count"] = self.steal_count
            stats["worker_states"] = list(self.worker_states)
            stats["spill_bytes"] = self.spill_bytes
        if kernel == "vectorized":
            stats["expansion_batches"] = self.expansion_batches
            stats["mean_batch_width"] = (
                round(self.batch_rows / self.expansion_batches, 3)
                if self.expansion_batches
                else 0.0
            )
            stats["vectorized_transitions"] = self.vectorized_transitions
            stats["fallback_transitions"] = self.fallback_transitions
        return VerificationResult(
            ok=ok,
            states_explored=self.explored,
            transitions_explored=self.transitions,
            elapsed_seconds=elapsed,
            complete_states=self.complete_states,
            symmetry_reduced=self.perms is not None,
            strategy=self.strategy_name,
            kernel=kernel,
            stats=stats,
            **kwargs,
        )

    def _concretized(
        self,
        events: list[SystemEvent],
        violation: InvariantViolation | None,
        error: str | None,
    ) -> tuple[InvariantViolation | None, str | None]:
        """Re-derive failure details in the concrete frame of the trace.

        Under symmetry reduction the violation/error was produced while
        inspecting a *canonical* state, so its text mentions canonical cache
        IDs; the reconstructed trace, however, is relabeled to the concrete
        frame.  Replaying the trace once regenerates the same verdict with
        IDs consistent with the reported events.
        """
        state = self.system.initial_state()
        for event in events:
            outcome = self.system.apply(state, event)
            if outcome.error is not None:
                # Error traces end with the failing event by construction.
                return violation, outcome.error
            state = outcome.state
        if violation is not None:
            for invariant in self.invariants:
                concrete = invariant(self.system, state)
                if concrete is not None and concrete.name == violation.name:
                    return concrete, error
        return violation, error

    def failure(
        self,
        *,
        leaf_id: int | None = None,
        final_event: SystemEvent | None = None,
        violation: InvariantViolation | None = None,
        error: str | None = None,
        deadlock: bool = False,
    ) -> VerificationResult:
        events = (
            self.trace_events(leaf_id, final_event) if leaf_id is not None else []
        )
        if self.perms is not None and events:
            violation, error = self._concretized(events, violation, error)
        return self._result(
            False,
            violation=violation,
            error=error,
            deadlock=deadlock,
            trace=[str(e) for e in events],
            trace_events=events,
        )

    def success(self) -> VerificationResult:
        return self._result(True, truncated=self.truncated)


def _resolve_kernel(system, kernel, invariant_tuple):
    """Resolve the ``kernel=`` argument to ``(TransitionKernel | None, codes)``.

    "compiled" falls back to the object backend -- silently, because the two
    backends are pinned to identical exploration -- whenever the compiled
    fast path cannot reproduce the object semantics exactly:

    * *system* is a ``System`` subclass (tests and tooling override event
      enumeration or application);
    * an invariant has no encoded evaluator
      (:func:`repro.verification.invariants.compiled_invariant_codes`);
    * the protocol uses a construct the table form cannot express
      (:class:`repro.core.fsm.CompilationUnsupported`).
    """
    if kernel == "object":
        return None, None
    if kernel not in ("compiled", "vectorized"):
        raise ValueError(
            f"unknown kernel {kernel!r} "
            "(expected 'compiled', 'vectorized' or 'object')"
        )
    if type(system) is not System:
        return None, None
    codes = compiled_invariant_codes(invariant_tuple)
    if codes is None:
        return None, None
    from repro.core.fsm import CompilationUnsupported

    try:
        return system.kernel(), codes
    except CompilationUnsupported:
        return None, None


def _is_litmus(system: System) -> bool:
    from repro.system.system import LitmusWorkload

    return isinstance(system.workload, LitmusWorkload)


def verify(
    system: System,
    *,
    invariants: Sequence[Invariant] | None = None,
    max_states: int = 2_000_000,
    check_deadlock: bool = True,
    deadlock: bool = False,
    symmetry: bool | None = None,
    strategy: object = "bfs",
    processes: int | None = None,
    hash_compaction: bool = False,
    kernel: str = "compiled",
    checkpoint: str | None = None,
    spill_dir: str | None = None,
) -> VerificationResult:
    """Exhaustively explore *system* and check all invariants.

    Parameters beyond the seed API (all optional, defaults preserve the
    seed's exact behaviour and state counts):

    ``max_states``
        State budget: the search aborts cleanly once the budget is reached
        and returns a **partial** result (``result.partial`` /
        ``result.truncated`` set, counters and any found violation intact)
        instead of running unbounded.  Without a checkpoint, serial BFS and
        DFS explore exactly ``max_states`` states (BFS clips its last level
        to the remaining budget, in per-state order); the parallel
        engine enforces the budget per frontier level, so its cut can land
        up to one level earlier.
    ``deadlock``
        Also report *workload deadlocks*: a canonically-reachable quiescent
        state whose caches still hold unissued workload budget but where no
        transition is enabled can never absorb the remaining accesses; with
        ``deadlock=True`` it is reported as a deadlock failure with a
        replayable trace instead of being counted as a completed run.  Off
        by default: the seed explorer counts such states as complete, and a
        mid-search failure would cut the pinned state counts short.
    ``symmetry``
        Canonicalize cache IDs before de-duplication (Murphi scalarset
        reduction).  Explores one representative per cache-permutation orbit
        -- up to ``num_caches!`` fewer states -- while preserving every
        verdict; counterexample traces are relabeled back to the concrete
        frame and stay replayable.
    ``strategy``
        ``"bfs"`` (default), ``"dfs"``, ``"parallel"`` (fork-based
        multiprocessing BFS), or a
        :class:`~repro.verification.engine.search.SearchStrategy` instance.
        All strategies explore the same state set and report the same
        verdicts; BFS yields shortest counterexamples.
    ``processes``
        Worker count for the parallel strategy (ignored otherwise).
    ``hash_compaction``
        Key the visited-set by a 128-bit digest of each state instead of the
        state object, trading a vanishing collision risk for memory.
    ``kernel``
        ``"compiled"`` (default) expands states with the compiled transition
        kernel (:mod:`repro.system.kernel`): the generated protocol is
        lowered to integer dispatch tables at setup and successors, events
        and invariant verdicts are computed directly on encoded states --
        the exploration (order, counts, verdicts, traces) is bit-identical
        to the object backend, just faster.  ``"object"`` forces the
        dataclass executor; the compiled mode also falls back to it
        automatically for ``System`` subclasses, unrecognized invariant
        callables, or protocols the table form cannot express.
        ``"vectorized"`` expands whole frontier levels at once as NumPy
        operations over a 2-D lane matrix (:mod:`repro.system.vectorized`);
        it requires NumPy (clear :class:`VectorizedUnavailable` error from
        ``System.vectorized_kernel()`` otherwise, with ``verify()`` falling
        back to the compiled kernel) and runs on the BFS strategy for
        fault-free single-address non-litmus configurations, falling back
        to the compiled kernel -- per level or whole-search -- everywhere
        else.  ``result.kernel`` records which backend actually ran.
    ``checkpoint``
        Path of a resumable budget checkpoint.  When the search stops at the
        ``max_states`` budget it saves its frontier, store links and
        counters there (atomically); a later ``verify`` call with the same
        configuration and the same path resumes where it stopped -- under a
        fresh budget -- and the completed chain reports counters, verdict
        and trace identical to an uninterrupted run.  With a checkpoint,
        every BFS leg stops at a level boundary (the level that would cross
        the budget is saved unexpanded), so a budgeted leg may explore
        fewer than ``max_states`` states; DFS saves its exact stack.  A
        completed (non-partial) search deletes the file.  A checkpoint
        written by a different configuration or payload version, or one
        that is truncated or corrupted, raises
        :class:`~repro.verification.engine.checkpoint.CheckpointMismatch`.
    ``spill_dir``
        Directory where the parallel engine's worker shards may spill cold
        visited-set partitions as sorted digest runs, bounding resident
        memory on searches whose visited set would not fit otherwise
        (ignored by the in-process strategies, which keep the store's dict).
    """
    from repro.verification.engine.search import resolve_strategy

    invariant_tuple = (
        tuple(invariants) if invariants is not None else tuple(default_invariants())
    )
    strat = resolve_strategy(strategy, processes=processes)
    if symmetry is None:
        # Symmetry intent declared at System construction (validated there).
        symmetry = system.symmetry
    if symmetry and system.num_caches > 1 and not system.supports_symmetry:
        combination = (
            "a litmus workload (litmus programs distinguish the caches)"
            if _is_litmus(system)
            else f"num_addresses={system.num_addresses} (the encoded "
            "canonicalizer only handles single-plane layouts)"
        )
        raise ValueError(
            f"symmetry=True is unsupported with {combination}; construct the "
            "System with symmetry=True to get this error at construction time"
        )
    perms = (
        system.symmetry_permutations()
        if symmetry and system.num_caches > 1
        else None
    )
    kernel_impl, kernel_codes = _resolve_kernel(system, kernel, invariant_tuple)
    vkernel = None
    if kernel == "vectorized" and kernel_impl is not None:
        from repro.system.vectorized import VectorizedUnavailable

        try:
            candidate = system.vectorized_kernel()
        except VectorizedUnavailable:
            candidate = None  # no numpy: fall back to the compiled kernel
        if candidate is not None and candidate.supported:
            vkernel = candidate
    ctx = Exploration(
        system=system,
        invariants=invariant_tuple,
        perms=perms,
        store=StateStore(hash_compaction=hash_compaction),
        max_states=max_states,
        check_deadlock=check_deadlock,
        strategy_name=strat.name,
        kernel=kernel_impl,
        kernel_codes=kernel_codes,
        check_workload_deadlock=deadlock,
        vkernel=vkernel,
        checkpoint_path=checkpoint,
        spill_dir=spill_dir,
    )
    early = ctx.seed()
    if early is not None:
        return early
    # A checkpoint (if one exists at the path) replaces the freshly seeded
    # store wholesale -- the snapshot's ID 0 is the same canonical root.
    checkpoint_mod.load(ctx)
    # The search allocates millions of short-lived, cycle-free tuples and
    # byte strings; generational GC scans buy nothing there and cost ~10 %
    # of the wall-clock, so collection pauses while the search runs.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        result = strat.run(ctx)
    finally:
        if gc_was_enabled:
            gc.enable()
    if checkpoint is not None and not result.truncated:
        # The search ran to its end: the checkpoint is consumed.
        checkpoint_mod.clear(checkpoint)
    return result
