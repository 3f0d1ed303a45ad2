"""The one per-state expansion step and the one BFS level loop.

Every search in the engine -- serial BFS and DFS, the vectorized driver's
per-level fallback replay, and the shared-memory workers -- expands a state
the same way:

1. the backend enumerates the state's enabled events as *plans*;
2. each plan is applied (with the object executor as the oracle for the
   plans the compiled kernel cannot finish, and for failures);
3. a raw successor already canonicalized once is skipped;
4. the rest are canonicalized under the symmetry group, if any.

:class:`Expander` is that step, written once; what a driver does with the
successors it yields (intern them, bucket them by digest shard) is the
driver's business.  The **backends** all present the per-state interface of
:class:`~repro.system.kernel.TransitionKernel` -- ``enabled(enc) -> (plans,
net)``, ``is_quiescent``, ``workload_remaining``, ``check`` -- so the
expander never asks which one it is running: the compiled kernel computes
on encodings directly, and :class:`ObjectKernel` adapts
``System.enabled_events``/``System.apply`` to the same shape.

:func:`drive_levels` is the level-synchronous BFS loop with the state
budget and the checkpoint boundary written once; serial BFS, the vectorized
driver and the shared-memory engine each only supply how one level expands
and how a stopped level is saved.
"""

from __future__ import annotations

from time import perf_counter

from repro.verification.engine.canonical import canonicalizer_for

#: Bound on the raw-successor dedup set of a symmetry-reduced search: a raw
#: successor reached twice maps to the same canonical representative, so its
#: second occurrence can skip canonicalize/pack/intern entirely (~38 % of
#: transitions on the reference MSI workload).  The set is an optimization
#: only -- clearing it when full merely re-pays the canonicalization, so the
#: bound caps memory without affecting any count or verdict.
RAW_SEEN_LIMIT = 1 << 19


class ObjectKernel:
    """The object executor (``System.enabled_events``/``System.apply``)
    behind the compiled kernel's per-state interface.

    Used for ``System`` subclasses, custom invariants and protocols the
    table form cannot express.  Searches carry encodings either way; to
    avoid decoding every expanded state, the adapter remembers the state
    objects it produced: successors of the state being expanded until the
    next :meth:`enabled`, and -- with *memoize* -- every successor that
    passed :meth:`check` (a genuinely new state) until it is expanded.
    Processes that check states they will not expand (the shared-memory
    owner phase) pass ``memoize=False``.
    """

    def __init__(self, system, invariants, *, memoize: bool = True):
        self.system = system
        self.codec = system.codec()
        self.invariants = invariants
        self._memo: dict | None = {} if memoize else None
        self._produced: dict = {}
        self._current: tuple = (None, None)

    def _state(self, enc):
        if enc is self._current[0]:
            return self._current[1]
        state = self._produced.get(enc)
        return state if state is not None else self.codec.decode(enc)

    def enabled(self, enc: tuple) -> tuple[list, object]:
        """``(plans, state)``: plan ``(apply, encoded_event, event)`` per
        enabled event, in ``System.enabled_events`` order."""
        state = self._memo.pop(enc, None) if self._memo is not None else None
        if state is None:
            state = self.codec.decode(enc)
        self._current = (enc, state)
        self._produced = {}
        encode_event = self.codec.encode_event
        apply = self._apply
        return [
            (apply, encode_event(event), event)
            for event in self.system.enabled_events(state)
        ], state

    def _apply(self, enc, plan, state):
        outcome = self.system.apply(state, plan[2])
        if outcome.error is not None:
            return None  # the expander reports it through the oracle
        succ = self.codec.encode(outcome.state)
        self._produced[succ] = outcome.state
        return succ

    def is_quiescent(self, enc: tuple) -> bool:
        return self.system.is_quiescent(self._state(enc))

    def workload_remaining(self, enc: tuple) -> bool:
        """On a quiescent state: some cache still has accesses left."""
        return not self.system.is_complete(self._state(enc))

    def check(self, enc: tuple, codes=None) -> bool:
        """True when every invariant holds (*codes* is the compiled
        kernel's argument and unused here)."""
        state = self._state(enc)
        if self._memo is not None:
            self._memo[enc] = state
        system = self.system
        return all(inv(system, state) is None for inv in self.invariants)


class Expander:
    """One state's expansion: plans -> apply -> raw-seen skip -> canonicalize.

    Built once per search (and once per worker process) over whichever
    backend the search runs: the compiled kernel when *codes* (its encoded
    invariant evaluators) is given, :class:`ObjectKernel` otherwise.
    """

    def __init__(self, system, invariants, perms, codes, *,
                 check_deadlock: bool, check_workload_deadlock: bool,
                 memoize: bool = True):
        self.system = system
        self.codec = codec = system.codec()
        self.invariants = invariants
        self.codes = codes
        self.kernel = (
            system.kernel() if codes is not None
            else ObjectKernel(system, invariants, memoize=memoize)
        )
        self.canonicalize = (
            canonicalizer_for(codec, perms).canonicalize
            if perms is not None else None
        )
        self.check_deadlock = check_deadlock
        self.check_workload_deadlock = check_workload_deadlock
        self.raw_seen: set = set()
        #: Wall-clock spent inside canonicalization (the search's one
        #: accumulator: vectorized batches and worker reports add to it).
        self.canon_seconds = 0.0

    def successors(self, enc: tuple, plans: list, net):
        """Yield ``(ordinal, encoded_event, successor, perm)`` per plan of
        *enc*, in plan order.

        ``successor`` is the canonical encoding and ``perm`` the permutation
        that canonicalized it (``None`` without symmetry).  Raw successors
        canonicalized before are skipped.  An event whose application fails
        yields ``(ordinal, encoded_event, None, error_message)`` and ends the
        expansion, as every search stops there.
        """
        system = self.system
        codec = self.codec
        canonicalize = self.canonicalize
        raw_seen = self.raw_seen
        for k, plan in enumerate(plans):
            eev = plan[1]
            succ = plan[0](enc, plan, net)
            if succ is None:
                # The object executor is the oracle: it reproduces the exact
                # error (or, for benign corner cases, the successor).
                outcome = system.apply(codec.decode(enc), codec.decode_event(eev))
                if outcome.error is not None:
                    yield k, eev, None, outcome.error
                    return
                succ = codec.encode(outcome.state)
            perm = None
            if canonicalize is not None:
                # set.add + length check = one hash: a no-growth add means
                # this raw successor was canonicalized before.
                grown = len(raw_seen) + 1
                raw_seen.add(succ)
                if len(raw_seen) != grown:
                    continue
                if grown >= RAW_SEEN_LIMIT:
                    raw_seen.clear()
                start = perf_counter()
                succ, perm = canonicalize(succ)
                self.canon_seconds += perf_counter() - start
            yield k, eev, succ, perm

    def leaf(self, enc: tuple) -> str | None:
        """Classify a state with no enabled events.

        ``"complete"`` -- quiescent, a finished run; ``"dead"`` -- a
        deadlock the search reports (anything still in flight, or, under
        ``deadlock=True``, a quiescent state holding unissued workload);
        ``None`` -- a stuck state the search was told to ignore.
        """
        kernel = self.kernel
        if kernel.is_quiescent(enc):
            if self.check_workload_deadlock and kernel.workload_remaining(enc):
                return "dead"
            return "complete"
        return "dead" if self.check_deadlock else None

    def violation(self, enc: tuple):
        """The first invariant *enc* violates, or ``None`` -- the exact
        report, from the object invariants, after ``kernel.check`` failed."""
        state = self.codec.decode(enc)
        for invariant in self.invariants:
            violation = invariant(self.system, state)
            if violation is not None:
                return violation
        return None


def drive_levels(ctx, frontier, depth: int, expand_level, save):
    """The level-synchronous BFS loop shared by every BFS driver.

    *frontier* supports ``len()`` and ``[:n]``; ``expand_level(frontier,
    depth)`` returns ``(next_frontier, result)`` where a non-``None``
    *result* ends the search (a failure, or a handed-off search's verdict);
    ``save(frontier, depth)`` writes the checkpoint of an unexpanded level.

    Before a level that would cross ``max_states``: without a checkpoint
    the level is clipped to the remaining budget (so a serial search
    explores exactly ``max_states`` states, in the order a per-state BFS
    would); with one, the search stops at the level boundary and saves the
    level unclipped, so the resumed search expands the identical level
    sequence and ends on an uninterrupted run's exact counters.
    """
    while len(frontier):
        remaining = ctx.max_states - ctx.explored
        if len(frontier) > remaining:
            ctx.truncated = True
            if ctx.checkpoint_path is not None:
                save(frontier, depth)
                break
            if remaining <= 0:
                break
            frontier = frontier[:remaining]
        frontier, result = expand_level(frontier, depth)
        if result is not None:
            return result
        depth += 1
    return ctx.success()


__all__ = ["Expander", "ObjectKernel", "RAW_SEEN_LIMIT", "drive_levels"]
