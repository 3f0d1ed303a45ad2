"""Search strategies: drivers over one per-state expander.

Every search expands states through one
:class:`~repro.verification.engine.expand.Expander` -- plans, apply,
raw-seen skip, canonicalize, written once -- over whichever transition
backend ``verify(..., kernel=...)`` resolved: the compiled kernel
(:mod:`repro.system.kernel`, encoded states end to end, nothing decoded
until a failure is reported) or the object executor behind the same
interface (:class:`~repro.verification.engine.expand.ObjectKernel`, for
``System`` subclasses and custom invariants).  The vectorized kernel
(:mod:`repro.system.vectorized`) expands whole BFS levels as NumPy batches
and replays a level it cannot express through the same per-state visit.

The strategies are **drivers**: they decide only where frontiers live and
who dedups.

* :class:`BreadthFirst` -- the default; level-synchronous BFS through
  :func:`~repro.verification.engine.expand.drive_levels` (shortest
  counterexamples; with symmetry off, the seed explorer's exact counts).
* :class:`DepthFirst` -- a LIFO stack of the same per-state visits; explores
  the same state set and verdicts and usually reaches a bug in far fewer
  states, at the cost of longer traces.
* :class:`ParallelBreadthFirst` -- runs the serial BFS driver until a level
  exceeds :data:`POOL_SPINUP_FRONTIER`, then hands the packed frontier to
  the **shared-memory worker engine**
  (:class:`~repro.verification.engine.parallel.ShmEngine`): zero-copy
  frontier arenas, work-stealing chunk claims and a digest-sharded visited
  set, with the parent keeping only columnar trace links.  Falls back to
  serial BFS when ``fork`` is unavailable or fewer than two workers are
  requested.

All strategies report identically-shaped results; on passing searches
every backend and strategy explores the same states and transitions.
"""

from __future__ import annotations

import multiprocessing
import os
from time import perf_counter

from repro.verification.engine import checkpoint as checkpoint_mod
from repro.verification.engine.canonical import (
    SAVED_ORBIT,
    _tie_break_encoded,
    canonicalizer_for,
)
from repro.verification.engine.expand import RAW_SEEN_LIMIT, drive_levels
from repro.verification.engine.parallel import ShmEngine


class SearchStrategy:
    """Interface: run the exploration described by a context to completion."""

    name = "base"

    def run(self, ctx):
        raise NotImplementedError


def _leaf(ctx, sid, enc):
    """Account for a state with no enabled events; a failure or None."""
    kind = ctx.expander.leaf(enc)
    if kind == "complete":
        ctx.complete_states += 1
    elif kind == "dead":
        return ctx.failure(deadlock=True, leaf_id=sid)
    return None


def _visitor(ctx):
    """The serial per-state step: ``visit(sid, enc, out)`` expands *enc*,
    interns its successors, checks the new ones and appends them to *out*
    as ``(id, encoding)``; returns a failure result or None.

    Shared by the BFS levels, the DFS stack and the vectorized driver's
    fallback replay, so every serial search stops at the same (state, plan)
    position with the same counters.
    """
    ex = ctx.expander
    kernel = ex.kernel
    enabled = kernel.enabled
    check = kernel.check
    codes = ex.codes
    successors = ex.successors
    intern = ctx.store.intern
    pack = ctx.codec.pack

    def visit(sid, enc, out):
        plans, net = enabled(enc)
        if not plans:
            return _leaf(ctx, sid, enc)
        for k, eev, succ, perm in successors(enc, plans, net):
            if succ is None:  # perm carries the error message
                ctx.transitions += k + 1
                return ctx.failure(error=perm, leaf_id=sid,
                                   final_event=ctx.codec.decode_event(eev))
            new_id, is_new = intern(pack(succ), sid, eev, perm)
            if not is_new:
                continue
            if not check(succ, codes):
                violation = ex.violation(succ)
                if violation is not None:
                    ctx.transitions += k + 1
                    return ctx.failure(violation=violation, leaf_id=new_id)
            out.append((new_id, succ))
        ctx.transitions += len(plans)
        return None

    return visit


def _serial_level(ctx):
    """``expand_level`` for :func:`drive_levels` over ``(id, enc)`` lists."""
    visit = _visitor(ctx)

    def expand_level(frontier, depth):
        nxt: list = []
        for sid, enc in frontier:
            ctx.explored += 1
            failure = visit(sid, enc, nxt)
            if failure is not None:
                return None, failure
        return nxt, None

    return expand_level


def _run_bfs(ctx, expand_level):
    """Serial BFS from the root or a ``level`` checkpoint."""
    codec = ctx.codec
    if ctx.resume is not None:
        unpack = codec.unpack
        frontier = [(sid, unpack(key)) for sid, key in ctx.resume["frontier"]]
    else:
        frontier = [(ctx.root_id, ctx.root_enc)]
    pack = codec.pack

    def save(frontier, depth):
        checkpoint_mod.save(
            ctx, mode="level", level=depth,
            frontier=[(sid, pack(enc)) for sid, enc in frontier],
        )

    return drive_levels(ctx, frontier, ctx.resume_level or 0, expand_level, save)


def _run_dfs(ctx):
    """DFS over a stack of encodings; checkpoints save the exact stack
    (``mode="deque"``), so resuming continues with the very next pop."""
    visit = _visitor(ctx)
    codec = ctx.codec
    if ctx.resume is not None:
        stack = [(sid, codec.unpack(key)) for sid, key in ctx.resume["frontier"]]
    else:
        stack = [(ctx.root_id, ctx.root_enc)]
    while stack:
        if ctx.explored >= ctx.max_states:
            ctx.truncated = True
            if ctx.checkpoint_path is not None:
                checkpoint_mod.save(
                    ctx, mode="deque", level=None,
                    frontier=[(sid, codec.pack(enc)) for sid, enc in stack],
                )
            break
        sid, enc = stack.pop()
        ctx.explored += 1
        failure = visit(sid, enc, stack)
        if failure is not None:
            return failure
    return ctx.success()


class _Rows:
    """A vectorized frontier level as :func:`drive_levels` sees it: state
    IDs, the lane matrix of fixed-width prefixes and the network-section
    IDs, sized and clipped together."""

    __slots__ = ("ids", "F", "sids")

    def __init__(self, ids, F, sids):
        self.ids, self.F, self.sids = ids, F, sids

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, rows):
        return _Rows(self.ids[rows], self.F[rows], self.sids[rows])


def _run_vectorized(ctx):
    """Frontier-batch BFS over the NumPy lane matrix (``kernel="vectorized"``).

    Each level: one memo-probing collection pass enumerates every row's
    plans (:meth:`VectorizedKernel.collect_level`), one gather/scatter/
    ``np.unique`` pass assembles and dedups the raw successor matrix
    (:meth:`~VectorizedKernel.assemble`), and one
    :meth:`~StateStore.intern_batch` call commits the level's distinct
    canonical successors.  Distinct raw successors are processed in
    first-occurrence stream order and leaves replay interleaved by their
    sequence numbers, so verdicts, traces and (on passing searches) all
    exploration counts are bit-identical to the serial strategies; on a
    *failing* search the level batching may intern/count up to one level
    beyond the serial stopping point (the verdict, the failing state ID and
    the trace still match exactly).  A level containing any row the batch
    path cannot express replays wholesale through the serial visit (same
    row order, same plan order, same raw-seen set), so failures surface in
    the identical serial position.
    """
    vk = ctx.vkernel
    ex = ctx.expander
    codec = ctx.codec
    perms = ctx.perms
    codes = ctx.kernel_codes
    check = ex.kernel.check
    canonicalize = ex.canonicalize
    raw_seen = ex.raw_seen
    canonicalizer = canonicalizer_for(codec, perms) if perms is not None else None
    # Batch canonicalization (one orbit classification per distinct cache-
    # block region per level instead of one canonicalize call per state)
    # relies on the sorted-signature argument, i.e. the full symmetric
    # group -- exactly the condition EncodedCanonicalizer.canonicalize
    # itself requires before consulting the orbit memo.
    batch_canon = (
        canonicalizer is not None
        and len(perms) > 1
        and canonicalizer._full_group
    )
    timer = perf_counter
    pack = codec.pack
    np = vk.np
    net_offset = vk.net_offset
    intern_section = vk.intern_section
    sinfo = vk._section_info  # (tail, fake_enc, net, deliveries, packed_tail)
    visit = _visitor(ctx)
    ctx.kernel_name = "vectorized"

    def rows(pairs):
        ids, prefixes, sids = [], [], []
        for sid, enc in pairs:
            ids.append(sid)
            prefixes.append(enc[:net_offset])
            sids.append(intern_section(enc[net_offset:]))
        return _Rows(ids, np.asarray(prefixes, dtype=vk.dtype), sids)

    def save(lv, depth):
        checkpoint_mod.save(
            ctx, mode="level", level=depth,
            frontier=[
                (sid, pack(tuple(row) + sinfo[sec][0]))
                for sid, row, sec in zip(lv.ids, lv.F.tolist(), lv.sids)
            ],
        )

    def expand_level(lv, depth):
        ids, F, sids = lv.ids, lv.F, lv.sids
        level = vk.collect_level(ids, F, sids)
        ctx.explored += len(ids)
        if level.fallbacks:
            before = ctx.transitions
            out: list = []
            failure = None
            for sid, row, sec in zip(ids, F.tolist(), sids):
                failure = visit(sid, tuple(row) + sinfo[sec][0], out)
                if failure is not None:
                    break
            ctx.fallback_transitions += ctx.transitions - before
            if failure is not None:
                failure.stats["fallback_transitions"] = ctx.fallback_transitions
                return None, failure
            return rows(out), None
        ctx.transitions += level.transitions
        ctx.vectorized_transitions += level.transitions
        ctx.expansion_batches += 1
        ctx.batch_rows += len(ids)
        M, order = vk.assemble(F, level)
        # Phase 1 -- distinct raw successors in stream order: cross-level
        # raw dedup (keyed on the widened row bytes -- prefix lanes plus the
        # global section-ID lanes -- sliced in bulk from the matrix),
        # canonicalize, pack (no failure can occur here).  A raw successor
        # that is its own canonical form builds its intern key from its
        # prefix bytes plus the section's packed tail -- byte-identical to
        # ``codec.pack`` -- skipping the per-state repack entirely.
        eevs = level.eevs
        out_sids = level.sids
        parent_pos = level.parent_pos
        V = M[order]
        vbytes = V.tobytes()
        rowsize = V.shape[1] * V.dtype.itemsize
        prefix_bytes = net_offset * V.dtype.itemsize
        rows_list = V.tolist()
        order_list = order.tolist()
        # Default-invariant verdicts for the whole level as one lane-mask
        # reduction over the successor matrix (None for non-default codes:
        # phase 3 then falls back to the per-state fused check).  The mask is
        # computed on the *raw* rows, which is sound because the default
        # invariants are cache-permutation-symmetric (see check_level).
        level_ok = vk.check_level(V, codes)
        ok_list = level_ok.tolist() if level_ok is not None else None
        if batch_canon:
            # Orbit classification in bulk: one np.unique over the region
            # columns, one orbit_for per distinct never-seen region.
            d0 = vk.dir_offset
            R = np.ascontiguousarray(V[:, :d0])
            rb = R.view(np.dtype((np.void, d0 * V.dtype.itemsize))).ravel()
            runiq, rfirst, rinv = np.unique(
                rb, return_index=True, return_inverse=True
            )
            region_orbits = vk._region_orbits
            recs = []
            for vb, fi in zip(runiq, rfirst.tolist()):
                rkey = vb.tobytes()
                rec = region_orbits.get(rkey)
                if rec is None:
                    rec = region_orbits[rkey] = canonicalizer.orbit_for(
                        tuple(rows_list[fi][:d0])
                    )
                recs.append(rec)
            rinv_list = rinv.tolist()
            identity = canonicalizer.identity
        entries: list = []
        entry_encs: list = []  # canonical tuple, or None = raw (build lazily)
        entry_us: list = []
        entry_rows: list = []
        entry_rsids: list = []  # canonical section ID, or -1 = intern later
        for j, u in enumerate(order_list):
            sid2 = out_sids[u]
            perm = None
            enc = None
            relabeled = False
            if canonicalize is not None:
                grown = len(raw_seen) + 1
                raw_seen.add(vbytes[j * rowsize : (j + 1) * rowsize])
                if len(raw_seen) != grown:
                    continue
                if grown >= RAW_SEEN_LIMIT:
                    raw_seen.clear()
                orbit = recs[rinv_list[j]] if batch_canon else SAVED_ORBIT
                if orbit is SAVED_ORBIT:
                    # Per-state encoded canonicalization (saved-requestor
                    # regions have permutation-dependent signatures).
                    enc = tuple(rows_list[j][:net_offset]) + sinfo[sid2][0]
                    start = timer()
                    cenc, perm = canonicalize(enc)
                    ex.canon_seconds += timer() - start
                    relabeled = cenc is not enc
                    enc = cenc
                else:
                    best, extra = orbit
                    if best is None:
                        # Equal-signature ties: per-state tie-break over the
                        # orbit candidates, then one table relabel.
                        enc = tuple(rows_list[j][:net_offset]) + sinfo[sid2][0]
                        start = timer()
                        best = _tie_break_encoded(enc, codec, extra)
                        relabeled = best != identity
                        if relabeled:
                            enc = codec.relabel_via_tables(enc, best, saved=False)
                        ex.canon_seconds += timer() - start
                    elif extra is not None:
                        # Unique non-identity winner: canonical encoding
                        # assembles from the orbit-cached relabeled prefix
                        # and the codec's memoized relabeled suffix.
                        start = timer()
                        enc = tuple(rows_list[j][:net_offset]) + sinfo[sid2][0]
                        t2 = codec.perm_tables(best)[2]
                        enc = tuple(extra + codec._relabeled_suffix(enc, best, t2))
                        ex.canon_seconds += timer() - start
                        relabeled = True
                    # else: identity winner -- the raw row is canonical and
                    # its tuple is only built (in phase 3) if it is new.
                    perm = best
            if relabeled:
                key = pack(enc)
                rsid = -1
            else:
                key = vbytes[j * rowsize : j * rowsize + prefix_bytes] + sinfo[sid2][4]
                rsid = sid2
            entries.append((key, ids[parent_pos[u]], eevs[u], perm))
            entry_encs.append(enc)
            entry_us.append(u)
            entry_rows.append(j)
            entry_rsids.append(rsid)
        # Phase 2 -- one batch intern for the whole level.
        new_ids = ctx.store.intern_batch(entries)
        # Phase 3 -- replay leaves and new states interleaved in stream
        # order (leaf ``(k, ...)`` precedes successor ``u`` iff ``k <= u``),
        # preserving the exact serial failure order.
        next_ids: list = []
        next_prefixes: list = []
        next_sids: list = []
        leaves = level.leaves
        n_leaves = len(leaves)
        li = 0

        def leaf(entry):
            _seq, state_id, pos = entry
            return _leaf(ctx, state_id, tuple(F[pos].tolist()) + sinfo[sids[pos]][0])

        for j, new_id in enumerate(new_ids):
            u = entry_us[j]
            while li < n_leaves and leaves[li][0] <= u:
                failure = leaf(leaves[li])
                if failure is not None:
                    return None, failure
                li += 1
            if new_id < 0:
                continue
            row_ok = ok_list[entry_rows[j]] if ok_list is not None else None
            enc = entry_encs[j]
            if enc is None and row_ok:
                # Passing identity row: the mask already cleared it, the
                # prefix lanes come straight off the matrix and its section
                # is interned -- the encoded tuple is never built at all.
                next_ids.append(new_id)
                next_prefixes.append(tuple(rows_list[entry_rows[j]][:net_offset]))
                next_sids.append(entry_rsids[j])
                continue
            if enc is None:  # the raw successor is canonical: build it now
                enc = (
                    tuple(rows_list[entry_rows[j]][:net_offset])
                    + sinfo[out_sids[u]][0]
                )
            if (not row_ok) if row_ok is not None else (not check(enc, codes)):
                violation = ex.violation(enc)
                if violation is not None:
                    return None, ctx.failure(violation=violation, leaf_id=new_id)
            rsid = entry_rsids[j]
            if rsid < 0:  # relabeled tail: intern its section once
                rsid = intern_section(enc[net_offset:])
            next_ids.append(new_id)
            next_prefixes.append(enc[:net_offset])
            next_sids.append(rsid)
        for entry in leaves[li:]:
            failure = leaf(entry)
            if failure is not None:
                return None, failure
        return _Rows(next_ids, np.asarray(next_prefixes, dtype=vk.dtype),
                     next_sids), None

    if ctx.resume is not None:
        unpack = codec.unpack
        first = rows((sid, unpack(key)) for sid, key in ctx.resume["frontier"])
    else:
        first = rows([(ctx.root_id, ctx.root_enc)])
    return drive_levels(ctx, first, ctx.resume_level or 0, expand_level, save)


class BreadthFirst(SearchStrategy):
    name = "bfs"

    def run(self, ctx):
        if ctx.vkernel is not None:
            return _run_vectorized(ctx)
        return _run_bfs(ctx, _serial_level(ctx))


class DepthFirst(SearchStrategy):
    name = "dfs"

    def run(self, ctx):
        return _run_dfs(ctx)


#: Frontier width above which the parallel strategy spins up its worker
#: pool.  The pool + first-level IPC costs a fixed ~0.2 s; at the measured
#: ~28 k serial reduced states/s that buys ~5-6 k states of serial work, so
#: levels narrower than a couple thousand states never amortize it.  Small
#: searches (every level below the threshold) therefore run entirely
#: in-process and pay nothing; the pool forks lazily on the first level
#: wide enough to feed it.
POOL_SPINUP_FRONTIER = 2048


class ParallelBreadthFirst(SearchStrategy):
    """Level-synchronous BFS over the shared-memory worker engine.

    The serial BFS driver runs until a level exceeds
    :data:`POOL_SPINUP_FRONTIER`, so searches too small to amortize the
    fixed fork + IPC startup never pay it.  That level's packed frontier
    then goes to the engine
    (:class:`~repro.verification.engine.parallel.ShmEngine`), which forks
    persistent workers seeded with the visited set; the parent drops its key
    index entirely, and all further levels run through zero-copy
    shared-memory frontier exchange with work-stealing chunk claims and
    digest-sharded dedup -- see :mod:`repro.verification.engine.parallel`.
    """

    name = "parallel"

    def __init__(self, processes: int | None = None):
        self.processes = processes

    def run(self, ctx):
        try:
            mp = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - platform without fork
            return self._fallback(ctx)
        processes = self.processes or max(2, min(8, os.cpu_count() or 2))
        if processes <= 1:
            return self._fallback(ctx)

        def fleet(frontier, depth, **seed):
            engine = ShmEngine(ctx, mp, processes)
            try:
                engine.spinup(**seed)
                return engine.drive(frontier, depth)
            finally:
                engine.shutdown()

        resume = ctx.resume
        if resume is not None and resume["mode"] == "sharded":
            # Past-spin-up checkpoint: the store snapshot has no keys; the
            # visited set rides in the shard digest dumps, re-sharded here
            # under whatever worker count this run uses.
            return fleet([tuple(pair) for pair in resume["frontier"]],
                         resume["level"], seed_blobs=resume["shards"])
        expand_level = _serial_level(ctx)
        pack = ctx.codec.pack

        def expand_or_spin_up(frontier, depth):
            if len(frontier) <= POOL_SPINUP_FRONTIER:
                return expand_level(frontier, depth)
            # Seed worker shards with everything interned so far (under hash
            # compaction these keys already ARE the 128-bit digests), then
            # drop the parent's key index -- from here on membership lives
            # on the workers and the parent only appends trace links.
            keys = list(ctx.store.iter_keys())
            ctx.store.drop_index()
            packed = [(sid, pack(enc)) for sid, enc in frontier]
            return None, fleet(packed, depth, seed_keys=keys)

        return _run_bfs(ctx, expand_or_spin_up)

    @staticmethod
    def _fallback(ctx):
        """Serial BFS stand-in; relabel the result so it is not attributed
        to the parallel strategy."""
        ctx.strategy_name = BreadthFirst.name
        return BreadthFirst().run(ctx)


def resolve_strategy(spec, *, processes: int | None = None) -> SearchStrategy:
    """Map a strategy name (or pass through an instance) to a strategy."""
    if isinstance(spec, SearchStrategy):
        return spec
    name = str(spec).lower()
    if name in ("bfs", "breadth-first"):
        return BreadthFirst()
    if name in ("dfs", "depth-first"):
        return DepthFirst()
    if name in ("parallel", "parallel-bfs"):
        return ParallelBreadthFirst(processes=processes)
    raise ValueError(
        f"unknown search strategy {spec!r} (expected 'bfs', 'dfs' or 'parallel')"
    )
