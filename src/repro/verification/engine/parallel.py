"""The shared-memory parallel BFS engine: zero-copy frontiers, work-stealing
chunk claims, digest-sharded visited sets, and a key-free parent.

This replaces the pickled-``pool.map`` level exchange of the original
parallel strategy.  The search still proceeds in rounds (a round is one
frontier level -- the budget and verdict semantics of level-synchronous BFS
are part of the engine's contract), but *within* a round nothing is pickled
and nobody waits on a static partition:

* **Zero-copy frontier exchange.**  The parent lays the round's frontier
  out in a ``multiprocessing.shared_memory`` arena as length-prefixed
  ``(state_id, packed_key)`` records behind an offsets table; workers map
  the arena and read records in place.  Worker results (candidate
  successors, then accepted successors) travel back through worker-owned
  arenas the same way.  All arenas are grow-only rings: they are reused
  round after round and only recreated bigger when a round outgrows them.

* **Work-stealing chunk claims.**  Instead of pre-sharding the frontier,
  workers repeatedly claim the next chunk of records from a shared atomic
  cursor (``RawValue`` + lock).  A worker that drew cheap states simply
  comes back for more -- claims past the first per worker are steals, and
  the tail imbalance of a round is one chunk instead of one shard.

* **Digest-sharded visited set.**  Every canonical successor is hashed to
  the 128-bit BLAKE2b digest the store's hash compaction uses; the digest's
  owner shard (``digest % workers``) is the only process that ever answers
  membership for it (:class:`~repro.verification.engine.shard.SpillableKeySet`,
  optionally spilling cold partitions to disk).  Producers bucket candidate
  records per owner; after the round's expand phase each worker dedups its
  own bucket column, checks invariants on the genuinely new states, and
  publishes the accepted records.  The parent then assigns dense IDs and
  appends trace links **without keeping any key dict at all**
  (:meth:`~repro.verification.engine.store.StateStore.append_link` /
  ``drop_index``) -- its per-state footprint is three column appends, which
  is what keeps peak RSS roughly flat as searches grow.

* **Failure semantics.**  Errors and deadlocks are found during expansion,
  invariant violations during owner dedup; all candidates carry their
  ``(frontier position, plan ordinal)`` coordinates and the parent reports
  the minimum -- the earliest failure *of the round* in serial order.  As
  with the vectorized driver, a failing round may have interned/counted
  states past the serial stopping point; verdicts and traces stay valid
  (every stored chain to the failing state is a real counterexample).  On
  passing runs all exploration counts are schedule-independent and match
  the serial strategies exactly.  A worker that dies without reporting
  (SIGKILL, the OOM killer) raises :class:`WorkerLost` naming it, its exit
  code and the level; the parent never blocks on a dead worker.

Workers expand through the same
:class:`~repro.verification.engine.expand.Expander` as the serial
searches, and the rounds run under the shared
:func:`~repro.verification.engine.expand.drive_levels` loop, so budget
clipping and checkpoint boundaries are those of every other BFS.

Checkpoint/resume: at a round boundary the parent can ask every worker to
dump its shard digests and write a ``mode="sharded"`` checkpoint; resuming
re-seeds the shards from the concatenated digests (re-sharded, so the
worker count may change between runs) and continues with the saved
frontier.
"""

from __future__ import annotations

import gc
import struct
import time
import traceback
from array import array
from multiprocessing import shared_memory
from multiprocessing.connection import wait

from repro.verification.engine import checkpoint as checkpoint_mod
from repro.verification.engine.expand import Expander, drive_levels
from repro.verification.engine.shard import (
    DIGEST_BYTES,
    SpillableKeySet,
    digest128,
    shard_of,
)

#: ``(item, plan_ordinal, perm_index, eev_len, key_len)`` record header.
_REC_HEADER = "<IHHBxI"
_REC_HEADER_SIZE = struct.calcsize(_REC_HEADER)
#: ``(state_id, key_len)`` input-record header.
_IN_HEADER = "<QI"
_IN_HEADER_SIZE = struct.calcsize(_IN_HEADER)

#: Permutation index meaning "no permutation recorded".
_NO_PERM = 0xFFFF

#: Bound on the workers' emitted-digest suppression caches (an optimization
#: like the raw-seen sets: clearing only re-pays IPC, never correctness).
_EMITTED_LIMIT = 1 << 19


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment (creator keeps cleanup ownership).

    On Python < 3.13 attaching re-registers the segment with the resource
    tracker, but the fleet is fork-homogeneous -- every process talks to the
    *same* tracker, whose per-type cache is a set -- so the re-register is
    idempotent and the creator's ``unlink`` clears the single entry.  (An
    explicit ``unregister`` here would double-remove and raise in the
    tracker instead.)
    """
    return shared_memory.SharedMemory(name=name)


class _Arena:
    """A grow-only shared-memory buffer (created fresh when capacity grows)."""

    __slots__ = ("shm", "capacity")

    def __init__(self):
        self.shm = None
        self.capacity = 0

    def ensure(self, size: int) -> shared_memory.SharedMemory:
        if self.shm is None or self.capacity < size:
            self.destroy()
            self.shm = shared_memory.SharedMemory(
                create=True, size=max(1, size)
            )
            self.capacity = self.shm.size
        return self.shm

    def destroy(self) -> None:
        if self.shm is not None:
            self.shm.close()
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double-clean race
                pass
            self.shm = None
            self.capacity = 0


class _WorkerCrash(RuntimeError):
    """A worker process died; carries its traceback text."""


class WorkerLost(RuntimeError):
    """A worker process exited without reporting -- killed by a signal or
    the OOM killer.  Names the worker, its exit code and the BFS level."""

    def __init__(self, wid: int, exitcode, level):
        super().__init__(
            f"parallel worker {wid} was lost (exit code {exitcode}) "
            f"at level {level}"
        )
        self.wid = wid
        self.exitcode = exitcode
        self.level = level


# -- worker side ---------------------------------------------------------------


class _WorkerState:
    """Per-process expansion context (built once, after fork)."""

    def __init__(self, wid, cfg, seed_blob):
        (system, invariants, perms, kernel_codes, check_deadlock,
         check_workload_deadlock, spill_dir, nworkers) = cfg
        self.wid = wid
        self.nworkers = nworkers
        # The owner phase checks states another worker will expand, so the
        # object adapter must not keep them.
        self.expander = Expander(
            system, invariants, perms, kernel_codes,
            check_deadlock=check_deadlock,
            check_workload_deadlock=check_workload_deadlock,
            memoize=False,
        )
        self.perm_index = (
            {perm: i for i, perm in enumerate(perms)}
            if perms is not None
            else {}
        )
        self.shard = SpillableKeySet(spill_dir, tag=f"w{wid}")
        self.shard.seed(seed_blob, nworkers, wid)
        self.emitted: set = set()
        self.bucket_arena = _Arena()
        self.accepted_arena = _Arena()

    def close(self):
        self.bucket_arena.destroy()
        self.accepted_arena.destroy()
        self.shard.close()


def _worker_main(wid, cfg, ctrl, writers, claim, claim_lock, seed_blob):
    """Worker loop: expand -> dedup -> (dump|expand|...) until "stop"."""
    gc.disable()
    results = writers[wid]
    for other in writers:  # keep only our own result pipe open
        if other is not results:
            other.close()
    ws = _WorkerState(wid, cfg, seed_blob)
    del seed_blob  # parent's copy serves resumes; drop the fork duplicate
    try:
        while True:
            msg = ctrl.get()
            op = msg[0]
            if op == "expand":
                _worker_expand(ws, msg, results, claim, claim_lock)
            elif op == "dedup":
                _worker_dedup(ws, msg, results)
            elif op == "dump":
                results.send(("dump", wid, ws.shard.dump()))
            elif op == "stop":
                break
    except Exception:  # pragma: no cover - surfaced as _WorkerCrash in parent
        try:
            results.send(("crash", wid, traceback.format_exc()))
        except Exception:
            pass
    finally:
        ws.close()


def _encode_record(item, plan_ord, perm_idx, eev, digest, key) -> bytes:
    return (
        struct.pack(_REC_HEADER, item, plan_ord, perm_idx, len(eev), len(key))
        + digest
        + struct.pack(f"<{len(eev)}i", *eev)
        + key
    )


def _worker_expand(ws, msg, results, claim, claim_lock):
    """Claim chunks of the round's frontier and expand them.

    Candidate successors are canonicalized (by the shared expander),
    packed, digested and bucketed per owning shard; successors this worker
    already knows (own shard) or already emitted (bounded cache) never
    leave the process.  Errors and deadlock leaves become failure
    candidates tagged with their ``(frontier position, plan ordinal)`` so
    the parent can pick the round's serial-order minimum.
    """
    _op, arena_name, count, chunk = msg
    wid = ws.wid
    nworkers = ws.nworkers
    ex = ws.expander
    codec = ex.codec
    enabled = ex.kernel.enabled
    successors = ex.successors
    perm_index = ws.perm_index
    shard = ws.shard
    emitted = ws.emitted
    unpack = codec.unpack
    pack = codec.pack
    decode_base = codec.decode_count
    canon_base = ex.canon_seconds
    buckets = [bytearray() for _ in range(nworkers)]
    failures: list = []
    applied = 0
    expanded = 0
    complete = 0
    chunks = 0
    shm = _attach(arena_name)
    buf = shm.buf
    offsets = buf[8 : 8 + 8 * count].cast("q")
    try:
        while True:
            with claim_lock:
                start = claim.value
                claim.value = start + chunk
            if start >= count:
                break
            chunks += 1
            for i in range(start, min(count, start + chunk)):
                expanded += 1
                off = offsets[i]
                _sid, klen = struct.unpack_from(_IN_HEADER, buf, off)
                pos = off + _IN_HEADER_SIZE
                enc = unpack(bytes(buf[pos : pos + klen]))
                plans, net = enabled(enc)
                if not plans:
                    kind = ex.leaf(enc)
                    if kind == "complete":
                        complete += 1
                    elif kind == "dead":
                        failures.append((i, -1, "dead", None))
                    continue
                for plan_ord, eev, succ, perm in successors(enc, plans, net):
                    if succ is None:  # perm carries the error message
                        applied += plan_ord + 1
                        failures.append((i, plan_ord, "err", (eev, perm)))
                        break
                    skey = pack(succ)
                    digest = digest128(skey)
                    if digest in emitted:
                        continue
                    owner = shard_of(digest, nworkers)
                    if owner == wid and digest in shard:
                        continue
                    if len(emitted) >= _EMITTED_LIMIT:
                        emitted.clear()
                    emitted.add(digest)
                    buckets[owner] += _encode_record(
                        i, plan_ord, perm_index.get(perm, _NO_PERM), eev,
                        digest, skey,
                    )
                else:
                    applied += len(plans)
    finally:
        offsets.release()
        del buf
        shm.close()
    blob = b"".join(buckets)
    out = ws.bucket_arena.ensure(len(blob))
    out.buf[: len(blob)] = blob
    spans = []
    pos = 0
    for bucket in buckets:
        spans.append((pos, len(bucket)))
        pos += len(bucket)
    results.send((
        "expanded", ws.wid, out.name, spans, failures,
        {
            "applied": applied,
            "expanded": expanded,
            "complete": complete,
            "chunks": chunks,
            "canon_seconds": ex.canon_seconds - canon_base,
            "decodes": codec.decode_count - decode_base,
        },
    ))


def _worker_dedup(ws, msg, results):
    """Owner phase: dedup this worker's bucket column, check invariants.

    Walks every producer's bucket for this shard in producer order, accepts
    records whose digest is genuinely new (inserting it), checks each
    accepted state through the backend's ``check`` (the exact violation
    report only when it fails), and republishes the accepted records
    verbatim for the parent's ID assignment.
    """
    _op, directory = msg
    wid = ws.wid
    ex = ws.expander
    codec = ex.codec
    check = ex.kernel.check
    codes = ex.codes
    shard = ws.shard
    unpack = codec.unpack
    decode_base = codec.decode_count
    accepted = bytearray()
    n_accepted = 0
    failures: list = []
    for _pwid, arena_name, spans in directory:
        off, length = spans[wid]
        if length == 0:
            continue
        shm = _attach(arena_name)
        buf = shm.buf
        try:
            pos = off
            end = off + length
            while pos < end:
                rec_start = pos
                item, plan_ord, perm_idx, eev_len, klen = struct.unpack_from(
                    _REC_HEADER, buf, pos
                )
                pos += _REC_HEADER_SIZE
                digest = bytes(buf[pos : pos + DIGEST_BYTES])
                pos += DIGEST_BYTES
                eev_end = pos + 4 * eev_len
                key_end = eev_end + klen
                if digest in shard:
                    pos = key_end
                    continue
                shard.add(digest)
                key = bytes(buf[eev_end:key_end])
                enc = unpack(key)
                violation = None if check(enc, codes) else ex.violation(enc)
                if violation is not None:
                    eev = tuple(struct.unpack_from(f"<{eev_len}i", buf, pos))
                    failures.append(
                        (item, plan_ord, "vio", (violation, eev, perm_idx, key))
                    )
                    pos = key_end
                    continue
                accepted += buf[rec_start:key_end]
                n_accepted += 1
                pos = key_end
        finally:
            del buf
            shm.close()
    out = ws.accepted_arena.ensure(len(accepted))
    out.buf[: len(accepted)] = accepted
    results.send((
        "deduped", wid, out.name, len(accepted), n_accepted, failures,
        {
            "decodes": codec.decode_count - decode_base,
            "spill_bytes": shard.spill_bytes,
            "shard_len": len(shard),
        },
    ))


# -- parent side ---------------------------------------------------------------


class ShmEngine:
    """Parent driver of the shared-memory worker fleet (one per search)."""

    def __init__(self, ctx, mp_ctx, processes: int):
        self.ctx = ctx
        self.mp = mp_ctx
        self.nworkers = processes
        self.claim = mp_ctx.RawValue("q", 0)
        self.claim_lock = mp_ctx.Lock()
        self.ctrl = [mp_ctx.SimpleQueue() for _ in range(processes)]
        #: One ``(reader, writer)`` result pipe per worker; after the fork
        #: only the worker holds its writer, so a dead worker reads as EOF.
        self.results = [mp_ctx.Pipe(duplex=False) for _ in range(processes)]
        self.procs: list = []
        self.input_arena = _Arena()
        self._spill_by_worker = [0] * processes
        #: Arena names each worker published (shutdown unlinks the ones a
        #: dead worker could not destroy itself).
        self._arenas: list[set] = [set() for _ in range(processes)]
        #: BFS level of the round in progress (named by WorkerLost).
        self.level: int | None = None

    # -- lifecycle -------------------------------------------------------------
    def spinup(self, *, seed_keys=None, seed_blobs=None) -> None:
        """Fork the workers, seeding their shards with the visited set.

        *seed_keys* comes from the in-process phase's store (packed keys,
        or digests already under hash compaction); *seed_blobs* comes from
        a ``mode="sharded"`` checkpoint.  Either way the blob is inherited
        by fork -- zero-copy -- and each worker keeps only its shard.
        """
        # Start the resource tracker *before* forking so every worker
        # inherits the parent's tracker (one shared registry with set
        # semantics).  A worker that lazily spawned its own tracker on its
        # first attach would, at exit, "clean up" arenas the parent still
        # owns.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        ctx = self.ctx
        if seed_keys is not None:
            if ctx.store.hash_compaction:
                seed_blob = b"".join(seed_keys)
            else:
                seed_blob = b"".join(digest128(key) for key in seed_keys)
        else:
            seed_blob = b"".join(seed_blobs or [])
        cfg = (
            ctx.system,
            ctx.invariants,
            ctx.perms,
            ctx.kernel_codes,
            ctx.check_deadlock,
            ctx.check_workload_deadlock,
            ctx.spill_dir,
            self.nworkers,
        )
        writers = [writer for _reader, writer in self.results]
        for wid in range(self.nworkers):
            proc = self.mp.Process(
                target=_worker_main,
                args=(wid, cfg, self.ctrl[wid], writers,
                      self.claim, self.claim_lock, seed_blob),
                daemon=True,
            )
            proc.start()
            self.procs.append(proc)
        for writer in writers:
            writer.close()
        ctx.parallel_workers = self.nworkers
        ctx.worker_states = [0] * self.nworkers

    def shutdown(self) -> None:
        """Stop and reap every worker, then destroy the arenas.

        Result pipes are drained while waiting, so no worker stays blocked
        mid-send; a worker that died without cleaning up (lost, or killed
        here as a backstop) has its last published arenas unlinked.
        """
        for queue in self.ctrl:
            try:
                queue.put(("stop",))
            except Exception:  # pragma: no cover - worker already gone
                pass
        live = {proc.sentinel: proc for proc in self.procs}
        readers = [reader for reader, _writer in self.results]
        deadline = time.monotonic() + 10
        while live and time.monotonic() < deadline:
            for handle in wait(readers + list(live),
                               timeout=deadline - time.monotonic()):
                if handle in live:
                    del live[handle]
                    continue
                try:
                    handle.recv()
                except (EOFError, OSError):
                    readers.remove(handle)
        for wid, proc in enumerate(self.procs):
            if proc.is_alive():  # pragma: no cover - hung worker backstop
                proc.terminate()
            proc.join(timeout=2)
            if proc.exitcode != 0:
                for name in self._arenas[wid]:
                    try:
                        orphan = _attach(name)
                    except FileNotFoundError:
                        continue
                    orphan.close()
                    orphan.unlink()
        self.procs = []
        self.input_arena.destroy()

    # -- the round loop --------------------------------------------------------
    def drive(self, frontier, level: int):
        """Run rounds until the frontier drains, the budget hits, or a
        failure surfaces; returns the search's VerificationResult."""
        return drive_levels(self.ctx, frontier, level, self._round,
                            self._save_checkpoint)

    def _broadcast(self, msg) -> None:
        for queue in self.ctrl:
            queue.put(msg)

    def _collect(self, kind: str) -> list:
        """Gather one *kind* message per worker.

        Waits on the result pipes and the worker sentinels together (no
        timeout polling), so a worker that dies without reporting --
        SIGKILL, the OOM killer -- raises :class:`WorkerLost` instead of
        hanging the parent; in-worker exceptions surface as crashes.
        """
        out = [None] * self.nworkers
        pending = {}
        for wid, proc in enumerate(self.procs):
            pending[self.results[wid][0]] = pending[proc.sentinel] = wid
        while pending:
            for handle in wait(list(pending)):
                wid = pending.get(handle)
                if wid is None:  # both handles of one worker were ready
                    continue
                reader = self.results[wid][0]
                proc = self.procs[wid]
                try:
                    msg = reader.recv()
                except (EOFError, OSError):
                    proc.join(timeout=1)
                    raise WorkerLost(wid, proc.exitcode, self.level) from None
                del pending[reader], pending[proc.sentinel]
                if msg[0] == "crash":
                    raise _WorkerCrash(
                        f"parallel worker {wid} crashed:\n{msg[2]}"
                    )
                if msg[0] != kind:  # pragma: no cover - protocol violation
                    raise RuntimeError(f"unexpected worker message {msg[0]!r}")
                out[wid] = msg
        return out

    def _round(self, frontier, level: int):
        """One expand/dedup/absorb round over *frontier*; returns
        ``(next_frontier, failure)``."""
        ctx = self.ctx
        self.level = level
        ctx.explored += len(frontier)
        nworkers = self.nworkers
        count = len(frontier)
        round_sids = [sid for sid, _key in frontier]

        # Lay the frontier out in the input arena: offsets table + records.
        offsets = array("q")
        parts = []
        off = 8 + 8 * count
        for sid, key in frontier:
            offsets.append(off)
            parts.append(struct.pack(_IN_HEADER, sid, len(key)))
            parts.append(key)
            off += _IN_HEADER_SIZE + len(key)
        shm = self.input_arena.ensure(off)
        buf = shm.buf
        struct.pack_into("<Q", buf, 0, count)
        buf[8 : 8 + 8 * count] = offsets.tobytes()
        buf[8 + 8 * count : off] = b"".join(parts)
        del buf

        # Expand phase: workers claim chunks off the shared cursor.
        self.claim.value = 0
        chunk = max(1, min(8192, count // (nworkers * 8) or 1))
        self._broadcast(("expand", shm.name, count, chunk))
        expanded = self._collect("expanded")

        failures: list = []
        round_chunks = 0
        for msg in expanded:
            _kind, wid, name, _spans, worker_failures, stats = msg
            self._arenas[wid].add(name)
            failures.extend(worker_failures)
            ctx.transitions += stats["applied"]
            ctx.complete_states += stats["complete"]
            ctx.expander.canon_seconds += stats["canon_seconds"]
            ctx.worker_decodes += stats["decodes"]
            ctx.worker_states[wid] += stats["expanded"]
            round_chunks += stats["chunks"]
        # Every chunk claim past one per worker was work stolen from the
        # shared queue rather than a static pre-assigned shard.
        ctx.steal_count += max(0, round_chunks - nworkers)

        # Dedup phase: each worker walks its own bucket column.
        directory = [
            (msg[1], msg[2], msg[3]) for msg in expanded
        ]
        self._broadcast(("dedup", directory))
        deduped = self._collect("deduped")

        # Absorb phase: assign dense IDs and append trace links (no keys).
        next_frontier: list = []
        append_link = ctx.store.append_link
        perms = ctx.perms
        for msg in deduped:
            _kind, wid, name, blob_len, n_accepted, worker_failures, stats = msg
            self._arenas[wid].add(name)
            failures.extend(worker_failures)
            ctx.worker_decodes += stats["decodes"]
            self._spill_by_worker[wid] = stats["spill_bytes"]
            if n_accepted == 0:
                continue
            acc = _attach(name)
            buf = acc.buf
            try:
                pos = 0
                for _ in range(n_accepted):
                    item, _plan_ord, perm_idx, eev_len, klen = struct.unpack_from(
                        _REC_HEADER, buf, pos
                    )
                    pos += _REC_HEADER_SIZE + DIGEST_BYTES
                    eev = tuple(struct.unpack_from(f"<{eev_len}i", buf, pos))
                    pos += 4 * eev_len
                    key = bytes(buf[pos : pos + klen])
                    pos += klen
                    perm = None if perm_idx == _NO_PERM else perms[perm_idx]
                    new_id = append_link(round_sids[item], eev, perm)
                    next_frontier.append((new_id, key))
            finally:
                del buf
                acc.close()
        ctx.spill_bytes = sum(self._spill_by_worker)

        if failures:
            return None, self._report_failure(failures, round_sids)
        return next_frontier, None

    def _report_failure(self, failures, round_sids):
        """Report the round's earliest failure in serial (state, plan) order.

        Like the vectorized driver, a canonical violating state reached by
        several parents in one round is attributed to whichever producer's
        record its owner deduped first -- the chain is a valid
        counterexample either way and the verdict is identical.
        """
        ctx = self.ctx
        item, plan_ord, kind, payload = min(
            failures, key=lambda f: (f[0], f[1])
        )
        sid = round_sids[item]
        if kind == "dead":
            return ctx.failure(deadlock=True, leaf_id=sid)
        if kind == "err":
            eev, message = payload
            return ctx.failure(
                error=message,
                leaf_id=sid,
                final_event=ctx.codec.decode_event(eev),
            )
        violation, eev, perm_idx, _key = payload
        perm = None if perm_idx == _NO_PERM else ctx.perms[perm_idx]
        leaf_id = ctx.store.append_link(sid, eev, perm)
        return ctx.failure(violation=violation, leaf_id=leaf_id)

    # -- checkpointing ---------------------------------------------------------
    def _save_checkpoint(self, frontier, level: int) -> None:
        self._broadcast(("dump",))
        dumps = self._collect("dump")
        checkpoint_mod.save(
            self.ctx,
            mode="sharded",
            frontier=frontier,
            level=level,
            shard_blobs=[msg[2] for msg in dumps],
        )


__all__ = ["ShmEngine", "WorkerLost"]
