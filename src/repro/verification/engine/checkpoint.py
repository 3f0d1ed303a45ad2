"""Checkpoint/resume for budgeted searches.

A checkpoint is one file capturing everything a search needs to continue
*bit-identically*: the store's columnar trace links (plus, for in-process
searches, the intern keys in ID order), the pending frontier, the running
counters, and -- for a search whose visited set lives sharded across worker
processes -- the concatenated shard digests instead of keys.  The file is a
fixed header (magic, payload version, BLAKE2b digest of the body) followed
by the pickled body; :func:`load` verifies the digest before unpickling, so
a truncated or corrupted file is refused instead of resumed.

Three frontier shapes cover the engine's strategies:

* ``mode="level"`` -- every BFS (serial, vectorized, or the parallel
  strategy before its pool spins up) saved at a level boundary: when the
  next level would cross the budget the whole level is saved *unclipped*
  instead of partially expanded, so the resumed run explores the identical
  level sequence and ends on an uninterrupted run's exact counters.
* ``mode="deque"`` -- DFS only: the stack exactly as it stood when the
  ``max_states`` budget hit; resuming continues with the very next pop, so
  the completed search is bit-identical to an uninterrupted one (IDs,
  counts, verdict, trace).
* ``mode="sharded"`` -- the shared-memory parallel engine past spin-up:
  the parent holds no key dict, so the checkpoint carries the workers'
  shard digests (re-shardable under a different worker count on resume).

The **fingerprint** binds a checkpoint to the search that wrote it: codec
index tables, cache/address counts, workload, symmetry group size, backend,
strategy and invariant names.  ``max_states`` and the worker count are
deliberately excluded -- continuing a budgeted nightly run under a new
budget (or on a box with different cores) is the whole point.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct

#: Bumped whenever the payload layout changes; a mismatch refuses to resume.
#: Version 2: serial BFS saves ``level`` checkpoints, and the header below.
CHECKPOINT_VERSION = 2

#: ``(magic, version, BLAKE2b-256 digest of the pickled body)``.
_HEADER = struct.Struct("<8sI32s")
_MAGIC = b"PGCKPT\r\n"


def _body_hash():
    return hashlib.blake2b(digest_size=32)


class _HashingWriter:
    """File wrapper that digests everything pickled through it."""

    def __init__(self, f):
        self.f = f
        self.hash = _body_hash()

    def write(self, data):
        self.hash.update(data)
        return self.f.write(data)


class CheckpointMismatch(ValueError):
    """The checkpoint on disk was written by an incompatible search."""


def fingerprint(ctx) -> str:
    """Digest of everything that must match for a resume to be sound."""
    codec = ctx.codec
    system = ctx.system
    material = repr((
        codec.cache_states,
        codec.dir_states,
        codec.mtypes,
        codec.access_kinds,
        system.num_caches,
        system.num_addresses,
        repr(system.workload),
        len(ctx.perms) if ctx.perms is not None else 0,
        ctx.vkernel is not None,
        ctx.kernel is not None,
        ctx.strategy_name,
        tuple(getattr(inv, "__name__", repr(inv)) for inv in ctx.invariants),
        ctx.check_deadlock,
        ctx.check_workload_deadlock,
        ctx.store.hash_compaction,
    )).encode()
    return hashlib.blake2b(material, digest_size=16).hexdigest()


def save(ctx, *, mode: str, frontier, level: int | None,
         shard_blobs: list[bytes] | None = None) -> None:
    """Write *ctx*'s search state to ``ctx.checkpoint_path`` atomically.

    *frontier* is a list of ``(state_id, packed_key)`` pairs in pop order.
    ``mode="sharded"`` passes the workers' digest dumps in *shard_blobs*
    and omits the store's key column (the parent no longer has one).
    """
    path = ctx.checkpoint_path
    payload = {
        "fingerprint": fingerprint(ctx),
        "mode": mode,
        "level": level,
        "frontier": list(frontier),
        "store": ctx.store.snapshot(with_keys=mode != "sharded"),
        "explored": ctx.explored,
        "transitions": ctx.transitions,
        "complete_states": ctx.complete_states,
        "shards": shard_blobs,
    }
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as f:
        # Stream the body through the digest (no in-memory copy of a
        # multi-megabyte pickle), then fill the header in.
        f.write(bytes(_HEADER.size))
        body = _HashingWriter(f)
        pickle.dump(payload, body, protocol=pickle.HIGHEST_PROTOCOL)
        f.seek(0)
        f.write(_HEADER.pack(_MAGIC, CHECKPOINT_VERSION, body.hash.digest()))
    os.replace(tmp, path)


def load(ctx) -> dict | None:
    """Read, validate and apply the checkpoint at ``ctx.checkpoint_path``.

    Returns the payload (the caller's strategy picks the frontier up from
    ``ctx.resume``) or ``None`` when no checkpoint file exists.  Raises
    :class:`CheckpointMismatch` when the file was written by a different
    search configuration or payload version, or when its body does not
    match the header digest (truncated or corrupted).
    """
    path = ctx.checkpoint_path
    if path is None or not os.path.exists(path):
        return None
    with open(path, "rb") as f:
        header = f.read(_HEADER.size)
        if len(header) < _HEADER.size or header[:len(_MAGIC)] != _MAGIC:
            raise CheckpointMismatch(
                f"checkpoint {path!r} has no version-{CHECKPOINT_VERSION} "
                "header (an older payload version, or not a checkpoint)"
            )
        _magic, version, digest = _HEADER.unpack(header)
        if version != CHECKPOINT_VERSION:
            raise CheckpointMismatch(
                f"checkpoint {path!r} has payload version {version}, "
                f"expected {CHECKPOINT_VERSION}"
            )
        if hashlib.file_digest(f, _body_hash).digest() != digest:
            raise CheckpointMismatch(
                f"checkpoint {path!r} is corrupt: its body does not match "
                "the header digest (truncated or modified)"
            )
        f.seek(_HEADER.size)
        payload = pickle.load(f)
    expected = fingerprint(ctx)
    if payload.get("fingerprint") != expected:
        raise CheckpointMismatch(
            f"checkpoint {path!r} was written by a different search "
            "configuration (protocol/workload/symmetry/backend/strategy "
            "mismatch); delete it to start over"
        )
    ctx.store.restore(payload["store"])
    ctx.explored = payload["explored"]
    ctx.transitions = payload["transitions"]
    ctx.complete_states = payload["complete_states"]
    ctx.resume = payload
    ctx.resume_level = payload["level"]
    return payload


def clear(path: str | None) -> None:
    """Remove a consumed checkpoint (the search ran to its end)."""
    if path is not None and os.path.exists(path):
        try:
            os.remove(path)
        except OSError:
            pass


__all__ = ["CHECKPOINT_VERSION", "CheckpointMismatch", "fingerprint",
           "save", "load", "clear"]
