"""Outside-in layer tracing for the benchmark.

The tracer replaces public layer-boundary methods and functions with timing
wrappers *before* ``verify()`` runs, so nothing under ``src/`` changes.  A
span stack attributes each call's duration to its layer and charges it to
the enclosing span as child time, which gives every layer both its
inclusive time (time spent inside its wrapped calls) and its self time
(inclusive minus nested wrapped calls).  Spans are aggregated in memory per
layer -- one record per name, not one per call -- and handed to the caller
when the run ends.

Workers forked by the parallel strategy would inherit the wrappers and
record into memory the parent never sees, so the tracer restores the
original attributes in every forked child: worker-side cost is measured
out of process instead (``RUSAGE_CHILDREN`` and the program's own worker
counters).
"""

from __future__ import annotations

import os
import time


class Tracer:
    """Aggregated timing spans around wrapped layer boundaries."""

    def __init__(self):
        #: name -> [inclusive_s, self_s, calls, rows, useful]
        self.totals: dict[str, list] = {}
        # Child-time accumulator of each open span; the bottom frame
        # collects the time of spans opened outside any other span.
        self._stack: list[list[float]] = [[0.0]]
        self._originals: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self.restore)

    def timed(self, name: str, fn, measure=None):
        """*fn* wrapped in a span named *name*.

        *measure*, when given, is called as ``measure(args, result)`` after
        each call and returns ``(rows, useful)``: the work the call did and
        how much of it was useful (for instance rows interned and the new
        states among them).
        """
        acc = self.totals.setdefault(name, [0.0, 0.0, 0, 0, 0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                acc[0] += elapsed
                acc[1] += elapsed - frame[0]
                acc[2] += 1
            if measure is not None:
                rows, useful = measure(args, result)
                acc[3] += rows
                acc[4] += useful
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap(self, owner, attr: str, name: str, measure=None) -> None:
        """Time every call of ``owner.attr`` under layer *name* (see
        :meth:`timed`) until :meth:`restore`."""
        original = owner.__dict__[attr]
        self._originals.append((owner, attr, original))
        setattr(owner, attr, self.timed(name, original, measure))

    def restore(self) -> None:
        """Put every wrapped attribute back (idempotent)."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def get(self, name: str) -> list:
        """``[inclusive_s, self_s, calls, rows, useful]`` of layer *name*."""
        return self.totals.get(name, [0.0, 0.0, 0, 0, 0])


def install(tracer: Tracer) -> None:
    """Wrap the public boundaries the search calls through, layer by layer."""
    from repro.system.codec import StateCodec
    from repro.system.kernel import TransitionKernel
    from repro.system.vectorized import VectorizedKernel
    from repro.verification.engine import checkpoint
    from repro.verification.engine.canonical import EncodedCanonicalizer
    from repro.verification.engine.parallel import ShmEngine
    from repro.verification.engine.store import StateStore

    tracer.wrap(TransitionKernel, "enabled", "kernel.enabled")
    tracer.wrap(TransitionKernel, "check", "kernel.check")
    tracer.wrap(StateCodec, "pack", "codec.pack")
    tracer.wrap(EncodedCanonicalizer, "canonicalize", "canonical.canonicalize")
    # collect_level(ids, F, sids): the frontier rows expanded in one level.
    tracer.wrap(VectorizedKernel, "collect_level", "vectorized.collect_level",
                measure=lambda args, result: (len(args[1]), 0))
    tracer.wrap(VectorizedKernel, "assemble", "vectorized.assemble")
    tracer.wrap(VectorizedKernel, "check_level", "vectorized.check_level")
    # Store rows interned against the genuinely new states among them.
    tracer.wrap(StateStore, "intern", "store.intern",
                measure=lambda args, result: (1, int(result[1])))
    tracer.wrap(StateStore, "intern_batch", "store.intern_batch",
                measure=lambda args, result: (
                    len(result), sum(1 for new_id in result if new_id >= 0)))
    tracer.wrap(StateStore, "intern_children", "store.intern_children",
                measure=lambda args, result: (len(args[2]), len(result)))
    tracer.wrap(StateStore, "append_link", "store.append_link",
                measure=lambda args, result: (1, 1))
    tracer.wrap(ShmEngine, "spinup", "parallel.spinup")
    tracer.wrap(ShmEngine, "drive", "parallel.drive")
    tracer.wrap(ShmEngine, "shutdown", "parallel.shutdown")
    # save(ctx, ...): the snapshot's size on disk once it is written.
    tracer.wrap(checkpoint, "save", "checkpoint.save",
                measure=lambda args, result: (
                    os.path.getsize(args[0].checkpoint_path), 0))
    tracer.wrap(checkpoint, "load", "checkpoint.load")


#: The store's intern entry points, reported together as one layer.
STORE_SPANS = ("store.intern", "store.intern_batch", "store.intern_children",
               "store.append_link")
