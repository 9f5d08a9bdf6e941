"""Sharded multi-process data plane over a shared-memory PLMF image.

The in-process engine caps the frozen plane at one core; this package
is ROADMAP item 1's answer — the parallel-lanes-over-one-compiled-
ruleset topology (software analogue of the FPGA firewall lanes of
arXiv 1611.06078, with the shared read-only forwarding structure
arguments of arXiv 1804.09254):

* :mod:`repro.shard.plane` — publish one serialized frozen plane into
  ``multiprocessing.shared_memory``; workers map it zero-copy;
* :mod:`repro.shard.worker` — the per-process serving loop (lazy
  plane remap, leaf-index answers);
* :mod:`repro.shard.engine` — :class:`ShardedEngine`, the
  :class:`~repro.engine.ClassificationEngine` subclass that owns the
  worker pool and sends it the engine's cache misses.

Entry points: ``EngineConfig(shards=N)`` through
:meth:`repro.engine.ClassificationEngine.from_config` or
:func:`repro.serve`; the CLI's ``replay --shards N``.
"""

from .engine import ShardedEngine, flow_shard
from .plane import attach_plane, detach_plane, publish_plane

__all__ = [
    "ShardedEngine",
    "flow_shard",
    "publish_plane",
    "attach_plane",
    "detach_plane",
]
