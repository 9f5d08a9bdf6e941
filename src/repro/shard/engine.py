"""The sharded multi-process data plane.

:class:`ShardedEngine` is a :class:`~repro.engine.ClassificationEngine`
whose frozen-plane walks run in N worker processes.  Everything else —
the flow cache, the guard rail and its shadow checks, metrics, updates,
checkpoints, last-good and rollouts — is the engine's own; this class
only owns the worker pool.

Topology::

    parent: ClassificationEngine                    workers
    ──────────────────────────────────────         ────────────────
    flow cache → guard ladder → unique misses ──▶  shard 0 ─┐
      (the frozen-plane rung is the pool)           shard 1 ─┼── one
    FrozenMatcher ── serialize_frozen ──▶ PLMF in shared memory ◀┘ mapping

Every worker maps the *same* PLMF image zero-copy
(:mod:`repro.shard.plane`), so memory stays O(1) in the worker count.
The parent's cache answers repeats before any process hop, so workers
only see unique misses; with more than one worker those are split
RSS-style by :func:`flow_shard` — a splitmix64-style avalanche over the
packed 5-tuple, so every header bit perturbs the shard choice (CPython's
int hash is near-identity and would let a constant low-order field pin
the shard).  With one worker nothing is hashed.

Policy updates are atomic cross-shard swaps built from the update
plane's coherence stamp: when the engine's ``(epoch, generation)`` pair
moves, the next batch republishes the engine's own frozen plane under a
new monotonic stamp, and workers remap lazily when a request names the
new stamp — no barrier, no torn reads (an old image stays mapped until
every live worker has acknowledged a newer one).  A policy swap
(``replace_matcher``, which ``restore_last_good`` and rollout promotion
go through) and ``invalidate_all`` republish eagerly.

Worker death is degradation, not an outage: the dead shard's bucket is
walked on the parent's own frozen plane, the fault is recorded as
``shard_worker``, and a failing walk there falls on down the engine's
ladder (matcher, then reference).  The worker is respawned up to
``shard_max_restarts`` times, and ``health`` reads ``degraded`` while
any shard is down.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from typing import Any, Iterable, Optional, Sequence, Union

from ..config import DEFAULT_CONFIG, EngineConfig
from ..core.frozen import FrozenMatcher
from ..core.multibit import MultibitPalmtrie
from ..core.plus import PalmtriePlus
from ..core.table import TernaryEntry, TernaryMatcher
from ..engine import ClassificationEngine
from .plane import PublishedPlane, publish_plane
from .worker import shard_worker_main

__all__ = ["ShardedEngine", "flow_shard"]


_MIX_MASK = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """The splitmix64 finalizer: a full-avalanche 64-bit mix."""
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MIX_MASK
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MIX_MASK
    return x ^ (x >> 31)


def flow_shard(query: int, shards: int) -> int:
    """The RSS role: which worker owns this flow.

    Deterministic across processes and runs (no ``PYTHONHASHSEED``
    dependence) and avalanched: the query is folded into 64-bit limbs
    through the splitmix64 finalizer, so every header bit — not just
    the low-order ones — perturbs the shard choice.  CPython's ``hash``
    on an int is the value mod 2^61-1, which with power-of-two shard
    counts made a constant low field (a fixed dst port, say) pin all
    traffic to one worker.
    """
    mixed = _splitmix64(query & _MIX_MASK)
    query >>= 64
    while query:
        mixed = _splitmix64(mixed ^ (query & _MIX_MASK))
        query >>= 64
    return mixed % shards


class _ShardDead(Exception):
    """Internal: the worker behind a handle is gone for this request."""


class _ShardHandle:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = ("index", "proc", "conn", "alive", "restarts", "last_stamp", "last_error", "routed")

    def __init__(self, index: int) -> None:
        self.index = index
        self.proc: Any = None
        self.conn: Any = None
        self.alive = False
        self.restarts = 0
        self.last_stamp = -1
        self.last_error: Optional[str] = None
        #: queries routed to this shard by the parent (cumulative)
        self.routed = 0


class ShardedEngine(ClassificationEngine):
    """A :class:`~repro.engine.ClassificationEngine` whose frozen-plane
    walks run in ``config.shards`` worker processes.

    Build one with ``ClassificationEngine.from_config(matcher,
    EngineConfig(shards=N))`` (or :func:`repro.serve`).  Workers serve
    the engine's own frozen plane and dead workers degrade down its
    guard ladder, so ``auto_freeze`` and ``resilience`` are always on;
    a matcher the plane cannot compile from is rebuilt as a
    :class:`~repro.core.frozen.FrozenMatcher` from its entries.  Call
    :meth:`close` (or use the engine as a context manager) to stop the
    workers and unlink the shared segments.
    """

    def __init__(
        self,
        matcher: Union[TernaryMatcher, Any],
        config: Optional[EngineConfig] = None,
        *,
        start_method: Optional[str] = None,
    ) -> None:
        import multiprocessing

        config = config if config is not None else DEFAULT_CONFIG
        if config.shards <= 0:
            raise ValueError(
                f"ShardedEngine needs config.shards >= 1, got {config.shards}"
            )
        if not isinstance(matcher, (MultibitPalmtrie, PalmtriePlus, FrozenMatcher)):
            matcher = FrozenMatcher.build(
                list(matcher.entries()), matcher.key_length, stride=config.stride or 8
            )
        super().__init__(
            matcher, config.replace(auto_freeze=True, resilience=config.resilience or True)
        )
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            start_method or ("fork" if "fork" in methods else "spawn")
        )
        self._publish_seq = 0
        self._planes: dict[int, PublishedPlane] = {}
        #: the frozen plane the current image was serialized from
        self._published: Optional[FrozenMatcher] = None
        self._stamp = -1
        self._published_for: Optional[tuple[int, int]] = None
        self._closed = False
        self._shards: list[_ShardHandle] = []
        self.worker_deaths = 0
        self.respawns = 0
        #: misses walked by the parent because their shard was down
        self.local_fallback_lookups = 0
        self._republish(force=True)
        if self._published is None:
            raise RuntimeError("ShardedEngine: the frozen plane failed to compile")
        self._shards = [self._spawn(i) for i in range(config.shards)]
        registry = self.metrics
        if registry is not None:
            registry.add_collector(self._collect_metrics)

    # -- plane publishing (the atomic swap half) ------------------------

    def _coherence_stamp(self) -> tuple[int, int]:
        return (self.epoch, getattr(self._matcher, "generation", 0))

    def _republish(self, force: bool = False) -> None:
        """Publish the engine's frozen plane as a fresh PLMF image if the
        ``(epoch, generation)`` stamp moved or the plane was recompiled
        (or ``force``).

        Publishing never blocks workers — they keep answering from the
        old image until a request carries the new stamp.  While the
        engine serves below the frozen rung (quarantine, an open
        breaker) nothing is published and misses never reach the pool.
        """
        if self._closed:
            return
        if (
            not force
            and self._plane is self._published
            and self._published_for == self._coherence_stamp()
        ):
            return
        self._sync()
        plane = self._lookup_target()
        if plane is not self._plane:
            return
        stamp_key = self._coherence_stamp()
        if not force and plane is self._published and self._published_for == stamp_key:
            return
        self._publish_seq += 1
        self._planes[self._publish_seq] = publish_plane(
            plane, self._publish_seq, epoch=stamp_key[0], generation=stamp_key[1]
        )
        self._published = plane
        self._stamp = self._publish_seq
        self._published_for = stamp_key
        self._retire_stale()

    def _retire_stale(self) -> None:
        """Unlink images every live worker has moved past."""
        floor = self._stamp
        for handle in self._shards:
            if handle.alive:
                floor = min(floor, handle.last_stamp)
        for stamp in [s for s in self._planes if s < floor]:
            self._planes.pop(stamp).retire()

    # -- worker lifecycle ------------------------------------------------

    def _spawn(self, index: int, restarts: int = 0) -> _ShardHandle:
        handle = _ShardHandle(index)
        handle.restarts = restarts
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=shard_worker_main,
            args=(child_conn, index, self._stamp, self._planes[self._stamp].name),
            name=f"palmtrie-shard-{index}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        handle.proc = proc
        handle.conn = parent_conn
        handle.alive = True
        handle.last_stamp = self._stamp
        return handle

    def _mark_dead(self, handle: _ShardHandle, exc: BaseException) -> None:
        if handle.alive:
            handle.alive = False
            self.worker_deaths += 1
        handle.last_error = repr(exc)
        self._guard.record_fault("shard_worker", exc)
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover
            pass
        if handle.proc is not None:
            handle.proc.terminate()
            handle.proc.join(timeout=1.0)

    def _ensure_alive(self, handle: _ShardHandle) -> Optional[_ShardHandle]:
        """The serving handle for a shard slot, respawning if the ladder
        allows; None when the shard is past ``shard_max_restarts`` (its
        bucket is walked by the parent from then on)."""
        if handle.alive:
            return handle
        if handle.restarts >= self.config.shard_max_restarts:
            return None
        try:
            replacement = self._spawn(handle.index, restarts=handle.restarts + 1)
        except OSError as exc:  # pragma: no cover - fork failure
            handle.last_error = repr(exc)
            return None
        replacement.routed = handle.routed
        replacement.last_error = handle.last_error
        self._shards[handle.index] = replacement
        self.respawns += 1
        return replacement

    def _send(self, handle: _ShardHandle, message: tuple) -> None:
        try:
            handle.conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            self._mark_dead(handle, exc)
            raise _ShardDead from exc

    def _recv(self, handle: _ShardHandle) -> Any:
        """One reply on a worker pipe; raises ``_ShardDead``."""
        try:
            if not handle.conn.poll(self.config.shard_timeout):
                raise TimeoutError(
                    f"shard {handle.index} silent for {self.config.shard_timeout}s"
                )
            reply = handle.conn.recv()
        except (BrokenPipeError, EOFError, OSError, TimeoutError) as exc:
            self._mark_dead(handle, exc)
            raise _ShardDead from exc
        if reply[0] != "ok":
            # The worker survived a bad request; the request did not.
            self._guard.record_fault(reply[1], RuntimeError(reply[2]))
            raise _ShardDead
        return reply[1]

    def _scatter(
        self, op: str, queries: Sequence[int]
    ) -> tuple[list[tuple[Sequence[int], Any]], list[Sequence[int]]]:
        """Send every shard its flow-hash bucket of ``queries`` as one
        ``op`` request against the current image.

        Returns ``(replies, lost)``: ``(slots, reply)`` per answering
        shard, and the slots of every bucket no worker answered, where a
        slot indexes ``queries``.
        """
        n = len(self._shards)
        if n == 1:
            slot_lists: list[Sequence[int]] = [range(len(queries))]
        else:
            slot_lists = [[] for _ in range(n)]
            for i, q in enumerate(queries):
                slot_lists[flow_shard(q, n)].append(i)
        stamp = self._stamp
        name = self._planes[stamp].name
        pending: list[tuple[_ShardHandle, Sequence[int]]] = []
        lost: list[Sequence[int]] = []
        for s, slots in enumerate(slot_lists):
            if not slots:
                continue
            handle = self._ensure_alive(self._shards[s])
            try:
                if handle is None:
                    raise _ShardDead
                bucket = queries if n == 1 else [queries[i] for i in slots]
                self._send(handle, (op, stamp, name, bucket))
            except _ShardDead:
                lost.append(slots)
                continue
            pending.append((handle, slots))
        replies: list[tuple[Sequence[int], Any]] = []
        for handle, slots in pending:
            try:
                reply = self._recv(handle)
            except _ShardDead:
                lost.append(slots)
                continue
            handle.last_stamp = stamp
            handle.routed += len(slots)
            replies.append((slots, reply))
        return replies, lost

    def _walk_locally(self, plane: Any, queries: Sequence[int]) -> list[Optional[TernaryEntry]]:
        """A lost bucket, walked on the parent's own frozen plane."""
        self.local_fallback_lookups += len(queries)
        self._guard.degraded_lookups += len(queries)
        return super()._resolve_plane(plane, queries)

    # -- the serving surface ---------------------------------------------

    def _resolve_plane(self, plane: Any, unique: Sequence[int]) -> list[Optional[TernaryEntry]]:
        """The frozen-plane rung, served by the workers.  Workers answer
        in leaf indices, resolved against the published plane, so entry
        objects never cross a process boundary.  A plane the workers do
        not hold yet (an update since the last batch) is walked here."""
        if (
            self._closed
            or plane is not self._published
            or self._published_for != self._coherence_stamp()
        ):
            return super()._resolve_plane(plane, unique)
        results: list[Optional[TernaryEntry]] = [None] * len(unique)
        replies, lost = self._scatter("batch", unique)
        best_of = plane._leaf_best
        for slots, indices in replies:
            for i, j in zip(slots, indices):
                if j >= 0:
                    results[i] = best_of[j]
        for slots in lost:
            bucket = [unique[i] for i in slots]
            for i, entry in zip(slots, self._walk_locally(plane, bucket)):
                results[i] = entry
        return results

    def lookup_batch(self, queries: Sequence[int]) -> list[Optional[TernaryEntry]]:
        """The engine's batch path, with the image kept current: a moved
        stamp republishes first, and images every worker has left are
        retired after."""
        self._republish()
        results = super().lookup_batch(queries)
        self._retire_stale()
        return results

    def replay(
        self, trace: Iterable[int], chunk_size: int = 8192
    ) -> dict[str, Any]:
        """The streaming data-plane path: replay a trace, count verdicts.

        Unlike :meth:`lookup_batch` (which must return per-query
        answers in order), a replay only needs aggregates — so workers
        reply with ``{leaf index: occurrences}`` dictionaries the size
        of the rule set, and per-query parent work is one hash and one
        list append.  The flow cache is bypassed.  This is the path
        ``bench_shards`` measures and ``palmtrie-repro replay --shards
        N`` serves.
        """
        if self._closed:
            raise RuntimeError("engine is closed")
        self._republish()
        if self._published_for != self._coherence_stamp():
            raise RuntimeError(
                "replay needs the frozen plane, but the engine serves below it "
                f"({self.health})"
            )
        plane = self._published
        best_of = plane._leaf_best
        verdicts: Counter = Counter()
        missed = queries = 0
        started = time.perf_counter()
        trace = iter(trace)
        while True:
            chunk = list(itertools.islice(trace, chunk_size))
            if not chunk:
                break
            queries += len(chunk)
            replies, lost = self._scatter("count", chunk)
            for _slots, counts in replies:
                for j, count in counts.items():
                    if j < 0:
                        missed += count
                    else:
                        verdicts[best_of[j].value] += count
            for slots in lost:
                for entry in self._walk_locally(plane, [chunk[i] for i in slots]):
                    if entry is None:
                        missed += 1
                    else:
                        verdicts[entry.value] += 1
        seconds = time.perf_counter() - started
        self._retire_stale()
        return {
            "queries": queries,
            "seconds": seconds,
            "qps": queries / seconds if seconds > 0 else 0.0,
            "matched": queries - missed,
            "missed": missed,
            "verdicts": dict(verdicts),
            "shards": len(self._shards),
            "local_fallback_lookups": self.local_fallback_lookups,
        }

    # -- eager republish on a policy swap ---------------------------------

    def replace_matcher(self, matcher: Union[TernaryMatcher, Any]) -> None:
        # Promotion and restore_last_good swap through here: remap the
        # workers now, not at the next batch, so a rollback never
        # leaves the bad policy's image published.
        super().replace_matcher(matcher)
        self._republish(force=True)

    def invalidate_all(self) -> int:
        # The operator's reset lever: workers also remap onto a freshly
        # serialized image of the current plane.
        dropped = super().invalidate_all()
        self._republish(force=True)
        return dropped

    # -- health / observability ------------------------------------------

    @property
    def health(self) -> str:
        """Worst of the engine's ladder and the worker fleet."""
        health = super().health
        if health == "ok" and any(not h.alive for h in self._shards):
            return "degraded"
        return health

    @property
    def shards_alive(self) -> int:
        return sum(1 for h in self._shards if h.alive)

    def _collect_metrics(self) -> None:
        """Per-shard gauges/counters, labeled ``{"shard": i}`` (runs as
        a registry collector before every export)."""
        registry = self.metrics
        if registry is None:  # pragma: no cover - collector unhooked
            return
        for handle in self._shards:
            labels = {"shard": str(handle.index)}
            registry.gauge(
                "shard_alive", "1 while this shard's worker serves", labels=labels
            ).set(1.0 if handle.alive else 0.0)
            registry.counter(
                "shard_routed_lookups_total",
                "cache misses routed to this shard",
                labels=labels,
            ).set_total(handle.routed)
            registry.counter(
                "shard_restarts_total",
                "times this shard's worker was respawned",
                labels=labels,
            ).set_total(handle.restarts)
        registry.counter(
            "shard_worker_deaths_total", "worker processes lost"
        ).set_total(self.worker_deaths)
        registry.counter(
            "shard_local_fallback_lookups_total",
            "queries served by the parent because a shard was down",
        ).set_total(self.local_fallback_lookups)

    def worker_reports(self) -> list[dict[str, Any]]:
        """Ask every live worker for its own counters (best effort)."""
        reports: list[dict[str, Any]] = []
        for handle in self._shards:
            if handle.alive:
                try:
                    self._send(handle, ("report",))
                    report = self._recv(handle)
                except _ShardDead:
                    pass
                else:
                    report["alive"] = True
                    report["restarts"] = handle.restarts
                    reports.append(report)
                    continue
            reports.append({
                "shard": handle.index,
                "alive": False,
                "restarts": handle.restarts,
                "last_error": handle.last_error,
            })
        return reports

    def report(self) -> dict[str, Any]:
        summary = super().report()
        current = self._planes.get(self._stamp)
        summary["shards"] = {
            "count": len(self._shards),
            "alive": self.shards_alive,
            "stamp": self._stamp,
            "published_for": self._published_for,
            "published_planes": len(self._planes),
            "plane_bytes": current.size_bytes if current is not None else 0,
            "worker_deaths": self.worker_deaths,
            "respawns": self.respawns,
            "local_fallback_lookups": self.local_fallback_lookups,
            "workers": self.worker_reports(),
        }
        return summary

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Stop the workers and unlink every shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for handle in self._shards:
            if not handle.alive:
                continue
            try:
                handle.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for handle in self._shards:
            if handle.proc is not None:
                handle.proc.join(timeout=2.0)
                if handle.proc.is_alive():  # pragma: no cover - stuck worker
                    handle.proc.terminate()
                    handle.proc.join(timeout=1.0)
            handle.alive = False
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover
                pass
        for published in self._planes.values():
            published.retire()
        self._planes.clear()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass
