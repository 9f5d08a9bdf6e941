"""Span tracing from outside the program: wrap public layer functions.

:meth:`Tracer.install` replaces each public function in :data:`LAYERS`
with a wrapper that records a span — name, start, end, parent span and
burst id — and restores the originals on :meth:`Tracer.uninstall`.
Nothing inside the program changes; a module-level function is
rebound in every ``repro`` module that imported it, so call sites that
did ``from x import f`` are traced too.

Aggregates (calls, total and self time per span name and phase) are
kept for every span; the raw spans are kept in memory up to
:data:`SPAN_CAP` and written out as JSON lines at the end of the run.
A span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Any, Callable, Optional

#: raw spans kept for the written trace; aggregates cover every span
SPAN_CAP = 200_000

#: (layer, module, owner, attribute): the wrapped public functions.
#: ``owner`` None means a module-level function.
LAYERS = (
    ("acl", "repro.acl.parser", None, "parse_acl"),
    ("acl", "repro.acl.compiler", None, "compile_acl"),
    ("core", "repro.core.table", None, "build_matcher"),
    ("core", "repro.core.frozen", "FrozenMatcher", "from_matcher"),
    ("core", "repro.core.frozen", "FrozenMatcher", "lookup_batch"),
    ("engine", "repro.engine", "ClassificationEngine", "lookup_batch"),
    ("engine", "repro.engine", "ClassificationEngine", "apply_updates"),
    ("resilience", "repro.baselines.sorted_list", "SortedListMatcher", "lookup"),
    ("obs", "repro.obs.metrics", "Histogram", "observe"),
    ("stream", "repro.stream.pipeline", "StreamPipeline", "run"),
    ("tenant", "repro.tenant.router", "TenantRouter", "lookup_batch"),
    ("tenant", "repro.tenant.router", "Tenant", "lookup_batch"),
    ("tenant", "repro.tenant.quotas", "TokenBucket", "take"),
    ("shard", "repro.shard.engine", "ShardedEngine", "__init__"),
    ("shard", "repro.shard.engine", "ShardedEngine", "lookup_batch"),
)


class Tracer:
    """In-memory span recorder with per-name aggregates."""

    def __init__(self) -> None:
        #: (span id, name, start, end, parent id, burst id, phase)
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        #: (phase, name) -> [calls, total seconds, self seconds]
        self.totals: dict[tuple[str, str], list] = {}
        #: (phase, name) -> summed extra counts reported by hooks
        self.counts: dict[tuple[str, str], float] = {}
        self.phase = "setup"
        self.burst: Optional[int] = None
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[3] += duration
        key = (self.phase, name)
        agg = self.totals.get(key)
        if agg is None:
            agg = self.totals[key] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        if len(self.spans) < SPAN_CAP:
            self.spans.append(
                (span_id, name, start, end, parent[0] if parent else None, self.burst, self.phase)
            )
        else:
            self.dropped_spans += 1

    def count(self, name: str, amount: float) -> None:
        key = (self.phase, name)
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        enter, exit_ = self._enter, self._exit

        if hook is None:
            def traced(*args: Any, **kwargs: Any) -> Any:
                frame = enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(frame)
        else:
            def traced(*args: Any, **kwargs: Any) -> Any:
                frame = enter(name)
                after = hook(self, args)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(frame)
                    if after is not None:
                        after()

        return functools.wraps(fn)(traced)

    def install(self, hooks: Optional[dict[str, Callable]] = None) -> None:
        """Wrap every function in :data:`LAYERS`.  ``hooks`` maps a span
        name to ``hook(tracer, args)``, called on entry; it may return a
        callable run on exit (for counters read before and after)."""
        hooks = hooks or {}
        for _layer, module_name, owner_name, attr in LAYERS:
            module = importlib.import_module(module_name)
            name = span_name(owner_name, attr)
            if owner_name is not None:
                owner = getattr(module, owner_name)
                fn = owner.__dict__[attr]
                self._restore.append((owner, attr, fn))
                if isinstance(fn, classmethod):
                    traced = classmethod(self._wrapper(name, fn.__func__, hooks.get(name)))
                else:
                    traced = self._wrapper(name, fn, hooks.get(name))
                setattr(owner, attr, traced)
                continue
            fn = getattr(module, attr)
            traced = self._wrapper(name, fn, hooks.get(name))
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("repro") and getattr(mod, attr, None) is fn:
                    self._restore.append((mod, attr, fn))
                    setattr(mod, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    # -- reading -----------------------------------------------------------

    def total(self, phase: str, name: str) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds) of one span name."""
        calls, total, self_time = self.totals.get((phase, name), (0, 0.0, 0.0))
        return calls, total, self_time

    def table(self, phase: str, per: int, unit: str = "burst") -> list[str]:
        """The per-layer table of one phase, one line per span name,
        with counts and self time divided by ``per`` ``unit``s."""
        layer_of = {span_name(owner, attr): layer for layer, _m, owner, attr in LAYERS}
        rows = sorted(
            ((layer_of.get(name, "?"), name, *agg) for (ph, name), agg in self.totals.items() if ph == phase),
            key=lambda row: (row[0], row[1]),
        )
        per = max(per, 1)
        lines = [
            f"{'layer':<10} {'span':<34} {'calls':>9} {'calls/' + unit:>13} "
            f"{'total_ms':>10} {'self_ms':>10} {'self_us/' + unit:>15}"
        ]
        for layer, name, calls, total, self_time in rows:
            lines.append(
                f"{layer:<10} {name:<34} {calls:>9} {calls / per:>13.2f} "
                f"{total * 1e3:>10.1f} {self_time * 1e3:>10.1f} {self_time * 1e6 / per:>15.1f}"
            )
        return lines

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, burst, phase in self.spans:
                out.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "burst": burst, "phase": phase}
                    )
                    + "\n"
                )


def span_name(owner: Optional[str], attr: str) -> str:
    return attr if owner is None else f"{owner}.{attr}"
