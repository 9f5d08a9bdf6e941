"""The three closed-loop workloads and the measurement loop they share.

One caller hands the stack a burst and waits for its verdicts before it
draws the next one.  A run sets the stack up :data:`SETUPS` times from
policy text (keeping the last), warms it up for a fixed number of
rounds, then serves whole rounds until its time is up.  Every verdict
served — set-up, warm-up and measured — is recorded per (query, policy
version) and checked against the :class:`~oracle.Oracle`.

``tenant-zipf``
    One tenant behind ``TenantRouter``: 64-packet Zipf bursts, no
    updates, a rate quota that never denies.
``scan-churn``
    ``StreamPipeline`` (block policy, no service quantum) over an
    engine: 70 % reverse-byte SIP-scan probes and 30 % Zipf background,
    with a /16 deny insert/delete treadmill every :data:`CHURN_BURSTS`
    bursts.
``shard-bulk``
    ``ShardedEngine`` with one worker: 1024-packet Zipf bursts over a
    flow population many times the cache, no updates.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from typing import Any, Optional

import inputs
from oracle import Oracle

#: ternary entries in the compiled policy (about 500 fw rules)
POLICY_ENTRIES = 2600
#: flow-cache rows, as docs/deployment.md recommends for serving
CACHE_ROWS = 4096
SHADOW_SAMPLE = 0.01
#: Zipf exponent of every flow population
ZIPF_S = 1.1
#: set-ups per run; setup_s is their median
SETUPS = 7
#: share of scan probes in scan-churn traffic
SCAN_SHARE = 0.7
#: scan-churn bursts between two policy updates (one round)
CHURN_BURSTS = 40


class Ledger:
    """Verdicts served under one policy version, keyed by query.

    A verdict is the served entry's ``(priority, value)``, or None for
    an answer without a priority (a fail-closed None, a quota denial, a
    shed or dropped packet).  The oracle answers None only where no
    entry matches, and every generated policy ends in ``deny ip any
    any``, so such an answer is a mismatch.  A query answered two
    different ways under one version is a mismatch however the oracle
    rules.
    """

    def __init__(self) -> None:
        self.seen: dict[int, list] = {}
        self.inconsistent = 0

    def record(self, burst: list[int], verdicts: list[Any]) -> None:
        seen = self.seen
        for query, entry in zip(burst, verdicts):
            priority = getattr(entry, "priority", None)
            verdict = None if priority is None else (priority, entry.value)
            row = seen.get(query)
            if row is None:
                seen[query] = [verdict, 1]
            elif row[0] == verdict:
                row[1] += 1
            else:
                self.inconsistent += 1

    def check(self, oracle: Oracle) -> int:
        """Packets whose verdict the oracle contradicts; clears the ledger."""
        queries = list(self.seen)
        expected = oracle.lookup_many(queries)
        wrong = sum(
            self.seen[q][1] for q, want in zip(queries, expected) if self.seen[q][0] != want
        )
        wrong += self.inconsistent
        self.seen = {}
        self.inconsistent = 0
        return wrong


def serving_config(seed: int, **changes: Any) -> Any:
    """The serving configuration docs/deployment.md recommends: a
    4096-row flow cache, the frozen plane, metrics, and a guard rail
    shadow-verifying 1 % of answers."""
    from repro import EngineConfig, GuardRail
    from repro.obs import MetricsRegistry

    return EngineConfig(
        cache_size=CACHE_ROWS,
        auto_freeze=True,
        metrics=MetricsRegistry(),
        resilience=GuardRail(shadow_sample=SHADOW_SAMPLE, shadow_seed=seed),
        **changes,
    )


class Workload:
    """Inputs and stack of one workload; subclasses fill in the shape."""

    name = ""
    burst_size = 64
    flows = 16384
    round_bursts = 16
    warmup_rounds = 20
    #: pin the benchmark process (and the workers it forks) to one CPU
    one_cpu = False

    def __init__(self, seed: int) -> None:
        from repro.acl.layout import LAYOUT_V4

        self.seed = seed
        self.layout = LAYOUT_V4
        self.rules = inputs.fw_rules(seed, POLICY_ENTRIES)
        self.text = inputs.policy_text(self.rules)
        self._offsets = [LAYOUT_V4.offset(field) for field in inputs.Header._fields]
        self.population = [
            self.pack(h) for h in inputs.flow_population(self.rules, self.flows, seed)
        ]
        self.zipf = inputs.ZipfSampler(
            self.flows, ZIPF_S, inputs.rng_for(seed, inputs.SALT_TRAFFIC)
        )
        self.rng = inputs.rng_for(seed, inputs.SALT_TRAFFIC + 1)
        self.first_burst = self.next_burst()

    def pack(self, header: inputs.Header) -> int:
        query = 0
        for value, offset in zip(header, self._offsets):
            query |= value << offset
        return query

    def next_burst(self) -> list[int]:
        population = self.population
        return [population[r] for r in self.zipf.ranks(self.burst_size)]

    def oracle(self) -> Oracle:
        """The oracle over the policy's compiled entries."""
        from repro import compile_acl, parse_acl

        compiled = compile_acl(parse_acl(self.text))
        return Oracle(
            compiled.layout.length,
            ((e.key.data, e.key.mask, e.priority, e.value) for e in compiled.entries),
        )

    # -- the stack (subclasses) -------------------------------------------

    def build(self) -> Any:
        """Policy text to a serving stack."""
        raise NotImplementedError

    def serve(self, stack: Any, burst: list[int]) -> list[Any]:
        raise NotImplementedError

    def engine(self, stack: Any) -> Any:
        """The in-process engine (or sharded facade) behind the stack."""
        raise NotImplementedError

    def close(self, stack: Any) -> None:
        """Release what the stack holds (worker processes)."""

    def fallback_packets(self, stack: Any) -> int:
        """Packets a fallback path answered (counted as failed)."""
        return 0

    def serving_plane(self, stack: Any) -> Any:
        """The structure cache misses are resolved against.  Neither
        engine exposes it publicly, so it is read from the engine."""
        return self.engine(stack)._lookup_target()

    def worker_pids(self, stack: Any) -> list[int]:
        """Process ids of the live workers serving the stack."""
        return []

    def update_ops(self, round_index: int) -> Optional[tuple[list, list]]:
        """(program ops, oracle ops) due before this round, or None."""
        return None

    def counters(self, stack: Any) -> dict[str, float]:
        """Program-side counters read at phase boundaries."""
        engine = self.engine(stack)
        guard = engine.resilience
        return {
            "lookups": engine.stats.lookups,
            "hits": engine.stats.cache_hits,
            "misses": engine.stats.cache_misses,
            "shadow_checks": guard.shadow_checks if guard is not None else 0,
            "invalidated": engine.cache_rows_invalidated,
        }


class TenantZipf(Workload):
    name = "tenant-zipf"

    def build(self) -> Any:
        from repro.tenant import TenantRouter
        from repro.tenant.manifest import TenantSpec

        # A quota far above the offered rate: the bucket runs on every
        # packet and never denies.
        spec = TenantSpec(
            name="t0", acl=self.text, engine=serving_config(self.seed),
            rate=1e12, burst=1e12,
        )
        return TenantRouter([spec])

    def serve(self, stack: Any, burst: list[int]) -> list[Any]:
        return stack.lookup_batch("t0", burst)

    def engine(self, stack: Any) -> Any:
        return stack["t0"].engine

    def close(self, stack: Any) -> None:
        stack.close()


class ScanChurn(Workload):
    name = "scan-churn"
    flows = 1024
    round_bursts = CHURN_BURSTS
    warmup_rounds = 1

    def __init__(self, seed: int) -> None:
        self.scan_rng = inputs.rng_for(seed, inputs.SALT_TRAFFIC + 2)
        self.scan_counter = self.scan_rng.randrange(1 << 24)
        self.networks = inputs.churn_networks(seed)
        self.previous: Optional[Any] = None
        super().__init__(seed)

    def next_burst(self) -> list[int]:
        rng, scan_rng = self.rng, self.scan_rng
        background = iter(super().next_burst())
        burst = []
        for _ in range(self.burst_size):
            if rng.random() < SCAN_SHARE:
                self.scan_counter += 1
                burst.append(self.pack(inputs.scan_probe(self.scan_counter, scan_rng)))
            else:
                burst.append(next(background))
        return burst

    def build(self) -> Any:
        from repro import serve
        from repro.stream import StreamPipeline

        return StreamPipeline(serve(self.text, serving_config(self.seed)), policy="block")

    def serve(self, stack: Any, burst: list[int]) -> list[Any]:
        return stack.run([burst], collect_verdicts=True).verdicts

    def engine(self, stack: Any) -> Any:
        return stack.engine

    def update_ops(self, round_index: int) -> tuple[list, list]:
        """Block the next /16 of the scanned space with a deny above
        every rule, and retire the previous block."""
        from repro import TernaryEntry, TernaryKey

        net = next(self.networks)
        dst = TernaryKey((10 << 24) | (net << 16), (1 << 16) - 1, 32)
        key = self.layout.pack_key(dst_ip=dst)
        priority = len(self.rules) + 1 + round_index
        entry = TernaryEntry(key, value=f"block-{round_index}", priority=priority)
        ops: list = [("insert", entry)]
        oracle_ops: list = [("insert", key.data, key.mask, priority, entry.value)]
        if self.previous is not None:
            ops.append(("delete", self.previous))
            oracle_ops.append(("delete", self.previous.data, self.previous.mask))
        self.previous = key
        return ops, oracle_ops


class ShardBulk(Workload):
    name = "shard-bulk"
    burst_size = 1024
    flows = 65536
    round_bursts = 4
    warmup_rounds = 10
    # In a closed loop with one worker the parent and the worker take
    # turns and never compute at once, so one CPU costs no parallelism.
    # Left to float, each hand-off may wake the other CPU, and under
    # the host's scheduling noise that wake-up doubled p90 between runs.
    one_cpu = True

    def build(self) -> Any:
        from repro import serve

        return serve(self.text, serving_config(self.seed, shards=1))

    def serve(self, stack: Any, burst: list[int]) -> list[Any]:
        return stack.lookup_batch(burst)

    def engine(self, stack: Any) -> Any:
        return stack

    def close(self, stack: Any) -> None:
        stack.close()

    def fallback_packets(self, stack: Any) -> int:
        return stack.local_fallback_lookups

    def serving_plane(self, stack: Any) -> Any:
        # the plane published to the worker
        return stack._plane

    def worker_pids(self, stack: Any) -> list[int]:
        return [r["pid"] for r in stack.worker_reports() if r.get("alive")]

    def counters(self, stack: Any) -> dict[str, float]:
        counts = super().counters(stack)
        worker = stack.worker_reports()[0]
        counts["worker_lookups"] = worker.get("lookups", 0)
        counts["worker_hits"] = worker.get("cache_hits", 0)
        return counts


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (TenantZipf, ScanChurn, ShardBulk)
}


class Phase:
    """What one serving phase measured and checked."""

    def __init__(self) -> None:
        self.setup_seconds: list[float] = []
        self.burst_seconds: list[float] = []
        self.update_seconds: list[float] = []
        self.update_to_serve: list[float] = []
        self.measured_packets = 0
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.plane_bytes = 0
        self.worker_private_mb = 0.0
        self.before: dict[str, float] = {}
        self.after: dict[str, float] = {}

    @property
    def bursts(self) -> int:
        return len(self.burst_seconds)

    @property
    def serving_seconds(self) -> float:
        return sum(self.burst_seconds) + sum(self.update_seconds)

    @property
    def throughput_pps(self) -> float:
        return self.measured_packets / self.serving_seconds


def run_phase(
    wl: Workload,
    seconds: float,
    tracer: Optional[Any] = None,
    corrupt: bool = False,
) -> Phase:
    """Set up, warm up and serve ``wl`` for ``seconds``; check every verdict."""
    def mark(name: str) -> None:
        if tracer is not None:
            tracer.phase = name

    mark("prepare")
    phase = Phase()
    oracle = wl.oracle()
    ledger = Ledger()
    stack = None

    def serve_burst(burst: list[int], burst_id: int) -> float:
        if tracer is not None:
            tracer.burst = burst_id
        start = time.perf_counter()
        verdicts = wl.serve(stack, burst)
        elapsed = time.perf_counter() - start
        if corrupt and burst_id == 0:
            verdicts = list(verdicts)
            verdicts[0] = _Corrupted(verdicts[0])
        ledger.record(burst, verdicts)
        phase.attempted += len(burst)
        return elapsed

    try:
        mark("setup")
        for _ in range(SETUPS):
            if stack is not None:
                phase.failed += wl.fallback_packets(stack)
                wl.close(stack)
                stack = None
            gc.collect()
            start = time.perf_counter()
            stack = wl.build()
            verdicts = wl.serve(stack, wl.first_burst)
            phase.setup_seconds.append(time.perf_counter() - start)
            ledger.record(wl.first_burst, verdicts)
            phase.attempted += len(wl.first_burst)

        mark("warmup")
        burst_id = 0
        round_index = 0
        deadline = None
        measuring = False
        while True:
            if round_index == wl.warmup_rounds:
                mark("serve")
                measuring = True
                phase.before = wl.counters(stack)
                deadline = time.perf_counter() + seconds
            elif measuring and time.perf_counter() >= deadline:
                break
            due = wl.update_ops(round_index)
            update_seconds = None
            if due is not None:
                ops, oracle_ops = due
                phase.mismatches += ledger.check(oracle)
                start = time.perf_counter()
                wl.engine(stack).apply_updates(ops)
                update_seconds = time.perf_counter() - start
                for op in oracle_ops:
                    getattr(oracle, op[0])(*op[1:])
            for b in range(wl.round_bursts):
                burst = wl.next_burst()
                elapsed = serve_burst(burst, burst_id)
                burst_id += 1
                if measuring:
                    phase.burst_seconds.append(elapsed)
                    phase.measured_packets += len(burst)
                    if b == 0 and update_seconds is not None:
                        phase.update_seconds.append(update_seconds)
                        phase.update_to_serve.append(update_seconds + elapsed)
            round_index += 1
        phase.after = wl.counters(stack)
        mark("end")
        phase.mismatches += ledger.check(oracle)
        phase.failed += phase.mismatches + wl.fallback_packets(stack)
        phase.plane_bytes = wl.serving_plane(stack).memory_bytes()
        phase.worker_private_mb = sum(private_mb(pid) for pid in wl.worker_pids(stack))
    finally:
        if stack is not None:
            wl.close(stack)
    return phase


class _Corrupted:
    """A served verdict with its priority bent by one (the self-test of
    the correctness check)."""

    def __init__(self, entry: Any) -> None:
        self.priority = entry.priority + 1
        self.value = entry.value


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def private_mb(pid: int) -> float:
    """Resident memory that only process ``pid`` maps, in MiB: a forked
    worker's pages still shared with its parent are left out."""
    private_kb = 0
    with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as rollup:
        for line in rollup:
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                private_kb += int(line.split()[1])
    return private_kb / 1024.0


def quantile(values: list[float], q: float) -> float:
    """The q-quantile (0 < q < 1) by linear interpolation."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]

