"""Seeded input generation: policy text, flow populations, probes, churn.

Everything here is a pure function of the workload seed and imports
nothing from the program under test, so the program sees only what
these functions produce: ACL text in the Table 2 dialect, packet header
fields, and the networks the churn treadmill blocks.

The policy follows the ClassBench firewall ("fw") seed profile: many
wildcard fields, ephemeral port ranges and a protocol mix that includes
the IP wildcard.  Rules draw their addresses from a shared pool of /16
blocks, so the set carries the prefix sharing and overlap that make
classification structurally hard.  A final ``deny ip any any`` makes
every packet match some rule, so a ``None`` verdict is always a
fail-closed answer, never a legitimate "no match".
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import accumulate
from typing import Iterator, NamedTuple

#: ClassBench fw profile: (choice, weight) tables
PROTOCOLS = (("tcp", 0.40), ("udp", 0.25), ("icmp", 0.10), ("ip", 0.25))
SRC_PREFIX_LENS = ((0, 0.55), (8, 0.10), (16, 0.15), (24, 0.15), (32, 0.05))
DST_PREFIX_LENS = ((0, 0.30), (8, 0.05), (16, 0.20), (24, 0.25), (32, 0.20))
SRC_PORTS = (("any", 0.70), ("exact", 0.05), ("ephemeral", 0.20), ("range", 0.05))
DST_PORTS = (("any", 0.40), ("exact", 0.35), ("range", 0.15), ("ephemeral", 0.10))
DENY_SHARE = 0.40
#: /16 blocks in the shared address pool, per rule
POOL_SHARE = 0.10
WELL_KNOWN_PORTS = (20, 21, 22, 23, 25, 53, 80, 110, 123, 143, 161, 443, 993, 3306, 5060, 8080)
PROTO_NUMBERS = {"tcp": 6, "udp": 17, "icmp": 1}

#: per-role salts: policy, traffic and churn draw independent streams
SALT_POLICY = 0x501C
SALT_FLOWS = 0xF10E
SALT_TRAFFIC = 0x7AFF
SALT_CHURN = 0xC4E4


def rng_for(seed: int, salt: int) -> random.Random:
    return random.Random(f"{seed}:{salt}")


class Rule(NamedTuple):
    """One generated rule, kept in fields so headers can be drawn inside it."""

    action: str
    proto: str
    src: tuple[int, int]  # (address, prefix length)
    dst: tuple[int, int]
    sport: tuple[int, int]  # inclusive port range
    dport: tuple[int, int]

    def text(self) -> str:
        parts = [self.action, self.proto, _prefix_text(self.src)]
        if self.proto in ("tcp", "udp"):
            parts += _ports_text(self.sport)
        parts.append(_prefix_text(self.dst))
        if self.proto in ("tcp", "udp"):
            parts += _ports_text(self.dport)
        return " ".join(parts)


ANY_PORTS = (0, 0xFFFF)


def _prefix_text(prefix: tuple[int, int]) -> str:
    addr, length = prefix
    if length == 0:
        return "any"
    return f"{addr >> 24}.{(addr >> 16) & 255}.{(addr >> 8) & 255}.{addr & 255}/{length}"


def _ports_text(ports: tuple[int, int]) -> list[str]:
    lo, hi = ports
    if ports == ANY_PORTS:
        return []
    if lo == hi:
        return ["eq", str(lo)]
    if hi == 0xFFFF:
        return ["gt", str(lo - 1)]
    return ["range", str(lo), str(hi)]


def _pick(rng: random.Random, table: tuple) -> object:
    choices, weights = zip(*table)
    return rng.choices(choices, weights=weights, k=1)[0]


def _prefix(rng: random.Random, pool: list[int], length: int) -> tuple[int, int]:
    if length == 0:
        return (0, 0)
    base = pool[rng.randrange(len(pool))]
    if length <= 16:
        return (base & ~((1 << (32 - length)) - 1) & 0xFFFFFFFF, length)
    return (base | (rng.getrandbits(length - 16) << (32 - length)), length)


def _ports(rng: random.Random, table: tuple) -> tuple[int, int]:
    spec = _pick(rng, table)
    if spec == "any":
        return ANY_PORTS
    if spec == "exact":
        port = rng.choice(WELL_KNOWN_PORTS)
        return (port, port)
    if spec == "ephemeral":
        return (1024, 0xFFFF)
    lo = rng.randrange(1, 60000)
    return (lo, lo + rng.randrange(1, 4096))


def prefix_cover(lo: int, hi: int) -> int:
    """Prefixes in the minimal cover of the 16-bit range [lo, hi] —
    the ternary entries one port range compiles into."""
    count = 0
    while lo <= hi:
        size = lo & -lo if lo else 1 << 16
        while lo + size - 1 > hi:
            size >>= 1
        count += 1
        lo += size
    return count


def entry_count(rule: Rule) -> int:
    """Ternary entries the rule compiles into (one per port-prefix pair)."""
    return prefix_cover(*rule.sport) * prefix_cover(*rule.dport)


def fw_rules(seed: int, entries: int) -> list[Rule]:
    """fw-profile rules whose compiled form holds exactly ``entries``
    ternary entries, catch-all deny included.

    Fixing the entry budget rather than the rule count keeps the
    compiled policy the same size under every seed (port ranges make
    the entries-per-rule ratio vary by seed), so build, freeze and
    memory figures compare across seeds.  A drawn rule that would
    overshoot the budget is redrawn.
    """
    rng = rng_for(seed, SALT_POLICY)
    pool = [rng.getrandbits(16) << 16 for _ in range(max(1, int(entries / 5 * POOL_SHARE)))]
    rules: list[Rule] = []
    room = entries - 1
    while room > 0:
        proto = _pick(rng, PROTOCOLS)
        ported = proto in ("tcp", "udp")
        rule = Rule(
            action="deny" if rng.random() < DENY_SHARE else "permit",
            proto=proto,
            src=_prefix(rng, pool, _pick(rng, SRC_PREFIX_LENS)),
            dst=_prefix(rng, pool, _pick(rng, DST_PREFIX_LENS)),
            sport=_ports(rng, SRC_PORTS) if ported else ANY_PORTS,
            dport=_ports(rng, DST_PORTS) if ported else ANY_PORTS,
        )
        if rule.src[1] == 0 and rule.dst[1] == 0:
            # "any any" would shadow most of the rules below it
            continue
        cost = entry_count(rule)
        if cost <= room:
            rules.append(rule)
            room -= cost
    rules.append(Rule("deny", "ip", (0, 0), (0, 0), ANY_PORTS, ANY_PORTS))
    return rules


def policy_text(rules: list[Rule]) -> str:
    return "".join(rule.text() + "\n" for rule in rules)


class Header(NamedTuple):
    src_ip: int
    dst_ip: int
    proto: int
    src_port: int
    dst_port: int
    tcp_flags: int


def _inside(rng: random.Random, prefix: tuple[int, int]) -> int:
    addr, length = prefix
    return addr | (rng.getrandbits(32 - length) if length < 32 else 0)


def header_in(rule: Rule, rng: random.Random) -> Header:
    """A random header the rule's own fields match (a lower rule may
    still be the one that fires; the oracle decides)."""
    proto = PROTO_NUMBERS.get(rule.proto) or rng.choice((6, 17, 1))
    ported = proto in (6, 17)
    return Header(
        src_ip=_inside(rng, rule.src),
        dst_ip=_inside(rng, rule.dst),
        proto=proto,
        src_port=rng.randint(*rule.sport) if ported else 0,
        dst_port=rng.randint(*rule.dport) if ported else 0,
        tcp_flags=rng.getrandbits(8) if proto == 6 else 0,
    )


def flow_population(rules: list[Rule], flows: int, seed: int, salt: int = SALT_FLOWS) -> list[Header]:
    """``flows`` distinct-ish headers, each drawn inside a random rule."""
    rng = rng_for(seed, salt)
    return [header_in(rules[rng.randrange(len(rules))], rng) for _ in range(flows)]


class ZipfSampler:
    """Flow ranks with probability proportional to ``1 / rank**s``."""

    def __init__(self, flows: int, s: float, rng: random.Random) -> None:
        self.cum = list(accumulate(1.0 / (rank + 1) ** s for rank in range(flows)))
        self.rng = rng

    def ranks(self, k: int) -> list[int]:
        total = self.cum[-1]
        cum = self.cum
        random_ = self.rng.random
        return [bisect(cum, random_() * total) for _ in range(k)]


def scan_probe(counter: int, rng: random.Random) -> Header:
    """One reverse-byte-order SIP scan probe over 10.0.0.0/8: the
    destination's low three bytes are the counter's bytes reversed, so
    consecutive probes land in different /16s; random source, TCP SYN
    to port 5060."""
    c = counter & 0xFFFFFF
    dst = (10 << 24) | ((c & 0xFF) << 16) | (((c >> 8) & 0xFF) << 8) | ((c >> 16) & 0xFF)
    return Header(rng.getrandbits(32), dst, 6, rng.randrange(1024, 65536), 5060, 0x02)


def churn_networks(seed: int) -> Iterator[int]:
    """The /16 networks (10.N.0.0/16, as N) the deny treadmill blocks,
    one per update, never the same twice in a row (each update inserts
    the new block and deletes the previous one)."""
    rng = rng_for(seed, SALT_CHURN)
    previous = None
    while True:
        net = rng.randrange(256)
        if net != previous:
            previous = net
            yield net
