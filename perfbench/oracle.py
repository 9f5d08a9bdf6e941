"""Brute-force highest-priority ternary match, independent of the program.

The oracle holds plain ``(data, mask, priority, value)`` rows — a set
mask bit is a don't-care position — and answers a query with the
``(priority, value)`` of the highest-priority row whose cared-for bits
all equal the query's, or None.  It compares every query with every
row, in numpy: keys are split into 64-bit limbs so any key length
works, and rows are kept sorted by descending priority so the first
matching column is the winner.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

Verdict = Optional[tuple[int, object]]

_LIMB = 64
_LIMB_MASK = (1 << _LIMB) - 1
#: queries compared per numpy step (bounds the Q x rows scratch matrix)
_CHUNK = 256


class Oracle:
    """A mutable rule table with a brute-force lookup."""

    def __init__(self, key_length: int, rows: Iterable[tuple[int, int, int, object]] = ()) -> None:
        self.key_length = key_length
        self.limbs = max(1, -(-key_length // _LIMB))
        self._full = (1 << key_length) - 1
        self._rows: dict[tuple[int, int], list[tuple[int, object]]] = {}
        self._arrays: Optional[tuple] = None
        for data, mask, priority, value in rows:
            self.insert(data, mask, priority, value)

    def insert(self, data: int, mask: int, priority: int, value: object) -> None:
        """Add a row (rows may share a key)."""
        self._rows.setdefault((data & ~mask & self._full, mask), []).append((priority, value))
        self._arrays = None

    def delete(self, data: int, mask: int) -> bool:
        """Remove every row stored under exactly this key; False if none."""
        self._arrays = None
        return self._rows.pop((data & ~mask & self._full, mask), None) is not None

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._rows.values())

    def _split(self, values: Sequence[int]) -> np.ndarray:
        """``values`` as a (limbs, n) uint64 array, least significant limb first."""
        out = np.empty((self.limbs, len(values)), dtype=np.uint64)
        for limb in range(self.limbs):
            shift = limb * _LIMB
            out[limb] = [(v >> shift) & _LIMB_MASK for v in values]
        return out

    def _build(self) -> tuple:
        if self._arrays is None:
            order = sorted(
                ((key, verdict) for key, rows in self._rows.items() for verdict in rows),
                key=lambda row: -row[1][0],
            )
            self._arrays = (
                self._split([key[0] for key, _ in order]),
                self._split([~key[1] & self._full for key, _ in order]),
                [verdict for _, verdict in order],
            )
        return self._arrays

    def lookup_many(self, queries: Sequence[int]) -> list[Verdict]:
        """The winning ``(priority, value)`` per query, None where no row matches."""
        data, care, verdicts = self._build()
        out: list[Verdict] = []
        if not verdicts:
            return [None] * len(queries)
        for start in range(0, len(queries), _CHUNK):
            chunk = self._split(queries[start : start + _CHUNK])
            match = np.ones((chunk.shape[1], data.shape[1]), dtype=bool)
            for limb in range(self.limbs):
                diff = (chunk[limb][:, None] ^ data[limb][None, :]) & care[limb][None, :]
                match &= diff == 0
            first = match.argmax(axis=1)
            found = match[np.arange(len(first)), first]
            out.extend(verdicts[j] if hit else None for j, hit in zip(first.tolist(), found.tolist()))
        return out

    def lookup(self, query: int) -> Verdict:
        return self.lookup_many([query])[0]
