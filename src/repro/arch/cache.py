"""Set-associative cache model with LRU replacement.

Used for both the private L1s and the NUCA L2 banks.  The model is
functional (tracks exactly which lines are resident) because the NDC
decision logic needs real hit/miss outcomes: the LD/ST unit probes the
local L1 before offloading (Fig. 1, "Local $ probe"), and NDC at an L2
bank requires both operands to be L2-resident.

The implementation keeps one insertion-ordered dict per set; Python
dicts give O(1) move-to-back, which is all LRU needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.config import CacheConfig


@dataclass(slots=True)
class CacheAccessResult:
    """Outcome of a cache access."""

    hit: bool
    line_addr: int
    victim_line: Optional[int] = None  #: line evicted by the fill, if any


class SetAssociativeCache:
    """An LRU set-associative cache.

    Parameters
    ----------
    config:
        Geometry and latency.
    name:
        For diagnostics only.
    """

    __slots__ = ("config", "name", "_sets", "_set_mask", "_line_shift",
                 "_num_sets", "_ways", "hits", "misses", "fills",
                 "evictions")

    def __init__(self, config: CacheConfig, name: str = "cache"):
        self.config = config
        self.name = name
        num_sets = config.num_sets
        if num_sets & (num_sets - 1):
            # Non-power-of-two set counts use modulo indexing.
            self._set_mask = -num_sets
        else:
            self._set_mask = num_sets - 1
        self._num_sets = num_sets
        self._ways = config.ways
        self._line_shift = config.line_bytes.bit_length() - 1
        self._sets: List[Dict[int, None]] = [dict() for _ in range(num_sets)]
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def line_of(self, addr: int) -> int:
        return addr >> self._line_shift

    def set_index(self, line: int) -> int:
        if self._set_mask < 0:
            return line % (-self._set_mask)
        return line & self._set_mask

    # The hot entry points below inline line_of/set_index: the cache
    # model sits on every access of every profile, and the two extra
    # frames per probe were measurable in the engine microbenchmarks.
    # ------------------------------------------------------------------
    def probe(self, addr: int) -> bool:
        """Non-intrusive residency check: no stats, no LRU update."""
        line = addr >> self._line_shift
        mask = self._set_mask
        s = self._sets[line & mask if mask >= 0 else line % self._num_sets]
        return line in s

    def access(self, addr: int, allocate: bool = True) -> CacheAccessResult:
        """Reference ``addr``; on miss, optionally fill the line.

        ``allocate=False`` models the NDC bypass: when a computation is
        performed near data, the operand line is *not* installed in the
        requesting core's L1 (the tradeoff Algorithm 2 navigates).
        """
        line = addr >> self._line_shift
        mask = self._set_mask
        s = self._sets[line & mask if mask >= 0 else line % self._num_sets]
        if line in s:
            self.hits += 1
            # LRU touch: move to most-recently-used position.
            del s[line]
            s[line] = None
            return CacheAccessResult(True, line)
        self.misses += 1
        victim = None
        if allocate:
            victim = self._fill(line, s)
        return CacheAccessResult(False, line, victim)

    def _fill(self, line: int, s: Dict[int, None]) -> Optional[int]:
        victim = None
        if len(s) >= self._ways:
            victim = next(iter(s))  # least recently used
            del s[victim]
            self.evictions += 1
        s[line] = None
        self.fills += 1
        return victim

    def fill(self, addr: int) -> Optional[int]:
        """Install ``addr``'s line without counting an access (e.g. when a
        line arrives from below on behalf of an earlier miss)."""
        line = addr >> self._line_shift
        mask = self._set_mask
        s = self._sets[line & mask if mask >= 0 else line % self._num_sets]
        if line in s:
            del s[line]
            s[line] = None
            return None
        return self._fill(line, s)

    def invalidate(self, addr: int) -> bool:
        """Drop ``addr``'s line if present; returns whether it was resident."""
        line = addr >> self._line_shift
        mask = self._set_mask
        s = self._sets[line & mask if mask >= 0 else line % self._num_sets]
        if line in s:
            del s[line]
            return True
        return False

    # ------------------------------------------------------------------
    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SetAssociativeCache({self.name}, "
                f"{self.config.size_bytes // 1024}KB, "
                f"{self.config.ways}w, miss_rate={self.miss_rate:.3f})")
