"""Backing store and allocator for the simulated 64-bit address space.

Addresses are *word* addresses (each holds one 64-bit value, as in the
paper's system model).  Address 0 is reserved as the null pointer and is
never handed out by the allocator.

The allocator is a simple bump allocator with optional cache-line
alignment/padding.  Synchronization-sensitive structures (client
channels, combiner nodes) must live on private lines to avoid false
sharing, exactly as the paper's C implementations pad to cache lines;
``alloc(..., isolated=True)`` guarantees the allocation starts on a line
boundary and no later allocation shares its last line.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["WORD_MASK", "BackingStore", "Allocator"]

#: all simulated values are 64-bit
WORD_MASK = (1 << 64) - 1

NULL = 0


class BackingStore:
    """The flat memory: word address -> 64-bit value (default 0)."""

    __slots__ = ("_mem",)

    def __init__(self) -> None:
        self._mem: Dict[int, int] = {}

    def read(self, addr: int) -> int:
        return self._mem.get(addr, 0)

    def write(self, addr: int, value: int) -> None:
        self._mem[addr] = value & WORD_MASK

    def __len__(self) -> int:
        return len(self._mem)


class Allocator:
    """Bump allocator over the word address space, cache-line aware."""

    __slots__ = ("line_words", "_next", "allocations")

    def __init__(self, line_words: int = 8, first_addr: int = 8):
        if line_words < 1:
            raise ValueError("line_words must be >= 1")
        if first_addr < 1:
            raise ValueError("address 0 is the null pointer; first_addr must be >= 1")
        self.line_words = line_words
        self._next = first_addr
        #: (addr, nwords) of every allocation, for overlap checking in tests
        self.allocations: List[tuple] = []

    def alloc(self, nwords: int, *, isolated: bool = False) -> int:
        """Allocate ``nwords`` consecutive words; return the first address.

        With ``isolated=True`` the block starts on a cache-line boundary
        and is padded so nothing else ever shares any of its lines.
        """
        if nwords < 1:
            raise ValueError("allocation must be at least one word")
        lw = self.line_words
        addr = self._next
        if isolated and addr % lw != 0:
            addr += lw - addr % lw
        self._next = addr + nwords
        if isolated and self._next % lw != 0:
            self._next += lw - self._next % lw
        self.allocations.append((addr, nwords))
        return addr
