"""Unit + property tests for the backing store and allocator."""

from hypothesis import given
from hypothesis import strategies as st

import pytest

from repro.mem import Allocator, BackingStore, WORD_MASK


def test_backing_store_defaults_to_zero():
    bs = BackingStore()
    assert bs.read(12345) == 0


def test_backing_store_read_back():
    bs = BackingStore()
    bs.write(10, 42)
    assert bs.read(10) == 42
    assert len(bs) == 1


def test_backing_store_masks_to_64_bits():
    bs = BackingStore()
    bs.write(1, 1 << 64)
    assert bs.read(1) == 0
    bs.write(1, -1)
    assert bs.read(1) == WORD_MASK


def test_allocator_never_returns_null():
    a = Allocator()
    assert a.alloc(1) != 0


def test_allocator_bumps():
    a = Allocator(line_words=8, first_addr=8)
    x = a.alloc(3)
    y = a.alloc(2)
    assert y == x + 3


def test_allocator_isolated_is_line_aligned_and_padded():
    a = Allocator(line_words=8, first_addr=8)
    a.alloc(3)  # misalign the bump pointer
    iso = a.alloc(2, isolated=True)
    assert iso % 8 == 0
    nxt = a.alloc(1)
    # nothing shares the isolated allocation's line
    assert nxt // 8 != iso // 8


def test_allocator_rejects_bad_sizes():
    a = Allocator()
    with pytest.raises(ValueError):
        a.alloc(0)
    with pytest.raises(ValueError):
        Allocator(line_words=0)
    with pytest.raises(ValueError):
        Allocator(first_addr=0)


@given(st.lists(st.tuples(st.integers(1, 40), st.booleans()), min_size=1, max_size=60))
def test_allocator_never_overlaps(requests):
    a = Allocator(line_words=8)
    spans = []
    for nwords, isolated in requests:
        addr = a.alloc(nwords, isolated=isolated)
        spans.append((addr, addr + nwords))
    spans.sort()
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert e1 <= s2, "allocations overlap"


@given(st.lists(st.integers(1, 20), min_size=1, max_size=40))
def test_isolated_allocations_share_no_lines(sizes):
    a = Allocator(line_words=8)
    lines_used = []
    for n in sizes:
        addr = a.alloc(n, isolated=True)
        lines_used.append(set(range(addr // 8, (addr + n - 1) // 8 + 1)))
    for i, li in enumerate(lines_used):
        for lj in lines_used[i + 1:]:
            assert not (li & lj), "isolated allocations share a cache line"
