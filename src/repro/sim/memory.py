"""Sparse byte-addressable memory.

Backed by 64 KiB pages allocated on demand. Little-endian, with alignment
enforcement (the T1000, like MIPS, faults on misaligned accesses). In
``strict`` mode, reading a page that was never written (and is not part of
the preloaded data image) raises :class:`MemoryFault` — useful for
catching workload bugs; the default is zero-fill.
"""

from __future__ import annotations

from repro.errors import MemoryFault

PAGE_BITS = 16
PAGE_SIZE = 1 << PAGE_BITS
PAGE_MASK = PAGE_SIZE - 1
ADDR_MASK = 0xFFFF_FFFF


class Memory:
    """Sparse 32-bit address-space memory."""

    def __init__(self, strict: bool = False) -> None:
        self._pages: dict[int, bytearray] = {}
        self.strict = strict

    # ------------------------------------------------------------------

    def load_image(self, base: int, image: bytes) -> None:
        """Copy ``image`` into memory starting at ``base``, one page-sized
        slice at a time (every page the image touches is allocated, as
        byte-wise writes would allocate it)."""
        offset = 0
        while offset < len(image):
            addr = (base + offset) & ADDR_MASK
            start = addr & PAGE_MASK
            size = min(len(image) - offset, PAGE_SIZE - start)
            self._page_for_write(addr)[start:start + size] = \
                image[offset:offset + size]
            offset += size

    def _page_for_write(self, addr: int) -> bytearray:
        page = self._pages.get(addr >> PAGE_BITS)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[addr >> PAGE_BITS] = page
        return page

    def _page_for_read(self, addr: int) -> bytearray | None:
        page = self._pages.get(addr >> PAGE_BITS)
        if page is None and self.strict:
            raise MemoryFault(f"read from unmapped address {addr:#010x}", addr)
        return page

    # ------------------------------------------------------------------
    # typed accessors (all take/return unsigned values; callers sign-extend)

    def _check(self, addr: int, align: int) -> int:
        addr &= ADDR_MASK
        if align > 1 and addr % align:
            raise MemoryFault(
                f"misaligned {align}-byte access at {addr:#010x}", addr
            )
        return addr

    def read_byte(self, addr: int) -> int:
        addr = self._check(addr, 1)
        page = self._page_for_read(addr)
        return 0 if page is None else page[addr & PAGE_MASK]

    def read_half(self, addr: int) -> int:
        addr = self._check(addr, 2)
        page = self._page_for_read(addr)
        if page is None:
            return 0
        off = addr & PAGE_MASK
        return page[off] | (page[off + 1] << 8)

    def read_word(self, addr: int) -> int:
        addr = self._check(addr, 4)
        page = self._page_for_read(addr)
        if page is None:
            return 0
        off = addr & PAGE_MASK
        return int.from_bytes(page[off : off + 4], "little")

    def write_byte(self, addr: int, value: int) -> None:
        addr = self._check(addr, 1)
        self._page_for_write(addr)[addr & PAGE_MASK] = value & 0xFF

    def write_half(self, addr: int, value: int) -> None:
        addr = self._check(addr, 2)
        page = self._page_for_write(addr)
        off = addr & PAGE_MASK
        page[off] = value & 0xFF
        page[off + 1] = (value >> 8) & 0xFF

    def write_word(self, addr: int, value: int) -> None:
        addr = self._check(addr, 4)
        page = self._page_for_write(addr)
        off = addr & PAGE_MASK
        page[off : off + 4] = (value & 0xFFFF_FFFF).to_bytes(4, "little")

    # ------------------------------------------------------------------

    def read_block(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes (zero-filled over unmapped gaps)."""
        return bytes(self.read_byte(addr + i) for i in range(size))

    def words(self, addr: int, count: int) -> list[int]:
        """Read ``count`` consecutive unsigned words starting at ``addr``."""
        return [self.read_word(addr + 4 * i) for i in range(count)]

    def mapped_pages(self) -> int:
        """Number of allocated pages (observability for tests)."""
        return len(self._pages)
