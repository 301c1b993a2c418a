"""Two-stage MMU combining the kernel's stage 1 with the hypervisor's
stage 2, plus canonical-address checking.

Every access first validates the virtual address shape (Table 1): a
non-canonical pointer — e.g. one poisoned by a failed AUT* — takes a
:class:`~repro.errors.TranslationFault` before translation is even
attempted.  Then the stage-1 tables (TTBR0 for user addresses, TTBR1 for
kernel addresses) translate and check EL permissions, and finally the
stage-2 table filters by physical frame.
"""

from __future__ import annotations

from repro import hotpath
from repro.arch.vmsa import AddressKind, VMSAConfig
from repro.errors import PermissionFault, ReproError, TranslationFault
from repro.mem.pagetable import Stage1Table, Stage2Table
from repro.mem.phys import EVERYTHING, Generation, PhysicalMemory

__all__ = ["MMU", "AddressSpace"]

_MASK64 = (1 << 64) - 1


def _installed(name):
    """A page-table slot whose setter hands the incoming table the
    machine generation and bumps it: installing a table is itself a
    mutation, so no cached walk or decode survives the swap."""
    slot = "_" + name

    def install(self, table):
        table.generation = self.generation
        self.generation.bump(EVERYTHING)
        setattr(self, slot, table)

    return property(lambda self: getattr(self, slot), install)


class AddressSpace:
    """A pair of stage-1 tables: user (TTBR0) and kernel (TTBR1).

    All kernel tasks share the kernel table; each user process has its
    own user table.
    """

    user = _installed("user")
    kernel = _installed("kernel")

    def __init__(self, page_shift=12, generation=None):
        self.generation = Generation() if generation is None else generation
        self.user = Stage1Table(page_shift)
        self.kernel = Stage1Table(page_shift)

    def table_for(self, kind):
        return self._kernel if kind == AddressKind.KERNEL else self._user


class MMU:
    """Translates and checks one core's memory accesses."""

    #: The hypervisor replaces the whole stage-2 table at enable time.
    stage2 = _installed("stage2")

    def __init__(self, phys=None, config=None, stage2=None):
        self.config = config or VMSAConfig()
        self.phys = phys or PhysicalMemory(self.config.page_shift)
        #: The machine generation, shared by physical memory, both
        #: stage-1 tables and stage 2; both host caches register with it.
        self.generation = self.phys.generation
        self.address_space = AddressSpace(
            self.config.page_shift, self.generation
        )
        self.stage2 = stage2 or Stage2Table()
        self.page_shift = self.config.page_shift
        self.page_size = 1 << self.page_shift
        #: ``va >> page_shift & vpn_mask`` is the low VPN a stage-1 table
        #: indexes, in both halves.
        self.vpn_mask = (1 << (self.config.va_bits - self.page_shift)) - 1
        # Host-side translation cache (see repro.hotpath): successful
        # (page, access, EL) walks memoised until a bump's scope covers
        # them, indexed by low VPN for the bump.  Faults are never
        # cached, so the faulting paths re-walk and behave identically
        # with the cache on or off.
        self._cache_walks = hotpath.caches_enabled()
        self._walk_cache = {}
        self._walk_pages = {}
        if self._cache_walks:
            self.generation.register(self._walk_cache, self._walk_pages)

    # -- generation -------------------------------------------------------------

    @property
    def translation_epoch(self):
        """The machine generation: changes whenever a cached translation
        or decoded instruction may have gone stale."""
        return self.generation.value

    fetch_epoch = translation_epoch

    # -- translation ------------------------------------------------------------

    def translate(self, va, access, el):
        """Translate ``va`` for ``access`` ('r'/'w'/'x') at ``el``.

        Returns the physical address, or raises a fault mirroring the
        architectural behaviour.
        """
        va &= _MASK64
        if self._cache_walks:
            key = (va >> self.page_shift, access, el)
            base = self._walk_cache.get(key, -1)
            if base >= 0:
                return base | (va & (self.page_size - 1))
            pa = self._translate_walk(va, access, el)
            self._walk_cache[key] = pa & ~(self.page_size - 1)
            self._walk_pages.setdefault(key[0] & self.vpn_mask, []).append(key)
            return pa
        return self._translate_walk(va, access, el)

    def _translate_walk(self, va, access, el):
        """The full (uncached) two-stage walk."""
        kind = self.config.classify(va)
        if kind == AddressKind.INVALID:
            raise TranslationFault(
                f"non-canonical address {va:#x}", address=va, el=el
            )
        if kind == AddressKind.KERNEL and el == 0:
            raise PermissionFault(
                f"EL0 access to kernel address {va:#x}", address=va, el=el
            )
        low = va & ((1 << self.config.va_bits) - 1)
        vpn = low >> self.page_shift
        offset = low & (self.page_size - 1)
        table = self.address_space.table_for(kind)
        mapping = table.lookup(vpn)
        if mapping is None:
            raise TranslationFault(
                f"unmapped address {va:#x}", address=va, el=el
            )
        if not mapping.permissions.allows(access, el):
            raise PermissionFault(
                f"stage-1 {access} permission denied at {va:#x} (EL{el})",
                address=va,
                el=el,
                stage=1,
            )
        if not self.stage2.allows(mapping.frame, access, el):
            raise PermissionFault(
                f"stage-2 {access} permission denied at {va:#x} (EL{el})",
                address=va,
                el=el,
                stage=2,
            )
        return (mapping.frame << self.page_shift) | offset

    # -- data accessors -----------------------------------------------------------

    def read(self, va, size, el):
        """Read ``size`` bytes at ``va``, page by page."""
        out = bytearray()
        while size > 0:
            pa = self.translate(va, "r", el)
            chunk = min(size, self.page_size - (va & (self.page_size - 1)))
            out += self.phys.read(pa, chunk)
            va += chunk
            size -= chunk
        return bytes(out)

    def write(self, va, data, el):
        offset = 0
        while offset < len(data):
            pa = self.translate(va, "w", el)
            chunk = min(
                len(data) - offset,
                self.page_size - (va & (self.page_size - 1)),
            )
            self.phys.write(pa, data[offset:offset + chunk])
            va += chunk
            offset += chunk

    def read_u64(self, va, el):
        """One translate when the 8 bytes sit in one page."""
        if va & (self.page_size - 1) <= self.page_size - 8:
            return self.phys.read_u64(self.translate(va, "r", el))
        return int.from_bytes(self.read(va, 8, el), "little")

    def write_u64(self, va, value, el):
        if va & (self.page_size - 1) <= self.page_size - 8:
            self.phys.write_u64(self.translate(va, "w", el), value)
        else:
            self.write(va, (value & _MASK64).to_bytes(8, "little"), el)

    def read_pair(self, va, el):
        """The words at ``va`` and ``va + 8`` (LDP): one translate when
        the 16 bytes sit in one page, else word by word."""
        if va & (self.page_size - 1) <= self.page_size - 16:
            return self.phys.read_pair(self.translate(va, "r", el))
        return self.read_u64(va, el), self.read_u64(va + 8, el)

    def write_pair(self, va, first, second, el):
        """STP: one translate when the 16 bytes sit in one page, else
        word by word, so the first word lands before the second faults."""
        if va & (self.page_size - 1) <= self.page_size - 16:
            self.phys.write_pair(self.translate(va, "w", el), first, second)
        else:
            self.write_u64(va, first, el)
            self.write_u64(va + 8, second, el)

    def fetch(self, va, el):
        """Instruction fetch: execute-permission check, then decode (a
        one-word ``fetch_block``)."""
        return self.fetch_block(va, el, 1)[0]

    def fetch_block(self, va, el, limit):
        """The translation block at ``va`` (``PhysicalMemory.fetch_block``):
        one execute-permission check covers it, since it never crosses a
        page.  Its first word faults as a fetch of it does; a later word
        that does not decode ends the block before it."""
        block = self.phys.fetch_block(self.translate(va, "x", el), va, limit)
        if not block:
            raise TranslationFault(
                f"no instruction at {va:#x}", address=va, el=el
            )
        return block

    # -- mapping helpers ------------------------------------------------------------

    def map_range(self, va, size, frame_base, permissions):
        """Map ``size`` bytes at ``va`` onto consecutive frames."""
        va &= _MASK64
        kind = self.config.classify(va)
        if kind == AddressKind.INVALID:
            raise TranslationFault(f"cannot map invalid address {va:#x}")
        table = self.address_space.table_for(kind)
        low = va & ((1 << self.config.va_bits) - 1)
        first_vpn = low >> self.page_shift
        pages = (size + self.page_size - 1) >> self.page_shift
        for index in range(pages):
            table.map_page(first_vpn + index, frame_base + index, permissions)

    def frame_of(self, va):
        """Physical frame backing ``va`` (no permission check), or None
        if it is unmapped or not canonical."""
        kind = self.config.classify(va)
        if kind == AddressKind.INVALID:
            return None
        low = va & ((1 << self.config.va_bits) - 1)
        mapping = self.address_space.table_for(kind).lookup(
            low >> self.page_shift
        )
        return None if mapping is None else mapping.frame

    def place_program(self, program):
        """Write an assembled program's image (``Program.encoded``) into
        the frames mapped at its addresses, one write per page, with no
        permission check, so XOM pages too.  Like a loaded image's text,
        it is plain bytes until fetched.  An unmapped page or an operand
        the format cannot hold raises ReproError before anything is
        written."""
        writes, va = [], program.base
        while va < program.end:
            frame = self.frame_of(va)
            if frame is None:
                raise ReproError(f"cannot place code at unmapped {va:#x}")
            offset = va & (self.page_size - 1)
            size = min(program.end - va, self.page_size - offset)
            pa = (frame << self.page_shift) | offset
            writes.append((pa, va - program.base, size))
            va += size
        data = program.encoded(self.phys.host_calls)
        for pa, start, size in writes:
            self.phys.write(pa, data[start:start + size])
        return program
