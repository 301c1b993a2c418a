"""Function-granular symbol resolution for profiling and unwinding.

The assembler records which labels are *function entries*
(:meth:`~repro.arch.assembler.Assembler.fn`) as opposed to intra-function
branch targets; :class:`SymbolTable` collects those entries from images
and bare programs, sorts them, and bins arbitrary program counters to
the greatest function entry at or below them — the classic
``nm``-plus-bisect scheme every sampling profiler uses.

A kernel run also executes code that lives in no image: the XOM key
setter (sealed by the hypervisor outside the kernel image in the
default configuration) and the host harness's call landing pad.  Those
are registered as explicit *regions*.  Addresses that still miss are
classified through the VMSA rules into the synthetic buckets
``<user>`` / ``<kernel>`` / ``<invalid>``, so a profile of a workload
whose user program was never registered stays readable instead of
exploding into per-address noise.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple

from repro.arch.vmsa import AddressKind, VMSAConfig

__all__ = ["Symbol", "SymbolTable", "HOST_SYMBOL", "LANDING_SYMBOL"]

#: Bucket for PAC operations performed host-side (boot-time pointer
#: signing, ``open_file``) with no guest program counter to bill.
HOST_SYMBOL = "<host>"

#: Name under which the harness call landing pad is registered.
LANDING_SYMBOL = "__landing_pad__"

Symbol = namedtuple("Symbol", ["name", "entry", "offset", "kind"])


def _landing_pad_address():
    # Mirrors CPU._landing_pad(): a fixed kernel-half page far from any
    # image, holding the single HLT the harness parks returns on.
    return 0xFFFF_0000_0000_0000 | 0x0000_FFFF_FFF0_0000


class SymbolTable:
    """Sorted function-entry table with synthetic fallback buckets."""

    def __init__(self, config=None, include_landing_pad=True):
        self.config = config or VMSAConfig()
        self._entries = []  # (address, limit, name); sorted lazily
        self._names = {}  # name -> entry address
        self._sorted = False
        self._resolved = {}  # address -> Symbol, until the next add
        if include_landing_pad:
            self.add_region(LANDING_SYMBOL, _landing_pad_address(), 4096)

    # -- registration --------------------------------------------------------

    def add_function(self, name, address, limit=None):
        """Register one function entry; ``limit`` bounds it (exclusive)."""
        self._entries.append((address, limit, name))
        self._names.setdefault(name, address)
        self._sorted = False
        self._resolved.clear()
        return self

    def add_region(self, name, base, size):
        """Register a flat region (key-setter page, landing pad)."""
        return self.add_function(name, base, limit=base + size)

    def add_program(self, program):
        """Register a bare :class:`~repro.arch.assembler.Program` or an
        elf-style image.

        Only symbols the assembler marked as functions are registered;
        each extends to the next function entry or the end of its code
        (``function_ranges``).
        """
        for name, (entry, limit) in program.function_ranges().items():
            self.add_function(name, entry, limit=limit)
        return self

    add_image = add_program

    @classmethod
    def from_system(cls, system, config=None):
        """Everything a booted :class:`~repro.kernel.system.System` runs.

        Kernel image functions, plus the XOM key-setter page when the
        setter lives outside the image (the paper's default key
        management), plus any loaded module images.
        """
        from repro.boot.bootloader import KEY_SETTER_SYMBOL

        table = cls(config=config or system.cpu.mmu.config)
        table.add_image(system.kernel_image)
        setter = getattr(system, "key_setter_address", None)
        if setter is not None and KEY_SETTER_SYMBOL not in system.kernel_image.symbols:
            table.add_region(KEY_SETTER_SYMBOL, setter, 4096)
        loader = getattr(system, "modules", None)
        for module in getattr(loader, "modules", {}).values():
            table.add_image(module.image)
        return table

    # -- resolution ----------------------------------------------------------

    def _ensure_sorted(self):
        if not self._sorted:
            self._entries.sort(key=lambda entry: entry[0])
            self._addresses = [entry[0] for entry in self._entries]
            self._sorted = True

    def resolve(self, address):
        """Bin ``address`` to a :class:`Symbol` (never fails), memoised
        per address until the next registration."""
        symbol = self._resolved.get(address)
        if symbol is None:
            symbol = self._resolved[address] = self._bin(address)
        return symbol

    def _bin(self, address):
        self._ensure_sorted()
        index = bisect_right(self._addresses, address) - 1
        if index >= 0:
            entry, limit, name = self._entries[index]
            if limit is None or address < limit:
                return Symbol(name, entry, address - entry, "function")
        kind = self.config.classify(address)
        if kind == AddressKind.USER:
            return Symbol("<user>", None, 0, "synthetic")
        if kind == AddressKind.KERNEL:
            return Symbol("<kernel>", None, 0, "synthetic")
        return Symbol("<invalid>", None, 0, "synthetic")

    def name_of(self, address):
        """``symbol+0xoffset`` rendering (bare name at offset 0)."""
        symbol = self.resolve(address)
        if symbol.offset and symbol.kind == "function":
            return f"{symbol.name}+{symbol.offset:#x}"
        return symbol.name

    def __contains__(self, name):
        return name in self._names

    def __len__(self):
        return len(self._entries)
