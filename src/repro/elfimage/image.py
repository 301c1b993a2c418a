"""Kernel and module images: sections, symbols, signed-pointer table.

A deliberately small model of what the kernel build system produces: an
image is an ordered set of page-aligned sections (.text, .rodata,
.data) with a symbol table and the paper's ``.pauth_ptrs`` table
(Section 4.6).  Every section carries bytes: text is the words of an
assembled :class:`~repro.arch.assembler.Program`, encoded once at the
section base, so the static tools decode the words the loader maps.
A HostCall word holds an image-local slot, relocated at load.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.assembler import Program, function_ranges
from repro.arch.isa import decode
from repro.errors import ReproError
from repro.mem.pagetable import Permissions

__all__ = [
    "Section", "Image", "ImageBuilder", "DataSectionBuilder", "text_programs",
]

_PAGE = 4096


def _page_align(value):
    return (value + _PAGE - 1) & ~(_PAGE - 1)


@dataclass
class Section:
    """One loadable section."""

    name: str
    base: int
    size: int
    permissions: Permissions
    data: bytes = b""

    @property
    def end(self):
        return self.base + self.size


@dataclass
class Image:
    """A linked kernel or module image, ready for loading."""

    name: str
    base: int
    sections: dict = field(default_factory=dict)
    symbols: dict = field(default_factory=dict)
    pauth_ptrs: list = field(default_factory=list)
    #: symbol names that are function entry points (``Assembler.fn``)
    functions: set = field(default_factory=set)
    #: the image's HostCalls, indexed by the image-local slot a word holds
    host_calls: list = field(default_factory=list)

    def section(self, name):
        try:
            return self.sections[name]
        except KeyError:
            raise ReproError(f"{self.name}: no section {name!r}") from None

    def address_of(self, symbol):
        try:
            return self.symbols[symbol]
        except KeyError:
            raise ReproError(f"{self.name}: unknown symbol {symbol!r}") from None

    @property
    def end(self):
        return max((s.end for s in self.sections.values()), default=self.base)

    def text_instructions(self, section=None):
        """(address, instruction) pairs decoded from the words of text
        ``section``, or of every text section: what the static verifier
        judges and the loader relocates, decoded once per load.  A word
        that does not decode raises ReproError naming its section and
        offset."""
        if section is None:
            return [pair for program in self.text_programs()
                    for pair in program.instructions]
        out = []
        for offset in range(0, len(section.data), 4):
            word = int.from_bytes(section.data[offset:offset + 4], "little")
            instruction = decode(word, section.base + offset, self.host_calls)
            if instruction is None:
                raise ReproError(f"{self.name}: {section.name}+{offset:#x} "
                                 f"holds {word:#010x}, which does not decode")
            out.append((section.base + offset, instruction))
        return out

    def _text_symbols(self):
        """(section, the symbols inside it) for every text section."""
        for section in self.sections.values():
            if section.permissions.x_el1:
                base, end = section.base, section.base + len(section.data)
                yield section, {name: address for name, address in self.symbols.items()
                                if base <= address < end}

    def text_programs(self):
        """One decoded Program per text section, with the image symbols
        and functions inside it."""
        return [Program(section.base, self.text_instructions(section), symbols,
                        self.functions)
                for section, symbols in self._text_symbols()]

    def function_ranges(self):
        """Every text function's ``(entry, limit)``, by the rule of
        :func:`~repro.arch.assembler.function_ranges` (the last one in a
        section ends with it), without decoding the text."""
        ranges = {}
        for section, symbols in self._text_symbols():
            ranges.update(function_ranges(
                symbols, self.functions, section.base + len(section.data)))
        return ranges


def text_programs(target):
    """An Image's decoded text programs, a bare Program alone, or a list
    of programs as it is."""
    if isinstance(target, Image):
        return target.text_programs()
    if isinstance(target, Program):
        return [target]
    if isinstance(target, list):
        return target
    raise ReproError(f"no code in {target!r}")


class DataSectionBuilder:
    """Accumulates objects into a data/rodata section with symbols."""

    def __init__(self, name):
        self.name = name
        self._chunks = []
        self._size = 0
        self.symbols = {}  # symbol -> offset

    def add_bytes(self, symbol, data, align=8):
        """Append raw bytes under a symbol; returns the offset."""
        pad = (-self._size) % align
        if pad:
            self._chunks.append(b"\x00" * pad)
            self._size += pad
        offset = self._size
        if symbol is not None:
            if symbol in self.symbols:
                raise ReproError(f"duplicate data symbol {symbol!r}")
            self.symbols[symbol] = offset
        self._chunks.append(bytes(data))
        self._size += len(data)
        return offset

    def add_u64(self, symbol, value):
        return self.add_bytes(symbol, (value & ((1 << 64) - 1)).to_bytes(8, "little"))

    def add_zeros(self, symbol, size, align=8):
        return self.add_bytes(symbol, b"\x00" * size, align=align)

    @property
    def size(self):
        return self._size

    def build(self):
        return b"".join(self._chunks)


class ImageBuilder:
    """Lays sections out from a base address, page by page.

    Text sections must be added as assembled programs whose base was
    obtained from :meth:`next_base` (the builder cannot relocate
    instructions), and are encoded on the way in.  Data sections are
    built via :class:`DataSectionBuilder`.
    """

    def __init__(self, name, base):
        if base % _PAGE:
            raise ReproError("image base must be page-aligned")
        self.name = name
        self.base = base
        self._cursor = base
        self._image = Image(name=name, base=base)

    def next_base(self, align=_PAGE):
        """Address where the next section will start."""
        return (self._cursor + align - 1) & ~(align - 1)

    def add_text(self, name, program, el0_executable=False):
        """Add an assembled program as an executable section of its
        words; each HostCall takes the image's next slot."""
        if program.base != self.next_base():
            raise ReproError(
                f"{name}: program assembled at {program.base:#x}, "
                f"expected {self.next_base():#x}"
            )
        permissions = Permissions(
            r_el1=True,
            x_el1=True,
            r_el0=el0_executable,
            x_el0=el0_executable,
        )
        section = Section(
            name=name,
            base=program.base,
            size=_page_align(max(program.size, 4)),
            permissions=permissions,
            data=program.encoded(self._image.host_calls),
        )
        self._register(section)
        for symbol, address in program.symbols.items():
            self._define(symbol, address)
        self._image.functions.update(program.functions)
        return section

    def add_data(self, name, builder, writable=True, el0=False):
        """Add a built data section (rodata when ``writable`` is False)."""
        base = self.next_base()
        data = builder.build()
        permissions = Permissions(
            r_el1=True,
            w_el1=writable,
            r_el0=el0,
            w_el0=el0 and writable,
        )
        section = Section(
            name=name,
            base=base,
            size=_page_align(max(builder.size, 8)),
            permissions=permissions,
            data=data,
        )
        self._register(section)
        for symbol, offset in builder.symbols.items():
            self._define(symbol, base + offset)
        return section

    def add_signed_pointer(self, entry):
        """Record a ``.pauth_ptrs`` row (paper Section 4.6)."""
        self._image.pauth_ptrs.append(entry)

    def _register(self, section):
        if section.name in self._image.sections:
            raise ReproError(f"duplicate section {section.name!r}")
        self._image.sections[section.name] = section
        self._cursor = section.end

    def _define(self, symbol, address):
        if symbol in self._image.symbols:
            raise ReproError(f"duplicate symbol {symbol!r}")
        self._image.symbols[symbol] = address

    def build(self):
        return self._image
