#!/usr/bin/env python3
"""Authoring and loading a protected kernel module (paper §4.6, §5.3).

Builds a small "driver" LKM the way the Camouflage build system would:

* its callback functions are compiled with the kernel's protection
  profile (prologue/epilogue instrumentation);
* a statically initialized ``DECLARE_WORK`` item sits in ``.data`` with
  a row in the module's ``.pauth_ptrs`` table, because its callback
  pointer cannot be signed before the kernel keys exist;
* at load time the kernel statically verifies the text (no key reads,
  no SCTLR writes), seals the read-only sections, and signs the table
  entries in place.

Then the work item is executed (authenticating the now-signed pointer)
and finally attacked with the arbitrary-write primitive.
"""

from repro.arch import isa
from repro.arch.assembler import Assembler
from repro.cfi.instrument import Compiler
from repro.cfi.keys import KeyRole
from repro.elfimage.image import DataSectionBuilder, ImageBuilder
from repro.inject import ArbitraryMemoryPrimitive
from repro.kernel import System, layout
from repro.kernel.fault import TaskKilled
from repro.kernel.workqueue import declare_work

MODULE_BASE = 0xFFFF_0000_0E00_0000


def build_driver_module(system):
    """An LKM with one instrumented callback and one DECLARE_WORK."""
    compiler = Compiler(system.profile)
    asm = Assembler(MODULE_BASE)

    def callback_body(a):
        a.mov_imm(9, layout.ATTACK_SCRATCH)
        a.mov_imm(10, 0xCAFE)
        a.emit(isa.Str(10, 9, 0))

    compiler.function(asm, "mydrv_irq_handler", callback_body)
    text = asm.assemble()

    builder = ImageBuilder("mydrv", MODULE_BASE)
    builder.add_text(".text", text)
    data = DataSectionBuilder(".data")
    entry = declare_work(
        data,
        system.registry,
        "mydrv_work",
        text.symbols["mydrv_irq_handler"],
        key=system.profile.key_for(KeyRole.FORWARD),
    )
    builder.add_data(".data", data, writable=True)
    builder.add_signed_pointer(entry)
    return builder.build()


def main():
    print(__doc__)
    system = System(profile="full")
    module_image = build_driver_module(system)
    module = system.modules.load(module_image)
    print(f"loaded module {module.name!r}; "
          f"{len(module.signed_pointers)} pointer(s) signed at load:")
    for entry, signed in module.signed_pointers:
        print(f"  {entry.section}+{entry.offset:#x} "
              f"key={entry.key} constant={entry.constant:#06x} "
              f"-> {signed:#018x}")

    work = module.symbol("mydrv_work")
    system.mmu.write_u64(layout.ATTACK_SCRATCH, 0, 1)
    system.kernel_call("run_work", args=(work,))
    marker = system.mmu.read_u64(layout.ATTACK_SCRATCH, 1)
    print(f"\nran the statically declared work item: marker={marker:#x} "
          f"(expected 0xcafe)")

    print("\nattacker overwrites the callback with a raw pointer...")
    primitive = ArbitraryMemoryPrimitive(system)
    primitive.write_u64(work, system.kernel_symbol("sockfs_write"))
    try:
        system.kernel_call("run_work", args=(work,))
        print("!!! corrupted callback executed")
    except TaskKilled as killed:
        print(f"DETECTED: {killed}")


if __name__ == "__main__":
    main()
