#!/usr/bin/env python3
"""Tour of the Camouflage key-management architecture (paper §4.1, §5.1).

Walks the whole key life cycle on a booted system and pokes at every
place the keys could leak:

1. the bootloader draws keys from the firmware PRNG and bakes them into
   the MOVZ/MOVK immediates of the key-setter function;
2. the hypervisor maps the setter page execute-only (stage 2), so both
   reading and writing it fail even for kernel-mode code;
3. the setter scrubs its GPRs, so nothing lingers after it runs;
4. a malicious module trying ``MRS`` on the key registers is rejected
   by the load-time static verifier;
5. writes to the locked MMU registers (including SCTLR's PAuth enable
   bits) trap to the hypervisor;
6. user space keys are per-process: a fresh bank per exec, restored on
   every kernel exit.
"""

from repro.arch import isa
from repro.arch.assembler import Assembler
from repro.boot.bootloader import KEY_SETTER_SYMBOL
from repro.elfimage.image import ImageBuilder
from repro.errors import HypervisorTrap, PermissionFault
from repro.inject import ArbitraryMemoryPrimitive
from repro.kernel import System
from repro.kernel.module import ModuleRejected


def main():
    print(__doc__)
    system = System(profile="full", seed=0x5EED)
    keys = system.kernel_keys

    print("1) boot-generated kernel keys (host-side ground truth):")
    for name in ("ia", "ib", "db"):
        key = keys.get(name)
        print(f"   {name}: lo={key.lo:#018x} hi={key.hi:#018x}")

    print(f"\n2) key setter at {system.key_setter_address:#x} (XOM):")
    primitive = ArbitraryMemoryPrimitive(system)
    try:
        primitive.read_u64(system.key_setter_address)
        print("   !!! setter page was readable")
    except PermissionFault as fault:
        print(f"   read denied: {fault}")
    try:
        system.mmu.write_u64(system.key_setter_address, 0, 1)
        print("   !!! setter page was writable")
    except PermissionFault as fault:
        print(f"   write denied: {fault}")

    print("\n3) running the setter (kernel entry does this each time):")
    system.cpu.regs.write(0, 0x1234)  # pre-existing GPR contents
    system.cpu.regs.interrupts_masked = True
    system.cpu.call(
        system.key_setter_address,
        stack_top=system.tasks.current.stack_top,
    )
    live = system.cpu.regs.keys
    print(f"   IB key installed in registers: "
          f"{live.ib.lo == keys.ib.lo and live.ib.hi == keys.ib.hi}")
    print(f"   x0 after setter (scrubbed): {system.cpu.regs.read(0):#x}")

    print("\n4) malicious module reading key registers:")
    base = 0xFFFF_0000_0D00_0000
    asm = Assembler(base)
    asm.fn("spy_init")
    asm.emit(isa.Mrs(0, "APIBKeyLo_EL1"), isa.Ret())
    builder = ImageBuilder("spy", base)
    builder.add_text(".text", asm.assemble())
    try:
        system.modules.load(builder.build())
        print("   !!! module accepted")
    except ModuleRejected as rejected:
        print(f"   {rejected}")

    print("\n5) run-time SCTLR tampering after lockdown:")
    try:
        system.cpu.write_sysreg_checked("SCTLR_EL1", 0)
        print("   !!! SCTLR write went through")
    except HypervisorTrap as trap:
        print(f"   trapped to EL2: {trap}")

    print("\n6) per-process user keys:")
    a = system.spawn_process("proc-a")
    b = system.spawn_process("proc-b")
    print(f"   proc-a IA lo: {a.user_keys.ia.lo:#018x}")
    print(f"   proc-b IA lo: {b.user_keys.ia.lo:#018x}")
    print(f"   distinct: {a.user_keys.ia.lo != b.user_keys.ia.lo}")
    print(f"\n   (the setter symbol is {KEY_SETTER_SYMBOL!r}; its body "
          f"never appears in any readable mapping)")


if __name__ == "__main__":
    main()
