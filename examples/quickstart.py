#!/usr/bin/env python3
"""Quickstart: boot a Camouflage-protected kernel and stop an exploit.

Boots two simulated systems — one unprotected, one with the full
Camouflage design (backward-edge CFI + forward-edge CFI + DFI) — then
mounts the same ops-table-swap exploit against both:

1. open a file whose ``f_ops`` points at the ext4 operations table;
2. use the attacker's arbitrary-write primitive to repoint ``f_ops``
   at a fake table whose ``read`` slot is attacker code;
3. invoke ``read()`` from user space.

On the unprotected kernel the dispatch lands in the attacker function;
on the protected kernel the signed ``f_ops`` pointer fails AUTDB inside
``vfs_read`` and the poisoned pointer faults — the process is killed
and the failure counted toward the panic threshold.
"""

from repro.arch import isa
from repro.arch.assembler import Assembler
from repro.inject import ArbitraryMemoryPrimitive
from repro.kernel import System, layout, open_file
from repro.kernel.fault import TaskKilled
from repro.kernel.vfs import FILE_F_OPS_OFFSET


def build_attacker_text(asm, ctx):
    """Kernel text the exploit will redirect into."""

    def body(a):
        a.mov_imm(9, layout.ATTACK_SCRATCH)
        a.mov_imm(10, 0xF00D)
        a.emit(isa.Str(10, 9, 0), isa.Movz(0, 0, 0))

    ctx.compiler.function(asm, "__evil_read", body, leaf=True)


def exploit(profile_name):
    print(f"--- kernel profile: {profile_name} ---")
    system = System(profile=profile_name, text_builders=[build_attacker_text])
    victim = open_file(system, "ext4_fops")
    system.install_fd(3, victim)

    # The arbitrary kernel read/write primitive of the threat model.
    primitive = ArbitraryMemoryPrimitive(system)
    fake_table = system.heap.allocate_raw(32)
    primitive.write_u64(fake_table, system.kernel_symbol("__evil_read"))
    primitive.write_u64(victim.address + FILE_F_OPS_OFFSET, fake_table)
    print(f"  f_ops repointed at fake table {fake_table:#x}")

    # A user program invoking read(fd=3).
    user = Assembler(layout.USER_TEXT_BASE)
    user.fn("main")
    user.mov_imm(0, 3)
    user.mov_imm(8, system.syscall_numbers["read"])
    user.emit(isa.Svc(0), isa.Hlt())
    program = user.assemble()
    system.load_user_program(program)
    system.map_user_stack()
    system.mmu.write_u64(layout.ATTACK_SCRATCH, 0, 1)

    try:
        cycles = system.run_user(system.tasks.current, program.address_of("main"))
    except TaskKilled as killed:
        print(f"  DETECTED: {killed}")
        print(f"  PAuth failures so far: {system.faults.pauth_failures} "
              f"(panic at {system.faults.threshold})")
        return
    if system.mmu.read_u64(layout.ATTACK_SCRATCH, 1) == 0xF00D:
        print(f"  EXPLOITED: attacker code ran in kernel mode "
              f"({cycles} cycles)")
    else:
        print("  attack fizzled")


def main():
    print(__doc__)
    exploit("none")
    print()
    exploit("full")


if __name__ == "__main__":
    main()
