"""End-to-end §5.5: one compat kernel binary, two cores.

The compat build uses only HINT-space PAuth encodings (and collapses
every role onto the IB key).  The *same* image must:

* run correctly on an ARMv8.3 core with full protection active;
* run correctly on an ARMv8.0 core, where the PAuth instructions retire
  as NOPs — functional, but (necessarily) unprotected.
"""

import pytest

from repro.arch import isa
from repro.arch.assembler import Assembler
from repro.cfi.policy import ProtectionProfile
from repro.inject import ArbitraryMemoryPrimitive
from repro.kernel import System, init_work, layout, open_file
from repro.kernel.fault import TaskKilled
from repro.kernel.vfs import FILE_F_OPS_OFFSET


def compat_profile():
    return ProtectionProfile(
        name="compat-full",
        backward_scheme="camouflage",
        forward=True,
        dfi=True,
        compat=True,
    )


def _boot(features):
    system = System(profile=compat_profile(), features=features)
    system.map_user_stack()
    return system


def _attack_text(asm, ctx):
    def body(a):
        a.mov_imm(9, layout.ATTACK_SCRATCH)
        a.mov_imm(10, 0xF00D)
        a.emit(isa.Str(10, 9, 0), isa.Movz(0, 0, 0))

    ctx.compiler.function(asm, "__evil_read", body, leaf=True)


def _read_program(system):
    user = Assembler(layout.USER_TEXT_BASE)
    user.fn("main")
    user.mov_imm(0, 3)
    user.mov_imm(8, system.syscall_numbers["read"])
    user.emit(isa.Svc(0), isa.Hlt())
    program = user.assemble()
    system.load_user_program(program)
    return program


class TestSameBinaryBothCores:
    @pytest.mark.parametrize(
        "features", [frozenset({"pauth"}), frozenset()],
        ids=["v8.3", "v8.0"],
    )
    def test_honest_read_works(self, features):
        system = _boot(features)
        system.install_fd(3, open_file(system, "ext4_fops"))
        program = _read_program(system)
        system.run_user(system.tasks.current, program.address_of("main"))
        assert system.cpu.regs.read(0) == 4096

    def test_identical_kernel_image_bytes(self):
        # Same seed, same profile: the build is feature-independent,
        # so the two cores literally run the same binary.
        a = System(profile=compat_profile(), features=frozenset({"pauth"}))
        b = System(profile=compat_profile(), features=frozenset())
        text_a = [i.text() for _, i in a.kernel_image.text_instructions()]
        text_b = [i.text() for _, i in b.kernel_image.text_instructions()]
        assert text_a == text_b

    def test_v83_detects_ops_swap(self):
        system = System(
            profile=compat_profile(),
            features=frozenset({"pauth"}),
            text_builders=[_attack_text],
        )
        system.map_user_stack()
        victim = open_file(system, "ext4_fops")
        system.install_fd(3, victim)
        primitive = ArbitraryMemoryPrimitive(system)
        fake = system.heap.allocate_raw(32)
        primitive.write_u64(fake, system.kernel_symbol("__evil_read"))
        primitive.write_u64(victim.address + FILE_F_OPS_OFFSET, fake)
        program = _read_program(system)
        with pytest.raises(TaskKilled):
            system.run_user(system.tasks.current, program.address_of("main"))

    def test_v80_runs_but_is_unprotected(self):
        # On the old core the HINT forms are NOPs: the kernel works,
        # and — necessarily — the same attack goes through.
        system = System(
            profile=compat_profile(),
            features=frozenset(),
            text_builders=[_attack_text],
        )
        system.map_user_stack()
        victim = open_file(system, "ext4_fops")
        system.install_fd(3, victim)
        primitive = ArbitraryMemoryPrimitive(system)
        fake = system.heap.allocate_raw(32)
        primitive.write_u64(fake, system.kernel_symbol("__evil_read"))
        primitive.write_u64(victim.address + FILE_F_OPS_OFFSET, fake)
        system.mmu.write_u64(layout.ATTACK_SCRATCH, 0, 1)
        program = _read_program(system)
        system.run_user(system.tasks.current, program.address_of("main"))
        assert system.mmu.read_u64(layout.ATTACK_SCRATCH, 1) == 0xF00D

    def test_v80_workqueue_roundtrip(self):
        system = _boot(frozenset())
        work = init_work(
            system,
            system.heap.allocate(system.registry.type("work_struct")),
            system.kernel_symbol("ext4_read"),
        )
        # Raw storage on the old core (the setter's PAC was a NOP).
        assert work.raw_read("func") == system.kernel_symbol("ext4_read")
        result, _ = system.kernel_call("run_work", args=(work.address,))
        assert result == 4096

    def test_v83_workqueue_signed(self):
        system = _boot(frozenset({"pauth"}))
        work = init_work(
            system,
            system.heap.allocate(system.registry.type("work_struct")),
            system.kernel_symbol("ext4_read"),
        )
        assert work.raw_read("func") != system.kernel_symbol("ext4_read")
        result, _ = system.kernel_call("run_work", args=(work.address,))
        assert result == 4096

    def test_v80_context_switch_works(self):
        system = _boot(frozenset())
        other = system.spawn_process("other")
        landing = system.cpu._landing_pad()
        other.kobj.raw_write("cpu_context_pc", landing)
        other.kobj.raw_write("cpu_context_sp", other.stack_top)
        system.scheduler.switch_to(other)
        assert system.cpu.regs.sp == other.stack_top

    def test_v83_compat_cheaper_than_v83_full(self):
        # Compat switches one key instead of three; also the setter
        # programs fewer registers.
        from repro.bench.ablations import _null_syscall_cycles

        compat = _null_syscall_cycles(
            System(profile=compat_profile()), iterations=10
        )
        full = _null_syscall_cycles(System(profile="full"), iterations=10)
        assert compat < full

    def test_blra_not_emitted_in_compat(self):
        from repro.errors import ReproError

        system = _boot(frozenset({"pauth"}))
        with pytest.raises(ReproError):
            system.kernel_symbol("run_work_blra")
