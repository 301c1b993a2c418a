"""End-to-end tests of the booted system: entry path, syscalls, keys."""

import pytest

from repro.arch import isa
from repro.analysis.verifier import KeyRegisterRule, verify_image
from repro.errors import PermissionFault
from repro.kernel import System, open_file
from repro.kernel.entry import RESTORE_USER_KEYS_SYMBOL
from repro.workloads.guest import run_el0, syscall


@pytest.fixture(scope="module")
def full_system(traced_system):
    # The shared conftest fixture is exactly this module's old setup
    # (full profile, user stack, ext4 file at fd 3) plus a tracer —
    # which never changes cycle counts.
    return traced_system


def _run_syscall(system, name, x0=None):
    number = system.syscall_numbers[name]
    return run_el0(system, lambda user: syscall(user, number, x0))


class TestBoot:
    @pytest.mark.parametrize("profile", ["none", "backward", "full"])
    def test_boots(self, profile):
        system = System(profile=profile)
        assert system.kernel_image is not None
        assert system.tasks.current.name == "init"

    def test_vector_base_aligned(self, full_system):
        vbar = full_system.cpu.regs.read_sysreg("VBAR_EL1")
        assert vbar % 0x800 == 0

    def test_kernel_keys_installed_at_boot(self, full_system):
        live = full_system.cpu.regs.keys
        expected = full_system.kernel_keys
        # Only DB here: run_user swaps in user keys later; at module
        # scope the fixture may have run user code, so check via a
        # fresh system instead.
        fresh = System(profile="full")
        assert fresh.cpu.regs.keys.ib.lo == fresh.kernel_keys.ib.lo

    def test_kernel_image_passes_static_scan(self, full_system):
        report = verify_image(
            full_system.kernel_image, rules=(KeyRegisterRule,)
        )
        assert report.clean, report.summary()

    def test_inner_label_ends_no_function_range(self):
        # Where a function ends is one rule for the key-write exemption,
        # the tracepoint regions, the CFG and the profiler: at the next
        # function entry, whatever labels lie inside it.
        from repro.kernel.entry import EntryTracepoints
        from repro.trace import Tracer

        system = System(profile="full")
        image = system.kernel_image
        start, end = image.function_ranges()[RESTORE_USER_KEYS_SYMBOL]
        assert end == image.symbols["cpu_switch_to"]
        image.symbols["__restore_user_keys_inner"] = start + 8
        assert image.function_ranges()[RESTORE_USER_KEYS_SYMBOL] == (
            start, end
        )
        report = verify_image(image, rules=(KeyRegisterRule,))
        assert report.clean, report.summary()
        tracepoints = EntryTracepoints(system, Tracer())
        assert tracepoints._regions["user"] == (start, end)

    def test_kernel_image_without_whitelist_flags_restore_stub(self):
        # Sanity check that the key rule actually sees the key MSRs:
        # judged as a module, the kernel has no sanctioned key writer,
        # and exactly the restore stub's six MSRs are flagged.
        system = System(profile="full")
        image = system.kernel_image
        report = verify_image(image, rules=(KeyRegisterRule,), module=True)
        start, end = image.function_ranges()[RESTORE_USER_KEYS_SYMBOL]
        assert len(report.errors) == 6, report.summary()
        for finding in report.errors:
            assert finding.function == RESTORE_USER_KEYS_SYMBOL
            assert start <= finding.address < end
            assert finding.message.startswith("'msr ")

    def test_none_profile_has_no_key_msrs(self):
        system = System(profile="none")
        report = verify_image(
            system.kernel_image, rules=(KeyRegisterRule,), module=True
        )
        assert report.clean, report.summary()

    def test_rodata_sealed_by_hypervisor(self, full_system):
        table = full_system.kernel_symbol("ext4_fops")
        with pytest.raises(PermissionFault):
            full_system.mmu.write_u64(table, 0xBAD, 1)

    def test_text_sealed_by_hypervisor(self, full_system):
        text = full_system.kernel_image.section(".text")
        with pytest.raises(PermissionFault):
            full_system.mmu.write_u64(text.base, 0xBAD, 1)

    def test_xom_setter_unreadable(self, full_system):
        with pytest.raises(PermissionFault):
            full_system.mmu.read(full_system.key_setter_address, 4, 1)

    def test_deterministic_boot(self):
        a = System(profile="full", seed=7)
        b = System(profile="full", seed=7)
        assert a.kernel_keys.snapshot() == b.kernel_keys.snapshot()


class TestSyscalls:
    def test_getpid_returns_tid(self, full_system):
        _run_syscall(full_system, "getpid")
        assert full_system.cpu.regs.read(0) == full_system.tasks.current.tid

    def test_read_dispatches_through_fops(self, full_system):
        _run_syscall(full_system, "read", x0=3)
        assert full_system.cpu.regs.read(0) == 4096  # driver read result

    def test_write_dispatches(self, full_system):
        _run_syscall(full_system, "write", x0=3)
        assert full_system.cpu.regs.read(0) == 4096

    def test_bad_syscall_returns_enosys(self, full_system):
        run_el0(full_system, lambda user: syscall(user, 999))
        assert full_system.cpu.regs.read(0) == (-38) & ((1 << 64) - 1)

    def test_returns_to_el0(self, full_system):
        _run_syscall(full_system, "getpid")
        assert full_system.cpu.regs.current_el == 0

    def test_user_registers_preserved_across_syscall(self, full_system):
        number = full_system.syscall_numbers["getpid"]

        def body(user):
            user.mov_imm(20, 0x1234_5678)
            syscall(user, number)

        run_el0(full_system, body)
        assert full_system.cpu.regs.read(20) == 0x1234_5678


class TestKeySwitching:
    def test_user_keys_restored_on_exit(self):
        system = System(profile="full")
        system.map_user_stack()
        task = system.tasks.current
        _run_syscall(system, "getpid")
        live = system.cpu.regs.keys
        assert live.ib.lo == task.user_keys.ib.lo
        assert live.ia.lo == task.user_keys.ia.lo
        assert live.db.lo == task.user_keys.db.lo

    def test_kernel_keys_differ_from_user_keys(self):
        system = System(profile="full")
        task = system.tasks.current
        assert system.kernel_keys.ib.lo != task.user_keys.ib.lo

    def test_kernel_keys_active_during_handler(self):
        observed = {}

        def probe_build(asm, ctx):
            def probe(cpu):
                observed["ib"] = cpu.regs.keys.ib.lo

            ctx.compiler.function(
                asm, "sys_probe", [isa.HostCall(probe, "probe")]
            )

        from repro.kernel.syscalls import SyscallSpec

        system = System(
            profile="full", syscalls=[SyscallSpec("probe", probe_build)]
        )
        system.map_user_stack()
        _run_syscall(system, "probe")
        assert observed["ib"] == system.kernel_keys.ib.lo

    def test_none_profile_makes_no_key_switch(self):
        system = System(profile="none")
        assert system.key_setter_address is None

    def test_spawned_processes_get_distinct_keys(self):
        system = System(profile="full")
        a = system.spawn_process("a")
        b = system.spawn_process("b")
        assert a.user_keys.snapshot() != b.user_keys.snapshot()


class TestKernelCall:
    def test_kernel_call_runs_with_kernel_keys(self, full_system):
        result, cycles = full_system.kernel_call(
            "ext4_read", args=(0,)
        )
        assert result == 4096
        assert cycles > 0

    def test_fd_table_bounds(self, full_system):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            full_system.install_fd(99, open_file(full_system, "ext4_fops"))
