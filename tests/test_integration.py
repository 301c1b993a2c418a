"""Cross-cutting integration scenarios over the whole stack."""

import os

import pytest

from repro.arch import isa
from repro.arch.assembler import Assembler
from repro.errors import KernelPanic
from repro.inject import ArbitraryMemoryPrimitive
from repro.kernel import System, layout, open_file
from repro.kernel.fault import TaskKilled
from repro.kernel.vfs import FILE_F_OPS_OFFSET


def _read_syscall_program(system, fd=3):
    user = Assembler(layout.USER_TEXT_BASE)
    user.fn("main")
    user.mov_imm(0, fd)
    user.mov_imm(8, system.syscall_numbers["read"])
    user.emit(isa.Svc(0), isa.Hlt())
    program = user.assemble()
    system.load_user_program(program)
    return program


class TestExploitationCampaignLifecycle:
    """An attacker retries until the brute-force threshold fires."""

    def test_repeated_attacks_end_in_panic(self):
        system = System(profile="full", fault_threshold=3)
        system.map_user_stack()
        victim = open_file(system, "ext4_fops")
        system.install_fd(3, victim)
        primitive = ArbitraryMemoryPrimitive(system)
        fake = system.heap.allocate_raw(32)
        primitive.write_u64(fake, system.kernel_symbol("sockfs_write"))
        program = _read_syscall_program(system)

        outcomes = []
        for attempt in range(3):
            primitive.write_u64(victim.address + FILE_F_OPS_OFFSET, fake)
            try:
                system.run_user(
                    system.tasks.current, program.address_of("main")
                )
                outcomes.append("ran")
            except TaskKilled:
                outcomes.append("killed")
            except KernelPanic as panic:
                outcomes.append("panic")
                assert panic.reason == "pauth-threshold"
        assert outcomes == ["killed", "killed", "panic"]

    def test_honest_use_between_attacks_unaffected(self):
        system = System(profile="full", fault_threshold=4)
        system.map_user_stack()
        victim = open_file(system, "ext4_fops")
        system.install_fd(3, victim)
        program = _read_syscall_program(system)
        # One failed attack ...
        victim.raw_write("f_ops", 0xFFFF_0000_0900_0000)
        with pytest.raises(TaskKilled):
            system.run_user(system.tasks.current, program.address_of("main"))
        # ... then the legitimate path still works after re-binding.
        from repro.cfi.keys import KeyRole

        victim.set_protected(
            "f_ops",
            system.kernel_symbol("ext4_fops"),
            system.cpu.pac,
            system.kernel_keys,
            system.profile.key_for(KeyRole.DFI),
        )
        system.run_user(system.tasks.current, program.address_of("main"))
        assert system.cpu.regs.read(0) == 4096
        assert system.faults.pauth_failures == 1


class TestMultiProcess:
    def test_processes_cannot_verify_each_others_pointers(self):
        system = System(profile="full")
        a = system.spawn_process("a")
        b = system.spawn_process("b")
        pointer = 0x0000_0000_1000_0000
        signed_by_a = system.cpu.pac.add_pac(pointer, 5, a.user_keys.ia)
        assert system.cpu.pac.auth_pac(signed_by_a, 5, a.user_keys.ia).ok
        assert not system.cpu.pac.auth_pac(signed_by_a, 5, b.user_keys.ia).ok

    def test_user_cannot_verify_kernel_pointers(self):
        # Section 6.2.3: "The user space process uses a randomly
        # assigned key, and thus cannot verify kernel pointers."
        system = System(profile="full")
        task = system.tasks.current
        kernel_ptr = system.kernel_symbol("ext4_read")
        signed = system.cpu.pac.add_pac(kernel_ptr, 9, system.kernel_keys.ib)
        assert not system.cpu.pac.auth_pac(signed, 9, task.user_keys.ib).ok

    def test_syscalls_from_different_processes(self):
        system = System(profile="full")
        system.map_user_stack()
        system.install_fd(3, open_file(system, "ext4_fops"))
        program = _read_syscall_program(system)
        for name in ("p1", "p2"):
            task = system.spawn_process(name)
            system.run_user(task, program.address_of("main"))
            assert system.cpu.regs.read(0) == 4096
            assert system.cpu.regs.keys.ib.lo == task.user_keys.ib.lo


class TestDeterminism:
    def test_same_seed_same_everything(self):
        def fingerprint(seed):
            system = System(profile="full", seed=seed)
            system.map_user_stack()
            system.install_fd(3, open_file(system, "ext4_fops"))
            program = _read_syscall_program(system)
            cycles = system.run_user(
                system.tasks.current, program.address_of("main")
            )
            victim = open_file(system, "ext4_fops")
            return (
                cycles,
                system.kernel_keys.snapshot(),
                victim.raw_read("f_ops"),
            )

        assert fingerprint(11) == fingerprint(11)
        assert fingerprint(11) != fingerprint(12)

    def test_cycle_counts_profile_invariant_for_user_work(self):
        # Pure user computation costs the same under any profile.
        results = {}
        for profile in ("none", "full"):
            system = System(profile=profile)
            system.map_user_stack()
            user = Assembler(layout.USER_TEXT_BASE)
            user.fn("main")
            user.emit(isa.Work(500), isa.Hlt())
            program = user.assemble()
            system.load_user_program(program)
            results[profile] = system.run_user(
                system.tasks.current, program.address_of("main")
            )
        assert results["none"] == results["full"]


_EXAMPLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples"
)
#: Examples that mount an attack and must report its detection.
_ATTACK_EXAMPLES = {"quickstart", "replay_study", "hardened_abi", "driver_module"}


class TestExampleSmoke:
    @pytest.mark.parametrize(
        "example",
        sorted(
            name[:-3] for name in os.listdir(_EXAMPLES) if name.endswith(".py")
        ),
    )
    def test_example_runs(self, example, capsys):
        import importlib.util

        path = os.path.join(_EXAMPLES, f"{example}.py")
        spec = importlib.util.spec_from_file_location(example, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.main()
        out = capsys.readouterr().out
        assert out
        if example in _ATTACK_EXAMPLES:
            assert "detected" in out.lower()
