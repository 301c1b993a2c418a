"""Seeded benchmark workloads, driven through the simulator's public API.

Each workload generates its inputs from the seed alone (the simulated
program only ever sees those inputs, written into guest memory), boots a
``full``-profile kernel with the Figure 3 syscall set, and then runs
*units*: one host call into the simulator whose simulated outputs are
recorded for the correctness oracle.

* ``syscall_mix``  one unit = one ``run_user`` over a seeded table of the
  ten Figure 3 syscalls (each twice, once per fd);
* ``pac_stream``   one unit = one ``run_user`` that signs, optionally
  tampers and authenticates a window of distinct (pointer, modifier)
  pairs;
* ``task_churn``   one unit = one task lifecycle: spawn, load, switch
  through ``cpu_switch_to``, run a 4-syscall burst.

A unit returns ``(ops, outputs)``: ``outputs`` is a tuple of simulated
values that must be bit-identical to the cache-free reference path, and
:meth:`Workload.expected` adds host-computed expectations where the
inputs alone determine the answer.
"""

from __future__ import annotations

import contextlib
import random
import struct

from repro.arch import isa
from repro.arch.assembler import Assembler
from repro.arch.vmsa import VMSAConfig
from repro.cfi.keys import KeyRole
from repro.kernel import layout
from repro.workloads.lmbench import LMBENCH_BENCHMARKS, build_lmbench_system

PROFILE = "full"

#: The two fds the lmbench system installs (ext4 and sockfs files).
FDS = (3, 4)

_MASK64 = (1 << 64) - 1
_PAGE = 4096


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _splitmix64(value):
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def _pages(size):
    return -(-size // _PAGE) * _PAGE


def _balanced_syscalls(rng, copies):
    """Each Figure 3 syscall ``copies`` times, fds split evenly, shuffled.

    Balancing keeps the work per unit identical across seeds (only the
    order changes), so the seed alone moves no throughput figure.
    """
    entries = [
        (name, FDS[copy % len(FDS)])
        for name in LMBENCH_BENCHMARKS
        for copy in range(copies)
    ]
    rng.shuffle(entries)
    return entries


def _run_user(system, task, entry):
    cpu = system.cpu
    retired = cpu.instructions_retired
    cycles = system.run_user(task, entry)
    return cycles, cpu.instructions_retired - retired


class Workload:
    """Common set-up: boot, task start, and the unit contract."""

    name = ""
    #: What one op is, for ``ops_per_s``.
    op = ""
    #: Ops per unit.
    unit_ops = 1
    #: Units run during set-up to warm the host caches.
    warmup = 2
    #: Past the warm-up, unit ``i`` has the same :attr:`periodic` outputs
    #: as unit ``i - period`` (the reference run checks this on itself).
    period = 1
    periodic = (0, 1)

    def __init__(self, seed, spans=None):
        self.seed = seed
        self.spans = spans
        self.system = None
        self.session = None

    def span(self, name):
        if self.spans is None:
            return contextlib.nullcontext()
        return self.spans.span(name)

    # -- set-up ------------------------------------------------------------

    def boot(self):
        with self.span("boot"):
            self.system = build_lmbench_system(PROFILE)
            self.system.map_user_stack()
        return self.system

    def enter_kernel(self):
        """EL1 on the current task's stack with the kernel keys installed
        through the key setter: the context a real schedule() runs in."""
        system = self.system
        regs = system.cpu.regs
        regs.current_el = 1
        regs.interrupts_masked = True
        if system.profile.keys_to_switch():
            system.cpu.call(
                system.key_setter_address,
                stack_top=system.tasks.current.stack_top,
            )

    def start_task(self, program, name):
        """Spawn a task, load ``program`` and switch to it.

        The new task's saved context resumes at the host landing pad on
        its own stack top, with the SP signed under the DFI key as
        ``cpu_switch_to`` authenticates it.  Returns (task, cycles of the
        kernel entry plus the switch).
        """
        system = self.system
        cpu = system.cpu
        task = system.spawn_process(name)
        task.kobj.raw_write("cpu_context_pc", cpu._landing_pad())
        if system.profile.dfi:
            task.kobj.set_protected(
                "cpu_context_sp",
                task.stack_top,
                cpu.pac,
                system.kernel_keys,
                system.profile.key_for(KeyRole.DFI),
            )
        else:
            task.kobj.raw_write("cpu_context_sp", task.stack_top)
        system.load_user_program(program)
        before = cpu.cycles
        self.enter_kernel()
        system.scheduler.switch_to(task)
        return task, cpu.cycles - before

    def setup(self):
        """Boot, write the inputs, load, switch in; no warm-up yet."""
        raise NotImplementedError

    def attach_profiler(self):
        from repro.observe import ProfileSession

        self.session = ProfileSession(self.system, capacity=65536)
        self.session.__enter__()

    def detach_profiler(self):
        if self.session is not None:
            self.session.__exit__(None, None, None)
            self.session = None

    # -- units -------------------------------------------------------------

    def unit(self, index):
        raise NotImplementedError

    def expected(self, index):
        """Host-computed outputs of unit ``index``: {position: value}."""
        return {}


# -- syscall_mix ---------------------------------------------------------------


class SyscallMix(Workload):
    """One user task looping over a seeded syscall table in user memory."""

    name = "syscall_mix"
    op = "syscall"
    COPIES = 2
    unit_ops = COPIES * len(LMBENCH_BENCHMARKS)

    def __init__(self, seed, spans=None):
        super().__init__(seed, spans)
        self.entries = _balanced_syscalls(_rng("syscall_mix", seed), self.COPIES)

    def program(self):
        asm = Assembler(layout.USER_TEXT_BASE)
        asm.fn("main")
        asm.mov_imm(20, layout.USER_DATA_BASE)
        asm.mov_imm(19, len(self.entries))
        asm.label("loop")
        asm.emit(
            isa.LdpPost(8, 0, 20, 16),  # x8 = syscall number, x0 = fd
            isa.Svc(0),
            isa.SubsImm(19, 19, 1),
            isa.BCond("ne", "loop"),
            isa.Hlt(),
        )
        return asm.assemble()

    def setup(self):
        system = self.boot()
        numbers = system.syscall_numbers
        table = b"".join(
            struct.pack("<QQ", numbers[name], fd) for name, fd in self.entries
        )
        system.map_user_data(_pages(len(table)))
        system.mmu.write(layout.USER_DATA_BASE, table, 1)
        program = self.program()
        self.entry = program.address_of("main")
        self.task, _ = self.start_task(program, self.name)

    def unit(self, index):
        cycles, retired = _run_user(self.system, self.task, self.entry)
        return self.unit_ops, (cycles, retired)


# -- pac_stream ----------------------------------------------------------------


class PacStream(Workload):
    """Sign, tamper a seeded share, and authenticate distinct pairs.

    The pool of pairs sits in user memory and each unit processes one
    window of it.  Every pass over the pool XORs a fresh seeded salt
    into the modifiers, so no (pointer, modifier) pair ever repeats and
    every signature misses the MAC memo: the cold QARMA path dominates.
    """

    name = "pac_stream"
    op = "pac_op"
    POOL = 4096
    WINDOW = 64
    TAMPERED = POOL // 8
    ENTRY_SIZE = 24
    unit_ops = 2 * WINDOW  # one PACIA and one AUTIA per pair
    #: Parameter block at the start of user data; the pool follows it.
    PARAM = layout.USER_DATA_BASE
    POOL_BASE = layout.USER_DATA_BASE + _PAGE

    def __init__(self, seed, spans=None):
        super().__init__(seed, spans)
        rng = _rng("pac_stream", seed)
        config = VMSAConfig()
        pac_bits = config.pac_field_bits(False)
        #: A failed AUTIA poisons the top PAC bit (instruction-key code).
        self.poison_bit = pac_bits[-1]
        pairs = set()
        while len(pairs) < self.POOL:
            pointer = rng.getrandbits(config.va_bits) & ~0xF
            pairs.add((pointer, rng.getrandbits(64)))
        self.pairs = sorted(pairs)
        rng.shuffle(self.pairs)
        tampered = set(rng.sample(range(self.POOL), self.TAMPERED))
        self.masks = [
            (1 << rng.choice(pac_bits)) if index in tampered else 0
            for index in range(self.POOL)
        ]
        self.salt_seed = rng.getrandbits(64)
        self.windows = self.POOL // self.WINDOW
        self._expected = [
            self._window_expectation(window) for window in range(self.windows)
        ]

    def _window_expectation(self, window):
        """(auth checksum, failed auths) that the inputs imply."""
        checksum = failed = 0
        start = window * self.WINDOW
        for index in range(start, start + self.WINDOW):
            pointer = self.pairs[index][0]
            if self.masks[index]:
                failed += 1
                pointer ^= 1 << self.poison_bit
            checksum ^= pointer
        return checksum, failed

    def salt(self, pass_index):
        return _splitmix64(self.salt_seed + pass_index)

    def program(self):
        asm = Assembler(layout.USER_TEXT_BASE)
        asm.fn("main")
        asm.mov_imm(9, self.PARAM)
        asm.emit(
            isa.Ldr(20, 9, 0),  # window address
            isa.Ldr(19, 9, 8),  # pair count
            isa.Ldr(10, 9, 16),  # modifier salt of this pass
            isa.Movz(21, 0),  # xor of signed pointers
            isa.Movz(22, 0),  # failed authentications
            isa.Movz(23, 0),  # xor of authenticated pointers
        )
        asm.label("loop")
        asm.emit(
            isa.LdpPost(0, 1, 20, 16),  # pointer, modifier
            isa.LdrPost(2, 20, 8),  # tamper mask
            isa.EorReg(1, 1, 10),
            isa.Pac("ia", 0, 1),
            isa.EorReg(21, 21, 0),
            isa.EorReg(0, 0, 2),
            isa.Aut("ia", 0, 1),
            isa.EorReg(23, 23, 0),
            # Branch-free failure count: after a failed AUTIA only the
            # poison bit differs from the stripped pointer.
            isa.MovReg(3, 0),
            isa.Xpac(3),
            isa.EorReg(3, 3, 0),
            isa.LsrImm(3, 3, self.poison_bit),
            isa.AddReg(22, 22, 3),
            isa.SubsImm(19, 19, 1),
            isa.BCond("ne", "loop"),
            isa.Stp(21, 22, 9, 24),
            isa.Str(23, 9, 40),
            isa.Hlt(),
        )
        return asm.assemble()

    def setup(self):
        system = self.boot()
        pool = b"".join(
            struct.pack("<QQQ", pointer, modifier, mask)
            for (pointer, modifier), mask in zip(self.pairs, self.masks)
        )
        system.map_user_data(_PAGE + _pages(len(pool)))
        system.mmu.write(self.POOL_BASE, pool, 1)
        program = self.program()
        self.entry = program.address_of("main")
        self.task, _ = self.start_task(program, self.name)

    def unit(self, index):
        system = self.system
        mmu = system.mmu
        window = index % self.windows
        base = self.POOL_BASE + window * self.WINDOW * self.ENTRY_SIZE
        mmu.write_u64(self.PARAM, base, 1)
        mmu.write_u64(self.PARAM + 8, self.WINDOW, 1)
        mmu.write_u64(self.PARAM + 16, self.salt(index // self.windows), 1)
        cycles, retired = _run_user(system, self.task, self.entry)
        signed = mmu.read_u64(self.PARAM + 24, 1)
        failed = mmu.read_u64(self.PARAM + 32, 1)
        checksum = mmu.read_u64(self.PARAM + 40, 1)
        return self.unit_ops, (cycles, retired, signed, checksum, failed)

    def expected(self, index):
        checksum, failed = self._expected[index % self.windows]
        return {3: checksum, 4: failed}


# -- task_churn ----------------------------------------------------------------


class TaskChurn(Workload):
    """Spawn, load, switch to and run a fresh task per unit."""

    name = "task_churn"
    op = "task"
    BURST = 4
    #: Each syscall appears this often across the pool of bursts.
    COPIES = 4
    period = COPIES * len(LMBENCH_BENCHMARKS) // BURST
    periodic = (0, 1, 2)

    def __init__(self, seed, spans=None):
        super().__init__(seed, spans)
        entries = _balanced_syscalls(_rng("task_churn", seed), self.COPIES)
        self.bursts = [
            entries[start:start + self.BURST]
            for start in range(0, len(entries), self.BURST)
        ]

    def program(self, burst, numbers):
        asm = Assembler(layout.USER_TEXT_BASE)
        asm.fn("main")
        for name, fd in burst:
            asm.mov_imm(0, fd)
            asm.mov_imm(8, numbers[name])
            asm.emit(isa.Svc(0))
        asm.emit(isa.Hlt())
        return asm.assemble()

    def setup(self):
        system = self.boot()
        numbers = system.syscall_numbers
        self.programs = [self.program(burst, numbers) for burst in self.bursts]

    def unit(self, index):
        system = self.system
        cpu = system.cpu
        program = self.programs[index % self.period]
        retired = cpu.instructions_retired
        task, switch_cycles = self.start_task(program, f"churn{index}")
        cycles = system.run_user(task, program.address_of("main"))
        return 1, (switch_cycles, cycles, cpu.instructions_retired - retired)


WORKLOADS = {cls.name: cls for cls in (SyscallMix, PacStream, TaskChurn)}
