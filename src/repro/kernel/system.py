"""The booted system: kernel build + boot chain + runtime services.

:class:`System` assembles everything the paper's prototype consists of:

1. the **bootloader** generates kernel keys and installs the XOM key
   setter (Section 5.1);
2. the **kernel image** is built by the simulated compiler under a
   :class:`~repro.cfi.policy.ProtectionProfile` — vectors and syscall
   entry (with key switching), ``cpu_switch_to``, the VFS and workqueue
   machinery, generated accessors, and the registered syscall handlers;
3. **early boot** checks every text word of the image with the
   verifier's key rule, loads it, seals text/rodata through the
   hypervisor, signs the ``.pauth_ptrs`` table, installs the vector
   base, runs the key setter once and locks the MMU registers down;
4. runtime services: task/process creation with per-thread user keys,
   fd table management, user-program execution at EL0, module loading,
   and the fault manager with the brute-force panic threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.verifier import KeyRegisterRule, verify_image
from repro.arch.assembler import Assembler
from repro.arch.cpu import CPU
from repro.arch.vmsa import VMSAConfig
from repro.boot.bootloader import KEY_SETTER_SYMBOL, Bootloader
from repro.boot.fdt import DeviceTree
from repro.cfi.instrument import Compiler
from repro.cfi.policy import profile_by_name
from repro.elfimage.image import DataSectionBuilder, ImageBuilder
from repro.elfimage.loader import ImageLoader
from repro.elfimage.ptrtable import sign_in_place
from repro.errors import ReproError
from repro.hyp.hypervisor import Hypervisor
from repro.kernel import layout
from repro.kernel.entry import (
    VECTORS_SYMBOL,
    EntryTracepoints,
    build_irq_handler,
    build_restore_user_keys,
    build_vectors_and_entry,
)
from repro.kernel.fault import FaultManager
from repro.kernel.kobject import KernelHeap, TypeRegistry
from repro.kernel.module import ModuleLoader
from repro.kernel.sched import Scheduler, build_cpu_switch_to
from repro.kernel.syscalls import default_syscalls, write_syscall_table
from repro.kernel.task import TaskTable, define_task_struct_type
from repro.kernel.vfs import VfsBuilder, build_fops_table, define_file_type
from repro.kernel.workqueue import WorkqueueBuilder, define_work_type
from repro.mem.pagetable import Permissions
from repro.observe.tracefs import TracefsRegistry

__all__ = ["System", "BuildContext"]

#: Fixed kernel service addresses (see :mod:`repro.kernel.layout`).
CURRENT_PTR = layout.KERNEL_PERCPU_BASE
FD_TABLE = layout.KERNEL_PERCPU_BASE + 0x100
FD_TABLE_SLOTS = 32
JIFFIES = layout.KERNEL_PERCPU_BASE + 0x20
SYSCALL_TABLE = layout.KERNEL_PERCPU_BASE + 0x1000

#: Default simulated drivers registered with the VFS.
DEFAULT_DRIVERS = ("ext4", "sockfs", "tracefs")

#: Steps ``System.run_user`` lets a user program take before it gives up.
USER_STEP_BUDGET = 2_000_000


@dataclass
class BuildContext:
    """What text builders (syscalls, workloads) may reference."""

    compiler: Compiler
    registry: TypeRegistry
    profile: object
    current_ptr: int = CURRENT_PTR
    fd_table: int = FD_TABLE
    syscall_table: int = SYSCALL_TABLE


class System:
    """A booted, protected (or baseline) kernel on one simulated core.

    Parameters
    ----------
    profile:
        A :class:`~repro.cfi.policy.ProtectionProfile` or a profile
        name (``"none"``/``"backward"``/``"full"``).
    features:
        CPU features; drop ``"pauth"`` to boot the same binary on an
        ARMv8.0 core (only sensible with a compat-mode profile).
    seed:
        Firmware entropy for key generation (deterministic runs).
    syscalls:
        Extra :class:`~repro.kernel.syscalls.SyscallSpec` list appended
        to the defaults.
    text_builders:
        Extra callables ``(asm, ctx) -> None`` emitting kernel text.
    stack_stride:
        Kernel stack placement stride (default 16 KiB; 64 KiB re-creates
        the PARTS cross-thread replay layout).
    fault_threshold:
        PAuth failure count that halts the system (Section 5.4).
    """

    def __init__(
        self,
        profile="full",
        features=frozenset({"pauth"}),
        seed=0xC0FFEE,
        syscalls=(),
        text_builders=(),
        stack_stride=None,
        fault_threshold=None,
        key_management="xom",
    ):
        if isinstance(profile, str):
            profile = profile_by_name(profile)
        if key_management not in ("xom", "el2-trap", "banked-isa"):
            raise ReproError(f"unknown key management {key_management!r}")
        self.key_management = key_management
        if key_management == "banked-isa":
            features = frozenset(features) | {"pauth-ks"}
        self.profile = profile
        self.config = VMSAConfig()
        self.cpu = CPU(config=self.config, features=features)
        self.mmu = self.cpu.mmu
        self.hypervisor = Hypervisor().attach(self.cpu)
        self.loader = ImageLoader(self.mmu)
        self.bootloader = Bootloader(DeviceTree().set_kaslr_seed(seed))
        self.registry = TypeRegistry()
        self.syscall_specs = list(default_syscalls()) + list(syscalls)
        self.syscall_numbers = {
            spec.name: number for number, spec in enumerate(self.syscall_specs)
        }
        self._fd_count = 0
        self.modules = None  # ModuleLoader, set after boot
        self.scheduler = None
        self.kernel_image = None
        self.key_setter_address = None
        #: Host device actions invoked by the in-kernel IRQ handler.
        self.irq_actions = []
        #: Attached tracer (see :meth:`attach_tracer`); None when
        #: tracing is off, which must stay the zero-cost default.
        self.tracer = None
        self._entry_tracepoints = None
        #: Most recent Section 5.4 crash dump (set by the fault
        #: manager's crash hook on a threshold panic) and, should the
        #: capture itself fail, the error that prevented it.
        self.last_crash = None
        self.last_crash_error = None
        # The tracefs/procfs analogue: created pre-boot because the
        # driver's read leaf closes over its host_read; bound post-boot.
        self.tracefs = TracefsRegistry()

        self._stack_stride = stack_stride
        self._fault_threshold = fault_threshold
        self._define_types()
        self._boot(text_builders)

        # A core created inside a process-wide trace session traced
        # the boot; layer the kernel tracepoints onto its tracer.
        if self.cpu.tracer is not None:
            self.attach_tracer(self.cpu.tracer)

    # -- construction ------------------------------------------------------------

    def _define_types(self):
        define_task_struct_type(self.registry, protect_saved_sp=True)
        define_file_type(self.registry)
        define_work_type(self.registry)

    @property
    def kernel_keys(self):
        """The boot-generated key bank (host-side ground truth)."""
        return self.bootloader.kernel_keys

    def _boot(self, text_builders):
        profile = self.profile
        switch_keys = profile.keys_to_switch()

        # 1) keys + the setter.  The default (paper) design bakes the
        #    keys into an XOM page; the "el2-trap" ablation parks them
        #    at EL2 behind an HVC; the "banked-isa" ablation (the
        #    paper's proposed ISA extension) keeps them resident in the
        #    primary key bank and only flips the select flag.
        self.bootloader.generate_kernel_keys()
        if switch_keys and self.key_management == "xom":
            self.key_setter_address = self.bootloader.install_key_setter(
                self.loader, self.hypervisor, layout.XOM_BASE, switch_keys
            )
        elif switch_keys and self.key_management == "el2-trap":
            self.hypervisor.install_key_service(
                self.kernel_keys, switch_keys
            )
        elif switch_keys:
            # Boot firmware writes the kernel keys once into bank 0.
            self.cpu.regs.keys = self.kernel_keys.copy()

        # 2) fixed service pages: per-CPU (current + fd table) and the
        #    syscall table page (sealed read-only after it is filled).
        self.loader.map_heap(layout.KERNEL_PERCPU_BASE, 0x1000)
        syscall_frame = self.loader.allocator.allocate(1)
        self.mmu.map_range(
            SYSCALL_TABLE, 0x1000, syscall_frame, Permissions.kernel_data()
        )

        # 3) kernel text.
        builder = ImageBuilder("vmlinux", layout.KERNEL_IMAGE_BASE)
        compiler = Compiler(profile)
        self.compiler = compiler
        ctx = BuildContext(
            compiler=compiler, registry=self.registry, profile=profile
        )
        self.build_context = ctx

        asm = Assembler(builder.next_base())
        from repro.arch import isa as _isa

        if switch_keys and self.key_management == "el2-trap":
            # The trap-based setter: one hypercall, no immediates.
            asm.fn(KEY_SETTER_SYMBOL)
            asm.emit(_isa.Hvc(1), _isa.Ret())
        elif switch_keys and self.key_management == "banked-isa":
            # The proposed-extension setter: select the kernel bank.
            asm.fn(KEY_SETTER_SYMBOL)
            asm.emit(
                _isa.Movz(9, 0, 0),
                _isa.Msr("APKSSEL_EL1", 9),
                _isa.Ret(),
            )
        build_restore_user_keys(
            asm, profile, CURRENT_PTR,
            banked=self.key_management == "banked-isa",
        )
        build_cpu_switch_to(
            asm, profile, self.registry.type("task_struct"), CURRENT_PTR
        )
        build_irq_handler(asm, compiler, irq_dispatch=self._dispatch_irq)
        vfs = VfsBuilder(compiler, self.registry)
        for driver in DEFAULT_DRIVERS:
            if driver == "tracefs":
                # The observability filesystem: same sealed fops table
                # and authenticated dispatch, host-rendered content.
                vfs.emit_driver(asm, driver, read_host=self.tracefs.host_read)
            else:
                vfs.emit_driver(asm, driver)
        vfs.emit_accessors(asm)
        vfs.emit_dispatchers(asm)
        WorkqueueBuilder(compiler, self.registry).emit(asm)
        for spec in self.syscall_specs:
            spec.build(asm, ctx)
        for build in text_builders:
            build(asm, ctx)
        main_text = asm.assemble()
        builder.add_text(".text", main_text)

        # 4) vectors + entry (2 KiB-aligned page after the main text).
        vec_asm = Assembler(builder.next_base())
        build_vectors_and_entry(
            vec_asm, profile, len(self.syscall_specs), SYSCALL_TABLE
        )
        extern = dict(main_text.symbols)
        if switch_keys and self.key_management == "xom":
            extern[KEY_SETTER_SYMBOL] = self.key_setter_address
        elif switch_keys:
            self.key_setter_address = main_text.symbols[KEY_SETTER_SYMBOL]
        self._banked = self.key_management == "banked-isa"
        vectors = vec_asm.assemble(extern=extern)
        builder.add_text(".text.vectors", vectors)

        # 5) rodata: one file_operations table per driver.
        rodata = DataSectionBuilder(".rodata")
        for driver in DEFAULT_DRIVERS:
            build_fops_table(
                rodata,
                f"{driver}_fops",
                main_text.symbols,
                {"read": f"{driver}_read", "write": f"{driver}_write"},
            )
        builder.add_data(".rodata", rodata, writable=False)

        # 6) data (kept for statically initialized objects; extended by
        #    callers through declare_work-style helpers pre-boot).
        data = DataSectionBuilder(".data")
        data.add_zeros("__kernel_data_anchor", 8)
        builder.add_data(".data", data, writable=True)

        image = builder.build()
        self.kernel_image = image

        # 7) static verification of the kernel image itself (R2): the
        #    key rule judges every decoded text word, vectors included,
        #    then the loader writes those words and stage 2 seals the
        #    immutable sections.
        programs = image.text_programs()
        report = verify_image(
            programs, rules=(KeyRegisterRule,), name=image.name
        )
        if not report.ok:
            raise ReproError(
                f"kernel image failed its own key check:\n{report.summary()}"
            )
        loaded = self.loader.load(image, programs)
        for name, section in image.sections.items():
            if not section.permissions.w_el1:
                for frame in loaded.frames_of(name):
                    self.hypervisor.write_protect(
                        frame, executable_el1=section.permissions.x_el1
                    )

        # 8) syscall table: fill then seal.
        write_syscall_table(
            self.mmu, SYSCALL_TABLE, self.syscall_specs, image.symbols
        )
        self.hypervisor.write_protect(syscall_frame)

        # 9) early-boot signing of statically initialized pointers.
        # On a non-PAuth core the PAC would be a no-op; the table is
        # walked but the values stay raw (Section 5.5 degradation).
        for entry in image.pauth_ptrs if self.cpu.has_pauth else ():
            sign_in_place(
                entry,
                image.section(entry.section).base,
                self.mmu,
                self.cpu.pac,
                self.kernel_keys,
            )

        # 10) heap, tasks, fault handling, vector base, keys, lockdown.
        self.loader.map_heap(layout.KERNEL_HEAP_BASE, layout.KERNEL_HEAP_SIZE)
        self.heap = KernelHeap(
            self.mmu, layout.KERNEL_HEAP_BASE, layout.KERNEL_HEAP_SIZE
        )
        self.tasks = TaskTable(
            self.heap,
            self.loader,
            self.registry.type("task_struct"),
            stack_stride=self._stack_stride,
        )
        self.faults = FaultManager(config=self.config)
        if self._fault_threshold is not None:
            self.faults.threshold = self._fault_threshold
        self.faults.crash_hook = self._capture_crash
        self.cpu.fault_hook = self.faults
        self.cpu.regs.write_sysreg("VBAR_EL1", image.address_of(VECTORS_SYMBOL))
        if switch_keys:
            # Early boot installs the kernel keys once, through the XOM
            # setter itself (interrupts are still masked at this point).
            self.cpu.regs.interrupts_masked = True
            self.cpu.call(self.key_setter_address, stack_top=None)
        self.hypervisor.lockdown()
        self.modules = ModuleLoader(self)
        self.scheduler = Scheduler(self)

        init = self.spawn_process("init")
        self.set_current(init)
        self.tracefs.bind(self)

    def _capture_crash(self, cpu, fault, record):
        """Fault-manager crash hook: snapshot the wreck pre-panic.

        A capture failure must never mask the panic itself, so it is
        recorded instead of raised.
        """
        from repro.observe.crashdump import CrashDump

        try:
            self.last_crash = CrashDump.capture(self, fault=fault,
                                                record=record)
        except Exception as error:  # pragma: no cover - defensive
            self.last_crash_error = error

    # -- runtime services -----------------------------------------------------------

    def kernel_symbol(self, name):
        return self.kernel_image.address_of(name)

    # -- tracing ----------------------------------------------------------------------

    def attach_tracer(self, tracer):
        """Thread ``tracer`` through every layer of this system.

        The core emits architectural events (instruction retire, PAC
        ops, exceptions, key writes), the PAC engine reports host-side
        signing too, the fault manager reports faults and panic ticks,
        and the entry tracepoints translate the raw stream into
        semantic syscall/key-switch events.  Detach with
        :meth:`detach_tracer`; attaching never changes simulated cycle
        counts.  A system holding a different tracer refuses, as its
        core does.
        """
        if self.tracer is tracer:
            return tracer
        if self.tracer is not None:
            raise ReproError("this system already has a tracer attached")
        self.cpu.attach_tracer(tracer)
        self.tracer = self.faults.tracer = tracer
        self._entry_tracepoints = tracer.add_listener(
            EntryTracepoints(self, tracer)
        )
        return tracer

    def detach_tracer(self):
        """Remove the attached tracer from every layer (idempotent)."""
        if self.tracer is None:
            return
        self.tracer.remove_listener(self._entry_tracepoints)
        self._entry_tracepoints = None
        self.cpu.detach_tracer()
        self.tracer = self.faults.tracer = None

    # -- interrupts -------------------------------------------------------------------

    def _dispatch_irq(self, cpu):
        """Host side of the in-kernel IRQ handler: tick accounting
        plus registered device actions."""
        jiffies = self.mmu.read_u64(JIFFIES, 1)
        self.mmu.write_u64(JIFFIES, jiffies + 1, 1)
        for action in self.irq_actions:
            action(self)

    @property
    def jiffies(self):
        """Timer ticks delivered so far."""
        return self.mmu.read_u64(JIFFIES, 1)

    def enable_timer(self, period_cycles):
        """Raise an IRQ every ``period_cycles`` (delivered when the
        core runs with interrupts unmasked, i.e. in user mode)."""
        self.cpu.timer_period = period_cycles
        self.cpu._timer_next = None

    def raise_irq(self):
        """Assert the interrupt line once (device model)."""
        self.cpu.pending_irq = True

    def spawn_process(self, name=""):
        """New task with fresh user keys (the exec() behaviour)."""
        user_keys = self.bootloader.generate_user_keys()
        task = self.tasks.spawn(name=name, user_keys=user_keys)
        return task

    def set_current(self, task):
        self.tasks.set_current(task)
        self.faults.current_task_id = task.tid
        self.mmu.write_u64(CURRENT_PTR, task.address, 1)
        self.cpu.regs.set_sp_of(1, task.stack_top)

    def install_fd(self, fd, file_object):
        """Bind an fd number to a file object in the fd table page."""
        if not 0 <= fd < FD_TABLE_SLOTS:
            raise ReproError(f"fd {fd} out of range")
        self.mmu.write_u64(FD_TABLE + 8 * fd, file_object.address, 1)
        self._fd_count = max(self._fd_count, fd + 1)

    def kernel_call(self, target, args=(), max_steps=500_000):
        """Call a kernel function in kernel context (host-driven).

        Ensures EL1, the kernel keys (via the XOM setter, as a real
        kernel entry would) and the current task's kernel stack, then
        calls ``target`` (symbol name or address).  Returns (x0, cycles).
        """
        address = (
            self.kernel_symbol(target) if isinstance(target, str) else target
        )
        self.cpu.regs.current_el = 1
        self.cpu.regs.interrupts_masked = True
        if self.profile.keys_to_switch():
            self.cpu.call(
                self.key_setter_address,
                stack_top=self.tasks.current.stack_top,
            )
        return self.cpu.call(
            address, args=args,
            stack_top=self.tasks.current.stack_top,
            max_steps=max_steps,
        )

    # -- user space ---------------------------------------------------------------

    def load_user_program(self, program):
        """Map an assembled user program (EL0 executable)."""
        pages = max(1, (program.size + 4095) // 4096)
        first = self.loader.allocator.allocate(pages)
        self.mmu.map_range(
            program.base,
            pages * 4096,
            first,
            Permissions(r_el0=True, x_el0=True, r_el1=True),
        )
        return self.mmu.place_program(program)

    def map_user_stack(self):
        self.loader.map_stack(
            layout.USER_STACK_TOP, layout.USER_STACK_SIZE, el0=True
        )
        return layout.USER_STACK_TOP

    def map_user_data(self, size=4096):
        return self.loader.map_heap(layout.USER_DATA_BASE, size, el0=True)

    def run_user(self, task, entry, max_steps=USER_STEP_BUDGET):
        """Run a user program on ``task`` until it halts.

        Installs the task's user keys (as the previous kernel exit would
        have), drops to EL0 and executes.  Returns the cycles consumed,
        including every syscall round trip the program makes.
        """
        self.set_current(task)
        if getattr(self, "_banked", False):
            # User keys live in the secondary bank; kernel keys stay
            # resident in the primary one.
            self.cpu.regs.alt_keys = task.user_keys.copy()
            self.cpu.regs.write_sysreg("APKSSEL_EL1", 1)
        else:
            self.cpu.regs.keys = task.user_keys.copy()
        self.cpu.regs.current_el = 0
        self.cpu.regs.interrupts_masked = False
        self.cpu.regs.set_sp_of(0, layout.USER_STACK_TOP)
        self.cpu.regs.pc = entry
        self.cpu.halted = False
        start = self.cpu.cycles
        self.cpu.run(max_steps=max_steps)
        self.cpu.halted = False
        return self.cpu.cycles - start
