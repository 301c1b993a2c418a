"""Tasks and the in-memory ``task_struct`` (paper Sections 2.2, 2.3).

The kernel uses a 1:1 threading model: each user thread has a kernel
task with its own 16 KiB kernel stack, aligned on a 4 KiB boundary.
The task structure lives in kernel memory and holds:

* the scheduler context (``cpu_context``: callee-saved registers, LR
  and SP).  The saved SP is one of the pointers the paper protects with
  its pointer-integrity scheme inside ``cpu_switch_to``;
* the per-thread *user* PAuth keys (``thread_struct`` keys), which the
  kernel-exit path loads back into the key registers before ERET.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.registers import KeyBank
from repro.errors import ReproError
from repro.kernel import layout

__all__ = [
    "TASK_CONTEXT_SP_OFFSET",
    "TASK_CONTEXT_PC_OFFSET",
    "TASK_CALLEE_SAVED_OFFSET",
    "TASK_TID_OFFSET",
    "TASK_USER_KEYS_OFFSET",
    "TASK_STRUCT_SIZE",
    "USER_KEY_ORDER",
    "Task",
    "TaskTable",
    "define_task_struct_type",
]

#: ``task_struct`` byte layout (all members 8-byte slots).
TASK_CONTEXT_SP_OFFSET = 0x00
TASK_CONTEXT_PC_OFFSET = 0x08
TASK_CALLEE_SAVED_OFFSET = 0x10  # x19..x28, ten slots
TASK_TID_OFFSET = 0x60
TASK_USER_KEYS_OFFSET = 0x68  # five keys x (lo, hi)
TASK_STRUCT_SIZE = TASK_USER_KEYS_OFFSET + 5 * 16

#: Order in which the user keys are laid out in the task struct and
#: restored by the kernel-exit stub.
USER_KEY_ORDER = ("ia", "ib", "da", "db", "ga")


def define_task_struct_type(registry, protect_saved_sp):
    """Register ``task_struct`` with the type registry.

    The saved SP is marked protected when the profile enables the
    pointer-integrity scheme — Section 5.2: "we additionally need to
    sign the switched-from kernel task's SP and authenticate the
    switched-to task's SP".
    """
    members = [
        ("cpu_context_sp", TASK_CONTEXT_SP_OFFSET, "data", protect_saved_sp),
        ("cpu_context_pc", TASK_CONTEXT_PC_OFFSET, "data", False),
        ("tid", TASK_TID_OFFSET, "scalar", False),
    ]
    return registry.define("task_struct", members, size=TASK_STRUCT_SIZE)


@dataclass
class Task:
    """One kernel task (the kernel half of a user thread)."""

    tid: int
    kobj: object  # KObject backing the task_struct
    stack_base: int
    stack_top: int
    user_keys: KeyBank = field(default_factory=KeyBank)
    name: str = ""
    alive: bool = True

    @property
    def address(self):
        return self.kobj.address

    def write_user_keys(self, mmu):
        """Serialise the user keys into the task struct.

        This is the in-kernel copy the exit path reads — and exactly
        the memory the paper notes must *not* be used for kernel keys,
        because it is readable by an arbitrary-read attacker.
        """
        offset = self.address + TASK_USER_KEYS_OFFSET
        for key_name in USER_KEY_ORDER:
            key = self.user_keys.get(key_name)
            mmu.write_u64(offset, key.lo, 1)
            mmu.write_u64(offset + 8, key.hi, 1)
            offset += 16


class TaskTable:
    """Creates tasks with their stacks and tracks the current one."""

    def __init__(self, heap, loader, task_type, stack_stride=None):
        self.heap = heap
        self.loader = loader
        self.task_type = task_type
        self.stack_stride = stack_stride or layout.KERNEL_STACK_DEFAULT_STRIDE
        if self.stack_stride < layout.KERNEL_STACK_SIZE:
            raise ReproError("stack stride smaller than the stack itself")
        self.tasks = {}
        self._next_tid = 1
        self._next_stack_top = (
            layout.KERNEL_STACK_REGION + self.stack_stride
        )
        self.current = None

    def spawn(self, name="", user_keys=None):
        """Allocate a task struct and its 16 KiB kernel stack.

        Stacks are placed at a fixed stride, so — as the paper observes
        — the low-order 12 bits (or 16, with a 64 KiB stride) of SP
        repeat across threads.
        """
        tid = self._next_tid
        self._next_tid += 1
        kobj = self.heap.allocate(self.task_type)
        stack_top = self._next_stack_top
        self._next_stack_top += self.stack_stride
        self.loader.map_stack(stack_top, layout.KERNEL_STACK_SIZE)
        task = Task(
            tid=tid,
            kobj=kobj,
            stack_base=stack_top - layout.KERNEL_STACK_SIZE,
            stack_top=stack_top,
            user_keys=user_keys or KeyBank(),
            name=name or f"task{tid}",
        )
        kobj.raw_write("tid", tid)
        task.write_user_keys(self.heap.mmu)
        self.tasks[tid] = task
        if self.current is None:
            self.current = task
        return task

    def get(self, tid):
        try:
            return self.tasks[tid]
        except KeyError:
            raise ReproError(f"no task {tid}") from None

    def set_current(self, task):
        self.current = task
