"""Virtual-memory layout of the simulated system.

Mirrors the shape of an arm64 Linux layout: kernel image high in the
TTBR1 range, per-task 16 KiB kernel stacks (4 KiB-aligned — the
alignment whose low-order SP-bit repetition motivates the hardened
modifier of Section 4.2), a kernel heap for dynamic objects, and a low
TTBR0 user range.
"""

from __future__ import annotations

__all__ = [
    "KERNEL_IMAGE_BASE",
    "KERNEL_PERCPU_BASE",
    "CANARY_SMASH_SLOT",
    "ATTACK_SCRATCH",
    "XOM_BASE",
    "KERNEL_STACK_REGION",
    "KERNEL_STACK_SIZE",
    "KERNEL_STACK_DEFAULT_STRIDE",
    "KERNEL_HEAP_BASE",
    "KERNEL_HEAP_SIZE",
    "USER_TEXT_BASE",
    "USER_DATA_BASE",
    "USER_STACK_TOP",
    "USER_STACK_SIZE",
    "PAGE_SIZE",
]

PAGE_SIZE = 4096

#: Kernel image (text, rodata, data) — TTBR1 range, bit 55 set.
KERNEL_IMAGE_BASE = 0xFFFF_0000_0800_0000

#: Page(s) reserved for the XOM key setter.
XOM_BASE = 0xFFFF_0000_0700_0000

#: Kernel task stacks: 16 KiB each (the paper's "shallow" stacks).
KERNEL_STACK_REGION = 0xFFFF_0000_4000_0000
KERNEL_STACK_SIZE = 16 * 1024
#: Default placement stride.  16 KiB keeps stacks dense; experiments on
#: PARTS cross-thread replay use a 64 KiB stride (Section 7).
KERNEL_STACK_DEFAULT_STRIDE = 16 * 1024

#: Kernel heap for dynamically allocated objects (struct file, ...).
KERNEL_HEAP_BASE = 0xFFFF_0000_8000_0000
KERNEL_HEAP_SIZE = 4 * 1024 * 1024

#: Fixed per-CPU page holding the ``current`` task pointer (slot 0).
#: A fixed address lets text reference it without relocations.
KERNEL_PERCPU_BASE = 0xFFFF_0000_0600_0000
#: Per-CPU slot the canary victim reads its "network input" from: a
#: non-zero value makes its linear copy run long enough to clobber the
#: canary word.  (+0xE00 keeps clear of the fd table at +0x100.)
CANARY_SMASH_SLOT = KERNEL_PERCPU_BASE + 0xE00
#: Per-CPU slot attack code uses as an in-memory marker/counter
#: (register markers would be wiped by the kernel-exit GPR restore).
ATTACK_SCRATCH = KERNEL_PERCPU_BASE + 0xF00

#: User space (TTBR0).
USER_TEXT_BASE = 0x0000_0000_0040_0000
USER_DATA_BASE = 0x0000_0000_1000_0000
USER_STACK_TOP = 0x0000_7FFF_FF00_0000
USER_STACK_SIZE = 64 * 1024
