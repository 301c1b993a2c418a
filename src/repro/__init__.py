"""Camouflage: hardware-assisted CFI for the ARM Linux kernel — a
simulation-based reproduction of the DAC 2020 paper.

The package is layered bottom-up:

* :mod:`repro.qarma` — the QARMA-64 cipher (the PAC algorithm);
* :mod:`repro.arch` — AArch64 pointer layout, registers, PAuth, ISA, CPU;
* :mod:`repro.mem` / :mod:`repro.hyp` — two-stage MMU and hypervisor XOM;
* :mod:`repro.elfimage` / :mod:`repro.boot` — kernel images, the signed-
  pointer table, and the key-generating bootloader;
* :mod:`repro.kernel` — the mini Linux-like kernel (tasks, syscalls,
  scheduler, modules, workqueues, VFS);
* :mod:`repro.cfi` — the paper's contribution: modifier schemes,
  instrumentation, accessors and protection profiles;
* :mod:`repro.analysis` — the Coccinelle-like survey and binary scans;
* :mod:`repro.inject` — adversarial scenarios (the Section 6.2 attacks
  and state corruptions), the invariant checker and detection matrices;
* :mod:`repro.workloads` / :mod:`repro.bench` — the evaluation harness.

:mod:`repro.bench`, :mod:`repro.inject` and the CLI
(:mod:`repro.__main__`) sit on top, and nothing beneath imports them:
a booted :class:`~repro.kernel.system.System` loads the kernel and the
layers it runs, not the experiments or the campaign.  The ``analysis``
and ``workloads`` packages import nothing from their ``__init__``, so
importing one of their modules loads only that module's dependencies.
"""

__version__ = "1.0.0"
