"""Evaluation workloads: the guest-program harness (``guest``), the call
micro-bench (``callbench``), the lmbench suite (``lmbench``) and the
user mixes (``userspace``).

Import from the defining module: a booted lmbench system needs only
``guest`` and ``lmbench``, so the package loads nothing else.
"""
