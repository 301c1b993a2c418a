"""One switch for the host-side hot-path caches.

The simulator carries several *host-side* caches that make the
interpreter fast without changing a single architectural outcome:

* the **decode cache** (:mod:`repro.arch.cpu`): translation blocks — the
  bound handlers and costs of the straight-line instructions from a
  ``(pc, EL)`` up to the next branch, exception or HostCall — run back
  to back on one probe instead of re-walking the MMU on every fetch,
  a hot block's body as one generated function;
* the **translation cache** (:mod:`repro.mem.mmu`): successful stage-1 +
  stage-2 translations are memoised per (page, access, EL), and the
  host frame behind each page loaded or stored per (access, EL), the
  TLB a templated load or store probes;
* the **decode memo** (:mod:`repro.mem.phys`): decoded instructions per
  (word, PC), which never go stale;
* the **cipher memo** (:mod:`repro.qarma.qarma64`): pure memoisation of
  QARMA-64 encryptions per cipher instance.  The PAC engine keeps one
  immutable cipher per key value, so this is also the only PAC memo and
  a key change never needs a flush.

Every cache is architecturally invisible — simulated cycle counts,
retired-instruction streams, fault logs and PAC values are bit-identical
with the caches on or off; ``tests/test_diff_cached.py`` enforces that
differentially.  All four follow one switch, read by ``CPU``, ``MMU``,
``PhysicalMemory`` and ``Qarma64`` at construction: building a system
inside :func:`disabled_caches` yields a fully cold, cache-free simulator
(the reference behaviour the differential tests and ``perfbench/``
check every run against).

Set ``REPRO_DISABLE_CACHES=1`` in the environment to start the process
with the caches off.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

__all__ = ["caches_enabled", "disabled_caches", "snapshot"]

_enabled = os.environ.get("REPRO_DISABLE_CACHES", "") in ("", "0")


def caches_enabled():
    """Whether components built now carry their host-side caches."""
    return _enabled


@contextmanager
def disabled_caches():
    """Context manager: components built inside run fully cache-free."""
    global _enabled
    saved = _enabled
    _enabled = False
    try:
        yield
    finally:
        _enabled = saved


def snapshot():
    """The switch's state, as recorded in perfbench's run manifest."""
    return {"caches": _enabled}
