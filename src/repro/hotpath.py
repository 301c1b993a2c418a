"""Central switchboard for the host-side hot-path caches.

The simulator carries several *host-side* caches that make the
interpreter fast without changing a single architectural outcome:

* the **decode cache** (:mod:`repro.arch.cpu`): retired instructions are
  dispatched through a table of bound handlers instead of re-walking the
  MMU on every fetch;
* the **translation cache** (:mod:`repro.mem.mmu`): successful stage-1 +
  stage-2 translations are memoised per (page, access, EL);
* the **PAC cache** (:mod:`repro.arch.pac`): a bounded FIFO over
  (key value, pointer bits, modifier) → MAC (the oldest-inserted entry
  is evicted; hits do not refresh an entry), explicitly invalidated on
  PAuth key-register writes (the paper's key-bank flush contract);
* the **cipher memo** (:mod:`repro.qarma.qarma64`): pure memoisation of
  QARMA-64 encryptions per cipher instance (a cipher is immutable, so
  its encryption function is a pure function of (plaintext, tweak)).

Every cache is architecturally invisible — simulated cycle counts,
retired-instruction streams, fault logs and PAC values are bit-identical
with the caches on or off; ``tests/test_diff_cached.py`` enforces that
differentially.  This module is the single point of control: components
read the flags at construction time, so building a system inside
:func:`disabled_caches` yields a fully cold, cache-free simulator (the
reference behaviour the differential tests and ``python -m repro perf``
compare against).

Set ``REPRO_DISABLE_CACHES=1`` in the environment to start the process
with every cache off.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

__all__ = [
    "CACHE_KINDS",
    "decode_cache_enabled",
    "translate_cache_enabled",
    "pac_cache_enabled",
    "cipher_memo_enabled",
    "set_caches_enabled",
    "disabled_caches",
    "snapshot",
]

#: The individually switchable cache layers.
CACHE_KINDS = ("decode", "translate", "pac", "cipher")

_DISABLED_FROM_ENV = os.environ.get("REPRO_DISABLE_CACHES", "") not in ("", "0")

_FLAGS = {kind: not _DISABLED_FROM_ENV for kind in CACHE_KINDS}


def decode_cache_enabled():
    return _FLAGS["decode"]


def translate_cache_enabled():
    return _FLAGS["translate"]


def pac_cache_enabled():
    return _FLAGS["pac"]


def cipher_memo_enabled():
    return _FLAGS["cipher"]


def set_caches_enabled(enabled, kinds=CACHE_KINDS):
    """Switch the listed cache layers on or off for new components."""
    for kind in kinds:
        if kind not in _FLAGS:
            raise KeyError(f"unknown cache kind {kind!r}")
        _FLAGS[kind] = bool(enabled)


@contextmanager
def disabled_caches(kinds=CACHE_KINDS):
    """Context manager: components built inside run fully cache-free."""
    saved = dict(_FLAGS)
    try:
        set_caches_enabled(False, kinds)
        yield
    finally:
        _FLAGS.update(saved)


def snapshot():
    """Current flag state (recorded into ``BENCH_perf.json``)."""
    return dict(_FLAGS)
