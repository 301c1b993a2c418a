"""repro.observe: profiling, flamegraphs and crash introspection.

The observability layer on top of :mod:`repro.trace`:

* :class:`Profiler` / :class:`ProfileSession` — function-graph cycle
  attribution (exclusive/inclusive/PAuth per symbol) and folded-stack
  flamegraph export;
* :class:`SymbolTable` — function-granular PC binning built from the
  assembler's function symbols;
* :class:`CrashDump` / :func:`unwind` / :func:`force_pauth_panic` —
  kdump-style capture with an authenticated stack unwind on the
  Section 5.4 panic path;
* :class:`TracefsRegistry` / :func:`mount_tracefs` — the in-guest
  tracefs/procfs analogue served through the real VFS dispatch path;
* :func:`render_crash` / :func:`render_profile` — terminal rendering.
"""

import importlib

#: Exported name -> defining submodule.  A booted System loads only
#: ``tracefs``; the rest load on first access (PEP 562), so the kernel
#: does not pay for the profiler, the crash dump or their renderers.
_EXPORTS = {
    "CALL_MNEMONICS": "profiler",
    "RET_MNEMONICS": "profiler",
    "CrashDump": "crashdump",
    "HOST_SYMBOL": "symbols",
    "LANDING_SYMBOL": "symbols",
    "Profiler": "profiler",
    "ProfileSession": "profiler",
    "Symbol": "symbols",
    "SymbolTable": "symbols",
    "TracefsRegistry": "tracefs",
    "force_pauth_panic": "crashdump",
    "mount_tracefs": "tracefs",
    "render_crash": "render",
    "render_profile": "render",
    "unwind": "crashdump",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
    value = globals()[name] = getattr(module, name)
    return value
