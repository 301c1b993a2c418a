"""Static analysis: source survey, semantic patch, CFG recovery,
whole-image verification (CFI rules and the key-register rule), gadget
census.

Import from the defining module (``repro.analysis.verifier``,
``repro.analysis.corpus``, ...): the kernel's boot and module loader
need only the verifier and the CFG recovery beneath it, so the package
loads nothing else.
"""
