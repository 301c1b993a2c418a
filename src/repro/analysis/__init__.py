"""Static analysis: source survey, semantic patch, binary key scan,
CFG recovery, whole-image CFI verification, gadget census.

Import from the defining module (``repro.analysis.verifier``,
``repro.analysis.corpus``, ...): the kernel's module loader needs only
the binary scan and the verifier, so the package loads nothing else.
"""
