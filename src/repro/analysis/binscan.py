"""Static verification of kernel and module code (Sections 4.1, 6.2.2).

The kernel never needs to *read* the PAuth keys, so key confidentiality
can be verified statically: because ``MRS`` immediately encodes the
register it reads, any instruction reading a key register is trivially
findable.  The same scan rejects writes that would corrupt the PAuth
enable flags in ``SCTLR_EL1`` (disabling the kernel keys) and — for
loadable modules, which have no business managing keys at all — writes
to the key registers themselves.

The module loader runs this scan before accepting an LKM; the build
runs it over the kernel image (with the key-restore stub whitelisted,
since restoring *user* keys is its legitimate job).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.isa import Mrs, Msr, is_strip
from repro.arch.registers import KEY_REGISTER_NAMES

__all__ = ["Violation", "ScanReport", "scan_instructions", "scan_image"]

_KEY_REGISTERS = frozenset(KEY_REGISTER_NAMES)


@dataclass(frozen=True)
class Violation:
    """One rejected instruction."""

    address: int
    mnemonic: str
    register: str
    reason: str


@dataclass
class ScanReport:
    """Outcome of a static scan."""

    violations: list
    scanned: int

    @property
    def ok(self):
        return not self.violations

    def summary(self):
        if self.ok:
            return f"clean ({self.scanned} instructions)"
        lines = [f"{len(self.violations)} violation(s):"]
        lines += [
            f"  {v.address:#x}: {v.mnemonic} {v.register} — {v.reason}"
            for v in self.violations
        ]
        return "\n".join(lines)


def scan_instructions(
    pairs, allow_key_writes=False, allowed_ranges=(), forbid_strip=False
):
    """Scan (address, instruction) pairs for key-safety violations.

    Parameters
    ----------
    pairs:
        Iterable of (address, instruction).
    allow_key_writes:
        Permit MSR to key registers (the kernel's user-key restore path
        needs this; modules never do).
    allowed_ranges:
        (start, end) address ranges exempt from the key-write check —
        the whitelisted restore stub.
    forbid_strip:
        Also reject XPACI/XPACD.  A reachable strip instruction removes
        a PAC *without* the key (Section 6.2.2), so loadable modules —
        which have no debugging business with PACs — must not carry
        one.
    """
    violations = []
    scanned = 0

    def exempt(address):
        return any(start <= address < end for start, end in allowed_ranges)

    for address, instruction in pairs:
        scanned += 1
        if forbid_strip and is_strip(instruction):
            violations.append(
                Violation(
                    address=address,
                    mnemonic=instruction.mnemonic,
                    register=f"x{instruction.rd}",
                    reason="strips a PAC without the key (§6.2.2)",
                )
            )
        if isinstance(instruction, Mrs):
            if instruction.sysreg in _KEY_REGISTERS:
                violations.append(
                    Violation(
                        address=address,
                        mnemonic="mrs",
                        register=instruction.sysreg,
                        reason="reads a PAuth key register (R2)",
                    )
                )
        elif isinstance(instruction, Msr):
            if instruction.sysreg == "SCTLR_EL1":
                violations.append(
                    Violation(
                        address=address,
                        mnemonic="msr",
                        register="SCTLR_EL1",
                        reason="could clear the PAuth enable flags (R2)",
                    )
                )
            elif instruction.sysreg in _KEY_REGISTERS:
                if not (allow_key_writes or exempt(address)):
                    violations.append(
                        Violation(
                            address=address,
                            mnemonic="msr",
                            register=instruction.sysreg,
                            reason="writes a PAuth key register outside "
                            "the sanctioned paths",
                        )
                    )
    return ScanReport(violations=violations, scanned=scanned)


def scan_image(
    image, allow_key_writes=False, allowed_symbols=(), forbid_strip=False
):
    """Scan every text section of an image.

    ``allowed_symbols`` names functions whose key writes are sanctioned
    (e.g. ``__restore_user_keys``), over the image's function range
    (``Image.function_ranges``: to the next function entry).
    """
    functions = image.function_ranges()
    return scan_instructions(
        image.text_instructions(),
        allow_key_writes=allow_key_writes,
        allowed_ranges=tuple(
            functions[name] for name in allowed_symbols if name in functions
        ),
        forbid_strip=forbid_strip,
    )
