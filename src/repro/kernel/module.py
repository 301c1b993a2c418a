"""Loadable kernel modules (Sections 4.1, 4.6, 5.3).

Loading an LKM in the protected kernel involves three extra steps over
placing its sections:

1. **static verification** — the module's text words, as they will be
   mapped, are decoded (a word that does not decode rejects it) and
   scanned for key reads, SCTLR corruption, unsanctioned key writes and
   PAC-strip instructions, then run through the whole-image CFI verifier
   (:mod:`repro.analysis.verifier`): sign/auth pairing, naked indirect
   branches, signing oracles.  A module that fails either check is
   rejected before any of its code can run, with a dmesg line;
2. **sealing** — text and rodata frames are write-protected through the
   hypervisor's stage 2 (the threat model's read-only guarantee);
3. **signed-pointer fixup** — the module's ``.pauth_ptrs`` table is
   walked and every statically initialized protected pointer is signed
   in place with the live kernel keys, the run-time equivalent of what
   early boot does for the kernel image itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.binscan import scan_image
from repro.analysis.verifier import verify_image
from repro.elfimage.ptrtable import sign_in_place
from repro.errors import ReproError

__all__ = ["ModuleRejected", "LoadedModule", "ModuleLoader"]


class ModuleRejected(ReproError):
    """The static verifier refused the module."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@dataclass
class LoadedModule:
    """A successfully loaded module."""

    image: object
    loaded: object  # LoadedImage
    signed_pointers: list = field(default_factory=list)

    @property
    def name(self):
        return self.image.name

    def symbol(self, name):
        return self.image.address_of(name)


class ModuleLoader:
    """Verifies, places and fixes up LKM images."""

    def __init__(self, system):
        self.system = system
        self.modules = {}

    def load(self, image):
        """Load one module image; raises :class:`ModuleRejected` on a
        duplicate name, a failed static scan or CFI verification, before
        anything is mapped."""
        if image.name in self.modules:
            self._log_rejection(image)
            raise ModuleRejected(f"module {image.name!r} already loaded")
        try:
            report = scan_image(image, forbid_strip=True)
        except ReproError as error:  # a text word that does not decode
            self._log_rejection(image)
            raise ModuleRejected(
                f"module {image.name!r} failed static verification: {error}"
            ) from None
        if not report.ok:
            self._log_rejection(image)
            raise ModuleRejected(
                f"module {image.name!r} failed static verification:\n"
                f"{report.summary()}",
                report=report,
            )
        verdict = verify_image(
            image,
            profile=self.system.profile,
            sealed_ranges=self._sealed_ranges(image),
            module=True,
        )
        if not verdict.ok:
            self._log_rejection(image)
            raise ModuleRejected(
                f"module {image.name!r} failed CFI verification:\n"
                f"{verdict.summary()}",
                report=verdict,
            )
        system = self.system
        loaded = system.loader.load(image)
        for section in image.sections.values():
            writable = section.permissions.w_el1
            if not writable:
                for frame in loaded.frames_of(section.name):
                    system.hypervisor.write_protect(
                        frame, executable_el1=section.permissions.x_el1
                    )
        signed = self._sign_pointers(image)
        module = LoadedModule(image=image, loaded=loaded, signed_pointers=signed)
        self.modules[image.name] = module
        return module

    def _sealed_ranges(self, image):
        """Read-only memory the module may legitimately dispatch
        through: its own non-writable sections (sealed right after
        placement), the kernel image's, and the syscall table page."""
        ranges = []
        images = [image]
        kernel = getattr(self.system, "kernel_image", None)
        if kernel is not None:
            images.append(kernel)
        for source in images:
            for section in source.sections.values():
                if not section.permissions.w_el1:
                    ranges.append((section.base, section.base + section.size))
        from repro.kernel.system import SYSCALL_TABLE  # circular at top

        ranges.append((SYSCALL_TABLE, SYSCALL_TABLE + 0x1000))
        return tuple(ranges)

    def _log_rejection(self, image):
        faults = getattr(self.system, "faults", None)
        if faults is not None:
            faults.log(f"module-rejected({image.name})")

    def _sign_pointers(self, image):
        """Walk the module's ``.pauth_ptrs`` table (Section 4.6)."""
        system = self.system
        signed = []
        if not system.cpu.has_pauth:
            return signed  # HINT-space PACs are NOPs on this core
        for entry in image.pauth_ptrs:
            section = image.section(entry.section)
            value = sign_in_place(
                entry,
                section.base,
                system.mmu,
                system.cpu.pac,
                system.kernel_keys,
            )
            signed.append((entry, value))
        return signed
