"""Loadable kernel modules (Sections 4.1, 4.6, 5.3).

Loading an LKM in the protected kernel involves three extra steps over
placing its sections:

1. **static verification** — the module's text words, as they will be
   mapped, are decoded once (a word that does not decode rejects it)
   and judged by the verifier (:mod:`repro.analysis.verifier`) as a
   module: key reads, SCTLR writes, key writes and PAC strips in any
   word, and sign/auth pairing, naked indirect branches and signing
   oracles over the functions.  A module with any error is rejected
   before any of its code can run, with a dmesg line, and the loader
   maps the very words that were judged;
2. **sealing** — text and rodata frames are write-protected through the
   hypervisor's stage 2 (the threat model's read-only guarantee);
3. **signed-pointer fixup** — the module's ``.pauth_ptrs`` table is
   walked and every statically initialized protected pointer is signed
   in place with the live kernel keys, the run-time equivalent of what
   early boot does for the kernel image itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.verifier import verify_image
from repro.elfimage.ptrtable import sign_in_place
from repro.errors import ReproError

__all__ = ["ModuleRejected", "LoadedModule", "ModuleLoader"]


class ModuleRejected(ReproError):
    """The static verifier refused the module.  ``report`` is its
    :class:`~repro.analysis.verifier.VerifyReport`, or None when a text
    word did not decode or the name is already loaded."""

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
        duplicate name or a failed static verification, before anything
        is mapped."""
        if image.name in self.modules:
            self._reject(image, "already loaded")
        try:
            programs = image.text_programs()
        except ReproError as error:  # a text word that does not decode
            self._reject(image, f"failed static verification: {error}")
        report = self.verify(image, programs)
        if not report.ok:
            self._reject(
                image,
                f"failed static verification: {len(report.errors)} "
                f"violation(s)\n{report.summary()}",
                report,
            )
        system = self.system
        loaded = system.loader.load(image, programs)
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

    def verify(self, image, programs):
        """The :class:`~repro.analysis.verifier.VerifyReport` of a module
        image whose text decoded to ``programs``: every rule of the
        system's profile, as a module, over its sealed ranges."""
        return verify_image(
            programs,
            profile=self.system.profile,
            sealed_ranges=self.sealed_ranges(image),
            module=True,
            name=image.name,
        )

    def sealed_ranges(self, image):
        """Read-only memory code in ``image`` may legitimately dispatch
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

    def _reject(self, image, reason, report=None):
        """Refuse a module, with a dmesg line."""
        faults = getattr(self.system, "faults", None)
        if faults is not None:
            faults.log(f"module-rejected({image.name})")
        raise ModuleRejected(f"module {image.name!r} {reason}", report=report)

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
