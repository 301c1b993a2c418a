"""Signed-field accessors: the get/set pattern of Sections 4.3/5.3.

Protected pointer members of kernel structures are never read or
written directly; instead the kernel uses generated inline accessors:

* a setter (``set_file_ops(fp, &my_ops)``) signs the pointer under the
  field's modifier and stores it;
* a getter (``file_ops(fp)``) loads, authenticates and returns it —
  emitting exactly the Listing 4 sequence, including the combined
  load-call form used for indirect calls through operations tables.

The modifier concatenates the low-order 48 bits of the *containing
object's* address with a 16-bit constant unique to the (type, member)
pair, so a signed pointer is valid only in the slot, object and type it
was assigned to.
"""

from __future__ import annotations

from repro.arch import isa
from repro.elfimage.ptrtable import field_modifier
from repro.errors import ReproError

__all__ = [
    "AccessorGenerator",
    "field_modifier",
    "sign_field_value",
    "emit_keyed_op",
]

#: Scratch registers the generated accessors use (caller-saved).
_PTR = 8
_MOD = 9
#: HINT-space operand registers (PAC*1716 forms are hardwired to them).
_HINT_VALUE = 17
_HINT_MOD = 16


def emit_keyed_op(asm, profile, key, reg, mod_reg, authenticate):
    """Sign or authenticate Xreg under Xmod_reg, honouring compat mode.

    Normal builds emit the one-instruction PAC*/AUT* form.  Compat
    builds (Section 5.5) may only use the HINT-space ``PACIB1716``/
    ``AUTIB1716`` encodings, which operate on X17 with the modifier in
    X16 — so the value and modifier are shuttled through those
    registers.  On a v8.0 core the HINT forms retire as NOPs and the
    value passes through untouched.
    """
    if not getattr(profile, "compat", False):
        op = isa.Aut(key, reg, mod_reg) if authenticate else isa.Pac(
            key, reg, mod_reg
        )
        asm.emit(op)
        return
    sequence = []
    if reg != _HINT_VALUE:
        sequence.append(isa.MovReg(_HINT_VALUE, reg))
    if mod_reg != _HINT_MOD:
        sequence.append(isa.MovReg(_HINT_MOD, mod_reg))
    hint = isa.Aut1716(key) if authenticate else isa.Pac1716(key)
    sequence.append(hint)
    if reg != _HINT_VALUE:
        sequence.append(isa.MovReg(reg, _HINT_VALUE))
    asm.emit(*sequence)


def sign_field_value(pac_engine, keys, key_name, object_address, constant, value):
    """Host-side equivalent of a setter: sign ``value`` for a field.

    Used when initializing simulated kernel objects from Python, and by
    tests to predict what the in-simulation setter must store.
    """
    modifier = field_modifier(object_address, constant)
    return pac_engine.add_pac(value, modifier, keys.get(key_name))


class AccessorGenerator:
    """Emits getter/setter functions for protected structure fields.

    When the profile does not enable the relevant protection (forward
    CFI for function-pointer members, DFI for data-pointer members) the
    emitted accessors degrade to a plain load/store — the unprotected
    baseline the evaluation compares against.
    """

    def __init__(self, profile):
        self.profile = profile

    def _protection_key(self, field):
        """The key to use for ``field``, or None when unprotected."""
        from repro.cfi.keys import KeyRole

        if field.is_function_pointer:
            if not self.profile.forward:
                return None
            return self.profile.key_for(KeyRole.FORWARD)
        if not self.profile.dfi:
            return None
        return self.profile.key_for(KeyRole.DFI)

    # -- code generation ---------------------------------------------------

    def emit_setter(self, asm, name, field):
        """Setter function: X0 = object, X1 = raw pointer value.

        Signs X1 under the field modifier and stores it at the member
        offset.  Leaf function (no frame needed).
        """
        key = self._protection_key(field)
        asm.fn(name)
        if key is not None:
            asm.emit(
                isa.Movz(_MOD, field.constant, 0),
                isa.Bfi(_MOD, 0, 16, 48),
            )
            emit_keyed_op(asm, self.profile, key, 1, _MOD, authenticate=False)
        asm.emit(isa.Str(1, 0, field.offset), isa.Ret())
        return asm

    def emit_getter(self, asm, name, field):
        """Getter function: X0 = object; returns the usable pointer.

        Emits the Listing 4 sequence: load the signed pointer, build
        the modifier from the object address and the 16-bit constant,
        authenticate, and hand the canonical pointer back in X0.
        """
        key = self._protection_key(field)
        asm.fn(name)
        asm.emit(isa.Ldr(_PTR, 0, field.offset))
        if key is not None:
            asm.emit(
                isa.Movz(_MOD, field.constant, 0),
                isa.Bfi(_MOD, 0, 16, 48),
            )
            emit_keyed_op(asm, self.profile, key, _PTR, _MOD, authenticate=True)
        asm.emit(isa.MovReg(0, _PTR), isa.Ret())
        return asm

    def emit_indirect_call_inline(self, asm, field, callee_offset=0):
        """The full Listing 4 pattern: authenticate then call through.

        X0 = object.  Loads the (possibly signed) table pointer from the
        field, authenticates it, loads the function pointer at
        ``callee_offset`` inside the table and calls it.  Emitted inline
        (no label): the call clobbers LR, so this belongs inside a
        compiler-wrapped (frame-carrying) function.
        """
        key = self._protection_key(field)
        asm.emit(isa.Ldr(_PTR, 0, field.offset))
        if key is not None:
            asm.emit(
                isa.Movz(_MOD, field.constant, 0),
                isa.Bfi(_MOD, 0, 16, 48),
            )
            emit_keyed_op(asm, self.profile, key, _PTR, _MOD, authenticate=True)
        asm.emit(isa.Ldr(_PTR, _PTR, callee_offset), isa.Blr(_PTR))
        return asm

    def emit_call_pointer_inline(self, asm, field, combined=False):
        """Authenticate a *direct* function-pointer member and call it.

        For lone writable function pointers (e.g. ``work_struct.func``)
        there is no operations table: the signed pointer itself is the
        callee.  X0 = containing object (passed through to the callee,
        as ``run_work`` does in Linux).

        With ``combined=True`` the call uses the authenticated
        branch-and-link form (``BLRAA``/``BLRAB``) instead of the
        ``AUT*`` + ``BLR`` pair — the fusion Section 4.3 says a
        compiler attribute would enable.  Only instruction keys have
        combined forms, so the field must be a function pointer.
        """
        key = self._protection_key(field)
        asm.emit(isa.Ldr(_PTR, 0, field.offset))
        if key is None:
            asm.emit(isa.Blr(_PTR))
            return asm
        if combined:
            if not field.is_function_pointer or key not in ("ia", "ib"):
                raise ReproError(
                    "combined BLRA* forms exist only for instruction keys"
                )
            if getattr(self.profile, "compat", False):
                raise ReproError(
                    "BLRA* has no HINT-space form (unusable in compat builds)"
                )
            asm.emit(
                isa.Movz(_MOD, field.constant, 0),
                isa.Bfi(_MOD, 0, 16, 48),
                isa.BlrA(key, _PTR, _MOD),
            )
            return asm
        asm.emit(
            isa.Movz(_MOD, field.constant, 0),
            isa.Bfi(_MOD, 0, 16, 48),
        )
        emit_keyed_op(asm, self.profile, key, _PTR, _MOD, authenticate=True)
        asm.emit(isa.Blr(_PTR))
        return asm

    def access_cycles(self, field):
        """Modelled cycle cost of one accessor invocation's body."""
        key = self._protection_key(field)
        cost = 2  # the LDR/STR itself
        if key is not None:
            cost += 1 + 1 + isa.PAUTH_CYCLES  # movz + bfi + pac/aut
        return cost


def validate_constant(constant):
    """Check a (type, member) discriminator fits the 16-bit field."""
    if not 0 <= constant <= 0xFFFF:
        raise ReproError(f"constant {constant:#x} does not fit 16 bits")
    return constant
