"""Dataflow CFI verification over recovered CFGs (paper §4.1, §6.2.2).

The paper argues the CFI contract can be checked *statically* over the
finished kernel image.  This module does exactly that: it recovers the
per-function CFGs (:mod:`repro.analysis.cfg`), matches the
scheme-edge sequences the compiler is supposed to emit (shared with the
emitter through :func:`repro.cfi.modifiers.edge_table`, so verifier and
compiler cannot drift apart), and runs pluggable dataflow rules:

* :class:`PacPairingRule` — every path that spills LR signs it before
  the store and authenticates it with the *same key and modifier
  scheme* after the reload; leaf functions (which never spill LR) are
  exempt by construction because the rule only fires at RET.
* :class:`NakedBranchRule` — BLR/BR must consume a pointer that is
  authenticated (AUT*, BLRA*/BRA*) or provably derived from sealed
  read-only memory (e.g. the syscall table walk).
* :class:`ModifierCollisionRule` — two sign sites in *different*
  functions sharing a ``(key, modifier identity)`` can substitute each
  other's signed pointers (paper §3): sp-only collides everywhere,
  PARTS/Camouflage bind a per-function value.
* :class:`SigningOracleRule` — a reachable PAC* whose input register is
  attacker-writable memory-derived data is a signing oracle.
* :class:`StripGadgetRule` — loadable modules must not carry
  XPACI/XPACD; a reachable strip defeats PAC without the key.
* :class:`KeyRegisterRule` — key confidentiality (§4.1, R2): no text
  reads a key register or writes ``SCTLR_EL1``, and only the kernel's
  user-key restore stub writes a key register.

The last two judge every decoded text word, not just the words inside
function extents (the vector table, anything before the first function
symbol), so they hold wherever a word sits.  The kernel boot runs the
key rule over its image before loading it, the module loader runs
every rule over a module, and ``python -m repro verify`` exposes the
same engine on the command line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cfg import recover_cfg
from repro.arch import isa
from repro.arch.isa import SP, branch_kind, is_sign, is_strip
from repro.arch.registers import KEY_REGISTER_NAMES, LR
from repro.cfi.modifiers import edge_signature, edge_table, modifier_identity

__all__ = [
    "Finding",
    "VerifyReport",
    "VerifierRule",
    "PacPairingRule",
    "NakedBranchRule",
    "ModifierCollisionRule",
    "SigningOracleRule",
    "StripGadgetRule",
    "KeyRegisterRule",
    "verify_image",
    "DEFAULT_ALLOWED_SYMBOLS",
    "RESTORE_USER_KEYS_SYMBOL",
]

#: Hand-written assembly allowed to move raw return addresses around:
#: ``cpu_switch_to`` stores the outgoing task's LR into its task_struct
#: and reloads the incoming task's — crossing task contexts is its job,
#: and the task_struct slots are under DFI, not PAC (paper §5.2).
DEFAULT_ALLOWED_SYMBOLS = ("cpu_switch_to",)

#: The one kernel function sanctioned to write key registers: it
#: restores the *user* keys on the way back to EL0 (modules never may).
RESTORE_USER_KEYS_SYMBOL = "__restore_user_keys"


@dataclass(frozen=True)
class Finding:
    """One rule violation (or risk warning) at a program point."""

    rule: str
    function: str
    address: int
    message: str
    severity: str = "error"

    def render(self):
        where = f"{self.address:#x}" if self.address is not None else "?"
        return (
            f"[{self.rule}] {self.function} @ {where}: "
            f"{self.message} ({self.severity})"
        )

    def to_dict(self):
        return {
            "rule": self.rule,
            "function": self.function,
            "address": self.address,
            "message": self.message,
            "severity": self.severity,
        }


@dataclass
class VerifyReport:
    """Outcome of verifying one image."""

    name: str
    findings: list
    functions: int
    instructions: int
    rules: list

    @property
    def errors(self):
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self):
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def ok(self):
        """No errors (warnings tolerated outside ``--strict``)."""
        return not self.errors

    @property
    def clean(self):
        return not self.findings

    def summary(self):
        head = (
            f"{self.name}: {self.functions} function(s), "
            f"{self.instructions} instruction(s), "
            f"rules: {', '.join(self.rules)}"
        )
        if self.clean:
            return f"{head}\n  clean"
        lines = [head]
        lines += [f"  {finding.render()}" for finding in self.findings]
        return "\n".join(lines)

    def to_dict(self):
        return {
            "name": self.name,
            "functions": self.functions,
            "instructions": self.instructions,
            "rules": list(self.rules),
            "ok": self.ok,
            "clean": self.clean,
            "findings": [f.to_dict() for f in self.findings],
        }


# ---------------------------------------------------------------------------
# scheme-edge matching
# ---------------------------------------------------------------------------
#
# Per basic block, the instruction stream is re-tokenised into "ops":
# either a matched sign/auth edge (the whole window becomes one event)
# or a single instruction.  Matching is greedy longest-first against
# the emitter-derived edge table, so the full Camouflage/PARTS window
# wins over any shorter shape embedded in it.


class _VerifyContext:
    """Shared state between rules for one image."""

    def __init__(self, sealed_ranges=(), allowed=(), module=False):
        self.sealed_ranges = tuple(sealed_ranges)
        self.allowed = frozenset(allowed)
        self.module = module
        self.table = edge_table()
        self._ops = {}

    def sealed(self, address):
        return any(
            start <= address < end for start, end in self.sealed_ranges
        )

    def ops(self, fcfg, block):
        """Tokenised (edge | instruction) stream of one block, cached."""
        cache_key = (fcfg.name, block.start)
        if cache_key not in self._ops:
            self._ops[cache_key] = _match_ops(block, self.table)
        return self._ops[cache_key]


def _match_ops(block, table):
    ops = []
    pairs = block.instructions
    index = 0
    while index < len(pairs):
        matched = None
        for spec in table:
            length = len(spec)
            if index + length > len(pairs):
                continue
            window = pairs[index : index + length]
            if edge_signature([i for _, i in window]) == spec.signature:
                matched = (spec, window)
                break
        if matched is not None:
            ops.append(("edge", matched[0], matched[1]))
            index += len(matched[0])
        else:
            ops.append(("insn", pairs[index][0], pairs[index][1]))
            index += 1
    return ops


def _spills_lr(instruction):
    """Does this instruction store LR to memory?  (Str subclasses Ldr,
    Stp subclasses Ldp — stores must be tested first.)"""
    if isinstance(instruction, (isa.Str, isa.StrPre)):
        return instruction.rt == LR
    if isinstance(instruction, (isa.Stp, isa.StpPre)):
        return LR in (instruction.rt1, instruction.rt2)
    return False


def _reloads_lr(instruction):
    """Does this instruction load LR from memory?"""
    if isinstance(instruction, (isa.Str, isa.StrPre, isa.Stp, isa.StpPre)):
        return False
    if isinstance(instruction, (isa.Ldr, isa.LdrPost)):
        return instruction.rt == LR
    if isinstance(instruction, (isa.Ldp, isa.LdpPost)):
        return LR in (instruction.rt1, instruction.rt2)
    return False


def _writes_lr(instruction):
    """Non-load, non-PAuth register write into LR (mov, arithmetic)."""
    return getattr(instruction, "rd", None) == LR or (
        isinstance(instruction, isa.Mrs) and instruction.rd == LR
    )


class VerifierRule:
    """Base class: one pluggable check over an :class:`ImageCFG`."""

    name = "abstract"
    severity = "error"

    def enabled(self, profile, module):
        """Should this rule run for the given build?  ``profile`` is a
        :class:`~repro.cfi.policy.ProtectionProfile` or None (verify
        everything)."""
        return True

    def run(self, image_cfg, context):
        raise NotImplementedError

    def _functions(self, image_cfg, context):
        for name, fcfg in sorted(image_cfg.functions.items()):
            if name in context.allowed:
                continue
            yield fcfg


# ---------------------------------------------------------------------------
# rule 1: PAC pairing
# ---------------------------------------------------------------------------


class PacPairingRule(VerifierRule):
    """Sign-before-spill / authenticate-after-reload, same key+scheme.

    A forward dataflow tracks the provenance of LR and of its stack
    slot through each function:

    * LR: ``clean`` (raw return address) → ``signed(key, scheme)`` at a
      matched sign edge → spilled (slot remembers the signature) →
      ``reloaded(key, scheme)`` at the load → ``auth`` at a matched
      authenticate edge with the *same* key and scheme.
    * Every plain ``RET`` must see LR ``clean`` (leaf) or ``auth``;
      returning a still-signed or reloaded-but-unauthenticated LR is a
      missing/mismatched AUT, and returning a reloaded LR that was
      never signed is an uninstrumented spill.

    Flagging at RET (not at the spill) is what exempts leaf functions
    and the exception-entry paths, which spill a raw LR but leave via
    ``ERET``.
    """

    name = "pac-pairing"

    def enabled(self, profile, module):
        return profile is None or profile.protects_backward

    def run(self, image_cfg, context):
        findings = set()
        for fcfg in self._functions(image_cfg, context):
            self._run_function(fcfg, context, findings)
        return sorted(findings, key=lambda f: (f.function, f.address))

    # -- dataflow plumbing --------------------------------------------------

    _ENTRY = (("clean",), ("empty",))

    def _run_function(self, fcfg, context, findings):
        reachable = fcfg.reachable_blocks()
        in_states = {fcfg.entry: {self._ENTRY}}
        worklist = [fcfg.entry]
        while worklist:
            start = worklist.pop()
            if start not in reachable or start not in fcfg.blocks:
                continue
            block = fcfg.blocks[start]
            out = set()
            for state in in_states.get(start, {self._ENTRY}):
                out.add(self._transfer_block(fcfg, block, state, context, findings))
            for successor in block.successors:
                merged = in_states.setdefault(successor, set())
                if not out <= merged:
                    merged |= out
                    worklist.append(successor)

    def _transfer_block(self, fcfg, block, state, context, findings):
        for op in context.ops(fcfg, block):
            if op[0] == "edge":
                state = self._edge(fcfg, op[1], op[2], state, findings)
            else:
                state = self._instruction(fcfg, op[1], op[2], state, findings)
        return state

    def _flag(self, findings, fcfg, address, message):
        findings.add(
            Finding(
                rule=self.name,
                function=fcfg.name,
                address=address,
                message=message,
            )
        )

    def _edge(self, fcfg, spec, window, state, findings):
        lr, slot = state
        address = window[0][0]
        if not spec.authenticate:
            return (("signed", spec.key, spec.scheme), slot)
        # authenticate edge
        if lr[0] in ("signed", "reloaded"):
            key, scheme = lr[1], lr[2]
            if key != "?":
                if spec.key != key:
                    self._flag(
                        findings, fcfg, address,
                        f"key mismatch: LR signed with {key!r} but "
                        f"authenticated with {spec.key!r}",
                    )
                elif spec.scheme != scheme:
                    self._flag(
                        findings, fcfg, address,
                        f"modifier-scheme mismatch: LR signed via "
                        f"{scheme!r} but authenticated via {spec.scheme!r}",
                    )
        elif lr[0] == "reloaded-raw":
            self._flag(
                findings, fcfg, address,
                "authenticates a reloaded LR that was never signed",
            )
        elif lr[0] in ("clean", "auth"):
            self._flag(
                findings, fcfg, address,
                "authenticates an LR that was never signed on this path",
            )
        return (("auth",), slot)

    def _auth_and_ret(self, fcfg, address, instruction, state, findings):
        """RETA*: an sp-only authenticate fused with the return."""
        spec = _RetASpec(instruction.key)
        state = self._edge(fcfg, spec, [(address, instruction)], state, findings)
        return state

    def _instruction(self, fcfg, address, instruction, state, findings):
        lr, slot = state
        kind = branch_kind(instruction)
        if kind in ("call", "indirect-call"):
            return (("clean",), slot)
        if kind == "ret":
            if isinstance(instruction, isa.RetA):
                return self._auth_and_ret(
                    fcfg, address, instruction, state, findings
                )
            if instruction.rn == LR:
                if lr[0] == "signed":
                    self._flag(
                        findings, fcfg, address,
                        "missing AUT*: returns a signed, "
                        "never-authenticated LR",
                    )
                elif lr[0] == "reloaded":
                    self._flag(
                        findings, fcfg, address,
                        "missing AUT*: returns a reloaded signed LR "
                        "without authenticating it",
                    )
                elif lr[0] == "reloaded-raw":
                    self._flag(
                        findings, fcfg, address,
                        "returns an LR spilled and reloaded without "
                        "ever being signed",
                    )
                elif lr[0] == "moved":
                    self._flag(
                        findings, fcfg, address,
                        "returns an LR assembled from a raw register "
                        "write outside any recognised scheme edge",
                    )
            return state
        if _spills_lr(instruction):
            if lr[0] in ("signed", "reloaded"):
                slot = ("signed", lr[1], lr[2])
            else:
                slot = ("raw",)
        if _reloads_lr(instruction):
            if slot[0] == "signed":
                lr = ("reloaded", slot[1], slot[2])
            else:
                lr = ("reloaded-raw",)
            return (lr, slot)
        if is_sign(instruction) and self._targets_lr(instruction):
            self._flag(
                findings, fcfg, address,
                f"unrecognised signing sequence around "
                f"'{instruction.text()}' — not a known scheme edge",
            )
            return (("signed", "?", "?"), slot)
        if isa.is_auth(instruction) and self._targets_lr(instruction):
            self._flag(
                findings, fcfg, address,
                f"unrecognised authentication sequence around "
                f"'{instruction.text()}' — not a known scheme edge",
            )
            return (("auth",), slot)
        if _writes_lr(instruction):
            # A raw data write into LR outside any matched edge (the
            # compat X17 shuttle only appears *inside* matched windows)
            # — tolerated unless the function returns through it.
            return (("moved",), slot)
        return (lr, slot)

    @staticmethod
    def _targets_lr(instruction):
        if isinstance(instruction, (isa.PacSp, isa.AutSp)):
            return True  # *SP forms operate on LR by definition
        return getattr(instruction, "rd", None) == LR


@dataclass(frozen=True)
class _RetASpec:
    """Pseudo edge-spec for the fused RETAA/RETAB forms."""

    key: str
    scheme: str = "sp-only"
    compat: bool = False
    authenticate: bool = True


# ---------------------------------------------------------------------------
# rules 2 and 4: register provenance (naked branches, signing oracles)
# ---------------------------------------------------------------------------
#
# One forward dataflow serves both rules.  Each X register carries a
# provenance class:
#
#   ("const", v)  statically known value (MOVZ/MOVK chains, ADR)
#   "sealed"      pointer into sealed read-only memory (e.g. the
#                 syscall table page), possibly at an unknown offset
#   "trusted"     authenticated pointer (AUT*) or a load *from* sealed
#                 memory — the attacker cannot have chosen it
#   "memload"     loaded from writable memory: attacker-controllable
#   "unknown"     anything else (arguments, arithmetic, clobbers)

_CALL_CLOBBERS = tuple(range(0, 18)) + (LR,)


def _provenance_run(fcfg, context, visit):
    """Fixpoint provenance dataflow; ``visit(state, address, insn)`` is
    called for every instruction in every traversal (dedup at the
    finding level keeps reports stable)."""
    reachable = fcfg.reachable_blocks()
    entry = {}
    in_states = {fcfg.entry: entry}
    worklist = [fcfg.entry]
    iterations = 0
    while worklist and iterations < 10_000:
        iterations += 1
        start = worklist.pop()
        if start not in reachable or start not in fcfg.blocks:
            continue
        block = fcfg.blocks[start]
        state = dict(in_states.get(start, {}))
        for address, instruction in block.instructions:
            visit(state, address, instruction)
            _provenance_step(state, instruction, context)
        for successor in block.successors:
            if successor not in in_states:
                in_states[successor] = dict(state)
                worklist.append(successor)
            else:
                merged = _provenance_meet(in_states[successor], state)
                if merged != in_states[successor]:
                    in_states[successor] = merged
                    worklist.append(successor)


def _provenance_meet(a, b):
    out = {}
    for register in set(a) | set(b):
        left = a.get(register, "unknown")
        right = b.get(register, "unknown")
        out[register] = left if left == right else "unknown"
    return out


def _value(state, register):
    if register == SP or register is None:
        return "unknown"
    return state.get(register, "unknown")


def _const(value):
    return ("const", value)


def _is_const(value):
    return isinstance(value, tuple) and value[0] == "const"


def _pointer_class(state, context, base_register, offset):
    """Classification of the address ``[base, #offset]`` points at."""
    base = _value(state, base_register)
    if _is_const(base):
        return "sealed" if context.sealed(base[1] + offset) else "writable"
    if base in ("sealed", "trusted"):
        # A load through an authenticated pointer follows the design's
        # trust chain: AUTD* proved the base points at the genuine
        # (sealed or DFI-protected) object, e.g. the f_ops dispatch.
        return "sealed"
    return "writable"


def _provenance_step(state, insn, context):
    if isinstance(insn, (isa.Bl, isa.Blr, isa.BlrA, isa.HostCall)):
        for register in _CALL_CLOBBERS:
            state[register] = "unknown"
        return
    if isinstance(insn, isa.Movz):
        state[insn.rd] = _const((insn.imm16 & 0xFFFF) << insn.shift)
        return
    if isinstance(insn, isa.Movk):
        old = _value(state, insn.rd)
        if _is_const(old):
            mask = 0xFFFF << insn.shift
            state[insn.rd] = _const(
                (old[1] & ~mask) | ((insn.imm16 & 0xFFFF) << insn.shift)
            )
        else:
            state[insn.rd] = "unknown"
        return
    if isinstance(insn, isa.MovImm):
        state[insn.rd] = _const(insn.value)
        return
    if isinstance(insn, isa.Adr):
        state[insn.rd] = (
            _const(insn.target) if insn.target is not None else "unknown"
        )
        return
    if isinstance(insn, isa.MovReg):
        if insn.rd != SP:
            state[insn.rd] = _value(state, insn.rn)
        return
    if isinstance(insn, (isa.SubsImm, isa.SubsReg)):
        if insn.rd != SP:
            state[insn.rd] = "unknown"
        return
    if isinstance(insn, isa.AddImm):  # AddImm also covers SubImm
        delta = insn.imm if not isinstance(insn, isa.SubImm) else -insn.imm
        base = _value(state, insn.rn)
        if insn.rd == SP:
            return
        if _is_const(base):
            state[insn.rd] = _const(base[1] + delta)
        elif base in ("sealed", "trusted"):
            state[insn.rd] = base
        else:
            state[insn.rd] = "unknown"
        return
    if isinstance(insn, (isa.AddReg, isa.SubReg)):
        if insn.rd == SP:
            return
        classes = {_value(state, insn.rn), _value(state, insn.rm)}
        sealed = any(
            c == "sealed" or (_is_const(c) and context.sealed(c[1]))
            for c in classes
        )
        state[insn.rd] = "sealed" if sealed else "unknown"
        return
    # loads (stores subclass loads in the ISA: test stores first)
    if isinstance(insn, (isa.Str, isa.StrPre, isa.Stp, isa.StpPre)):
        if isinstance(insn, (isa.StrPre, isa.StpPre)) and insn.rn != SP:
            state[insn.rn] = "unknown"
        return
    if isinstance(insn, (isa.Ldr, isa.LdrPost)):
        offset = insn.imm if isinstance(insn, isa.Ldr) else 0
        where = _pointer_class(state, context, insn.rn, offset)
        state[insn.rt] = "trusted" if where == "sealed" else "memload"
        if isinstance(insn, isa.LdrPost) and insn.rn != SP:
            state[insn.rn] = "unknown"
        return
    if isinstance(insn, (isa.Ldp, isa.LdpPost)):
        offset = insn.imm if isinstance(insn, isa.Ldp) else 0
        where = _pointer_class(state, context, insn.rn, offset)
        value = "trusted" if where == "sealed" else "memload"
        state[insn.rt1] = value
        state[insn.rt2] = value
        if isinstance(insn, isa.LdpPost) and insn.rn != SP:
            state[insn.rn] = "unknown"
        return
    # pointer authentication: check AUT variants before PAC bases
    if isinstance(insn, isa.AutSp):
        state[LR] = "trusted"
        return
    if isinstance(insn, isa.Aut1716):
        state[17] = "trusted"
        return
    if isinstance(insn, isa.Aut):
        state[insn.rd] = "trusted"
        return
    if isinstance(insn, isa.PacSp):
        state[LR] = "trusted"
        return
    if isinstance(insn, isa.Pac1716):
        state[17] = "trusted"
        return
    if isinstance(insn, isa.Pac):
        state[insn.rd] = "trusted"
        return
    if isinstance(insn, isa.PacGa):
        state[insn.rd] = "unknown"
        return
    if isinstance(insn, isa.Xpac):
        state[insn.rd] = "unknown"
        return
    if isinstance(insn, isa.Mrs):
        state[insn.rd] = "unknown"
        return
    rd = getattr(insn, "rd", None)
    if rd is not None and rd != SP:
        state[rd] = "unknown"


class NakedBranchRule(VerifierRule):
    """BLR/BR must consume an authenticated or sealed-derived pointer."""

    name = "naked-branch"

    def enabled(self, profile, module):
        return profile is None or profile.forward

    _SAFE = ("trusted", "sealed")

    def run(self, image_cfg, context):
        findings = set()
        for fcfg in self._functions(image_cfg, context):

            def visit(state, address, insn, fcfg=fcfg):
                target = None
                if isinstance(insn, (isa.Blr, isa.Br)) and not isinstance(
                    insn, (isa.BlrA, isa.BrA)
                ):
                    target = insn.rn
                elif isinstance(insn, isa.Ret) and insn.rn != LR:
                    target = insn.rn
                if target is None:
                    return
                value = _value(state, target)
                if value in self._SAFE or _is_const(value):
                    return
                findings.add(
                    Finding(
                        rule=self.name,
                        function=fcfg.name,
                        address=address,
                        message=(
                            f"'{insn.text()}' consumes an unauthenticated "
                            f"pointer (provenance: "
                            f"{value if isinstance(value, str) else value[0]})"
                        ),
                    )
                )

            _provenance_run(fcfg, context, visit)
        return sorted(findings, key=lambda f: (f.function, f.address))


class SigningOracleRule(VerifierRule):
    """A PAC* over attacker-writable memory-derived data signs whatever
    the attacker planted — a signing oracle (paper §3).  PACGA is
    exempt: MACing memory contents is its legitimate purpose (the
    exception-frame MAC)."""

    name = "signing-oracle"

    def run(self, image_cfg, context):
        findings = set()
        for fcfg in self._functions(image_cfg, context):

            def visit(state, address, insn, fcfg=fcfg):
                if not is_sign(insn) or isinstance(insn, isa.PacGa):
                    return
                if isinstance(insn, isa.PacSp):
                    source = LR
                elif isinstance(insn, isa.Pac1716):
                    source = 17
                else:
                    source = insn.rd
                if _value(state, source) != "memload":
                    return
                findings.add(
                    Finding(
                        rule=self.name,
                        function=fcfg.name,
                        address=address,
                        message=(
                            f"'{insn.text()}' signs a value loaded from "
                            f"writable memory — signing oracle"
                        ),
                    )
                )

            _provenance_run(fcfg, context, visit)
        return sorted(findings, key=lambda f: (f.function, f.address))


# ---------------------------------------------------------------------------
# rule 3: modifier collisions
# ---------------------------------------------------------------------------


class ModifierCollisionRule(VerifierRule):
    """Distinct functions whose sign sites share ``(key, modifier
    identity)`` can substitute each other's signed pointers (§3).

    Reported as a *warning*: the code still upholds sign/auth pairing,
    but the replay window is wider than the Camouflage design point.
    """

    name = "modifier-collision"
    severity = "warning"

    def run(self, image_cfg, context):
        sites = {}
        for fcfg in self._functions(image_cfg, context):
            for block in fcfg.blocks.values():
                for op in context.ops(fcfg, block):
                    if op[0] != "edge" or op[1].authenticate:
                        continue
                    spec, window = op[1], op[2]
                    identity = modifier_identity(spec, window)
                    sites.setdefault((spec.key, identity), []).append(
                        (fcfg.name, window[0][0], spec.scheme)
                    )
        findings = []
        for (key, identity), entries in sorted(sites.items()):
            functions = sorted({name for name, _, _ in entries})
            if len(functions) < 2:
                continue
            name, address, scheme = entries[0]
            findings.append(
                Finding(
                    rule=self.name,
                    function=name,
                    address=address,
                    message=(
                        f"{len(entries)} sign site(s) across "
                        f"{len(functions)} functions "
                        f"({', '.join(functions[:4])}"
                        f"{', …' if len(functions) > 4 else ''}) share "
                        f"modifier identity {identity!r} under key "
                        f"{key!r} ({scheme}): signed pointers are "
                        f"mutually substitutable"
                    ),
                    severity=self.severity,
                )
            )
        return findings


# ---------------------------------------------------------------------------
# rules 5 and 6: words no text may hold
# ---------------------------------------------------------------------------
#
# These judge every decoded word (``ImageCFG.words``), not the function
# CFGs, and exempt no ``allowed_symbols``: where a word sits does not
# change what it does.


class StripGadgetRule(VerifierRule):
    """XPACI/XPACD in a loadable module removes a PAC without the key
    (§6.2.2) — the whole defence evaporates if one is reachable."""

    name = "strip-gadget"

    def enabled(self, profile, module):
        return module

    def run(self, image_cfg, context):
        return [
            Finding(
                rule=self.name,
                function=owner,
                address=address,
                message=(
                    f"'{instruction.text()}' strips a PAC "
                    f"without the key — forbidden in modules"
                ),
            )
            for owner, address, instruction in image_cfg.words()
            if is_strip(instruction)
        ]


_KEY_REGISTERS = frozenset(KEY_REGISTER_NAMES)


class KeyRegisterRule(VerifierRule):
    """Key confidentiality and integrity (§4.1, R2).

    ``MRS`` encodes the register it reads, so a key read is visible in
    the word itself: none is allowed anywhere.  Nor is any ``MSR
    SCTLR_EL1``, which could clear the PAuth enable flags.  A key write
    is allowed only inside :data:`RESTORE_USER_KEYS_SYMBOL` of a kernel
    image; a module may write none.  Runs under every profile.
    """

    name = "key-register"

    def run(self, image_cfg, context):
        writer = None if context.module else RESTORE_USER_KEYS_SYMBOL
        if writer not in image_cfg.functions:
            writer = None  # a label outside any function is no writer
        findings = []
        for owner, address, instruction in image_cfg.words():
            reason = self._reason(instruction, owner == writer)
            if reason is not None:
                findings.append(
                    Finding(
                        rule=self.name,
                        function=owner,
                        address=address,
                        message=f"'{instruction.text()}' {reason}",
                    )
                )
        return findings

    @staticmethod
    def _reason(instruction, sanctioned):
        """Why the word is refused, or None."""
        if isinstance(instruction, isa.Mrs):
            if instruction.sysreg in _KEY_REGISTERS:
                return "reads a PAuth key register (R2)"
        elif isinstance(instruction, isa.Msr):
            if instruction.sysreg == "SCTLR_EL1":
                return "could clear the PAuth enable flags (R2)"
            if instruction.sysreg in _KEY_REGISTERS and not sanctioned:
                return (
                    f"writes a PAuth key register outside the kernel's "
                    f"{RESTORE_USER_KEYS_SYMBOL} (R2)"
                )
        return None


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

ALL_RULES = (
    PacPairingRule,
    NakedBranchRule,
    ModifierCollisionRule,
    SigningOracleRule,
    StripGadgetRule,
    KeyRegisterRule,
)


def verify_image(
    target,
    profile=None,
    sealed_ranges=(),
    module=False,
    allowed_symbols=DEFAULT_ALLOWED_SYMBOLS,
    name=None,
    rules=ALL_RULES,
):
    """Statically verify one image (or bare program) against the CFI
    contract.

    Parameters
    ----------
    target:
        An :class:`~repro.elfimage.image.Image`, a
        :class:`~repro.arch.assembler.Program` with function metadata,
        or a list of programs already decoded from an image's text
        (``Image.text_programs()``; pass ``name``).
    profile:
        The :class:`~repro.cfi.policy.ProtectionProfile` the build
        claims to implement; gates which rules run (None runs all).
    sealed_ranges:
        ``(start, end)`` address ranges of read-only (sealed) memory;
        loads from these produce trusted pointers (the syscall table).
    module:
        Verify as a loadable module (enables the strip-gadget rule and
        sanctions no key write).
    allowed_symbols:
        Function names exempt from the dataflow rules (hand-written
        context-switch code).
    """
    image_cfg = recover_cfg(target, name=name)
    context = _VerifyContext(
        sealed_ranges=sealed_ranges, allowed=allowed_symbols, module=module
    )
    findings = []
    ran = []
    for factory in rules:
        rule = factory()
        if not rule.enabled(profile, module):
            continue
        ran.append(rule.name)
        findings.extend(rule.run(image_cfg, context))
    findings.sort(key=lambda f: (f.function, f.address or 0, f.rule))
    return VerifyReport(
        name=image_cfg.name,
        findings=findings,
        functions=len(image_cfg.functions),
        instructions=image_cfg.instruction_count,
        rules=ran,
    )
