"""Regression tests pinning the latent-correctness fixes in this PR.

Each class pins one fix: the sentinel conflations (``None`` vs ``0``)
in fault logging and trace statistics, the poison error-code decode,
threshold edge cases, and ring-buffer wrap-around order.
"""

import json

import pytest

from repro.arch.cpu import CPU
from repro.arch.pac import PACEngine
from repro.arch.registers import PAuthKey
from repro.arch.vmsa import VMSAConfig
from repro.errors import KernelPanic, TranslationFault, UndefinedInstructionFault
from repro.kernel.fault import FaultManager, FaultRecord, TaskKilled
from repro.trace.report import summary_table
from repro.trace.ring import RingBuffer
from repro.trace.tracer import CycleStats, Tracer

POISONED = 0x7FFF_0000_0800_0000  # non-canonical: the PAuth signature


class TestDmesgTaskZero:
    """``task=0`` (the idle/init task) must not vanish from the log."""

    def test_task_zero_is_rendered(self):
        manager = FaultManager(config=VMSAConfig())
        manager.records.append(
            FaultRecord(kind="TranslationFault", address=0x1000, task_id=0)
        )
        assert "task=0" in manager.dmesg()

    def test_no_task_still_omitted(self):
        manager = FaultManager(config=VMSAConfig())
        manager.records.append(
            FaultRecord(kind="TranslationFault", address=0x1000)
        )
        assert "task=" not in manager.dmesg()


class TestAddressZeroDistinctFromNone:
    """A NULL dereference is an address; "no address" is not."""

    def _kill(self, manager, fault):
        with pytest.raises(TaskKilled) as info:
            manager(CPU(), fault)
        return str(info.value)

    def test_null_deref_reports_address_zero(self):
        manager = FaultManager(config=VMSAConfig())
        message = self._kill(
            manager, TranslationFault("null", address=0, el=1)
        )
        assert "at 0x0" in message
        assert manager.records[-1].address == 0

    def test_addressless_fault_reports_no_address(self):
        manager = FaultManager(config=VMSAConfig())
        message = self._kill(manager, UndefinedInstructionFault("udf", el=1))
        assert "<no address>" in message
        assert manager.records[-1].address is None

    def test_trace_event_keeps_raw_address(self):
        tracer = Tracer()
        manager = FaultManager(config=VMSAConfig(), tracer=tracer)
        self._kill(manager, TranslationFault("null", address=0, el=1))
        self._kill(manager, UndefinedInstructionFault("udf", el=1))
        addresses = [e.data["address"] for e in tracer.events("fault")]
        assert addresses == [0, None]

    def test_dmesg_renders_both(self):
        manager = FaultManager(config=VMSAConfig())
        manager.records.append(FaultRecord(kind="TranslationFault", address=0))
        manager.records.append(FaultRecord(kind="UndefinedInstructionFault"))
        log = manager.dmesg()
        assert "at 0x0 " in log
        assert "<no address>" in log


class TestCycleStatsSentinels:
    """Empty stats must stay ``None``/``null``; true zero prints 0."""

    def test_empty_stats_as_dict_keeps_none(self):
        stats = CycleStats()
        data = stats.as_dict()
        assert data["min"] is None
        assert data["max"] is None
        assert '"min": null' in json.dumps(data)

    def test_true_zero_cost_reports_zero(self):
        stats = CycleStats()
        stats.add(0)
        data = stats.as_dict()
        assert data["min"] == 0
        assert data["max"] == 0

    def test_summary_table_prints_true_zero(self):
        tracer = Tracer()
        tracer.emit("zero_cost", cycle=1, cost=0)
        rows = {row[0]: row for row in summary_table(tracer).rows}
        assert rows["zero_cost"][4] == "0" and rows["zero_cost"][6] == "0"


class TestPoisonDecode:
    """The poison error code must round-trip for all five keys."""

    ENGINE = PACEngine()
    KEY = PAuthKey(lo=0x0123_4567_89AB_CDEF, hi=0xFEDC_BA98_7654_3210)
    CLASS = {
        "ia": "instruction",
        "ib": "instruction",
        # GA's code (0b11) shares the data-class high bit, so its poison
        # pattern is indistinguishable from da/db with only two bits.
        "ga": "data",
        "da": "data",
        "db": "data",
    }

    @pytest.mark.parametrize("key_name", sorted(CLASS))
    def test_round_trip(self, key_name):
        pointer = 0xFFFF_0000_0123_4560
        signed = self.ENGINE.add_pac(pointer, 42, self.KEY)
        result = self.ENGINE.auth_pac(
            signed, 43, self.KEY, key_name=key_name  # wrong modifier
        )
        assert not result.ok
        decoded = self.ENGINE.decode_poison(result.pointer)
        assert decoded == self.CLASS[key_name]

    def test_canonical_pointer_decodes_to_none(self):
        assert self.ENGINE.decode_poison(0xFFFF_0000_0123_4560) is None
        assert self.ENGINE.decode_poison(0x0000_0000_0123_4560) is None

    def test_arbitrary_garbage_decodes_to_none(self):
        # Wrong bits flipped: not a poison pattern.
        assert self.ENGINE.decode_poison(0xFFFF_0000_0123_4560 ^ (1 << 50)) \
            is None


class TestThresholdEdges:
    def test_panic_at_exactly_threshold_not_before(self):
        manager = FaultManager(config=VMSAConfig(), threshold=3)
        cpu = CPU()
        for expected in (1, 2):
            with pytest.raises(TaskKilled):
                manager(cpu, TranslationFault("bad", address=POISONED, el=1))
            assert manager.pauth_failures == expected
        with pytest.raises(KernelPanic):
            manager(cpu, TranslationFault("bad", address=POISONED, el=1))
        assert manager.pauth_failures == 3

    def test_remaining_attempts_never_negative(self):
        manager = FaultManager(
            config=VMSAConfig(), threshold=2, panic_on_threshold=False
        )
        cpu = CPU()
        for _ in range(5):
            with pytest.raises(TaskKilled):
                manager(cpu, TranslationFault("bad", address=POISONED, el=1))
        assert manager.pauth_failures == 5
        assert manager.remaining_attempts == 0

    def test_threshold_tick_remaining_never_negative(self):
        tracer = Tracer()
        manager = FaultManager(
            config=VMSAConfig(),
            threshold=1,
            panic_on_threshold=False,
            tracer=tracer,
        )
        cpu = CPU()
        for _ in range(3):
            with pytest.raises(TaskKilled):
                manager(cpu, TranslationFault("bad", address=POISONED, el=1))
        remaining = [
            e.data["remaining"] for e in tracer.events("panic_threshold_tick")
        ]
        assert remaining == [0, 0, 0]


class TestRingBufferWrap:
    def test_wraparound_iterates_oldest_first(self):
        ring = RingBuffer(capacity=4)
        for value in range(10):
            ring.append(value)
        assert ring.snapshot() == [6, 7, 8, 9]
        assert list(ring) == [6, 7, 8, 9]
        assert ring.dropped == 6
        assert len(ring) == 4

    def test_under_capacity_keeps_everything(self):
        ring = RingBuffer(capacity=4)
        for value in range(3):
            ring.append(value)
        assert ring.snapshot() == [0, 1, 2]
        assert ring.dropped == 0
