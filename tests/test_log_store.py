import random

import pytest
from hypothesis import example, given, settings, strategies as st
from wire_decoders import crc_valid

from powergap.energy_model import replace
from powergap.log_store import (
    RECORD_OVERHEAD,
    LogRecord,
    LogStore,
    Severity,
    StoreError,
)


@pytest.fixture
def store():
    return LogStore()


def record_9():
    """The record `append` builds as seq 9: WARN, b"abc", at 1.5 s."""
    store = LogStore()
    store.high_water = 8
    assert store.append(Severity.WARN, b"abc", 1.5) == 9
    return store.ram[0]


class TestAppend:
    def test_monotonic_after_persisted_high_water(self, store):
        store.high_water = 41  # as recovered from a flash image
        assert store.append(Severity.INFO, b"x") == 42

    def test_overflow_drops_oldest(self):
        store = LogStore(ram_capacity=256)
        for i in range(257):
            store.append(Severity.DEBUG, i.to_bytes(2, "big"))
        assert store.dropped == 1
        flushed = store.flush()
        assert flushed == 256
        seqs = [r.seq for r in store.flash]
        assert seqs[0] == 2  # record 1 was the one dropped

    def test_crc_valid_on_construction(self, store):
        store.append(Severity.WARN, b"payload")
        store.flush()
        record = store.flash[0]
        assert crc_valid(record)

    def test_oversized_payload_rejected(self, store):
        with pytest.raises(StoreError):
            store.append(Severity.INFO, b"x" * 256)
        # the refused payload took no seq
        assert store.append(Severity.INFO, b"x" * 255) == 1
        assert store.conservation_holds()

    @pytest.mark.parametrize("capacity", ["ram_capacity", "flash_capacity"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_capacity_must_be_positive(self, capacity, value):
        with pytest.raises(StoreError, match="must be > 0"):
            LogStore(**{capacity: value})

    def test_record_larger_than_flash_rejected_before_taking_a_seq(self):
        # a flush that failed part way left the records before the big one
        # in flash and in RAM, so the next flush wrote them twice
        store = LogStore(flash_capacity=40)
        store.append(Severity.INFO, b"a")
        with pytest.raises(StoreError):
            store.append(Severity.INFO, b"x" * 30)  # 46 B on the wire
        store.flush()
        store.flush()
        assert [r.seq for r in store.flash] == [1]
        assert store.conservation_holds()
        assert store.append(Severity.INFO, b"x" * 24) == 2  # exactly the quota
        store.flush()
        assert [r.seq for r in store.flash] == [2]
        assert store.evicted == 1 and store.conservation_holds()

    def test_record_is_slotted_and_replaceable(self, store):
        store.append(Severity.WARN, b"payload", 1.5)
        record = store.ram[0]
        assert not hasattr(record, "__dict__")
        changed = replace(record, timestamp=2.5)
        assert changed == LogRecord(record.seq, 2.5, record.severity, record.payload,
                                    record.crc)
        assert changed != record and replace(record) == record


class TestFlush:
    def test_moves_all_ram_records(self, store):
        for _ in range(10):
            store.append(Severity.INFO, b"a")
        assert store.flush() == 10
        assert len(store.ram) == 0
        assert len(store.flash) == 10

    def test_idempotent_on_empty(self, store):
        assert store.flush() == 0
        assert store.flush() == 0

    def test_oldest_unacked_is_head_of_flash(self, store):
        assert store.oldest_unacked() is None
        for _ in range(5):
            store.append(Severity.INFO, b"a")
        assert store.oldest_unacked() is None  # still only in RAM
        store.flush()
        assert store.oldest_unacked() is store.flash[0]
        store.ack_through(3)
        assert store.oldest_unacked().seq == 4
        store.ack_through(5)
        assert store.oldest_unacked() is None

    def test_quota_evicts_oldest(self):
        # record wire size = 16 + payload
        store = LogStore(flash_capacity=10 * 20)
        for _ in range(10):
            store.append(Severity.INFO, b"head")
        store.flush()
        for _ in range(5):
            store.append(Severity.INFO, b"tail")
        store.flush()
        assert store.evicted == 5
        assert [r.seq for r in store.flash] == list(range(6, 16))
        assert store.flash_bytes == 10 * 20
        store.ack_through(10)
        assert store.flash_bytes == 5 * 20

    def test_flushed_survive_brownout(self, store):
        for _ in range(5):
            store.append(Severity.INFO, b"keep")
        store.flush()
        for _ in range(10):
            store.append(Severity.INFO, b"lose")
        store.on_brownout()
        records = list(store.flash)
        assert len(records) == 5
        assert all(crc_valid(r) for r in records)
        assert len(store.ram) == 0
        assert store.lost_unflushed == 10


class TestAck:
    def _filled(self, n=50):
        store = LogStore()
        for _ in range(n):
            store.append(Severity.INFO, b"r")
        store.flush()
        return store

    def test_full_drain(self):
        store = self._filled()
        assert store.ack_through(store.high_water) == 50
        assert list(store.flash) == []

    def test_ack_zero_trims_nothing(self):
        store = self._filled()
        assert store.ack_through(0) == 0
        assert len(store.flash) == 50

    def test_partial_ack(self):
        store = self._filled()
        assert store.ack_through(25) == 25
        assert [r.seq for r in store.flash] == list(range(26, 51))

    def test_future_seq_rejected(self):
        store = self._filled()
        with pytest.raises(StoreError):
            store.ack_through(51)

    def test_unacked_after_flush_and_ack(self, store):
        for _ in range(10):
            store.append(Severity.INFO, b"x")
        store.flush()
        store.ack_through(4)
        assert [r.seq for r in store.flash] == [5, 6, 7, 8, 9, 10]

    def test_empty_store_empty_iterator(self, store):
        assert list(store.flash) == []

    def test_unacked_unchanged_by_brownout(self):
        store = self._filled()
        store.ack_through(20)
        before = [r.seq for r in store.flash]
        store.on_brownout()
        assert [r.seq for r in store.flash] == before


class TestInvariants:
    @given(
        # an int appends a record of that many payload bytes (16-56 B on
        # the wire): a 64 B quota evicts a varying count per flush, a 400 B
        # one keeps long queues for the ordering and ack checks
        ops=st.lists(
            st.one_of(st.integers(0, 40), st.sampled_from(["flush", "brownout", "ack"])),
            min_size=1,
            max_size=200,
        ),
        quota=st.sampled_from([64, 400]),
        seed=st.integers(0, 2**31),
    )
    @example(ops=[0, 0, 0, 40, "flush"], quota=64, seed=0)  # the last record evicts three
    @settings(max_examples=200, deadline=None)
    def test_conservation_and_ordering(self, ops, quota, seed):
        rng = random.Random(seed)
        store = LogStore(ram_capacity=8, flash_capacity=quota)
        for op in ops:
            if isinstance(op, int):
                store.append(Severity.INFO, rng.randbytes(op))
            elif op == "flush":
                store.flush()
            elif op == "brownout":
                store.on_brownout()
            else:
                unacked = [r.seq for r in store.flash]
                if unacked:
                    store.ack_through(rng.choice(unacked))
            assert store.conservation_holds()
            assert store.flash_bytes == sum(RECORD_OVERHEAD + len(r.payload)
                                            for r in store.flash)
            assert store.flash_bytes <= store.flash_capacity
        seqs = [r.seq for r in store.flash]
        assert seqs == sorted(seqs)
        assert len(seqs) == len(set(seqs))
        assert all(crc_valid(r) for r in store.flash)

    def test_no_phantom_records(self):
        store = LogStore(ram_capacity=4)
        produced = set()
        for i in range(20):
            produced.add(store.append(Severity.INFO, b"p"))
            if i % 3 == 0:
                store.flush()
        store.flush()
        assert {r.seq for r in store.flash} <= produced


class TestPrimitives:
    def test_ram_buffer_counts_drops(self):
        store = LogStore(ram_capacity=2)
        for _ in range(5):
            store.append(Severity.INFO, b"")
        assert store.dropped == 3
        assert [r.seq for r in store.ram] == [4, 5]
        assert store.flush() == 2
        assert [r.seq for r in store.flash] == [4, 5]

    def test_crc_known_answer(self):
        # CRC-16/CCITT-FALSE over 00000009 3ff8000000000000 02 03 "abc"
        record = record_9()
        assert record.crc == 0xDA58
        assert crc_valid(record)

    @pytest.mark.parametrize("field, value", [
        ("seq", 10),
        ("timestamp", 1.25),
        ("severity", Severity.ERROR),
        ("payload", b"abd"),
        ("crc", None),
    ])
    def test_tampered_record_fails_crc(self, field, value):
        # the CRC covers every field a record carries, and guards itself
        record = record_9()
        assert crc_valid(record)
        if field == "crc":
            value = record.crc ^ 0x0001
        assert not crc_valid(replace(record, **{field: value}))
