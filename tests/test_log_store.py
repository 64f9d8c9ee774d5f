import random

import pytest
from hypothesis import given, settings, strategies as st

from powergap.log_store import (
    CorruptImage,
    LogRecord,
    LogStore,
    Severity,
    StoreError,
)


@pytest.fixture
def store():
    return LogStore()


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
        seqs = [r.seq for r in store.unacked()]
        assert seqs[0] == 2  # record 1 was the one dropped

    def test_crc_valid_on_construction(self, store):
        store.append(Severity.WARN, b"payload")
        store.flush()
        record = next(store.unacked())
        assert record.crc_valid()

    def test_oversized_payload_rejected(self, store):
        with pytest.raises(StoreError):
            store.append(Severity.INFO, b"x" * 256)


class TestFlush:
    def test_moves_all_ram_records(self, store):
        for _ in range(10):
            store.append(Severity.INFO, b"a")
        assert store.flush() == 10
        assert len(store.ram) == 0
        assert len(list(store.unacked())) == 10

    def test_idempotent_on_empty(self, store):
        assert store.flush() == 0
        assert store.flush() == 0

    def test_oldest_unacked_is_head_of_flash(self, store):
        assert store.oldest_unacked() is None
        for _ in range(5):
            store.append(Severity.INFO, b"a")
        assert store.oldest_unacked() is None  # still only in RAM
        store.flush()
        assert store.oldest_unacked() is next(store.unacked())
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
        assert [r.seq for r in store.unacked()] == list(range(6, 16))
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
        records = list(store.unacked())
        assert len(records) == 5
        assert all(r.crc_valid() for r in records)
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
        assert list(store.unacked()) == []

    def test_ack_zero_trims_nothing(self):
        store = self._filled()
        assert store.ack_through(0) == 0
        assert len(list(store.unacked())) == 50

    def test_partial_ack(self):
        store = self._filled()
        assert store.ack_through(25) == 25
        assert [r.seq for r in store.unacked()] == list(range(26, 51))

    def test_future_seq_rejected(self):
        store = self._filled()
        with pytest.raises(StoreError):
            store.ack_through(51)

    def test_unacked_after_flush_and_ack(self, store):
        for _ in range(10):
            store.append(Severity.INFO, b"x")
        store.flush()
        store.ack_through(4)
        assert [r.seq for r in store.unacked()] == [5, 6, 7, 8, 9, 10]

    def test_empty_store_empty_iterator(self, store):
        assert list(store.unacked()) == []

    def test_unacked_unchanged_by_brownout(self):
        store = self._filled()
        store.ack_through(20)
        before = [r.seq for r in store.unacked()]
        store.on_brownout()
        assert [r.seq for r in store.unacked()] == before


class TestInvariants:
    @given(
        ops=st.lists(
            st.sampled_from(["append", "flush", "brownout", "ack"]),
            min_size=1,
            max_size=200,
        ),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=200, deadline=None)
    def test_conservation_and_ordering(self, ops, seed):
        rng = random.Random(seed)
        store = LogStore(ram_capacity=8, flash_capacity=400)
        for op in ops:
            if op == "append":
                store.append(Severity.INFO, bytes([rng.randrange(256)]))
            elif op == "flush":
                store.flush()
            elif op == "brownout":
                store.on_brownout()
            else:
                unacked = [r.seq for r in store.unacked()]
                if unacked:
                    store.ack_through(rng.choice(unacked))
        assert store.conservation_holds()
        seqs = [r.seq for r in store.unacked()]
        assert seqs == sorted(seqs)
        assert len(seqs) == len(set(seqs))
        assert all(r.crc_valid() for r in store.unacked())

    def test_no_phantom_records(self):
        store = LogStore(ram_capacity=4)
        produced = set()
        for i in range(20):
            produced.add(store.append(Severity.INFO, b"p"))
            if i % 3 == 0:
                store.flush()
        store.flush()
        assert {r.seq for r in store.unacked()} <= produced


class TestSerialization:
    def test_roundtrip_across_restart(self, store, tmp_path):
        for i in range(12):
            store.append(Severity.ERROR, f"msg{i}".encode(), timestamp=i * 0.1)
        store.flush()
        store.ack_through(3)
        store.nvs["ota_next"] = 30
        path = tmp_path / "flash.bin"
        store.save(path)

        recovered = LogStore.load(path)
        assert recovered.high_water == store.high_water
        assert recovered.acked_through == 3
        assert recovered.nvs == {"ota_next": 30}
        rec_old = list(store.unacked())
        rec_new = list(recovered.unacked())
        assert [(r.seq, r.payload, r.crc) for r in rec_new] == [
            (r.seq, r.payload, r.crc) for r in rec_old
        ]
        assert all(r.crc_valid() for r in rec_new)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "flash.bin"
        path.write_bytes(b"NOPE" + bytes(30))
        with pytest.raises(CorruptImage):
            LogStore.load(path)

    def test_corrupted_record_rejected(self, store, tmp_path):
        store.append(Severity.INFO, b"payload")
        store.flush()
        path = tmp_path / "flash.bin"
        store.save(path)
        data = bytearray(path.read_bytes())
        data[-3] ^= 0x40  # flip a payload bit under the record CRC
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptImage):
            LogStore.load(path)


class TestPrimitives:
    def test_ram_buffer_counts_drops(self):
        store = LogStore(ram_capacity=2)
        for _ in range(5):
            store.append(Severity.INFO, b"")
        assert store.dropped == 3
        assert [r.seq for r in store.ram] == [4, 5]
        assert store.flush() == 2
        assert [r.seq for r in store.unacked()] == [4, 5]

    def test_flash_ring_write_counter(self):
        store = LogStore()
        for _ in range(7):
            store.append(Severity.INFO, b"")
        store.flush()
        store.ack_through(3)
        assert store.write_counter == 7

    def test_record_decode_rejects_tamper(self):
        record = LogRecord.create(9, 1.5, Severity.WARN, b"abc")
        raw = bytearray(record.encode())
        raw[0] ^= 0x01
        with pytest.raises(CorruptImage):
            LogRecord.decode(bytes(raw))
