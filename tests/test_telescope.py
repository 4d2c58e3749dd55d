"""Telescope pipeline: records, capture format, aggregation, streaming."""

import io
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.addr import Family
from repro.telescope.aggregate import (
    BinGrid,
    bin_edge_timestamps,
    binned_counts,
    merge_block_times,
    per_block_times,
)
from repro.telescope.capture import (
    CaptureCorruptionError,
    CaptureError,
    CaptureReader,
    CaptureWriter,
    read_batches,
    write_batches,
)
from repro.telescope.records import Observation, ObservationBatch
from repro.telescope.stream import merge_streams, window_stream


def make_batch(n=100, blocks=4, seed=0, family=Family.IPV4):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0, 1000, n))
    keys = rng.integers(1, blocks + 1, n).astype(np.uint64)
    qtypes = rng.integers(1, 30, n).astype(np.uint16)
    return ObservationBatch(family, times, keys, qtypes)


class TestObservation:
    def test_block_key(self):
        obs = Observation(1.0, Family.IPV4, 0xC0000201)
        assert obs.block_key == 0xC00002
        assert str(obs.block) == "192.0.2.0/24"

    def test_ipv6_block_key(self):
        obs = Observation(1.0, Family.IPV6,
                          0x20010DB8000100000000000000000001)
        assert obs.block_key == 0x20010DB80001

    def test_ordering_by_time(self):
        a = Observation(1.0, Family.IPV4, 5)
        b = Observation(2.0, Family.IPV4, 4)
        assert a < b


class TestObservationBatch:
    def test_length_and_columns(self):
        batch = make_batch(50)
        assert len(batch) == 50
        assert batch.times.dtype == np.float64
        assert batch.block_keys.dtype == np.uint64

    def test_misaligned_columns_rejected(self):
        with pytest.raises(ValueError):
            ObservationBatch(Family.IPV4, np.zeros(3),
                             np.zeros(4, dtype=np.uint64))

    def test_time_slice(self):
        batch = make_batch(200)
        sliced = batch.time_slice(100, 300)
        assert np.all(sliced.times >= 100)
        assert np.all(sliced.times < 300)

    def test_per_block_partition(self):
        batch = make_batch(300, blocks=5)
        rebuilt = 0
        for key, times in batch.per_block():
            assert np.all(np.diff(times) >= 0)
            rebuilt += times.size
        assert rebuilt == 300

    def test_concatenate_sorts(self):
        a = make_batch(50, seed=1)
        b = make_batch(50, seed=2)
        merged = ObservationBatch.concatenate([a, b])
        assert len(merged) == 100
        assert np.all(np.diff(merged.times) >= 0)

    def test_concatenate_family_mismatch(self):
        with pytest.raises(ValueError):
            ObservationBatch.concatenate(
                [make_batch(10), make_batch(10, family=Family.IPV6)])

    def test_from_observations_filters_family(self):
        rows = [Observation(1.0, Family.IPV4, 0x01020304),
                Observation(2.0, Family.IPV6, 1 << 100)]
        batch = ObservationBatch.from_observations(Family.IPV4, rows)
        assert len(batch) == 1

    def test_roundtrip_to_observations(self):
        batch = make_batch(20)
        rows = batch.to_observations()
        rebuilt = ObservationBatch.from_observations(Family.IPV4, rows)
        assert np.array_equal(rebuilt.block_keys, batch.block_keys)


class TestCapture:
    def test_roundtrip_both_families(self):
        v4 = make_batch(100)
        v6 = make_batch(60, family=Family.IPV6)
        buffer = io.BytesIO()
        count = write_batches(buffer, v4, v6)
        assert count == 160
        buffer.seek(0)
        got4, got6 = read_batches(buffer)
        assert np.allclose(got4.times, v4.times)
        assert np.array_equal(got4.block_keys, v4.block_keys)
        assert np.array_equal(got4.qtypes, v4.qtypes)
        assert np.array_equal(got6.block_keys, v6.block_keys)

    def test_streaming_read(self):
        buffer = io.BytesIO()
        with CaptureWriter(buffer) as writer:
            writer.write(Observation(1.5, Family.IPV4, 0x01020304, 28))
            writer.write(Observation(2.5, Family.IPV6, 1 << 100, 1))
        buffer.seek(0)
        rows = list(CaptureReader(buffer))
        assert len(rows) == 2
        assert rows[0].time == 1.5
        assert rows[0].qtype == 28
        assert rows[1].family is Family.IPV6
        assert rows[1].source == 1 << 100

    def test_bad_magic_rejected(self):
        with pytest.raises(CaptureError):
            CaptureReader(io.BytesIO(b"NOPE\x00\x01\x00\x00"))

    def test_truncated_header_rejected(self):
        with pytest.raises(CaptureError):
            CaptureReader(io.BytesIO(b"PO"))

    def test_truncated_record_rejected(self):
        buffer = io.BytesIO()
        with CaptureWriter(buffer) as writer:
            writer.write(Observation(1.0, Family.IPV4, 1))
        data = buffer.getvalue()[:-3]
        reader = CaptureReader(io.BytesIO(data))
        with pytest.raises(CaptureError):
            list(reader)

    def test_file_paths(self, tmp_path):
        path = tmp_path / "trace.pobs"
        write_batches(path, make_batch(10))
        got4, got6 = read_batches(path)
        assert len(got4) == 10 and len(got6) == 0


class TestBinGrid:
    def test_bin_count_and_edges(self):
        grid = BinGrid(0, 1000, 100)
        assert grid.n_bins == 10
        assert grid.edges()[0] == 0
        assert grid.bin_start(3) == 300
        assert grid.bin_end(9) == 1000

    def test_partial_last_bin(self):
        grid = BinGrid(0, 950, 100)
        assert grid.n_bins == 10
        assert grid.bin_end(9) == 950

    def test_bin_of(self):
        grid = BinGrid(0, 1000, 100)
        assert list(grid.bin_of(np.array([0.0, 99.9, 100.0, 999.9]))) == \
            [0, 0, 1, 9]

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            BinGrid(0, 100, 0)
        with pytest.raises(ValueError):
            BinGrid(100, 100, 10)


class TestAggregate:
    def test_binned_counts_total(self):
        batch = make_batch(500, blocks=6)
        per_block = per_block_times(batch)
        grid = BinGrid(0, 1000, 50)
        counts = binned_counts(sorted(per_block), per_block, grid)
        assert counts.sum() == 500
        assert counts.shape == (len(per_block), 20)

    def test_missing_block_is_zero_row(self):
        grid = BinGrid(0, 100, 10)
        counts = binned_counts([1, 2], {1: np.array([5.0])}, grid)
        assert counts[0].sum() == 1
        assert counts[1].sum() == 0

    def test_edge_timestamps(self):
        grid = BinGrid(0, 100, 10)
        per_block = {7: np.array([12.0, 15.0, 18.0, 45.0])}
        first, last = bin_edge_timestamps([7], per_block, grid)
        assert first[0, 1] == 12.0 and last[0, 1] == 18.0
        assert first[0, 4] == 45.0 and last[0, 4] == 45.0
        assert np.isnan(first[0, 0])

    def test_merge_block_times(self):
        per_block = {1: np.array([3.0, 9.0]), 2: np.array([1.0, 5.0])}
        merged = merge_block_times(per_block, [1, 2, 3])
        assert list(merged) == [1.0, 3.0, 5.0, 9.0]


class TestStream:
    def rows(self, times, family=Family.IPV4):
        return [Observation(t, family, 0x01020300 + i)
                for i, t in enumerate(times)]

    def test_merge_streams_sorted(self):
        merged = list(merge_streams(self.rows([1, 4, 7]),
                                    self.rows([2, 3, 9])))
        assert [o.time for o in merged] == [1, 2, 3, 4, 7, 9]

    def test_merge_rejects_unsorted_input(self):
        with pytest.raises(ValueError):
            list(merge_streams(self.rows([5, 1])))

    def test_window_stream_includes_empty_windows(self):
        windows = list(window_stream(self.rows([1, 25]), start=0,
                                     window_seconds=10))
        assert len(windows) == 3
        assert [len(w[2]) for w in windows] == [1, 0, 1]
        assert windows[1][:2] == (10, 20)

    def test_window_stream_skips_early_rows(self):
        windows = list(window_stream(self.rows([1, 15]), start=10,
                                     window_seconds=10))
        assert [len(w[2]) for w in windows] == [1]

    def test_window_stream_invalid(self):
        with pytest.raises(ValueError):
            list(window_stream([], 0, 0))


#: largest block key of each family's analysis prefix (/24, /48).
MAX_KEY = {Family.IPV4: (1 << 24) - 1, Family.IPV6: (1 << 48) - 1}


@given(st.data())
def test_capture_roundtrip_property(data):
    family = data.draw(st.sampled_from([Family.IPV4, Family.IPV6]))
    rows = data.draw(st.lists(st.tuples(
        st.floats(0, 1e6, allow_nan=False),
        st.one_of(st.integers(min_value=0, max_value=MAX_KEY[family]),
                  st.just(MAX_KEY[family])),
        st.integers(min_value=0, max_value=65535)), max_size=50))
    times = np.array(sorted(t for t, _, _ in rows), dtype=np.float64)
    keys = np.array([k for _, k, _ in rows], dtype=np.uint64)
    qtypes = np.array([q for _, _, q in rows], dtype=np.uint16)
    batch = ObservationBatch(family, times, keys, qtypes)
    buffer = io.BytesIO()
    write_batches(buffer, batch)
    buffer.seek(0)
    got = read_batches(buffer)[family is Family.IPV6]
    assert np.array_equal(got.times, times)
    assert np.array_equal(got.block_keys, keys)
    assert np.array_equal(got.qtypes, qtypes)


def test_write_batch_rejects_ipv6_key_wider_than_48_bits():
    batch = ObservationBatch(Family.IPV6, [1.0, 2.0],
                             np.array([1, 1 << 48], dtype=np.uint64))
    with pytest.raises(OverflowError):
        write_batches(io.BytesIO(), batch)


# -- read_all against the per-record read_one oracle -------------------------

_RECORD_SIZE = 27
_HEADER_SIZE = 8
_U64 = (1 << 64) - 1


def _random_capture(seed, corruption):
    """Seeded capture bytes with both families, odd times and high bytes.

    ``corruption`` puts a bad family byte at the first, middle or last
    record, cuts a trailing partial record, or does both (``"both"``:
    the bad byte comes first in the file).
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 40))
    buffer = io.BytesIO()
    with CaptureWriter(buffer) as writer:
        for _ in range(n):
            family = Family.IPV4 if rng.random() < 0.6 else Family.IPV6
            time = float(rng.choice([rng.uniform(0, 1e6), np.nan, np.inf,
                                     -np.inf], p=[0.85, 0.05, 0.05, 0.05]))
            if family is Family.IPV4 and rng.random() < 0.5:
                source = int(rng.integers(0, 1 << 32))
            else:  # IPv6, or IPv4 with garbage high bytes
                source = int.from_bytes(rng.bytes(16), "big")
            writer.write_raw(time, family, source, int(rng.integers(0, 65536)))
    data = bytearray(buffer.getvalue())
    bad_at = {"first": 0, "middle": n // 2, "last": n - 1,
              "both": n // 3}.get(corruption)
    if bad_at is not None:
        data[_HEADER_SIZE + bad_at * _RECORD_SIZE + 8] = int(
            rng.choice([0, 5, 9, 255]))
    if corruption in ("partial", "both"):
        data += rng.bytes(int(rng.integers(1, _RECORD_SIZE)))
    return bytes(data)


def _outcome(data, tolerant, preread, load):
    """``load``'s batches after ``preread`` streamed records, and the
    reader's accounting; or the error either step raised."""
    reader = CaptureReader(io.BytesIO(data), tolerant=tolerant)
    try:
        for _ in range(preread):
            reader.read_one()
        batches = load(reader)
    except CaptureCorruptionError as error:
        return ("error", error.byte_offset, error.records_read)
    return batches, reader.records_read, reader.stopped_early


def _oracle_load(reader):
    columns = {family: ([], [], []) for family in (Family.IPV4, Family.IPV6)}
    for observation in reader:
        times, keys, qtypes = columns[observation.family]
        shift = (observation.family.bits
                 - observation.family.default_block_prefix)
        times.append(observation.time)
        keys.append((observation.source >> shift) & _U64)
        qtypes.append(observation.qtype)
    return tuple(
        ObservationBatch(family, np.array(times, dtype=np.float64),
                         np.array(keys, dtype=np.uint64),
                         np.array(qtypes, dtype=np.uint16))
        for family, (times, keys, qtypes) in columns.items())


@pytest.mark.parametrize("tolerant", [False, True])
@pytest.mark.parametrize("corruption", [None, "first", "middle", "last",
                                        "partial", "both"])
def test_read_all_matches_read_one_oracle(corruption, tolerant):
    for seed in range(4):
        data = _random_capture(seed, corruption)
        for preread in (0, 3):
            got = _outcome(data, tolerant, preread, CaptureReader.read_all)
            want = _outcome(data, tolerant, preread, _oracle_load)
            context = (seed, preread)
            if want[0] == "error":
                assert got == want, context
                continue
            assert got[0][0] != "error", context
            assert got[1:] == want[1:], context
            for got_batch, want_batch in zip(got[0], want[0]):
                assert got_batch.family is want_batch.family
                for column in ("times", "block_keys", "qtypes"):
                    mine = getattr(got_batch, column)
                    oracle = getattr(want_batch, column)
                    assert mine.dtype == oracle.dtype, (context, column)
                    assert mine.tobytes() == oracle.tobytes(), (context,
                                                                column)


def _drain(read):
    """Rows ``read`` yields (one Observation, or a chunk of them, per
    call) up to None or an error, and that error's position."""
    rows, error = [], None
    try:
        while True:
            got = read()
            if got is None:
                break
            rows.extend([got] if isinstance(got, Observation) else
                        [got.observation(row) for row in range(len(got))])
    except CaptureCorruptionError as raised:
        error = (raised.byte_offset, raised.records_read)
    return [(struct.pack(">d", row.time), row.family, row.source, row.qtype)
            for row in rows], error


@pytest.mark.parametrize("tolerant", [False, True])
@pytest.mark.parametrize("corruption", [None, "first", "middle", "last",
                                        "partial", "both"])
def test_read_chunk_matches_read_one_oracle(corruption, tolerant):
    """Chunks yield read_one's records in file order, then its error."""
    for seed in range(4):
        data = _random_capture(seed, corruption)
        oracle = CaptureReader(io.BytesIO(data), tolerant=tolerant)
        want = _drain(oracle.read_one)
        for limit in (1, 2, 5, 64):
            reader = CaptureReader(io.BytesIO(data), tolerant=tolerant)
            assert _drain(lambda: reader.read_chunk(limit)) == want, (
                seed, limit)
            assert reader.records_read == oracle.records_read
            assert reader.stopped_early == oracle.stopped_early


def test_read_chunk_columns_match_observations():
    """Chunk columns agree with each row's Observation, including the
    IPv4 rows whose garbage high bytes push the block key past 64 bits."""
    data = _random_capture(7, None)
    reader = CaptureReader(io.BytesIO(data))
    chunk = reader.read_chunk()
    assert reader.read_chunk() is None
    for row in range(len(chunk)):
        observation = chunk.observation(row)
        assert chunk.families[row] == int(observation.family)
        assert (np.isnan(chunk.times[row]) and np.isnan(observation.time)
                or chunk.times[row] == observation.time)
        assert bool(chunk.keyable[row]) == (observation.block_key <= _U64)
        assert int(chunk.keys[row]) == observation.block_key & _U64
    assert not chunk.keyable.all()


def test_read_all_reports_first_bad_frame():
    """A bad family byte before a trailing partial record wins."""
    buffer = io.BytesIO()
    with CaptureWriter(buffer) as writer:
        for index in range(10):
            writer.write(Observation(float(index), Family.IPV4, index << 8))
    data = bytearray(buffer.getvalue() + b"\x00\x00\x00")
    data[_HEADER_SIZE + 3 * _RECORD_SIZE + 8] = 9
    with pytest.raises(CaptureCorruptionError, match="bad family byte 9") as bulk:
        CaptureReader(io.BytesIO(bytes(data))).read_all()
    with pytest.raises(CaptureCorruptionError) as streamed:
        list(CaptureReader(io.BytesIO(bytes(data))))
    assert bulk.value.byte_offset == streamed.value.byte_offset == 89
    assert bulk.value.records_read == streamed.value.records_read == 3
