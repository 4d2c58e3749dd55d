"""On-disk capture format for passive observations.

A minimal, self-describing binary trace format (".pobs") in the spirit
of pcap: a fixed magic+version header followed by fixed-width records.
Each record stores the exact arrival timestamp (float64 — the exact
timestamps are the paper's precision advantage, so they are first-class
here), the address family, the full 128-bit source address (IPv4 is
zero-extended), and the DNS query type.

Record layout (27 bytes, network byte order), defined once as
``_RECORD_DTYPE`` (``_RECORD`` is its struct twin, checked equal):

    float64  time_seconds
    uint8    family (4 or 6)
    byte[16] source address, big-endian, zero-padded
    uint16   qtype

Reads come in three shapes, all reporting the first bad frame:

* bulk (``read_all``): the whole remainder as per-family
  :class:`~repro.telescope.records.ObservationBatch` columns — batch
  ``detect`` and ``train``;
* chunked (``read_chunk``): at most ``CHUNK_RECORDS`` records as one
  :class:`RecordChunk` in file order across families — single-process
  ``live``, which must keep the interleaving the tap delivered;
* per record (``read_one``, iteration): one
  :class:`~repro.telescope.records.Observation` at a time — ``serve``
  and the fused merge, which hand records on one by one.

Bulk and chunked reads share one decode (``_decode``: a single
``np.frombuffer`` over ``_RECORD_DTYPE`` plus a vectorised family
check); ``write_batch`` fills the same dtype.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from ..net.addr import Family
from .records import Observation, ObservationBatch

__all__ = ["CaptureError", "CaptureCorruptionError",
           "NonFiniteTimestampError", "CaptureWriter",
           "CaptureReader", "RecordChunk", "write_batches", "read_batches",
           "record_byte_offset", "CHUNK_RECORDS", "MAGIC", "VERSION"]

MAGIC = b"POBS"
VERSION = 1
_HEADER = struct.Struct("!4sHH")  # magic, version, reserved
_RECORD = struct.Struct("!dB16sH")
_RECORD_DTYPE = np.dtype([("time", ">f8"), ("family", "u1"),
                          ("source", "u1", (16,)), ("qtype", ">u2")])
assert _RECORD_DTYPE.itemsize == _RECORD.size
#: records per :meth:`CaptureReader.read_chunk` (~440 kB of payload):
#: bounds ``live``'s decode memory whatever the capture size.
CHUNK_RECORDS = 1 << 14

#: Where each family's block key sits in the source address: the
#: big-endian 64-bit word at this byte of the 16, and the right shift
#: that leaves the key.  IPv4 keys are ``source >> 8`` (a /24) cut to 64
#: bits, i.e. bytes 7..14; IPv6 keys are the top 48 bits (a /48).
_KEY_WORD = {Family.IPV4: (7, 0), Family.IPV6: (0, 16)}


def _key_word(records: np.ndarray, family: Family) -> np.ndarray:
    """View of each record's key word (big-endian uint64, no copy)."""
    start, _ = _KEY_WORD[family]
    return records["source"][:, start:start + 8].view(">u8")[:, 0]


def _family_batch(records: np.ndarray, family: Family) -> ObservationBatch:
    """One family's rows of a record array as native-endian columns."""
    mask = records["family"] == int(family)
    if not mask.all():
        records = records[mask]
    keys = _key_word(records, family).astype(np.uint64)
    keys >>= _KEY_WORD[family][1]
    return ObservationBatch(family, records["time"].astype(np.float64),
                            keys, records["qtype"].astype(np.uint16))


def record_byte_offset(index: int) -> int:
    """Where record ``index`` (0-based) starts in a capture file."""
    return _HEADER.size + index * _RECORD.size


class RecordChunk:
    """Decoded capture records in file order, both families interleaved.

    Columns (native-endian): ``times`` (float64), ``families`` (uint8),
    ``keys`` (uint64 block keys, by the same word arithmetic as
    :meth:`CaptureReader.read_all`) and ``keyable`` — False for an IPv4
    record whose garbage high address bytes put its
    :attr:`~repro.telescope.records.Observation.block_key` beyond 64
    bits, so it can match no tracked block.  ``records`` keeps the raw
    rows, from which :meth:`observation` rebuilds the full source
    address.  Index or slice a chunk like an array.
    """

    __slots__ = ("records", "times", "families", "keys", "keyable")

    def __init__(self, records: np.ndarray,
                 times: Optional[np.ndarray] = None,
                 families: Optional[np.ndarray] = None,
                 keys: Optional[np.ndarray] = None,
                 keyable: Optional[np.ndarray] = None) -> None:
        self.records = records
        if times is None:
            families = records["family"]
            times = records["time"].astype(np.float64)
            ipv4 = families == int(Family.IPV4)
            keys = np.where(ipv4, _key_word(records, Family.IPV4),
                            _key_word(records, Family.IPV6)
                            >> _KEY_WORD[Family.IPV6][1]).astype(np.uint64)
            high = _KEY_WORD[Family.IPV4][0]
            keyable = ~(ipv4 & records["source"][:, :high].any(axis=1))
        self.times = times
        self.families = families
        self.keys = keys
        self.keyable = keyable

    @classmethod
    def from_observations(cls, observations: Sequence[Observation]
                          ) -> "RecordChunk":
        """Encode observations as a chunk (the inverse of
        :meth:`observation`)."""
        records = np.zeros(len(observations), dtype=_RECORD_DTYPE)
        for row, observation in enumerate(observations):
            records[row] = (observation.time, int(observation.family),
                            np.frombuffer(observation.source.to_bytes(
                                16, "big"), np.uint8), observation.qtype)
        return cls(records)

    @classmethod
    def concat(cls, chunks: Sequence["RecordChunk"]) -> "RecordChunk":
        # np.concatenate would make the big-endian record layout native.
        records, *columns = (np.concatenate([getattr(chunk, name)
                                             for chunk in chunks])
                             for name in cls.__slots__)
        return cls(records.astype(_RECORD_DTYPE, copy=False), *columns)

    def __len__(self) -> int:
        return int(self.times.size)

    def __getitem__(self, rows) -> "RecordChunk":
        return RecordChunk(*(getattr(self, name)[rows]
                             for name in self.__slots__))

    def observation(self, row: int) -> Observation:
        """Row ``row`` as an :class:`Observation`, full source included."""
        time, family, source, qtype = _RECORD.unpack(
            self.records[row].tobytes())
        return Observation(time, Family(family),
                           int.from_bytes(source, "big"), qtype)


class CaptureError(IOError):
    """Raised on malformed capture files."""


class CaptureCorruptionError(CaptureError):
    """A capture's payload is damaged (truncated or undecodable frame).

    Carries enough context to act on operationally: ``byte_offset`` is
    where in the file the bad frame starts and ``records_read`` how many
    good records preceded it — i.e. how much of the capture survives a
    tolerant re-read.
    """

    def __init__(self, message: str, byte_offset: int,
                 records_read: int) -> None:
        super().__init__(
            f"{message} (byte offset {byte_offset}, after "
            f"{records_read} good records)")
        self.message = message
        self.byte_offset = byte_offset
        self.records_read = records_read

    def __reduce__(self):
        # Pickles by its constructor arguments, so a partition worker's
        # error reaches the parent intact.
        return type(self), (self.message, self.byte_offset,
                            self.records_read)


class NonFiniteTimestampError(ValueError):
    """A record whose time is NaN or infinite, named by its index and
    byte offset in the capture (of vantage ``source``, if merged)."""

    def __init__(self, record: int, time: float, source: str = "") -> None:
        super().__init__(
            f"{source + ' ' if source else ''}capture record {record} "
            f"(byte offset {record_byte_offset(record)}) has a non-finite "
            f"timestamp t={time!r}")
        self.record, self.time, self.source = record, time, source

    def __reduce__(self):
        return type(self), (self.record, self.time, self.source)


PathOrFile = Union[str, Path, BinaryIO]


def _open(target: PathOrFile, mode: str) -> Tuple[BinaryIO, bool]:
    if isinstance(target, (str, Path)):
        return open(target, mode), True
    return target, False


class CaptureWriter:
    """Append observations to a capture stream.

    Use as a context manager::

        with CaptureWriter("day.pobs") as writer:
            writer.write(observation)
    """

    def __init__(self, target: PathOrFile) -> None:
        self._file, self._owns = _open(target, "wb")
        self._file.write(_HEADER.pack(MAGIC, VERSION, 0))
        self.records_written = 0

    def write(self, observation: Observation) -> None:
        """Append one observation."""
        self.write_raw(observation.time, observation.family,
                       observation.source, observation.qtype)

    def write_raw(self, time: float, family: Family, source: int,
                  qtype: int = 0) -> None:
        """Append one record from plain fields (hot path)."""
        self._file.write(_RECORD.pack(
            time, int(family), source.to_bytes(16, "big"), qtype))
        self.records_written += 1

    def write_batch(self, batch: ObservationBatch) -> None:
        """Append a whole batch (block-base addresses reconstructed);
        an IPv6 key wider than 48 bits raises :class:`OverflowError`."""
        family = batch.family
        shift = _KEY_WORD[family][1]
        if shift and np.any(batch.block_keys >> (64 - shift)):
            raise OverflowError(
                f"{family.name} block key wider than {64 - shift} bits")
        records = np.zeros(len(batch), dtype=_RECORD_DTYPE)
        records["time"] = batch.times
        records["family"] = int(family)
        records["qtype"] = batch.qtypes
        _key_word(records, family)[:] = batch.block_keys << shift
        self._file.write(records.tobytes())
        self.records_written += len(records)

    def close(self) -> None:
        if self._owns:
            self._file.close()

    def __enter__(self) -> "CaptureWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class CaptureReader:
    """Stream or bulk-load a capture file.

    ``tolerant=True`` turns trailing corruption (a truncated or
    undecodable final stretch, the signature of a writer killed
    mid-record) into a clean stop at the last good frame instead of a
    :class:`CaptureCorruptionError`; ``records_read`` and
    ``stopped_early`` report what happened either way.
    """

    def __init__(self, target: PathOrFile, tolerant: bool = False) -> None:
        self._file, self._owns = _open(target, "rb")
        self.tolerant = tolerant
        self.records_read = 0
        self.stopped_early = False
        self._fault: Optional[str] = None  # read_chunk's deferred bad frame
        header = self._file.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise CaptureError("capture shorter than its header")
        magic, version, _ = _HEADER.unpack(header)
        if magic != MAGIC:
            raise CaptureError(f"bad magic {magic!r}")
        if version != VERSION:
            raise CaptureError(f"unsupported capture version {version}")

    def __iter__(self) -> Iterator[Observation]:
        """Stream records one at a time."""
        while True:
            observation = self.read_one()
            if observation is None:
                return
            yield observation

    def _corrupt(self, message: str) -> Optional[Observation]:
        if self.tolerant:
            self.stopped_early = True
            return None
        raise CaptureCorruptionError(message,
                                     record_byte_offset(self.records_read),
                                     self.records_read)

    def read_one(self) -> Optional[Observation]:
        """Read the next record, or None at EOF (or at the last good
        frame when ``tolerant``)."""
        if self.stopped_early:
            return None
        raw = self._file.read(_RECORD.size)
        if not raw:
            return None
        if len(raw) < _RECORD.size:
            return self._corrupt(
                f"truncated record at end of capture "
                f"({len(raw)} of {_RECORD.size} bytes)")
        time, family_value, source_bytes, qtype = _RECORD.unpack(raw)
        try:
            family = Family(family_value)
        except ValueError:
            return self._corrupt(f"bad family byte {family_value}")
        self.records_read += 1
        return Observation(time, family,
                           int.from_bytes(source_bytes, "big"), qtype)

    def _decode(self, payload: bytes) -> Tuple[np.ndarray, Optional[str]]:
        """The good prefix of ``payload`` as a record array, and what is
        wrong with the first bad frame after it (a bad family byte, else
        a trailing partial record), or None.  Counts the good records."""
        good, trailing = divmod(len(payload), _RECORD.size)
        records = np.frombuffer(payload, dtype=_RECORD_DTYPE, count=good)
        families = records["family"]
        bad = np.flatnonzero((families != int(Family.IPV4))
                             & (families != int(Family.IPV6)))
        fault = None
        if bad.size:
            good = int(bad[0])
            fault = f"bad family byte {families[good]}"
        elif trailing:
            fault = (f"truncated record at end of capture "
                     f"({trailing} of {_RECORD.size} bytes)")
        self.records_read += good
        return records[:good], fault

    def read_all(self) -> Tuple[ObservationBatch, ObservationBatch]:
        """Bulk-load the remaining records into per-family batches.

        One columnar pass over the payload.  The first bad frame is
        reported as :meth:`read_one` reports it.  Returns ``(ipv4_batch,
        ipv6_batch)``; either may be empty.
        """
        records, fault = self._decode(
            b"" if self.stopped_early else self._file.read())
        if fault is not None:
            self._corrupt(fault)
        return (_family_batch(records, Family.IPV4),
                _family_batch(records, Family.IPV6))

    def read_chunk(self, limit: int = CHUNK_RECORDS
                   ) -> Optional[RecordChunk]:
        """Decode up to ``limit`` records in file order; None at EOF.

        Like :meth:`read_one`, a bad frame first yields the good records
        before it, and the *next* call raises (or, ``tolerant``, stops
        with None).
        """
        if self._fault is not None:
            fault, self._fault = self._fault, None
            return self._corrupt(fault)
        if self.stopped_early:
            return None
        records, self._fault = self._decode(
            self._file.read(limit * _RECORD.size))
        if not len(records):
            return self.read_chunk() if self._fault is not None else None
        return RecordChunk(records)

    def close(self) -> None:
        if self._owns:
            self._file.close()

    def __enter__(self) -> "CaptureReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def write_batches(target: PathOrFile, *batches: ObservationBatch) -> int:
    """Write batches to a capture file; returns the record count."""
    with CaptureWriter(target) as writer:
        for batch in batches:
            writer.write_batch(batch)
        return writer.records_written


def read_batches(target: PathOrFile) -> Tuple[ObservationBatch,
                                              ObservationBatch]:
    """Load a capture file into ``(ipv4, ipv6)`` batches."""
    with CaptureReader(target) as reader:
        return reader.read_all()

