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

Bulk reads and writes (``read_all``, ``write_batch``) are columnar, one
structured array per call; streaming reads (``read_one``, iteration)
decode one record at a time.  Both report the first bad frame.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Iterator, Optional, Tuple, Union

import numpy as np

from ..net.addr import Family
from .records import Observation, ObservationBatch

__all__ = ["CaptureError", "CaptureCorruptionError", "CaptureWriter",
           "CaptureReader", "write_batches", "read_batches", "MAGIC",
           "VERSION"]

MAGIC = b"POBS"
VERSION = 1
_HEADER = struct.Struct("!4sHH")  # magic, version, reserved
_RECORD = struct.Struct("!dB16sH")
_RECORD_DTYPE = np.dtype([("time", ">f8"), ("family", "u1"),
                          ("source", "u1", (16,)), ("qtype", ">u2")])
assert _RECORD_DTYPE.itemsize == _RECORD.size

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
        self.byte_offset = byte_offset
        self.records_read = records_read


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

    def _byte_offset(self) -> int:
        return _HEADER.size + self.records_read * _RECORD.size

    def _corrupt(self, message: str) -> Optional[Observation]:
        if self.tolerant:
            self.stopped_early = True
            return None
        raise CaptureCorruptionError(message, self._byte_offset(),
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

    def read_all(self) -> Tuple[ObservationBatch, ObservationBatch]:
        """Bulk-load the remaining records into per-family batches.

        One columnar pass over the payload.  The first bad frame — a bad
        family byte, else a trailing partial record — is reported as
        :meth:`read_one` reports it.  Returns ``(ipv4_batch,
        ipv6_batch)``; either may be empty.
        """
        payload = b"" if self.stopped_early else self._file.read()
        good, trailing = divmod(len(payload), _RECORD.size)
        records = np.frombuffer(payload, dtype=_RECORD_DTYPE, count=good)
        families = records["family"]
        bad = np.flatnonzero((families != int(Family.IPV4))
                             & (families != int(Family.IPV6)))
        if bad.size:
            good = int(bad[0])
        self.records_read += good
        if bad.size:
            self._corrupt(f"bad family byte {families[good]}")
        elif trailing:
            self._corrupt(f"truncated record at end of capture "
                          f"({trailing} of {_RECORD.size} bytes)")
        records = records[:good]
        return (_family_batch(records, Family.IPV4),
                _family_batch(records, Family.IPV6))

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

