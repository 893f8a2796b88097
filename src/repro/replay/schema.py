"""The replay trace format: a schema-versioned, self-describing binary file.

A trace file captures one benchmark's canonical memory-event stream --
everything the cache/cost/energy models consume, and nothing the CPU's
instruction semantics produce. Layout::

    magic "RPRT" | u8 version | u32 header_len | header JSON | zlib payload

The JSON header carries the capture's identity (system, plan, scale,
the full mini-C source, and the SHA-256 of the linked image) plus
integrity facts about the payload (raw length, raw SHA-256, compressed
length, event count). The payload is the packed event stream.

**Event stream.** Each event is either an executed application
instruction or a native-hook boundary:

* ``INSTR`` -- one retired app instruction: its program counter (either
  *absolute*, or *function-relative* when it executed inside a live
  SwapRAM activation and therefore moves with the function), the number
  of instruction words fetched, its unstalled cycle cost, and the
  ordered list of data accesses it performed. Write accesses carry the
  written value so replay can maintain the memory words that feed back
  into runtime decisions (redirection/active tables, debug ports).
* ``HOOK`` -- the block-cache runtime fired here. SwapRAM needs no hook
  markers: replay re-derives dispatches from redirection-table reads,
  which is exactly what lets one SwapRAM trace replay under a different
  policy or cache limit.

In-memory, an instruction event is the tuple
``(func, pc, fetch_words, cycles, accesses)`` where ``func`` is the
SwapRAM funcId (or -1 when ``pc`` is absolute) and each access is
``(flags, address, value)``; a hook event is ``None``.

Validation is deliberately loud: a truncated file (interrupted capture,
partial copy) raises :class:`TraceTruncatedError`; a file whose magic,
version or declared schema does not match this module raises
:class:`TraceSchemaError`. Nothing is ever silently replayed.
"""

import hashlib
import json
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Tuple

SCHEMA = "repro-replay-trace/1"
MAGIC = b"RPRT"
VERSION = 1

# Event tags.
_TAG_END = 0x00
_TAG_INSTR_ABS = 0x01
_TAG_INSTR_REL = 0x02
_TAG_HOOK = 0x03

# Access flags.
ACC_WRITE = 0x01
ACC_VALUE = 0x02
ACC_BYTE = 0x04

_U16 = struct.Struct("<H")
_HEAD = struct.Struct("<4sBI")


class TraceError(ValueError):
    """Base class for every trace-file problem."""


class TraceSchemaError(TraceError):
    """The file is not a trace of this schema/version (mixed or foreign)."""


class TraceTruncatedError(TraceError):
    """The file ends early or its payload fails integrity checks."""


class Access(NamedTuple):
    """One decoded data access; ``is_write`` unpacks the write flag."""

    flags: int
    address: int
    value: int

    @property
    def is_write(self):
        return bool(self.flags & ACC_WRITE)


class Instruction(NamedTuple):
    """One retired instruction, as :meth:`TraceDocument.iter_instructions`
    yields it. ``func`` is the SwapRAM funcId, or -1 when ``pc`` is an
    absolute address."""

    func: int
    pc: int
    words: int
    cycles: int
    accesses: Tuple[Access, ...]

    @property
    def is_absolute(self):
        return self.func < 0


@dataclass
class TraceDocument:
    """A parsed (or to-be-written) trace: header facts + event records."""

    header: dict
    records: list = field(repr=False, default_factory=list)

    @property
    def system(self):
        return self.header["system"]

    @property
    def instructions(self):
        return self.header["instructions"]

    @property
    def events(self):
        return self.header["events"]

    def iter_instructions(self):
        """Yield every instruction record as a typed :class:`Instruction`.

        Hook markers (``None`` records) are skipped -- callers that need
        them walk ``records`` directly. This is the stable iteration
        surface analysis passes build on, insulating them from the raw
        tuple layout.
        """
        for record in self.records:
            if record is None:
                continue
            func, pc, words, cycles, accesses = record
            yield Instruction(
                func, pc, words, cycles,
                tuple(Access(*access) for access in accesses),
            )

    def to_bytes(self):
        return dump_trace(self)

    def save(self, path):
        Path(path).write_bytes(self.to_bytes())
        return Path(path)

    @classmethod
    def load(cls, path):
        try:
            data = Path(path).read_bytes()
        except OSError as error:
            raise TraceError(f"{path}: {error}") from error
        try:
            return load_trace(data)
        except TraceError as error:
            raise type(error)(f"{path}: {error}") from error


def image_sha256(image):
    """Content hash of a linked image: entry point + every loaded chunk.

    Identical across builds exactly when instrument + link produced the
    same bytes at the same addresses -- the precondition for replaying a
    trace against a rebuilt system.
    """
    digest = hashlib.sha256()
    digest.update(_U16.pack(image.entry & 0xFFFF))
    for address, data in sorted(image.chunks):
        digest.update(_U16.pack(address & 0xFFFF))
        digest.update(bytes(data))
    return digest.hexdigest()


# -- encoding -----------------------------------------------------------------------


def encode_events(records):
    """Pack *records* (instruction tuples and ``None`` hooks) into bytes."""
    out = bytearray()
    append = out.append
    extend = out.extend
    for record in records:
        if record is None:
            append(_TAG_HOOK)
            continue
        func, pc, words, cycles, accesses = record
        if not 0 <= pc <= 0xFFFF:
            raise TraceError(f"pc/offset out of range: {pc:#x}")
        if not 0 <= words <= 0xFF or not 0 <= cycles <= 0xFF:
            raise TraceError(f"fetch_words/cycles out of range: {record!r}")
        if len(accesses) > 0xFF:
            raise TraceError(f"too many accesses in one instruction: {record!r}")
        if func < 0:
            append(_TAG_INSTR_ABS)
        else:
            if func > 0xFF:
                raise TraceError(f"funcId out of range: {func}")
            append(_TAG_INSTR_REL)
            append(func)
        extend(_U16.pack(pc))
        append(words)
        append(cycles)
        append(len(accesses))
        for flags, address, value in accesses:
            if not 0 <= flags <= 0xFF:
                raise TraceError(f"bad access flags: {flags:#x}")
            append(flags)
            extend(_U16.pack(address & 0xFFFF))
            if flags & ACC_VALUE:
                extend(_U16.pack(value & 0xFFFF))
    append(_TAG_END)
    return bytes(out)


def decode_events(payload, expected_events=None):
    """Unpack an event byte stream; inverse of :func:`encode_events`."""
    records = []
    append = records.append
    unpack_u16 = _U16.unpack_from
    offset = 0
    length = len(payload)
    try:
        while True:
            if offset >= length:
                raise TraceTruncatedError(
                    "event stream ended without an END marker"
                )
            tag = payload[offset]
            offset += 1
            if tag == _TAG_END:
                break
            if tag == _TAG_HOOK:
                append(None)
                continue
            if tag == _TAG_INSTR_REL:
                func = payload[offset]
                offset += 1
            elif tag == _TAG_INSTR_ABS:
                func = -1
            else:
                raise TraceSchemaError(
                    f"unknown event tag {tag:#04x} at payload offset {offset - 1}"
                )
            (pc,) = unpack_u16(payload, offset)
            words = payload[offset + 2]
            cycles = payload[offset + 3]
            n_accesses = payload[offset + 4]
            offset += 5
            accesses = []
            for _ in range(n_accesses):
                flags = payload[offset]
                (address,) = unpack_u16(payload, offset + 1)
                offset += 3
                if flags & ACC_VALUE:
                    (value,) = unpack_u16(payload, offset)
                    offset += 2
                else:
                    value = 0
                accesses.append((flags, address, value))
            append((func, pc, words, cycles, tuple(accesses)))
    except (IndexError, struct.error) as error:
        raise TraceTruncatedError(
            f"event stream cut mid-record at payload offset {offset}"
        ) from error
    if offset != length:
        raise TraceSchemaError(
            f"{length - offset} trailing bytes after the END marker"
        )
    if expected_events is not None and len(records) != expected_events:
        raise TraceTruncatedError(
            f"header promises {expected_events} events, payload holds "
            f"{len(records)}"
        )
    return records


# -- whole-file assembly ---------------------------------------------------------------


def build_document(header, records):
    """Fill in the integrity section of *header* and return a document."""
    raw = encode_events(records)
    instructions = sum(1 for record in records if record is not None)
    header = dict(header)
    header["schema"] = SCHEMA
    header["version"] = VERSION
    header["events"] = len(records)
    header["instructions"] = instructions
    header["hooks"] = len(records) - instructions
    header["payload"] = {
        "raw_len": len(raw),
        "raw_sha256": hashlib.sha256(raw).hexdigest(),
    }
    return TraceDocument(header=header, records=records)


def dump_trace(document):
    """Serialize a :class:`TraceDocument` to bytes."""
    raw = encode_events(document.records)
    header = dict(document.header)
    payload_meta = dict(header.get("payload") or {})
    payload_meta["raw_len"] = len(raw)
    payload_meta["raw_sha256"] = hashlib.sha256(raw).hexdigest()
    compressed = zlib.compress(raw, 6)
    payload_meta["compressed_len"] = len(compressed)
    header["payload"] = payload_meta
    header.setdefault("schema", SCHEMA)
    header.setdefault("version", VERSION)
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    return (
        _HEAD.pack(MAGIC, VERSION, len(header_bytes))
        + header_bytes
        + compressed
    )


def load_trace(data):
    """Parse and fully validate trace bytes; returns a :class:`TraceDocument`."""
    if len(data) < _HEAD.size:
        raise TraceTruncatedError(
            f"file is {len(data)} bytes, shorter than the fixed header"
        )
    magic, version, header_len = _HEAD.unpack_from(data)
    if magic != MAGIC:
        raise TraceSchemaError(
            f"bad magic {magic!r} (expected {MAGIC!r}): not a replay trace"
        )
    if version != VERSION:
        raise TraceSchemaError(
            f"trace version {version} not supported (this build reads "
            f"version {VERSION})"
        )
    header_end = _HEAD.size + header_len
    if len(data) < header_end:
        raise TraceTruncatedError(
            f"file ends inside the JSON header ({len(data)}/{header_end} bytes)"
        )
    try:
        header = json.loads(data[_HEAD.size : header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise TraceSchemaError(f"unreadable JSON header: {error}") from error
    problems = validate_header(header)
    if problems:
        raise TraceSchemaError("invalid header: " + "; ".join(problems))

    payload_meta = header["payload"]
    compressed = data[header_end:]
    if len(compressed) != payload_meta["compressed_len"]:
        raise TraceTruncatedError(
            f"payload is {len(compressed)} bytes, header promises "
            f"{payload_meta['compressed_len']} (interrupted write?)"
        )
    try:
        raw = zlib.decompress(compressed)
    except zlib.error as error:
        raise TraceTruncatedError(f"payload does not decompress: {error}") from error
    if len(raw) != payload_meta["raw_len"]:
        raise TraceTruncatedError(
            f"payload decompresses to {len(raw)} bytes, header promises "
            f"{payload_meta['raw_len']}"
        )
    digest = hashlib.sha256(raw).hexdigest()
    if digest != payload_meta["raw_sha256"]:
        raise TraceTruncatedError("payload SHA-256 mismatch (corrupt trace)")
    records = decode_events(raw, expected_events=header["events"])
    return TraceDocument(header=header, records=records)


_REQUIRED_HEADER_KEYS = (
    "schema",
    "version",
    "system",
    "plan",
    "plan_config",
    "scale",
    "source",
    "frequency_mhz",
    "image_sha256",
    "events",
    "instructions",
    "capture_config",
    "capture_result",
    "payload",
)

_PAYLOAD_KEYS = ("raw_len", "raw_sha256", "compressed_len")


def validate_header(header):
    """Structural check; returns a list of problems (empty = valid)."""
    problems = []
    if not isinstance(header, dict):
        return ["header is not an object"]
    if header.get("schema") != SCHEMA:
        problems.append(
            f"schema is {header.get('schema')!r}, expected {SCHEMA!r}"
        )
    if header.get("version") != VERSION:
        problems.append(
            f"version is {header.get('version')!r}, expected {VERSION}"
        )
    for key in _REQUIRED_HEADER_KEYS:
        if key not in header:
            problems.append(f"missing {key!r}")
    payload = header.get("payload")
    if isinstance(payload, dict):
        for key in _PAYLOAD_KEYS:
            if key not in payload:
                problems.append(f"payload missing {key!r}")
    elif "payload" in header:
        problems.append("payload section is not an object")
    return problems
