"""Content-addressed trace files under ``results/traces/``.

A trace's *identity* is everything that determines its event stream:
the schema, the system kind, the full memory-plan configuration, the
benchmark scale, the SHA-256 of the mini-C source, and the captured
cache configuration where the system kind alone leaves it open: the
geometry of a block-cache trace, whose stream is geometry-dependent,
and the :class:`~repro.datacache.cache.DataCacheConfig` of a data-cache
trace, which decides whether the trace replays at all (write-back
does not). The identity digest names the file
(``<label>-<system>-<plan>-<digest12>.trace``), so recapturing the same
configuration overwrites the same file and a changed source or plan
never collides with a stale trace. ``index.json`` summarises the store
for humans and the CLI.
"""

import hashlib
import json
from pathlib import Path

from repro.replay.schema import SCHEMA, TraceDocument

DEFAULT_ROOT = Path("results") / "traces"


def _source_sha256(source):
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def identity_from_parts(
    system, plan_config, scale, source, cache_limit=None, slot_bytes=None, datacache=None
):
    """The canonical identity dict for a would-be trace.

    *datacache* is the captured data-cache configuration's ``as_dict``
    form; only data-cache traces carry it.
    """
    ident = {
        "schema": SCHEMA,
        "system": system,
        "plan_config": dict(plan_config),
        "scale": scale,
        "source_sha256": _source_sha256(source),
    }
    if system == "block":
        ident["geometry"] = {"cache_limit": cache_limit, "slot_bytes": slot_bytes}
    elif system == "datacache":
        ident["datacache"] = datacache
    return ident


def identity_from_header(header):
    """The identity dict of an existing trace header."""
    config = header.get("capture_config") or {}
    return identity_from_parts(
        header["system"],
        header["plan_config"],
        header["scale"],
        header["source"],
        cache_limit=config.get("cache_limit"),
        slot_bytes=config.get("slot_bytes"),
        datacache=config,
    )


def identity_digest(identity):
    blob = json.dumps(identity, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class TraceStore:
    """Save/find traces by identity under one directory."""

    def __init__(self, root=DEFAULT_ROOT):
        self.root = Path(root)

    def _file_name(self, header, digest):
        label = header.get("benchmark") or "prog"
        return f"{label}-{header['system']}-{header['plan']}-{digest[:12]}.trace"

    def path_for(self, header):
        digest = identity_digest(identity_from_header(header))
        return self.root / self._file_name(header, digest)

    def save(self, document):
        """Write the trace and refresh ``index.json``; returns the path."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(document.header)
        document.save(path)
        self._index_add(document.header, path.name)
        return path

    def find(self, *parts, **knobs):
        """Path of a stored trace with the identity
        :func:`identity_from_parts` gives these arguments, or ``None``."""
        digest = identity_digest(identity_from_parts(*parts, **knobs))
        suffix = f"-{digest[:12]}.trace"
        if not self.root.is_dir():
            return None
        for path in sorted(self.root.glob(f"*{suffix}")):
            return path
        return None

    def load(self, *find_args, **find_kwargs):
        """Find + parse, or ``None`` when no trace with that identity exists."""
        path = self.find(*find_args, **find_kwargs)
        if path is None:
            return None
        return TraceDocument.load(path)

    # -- index ------------------------------------------------------------------

    @property
    def index_path(self):
        return self.root / "index.json"

    def _index_add(self, header, file_name):
        index = self.read_index()
        index[file_name] = {
            "benchmark": header.get("benchmark"),
            "system": header["system"],
            "plan": header["plan"],
            "scale": header["scale"],
            "frequency_mhz": header["frequency_mhz"],
            "events": header["events"],
            "instructions": header["instructions"],
            "image_sha256": header["image_sha256"],
        }
        self.index_path.write_text(
            json.dumps(index, indent=2, sort_keys=True) + "\n"
        )

    def read_index(self):
        if not self.index_path.is_file():
            return {}
        try:
            return json.loads(self.index_path.read_text())
        except json.JSONDecodeError:
            return {}

    def entries(self):
        """(file_name, summary) pairs for traces actually present."""
        index = self.read_index()
        return [
            (name, meta)
            for name, meta in sorted(index.items())
            if (self.root / name).is_file()
        ]
