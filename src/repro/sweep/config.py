"""Declarative campaign configs and content-addressed work units.

A *campaign* is a declarative configuration matrix: one unit ``kind``
(what a worker executes), a dict of shared ``params``, and a ``matrix``
of axes whose cross product becomes the unit list. Expansion is
deterministic -- axes iterate in sorted name order, values in the order
the config lists them -- so the same config always yields the same
units in the same order.

Every expanded unit gets a *config-hash key*: the SHA-256 of its
canonical (sorted-key) JSON spec, truncated to 16 hex digits -- the
same content-addressing discipline :mod:`repro.replay.store` uses for
traces. The key names the unit's result file in the store, so a
completed unit is recognised across interrupted runs, worker pools and
resumes purely by its configuration; any change to the spec yields a
new key instead of colliding with a stale result.
``tests/test_sweep_config.py`` pins a golden key so the hash discipline
cannot drift silently and orphan every existing store.
"""

import hashlib
import itertools
import json

SCHEMA = "repro-sweep/1"

#: Unit kinds the executor dispatch (:mod:`repro.sweep.units`) knows.
#: ``probe`` is the engine's self-test kind: cheap host-side units
#: (echo/fail/sleep/kill) that exercise the pool without the simulator.
KINDS = ("run", "difftest", "fault", "replay", "cache_size", "datacache", "probe")


#: What a ``datacache`` unit runs for an axis its campaign leaves out.
DATACACHE_DEFAULTS = {"mode": "back", "cleaning": "alru", "geometry": "16x2x16"}


class ConfigError(ValueError):
    """A malformed campaign configuration."""


class CampaignConfig:
    """One declarative campaign: kind + shared params + axis matrix."""

    def __init__(self, kind, name, params=None, matrix=None):
        if kind not in KINDS:
            raise ConfigError(f"unknown unit kind {kind!r} (one of {KINDS})")
        if not name or not isinstance(name, str):
            raise ConfigError(f"campaign name must be a non-empty string: {name!r}")
        self.kind = kind
        self.name = name
        self.params = dict(params or {})
        self.matrix = {}
        for axis, values in (matrix or {}).items():
            if not isinstance(values, (list, tuple)):
                raise ConfigError(f"matrix axis {axis!r} must be a list")
            if not values:
                raise ConfigError(f"matrix axis {axis!r} is empty")
            self.matrix[axis] = list(values)
        overlap = set(self.params) & set(self.matrix)
        if overlap:
            raise ConfigError(f"params and matrix share keys: {sorted(overlap)}")
        if "kind" in self.params or "kind" in self.matrix:
            raise ConfigError("'kind' is implicit; do not set it in params/matrix")
        if kind == "datacache":
            self._check_datacache()

    def _check_datacache(self):
        """Refuse a mode, cleaning spec or geometry no cell could build."""
        from repro.datacache.cache import DataCacheConfig

        axes = [
            self.matrix.get(axis, [self.params.get(axis, default)])
            for axis, default in DATACACHE_DEFAULTS.items()
        ]
        for mode, cleaning, geometry in itertools.product(*axes):
            try:
                config = DataCacheConfig(mode=mode, cleaning=cleaning)
                config.with_geometry(geometry).validated()
            except ValueError as error:
                raise ConfigError(str(error)) from None

    def as_dict(self):
        return {
            "kind": self.kind,
            "name": self.name,
            "params": dict(self.params),
            "matrix": {axis: list(values) for axis, values in self.matrix.items()},
        }

    @classmethod
    def from_dict(cls, document):
        if not isinstance(document, dict):
            raise ConfigError("campaign config must be a JSON object")
        known = {"kind", "name", "params", "matrix", "schema"}
        unknown = set(document) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(
            document.get("kind"),
            document.get("name"),
            params=document.get("params"),
            matrix=document.get("matrix"),
        )

    def expand(self):
        """The unit list: ``(key, spec)`` pairs in deterministic order."""
        axes = sorted(self.matrix)
        units = []
        for combo in itertools.product(*(self.matrix[axis] for axis in axes)):
            spec = {"kind": self.kind}
            spec.update(self.params)
            spec.update(dict(zip(axes, combo)))
            units.append((unit_key(spec), spec))
        keys = [key for key, _ in units]
        if len(set(keys)) != len(keys):
            raise ConfigError("duplicate units: matrix axes collide with params")
        return units

    @property
    def total_units(self):
        total = 1
        for values in self.matrix.values():
            total *= len(values)
        return total


def canonical_json(value):
    """The byte-reproducible JSON encoding used for hashing and stores."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def unit_key(spec):
    """Content-address one unit spec (16 hex digits of SHA-256)."""
    return hashlib.sha256(canonical_json(spec).encode("utf-8")).hexdigest()[:16]


def campaign_id(config):
    """Stable directory name: ``<name>-<confighash8>``.

    Re-running the same config resumes the same campaign directory;
    changing any parameter lands in a fresh one.
    """
    digest = hashlib.sha256(
        canonical_json(config.as_dict()).encode("utf-8")
    ).hexdigest()
    return f"{config.name}-{digest[:8]}"
