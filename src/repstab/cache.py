"""Content-addressed JSON cache for batch command results.

Keys embed an operation name, a cache format version, the package
version, and the canonical input strings, so either version bump simply
orphans old entries.  Entries that fail to re-parse, are not a JSON
object, or whose stored key disagrees are treated as corrupt: a warning
is emitted and the value is recomputed, never trusted.
"""

import hashlib
import json
import os
import warnings
from pathlib import Path

from . import __version__
from .errors import CacheCorrupt

CACHE_VERSION = 1


def default_cache_dir():
    env = os.environ.get("REPSTAB_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repstab"


class DiskCache:
    def __init__(self, directory=None):
        self.directory = Path(directory) if directory else default_cache_dir()

    def _path(self, key):
        digest = hashlib.sha256(key.encode()).hexdigest()
        return self.directory / f"{digest}.json"

    def get(self, key):
        path = self._path(key)
        if not path.exists():
            return None
        try:
            blob = _load(path)
            if not isinstance(blob, dict) or blob.get("key") != key:
                raise ValueError("not an entry for this key")
            return blob["payload"]
        except (ValueError, KeyError, OSError):
            warnings.warn(f"corrupt cache entry for {key!r}; recomputing",
                          CacheCorrupt)
            return None

    def put(self, key, payload):
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            json.dump({"key": key, "payload": payload}, fh, sort_keys=True)
        os.replace(tmp, path)

    def entries(self):
        if not self.directory.exists():
            return []
        out = []
        for path in sorted(self.directory.glob("*.json")):
            try:
                blob = _load(path)
            except (ValueError, OSError):   # UnicodeDecodeError included
                blob = None
            key = blob.get("key") if isinstance(blob, dict) else None
            out.append((key if isinstance(key, str) else "<corrupt>",
                        path.stat().st_size))
        return out


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cache_key(command, *parts):
    canon = ":".join(str(p) for p in parts)
    return f"{command}:v{CACHE_VERSION}:{__version__}:{canon}"
