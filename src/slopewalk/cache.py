"""On-disk result cache with atomic writes and byte-exact verification.

Entries are keyed by a canonical JSON object (command, parameters, source
fingerprint); the payload is stored as the exact output string so that a cache
hit is byte-identical to recomputation by construction, and --verify-cache
can prove it stayed that way. Writes go through a temp file plus os.replace,
so concurrent writers are safe; corrupt entries are evicted, never trusted.
"""

from __future__ import annotations

import json
import os
import tempfile
from functools import lru_cache
from importlib.util import source_hash
from pathlib import Path

from .serialize import json_dumps_stable

ENV_VAR = "SLOPEWALK_CACHE_DIR"


@lru_cache(maxsize=1)
def code_version() -> str:
    """Fingerprint of the package sources, 16 hex digits; cache keys carry it
    so stale entries die on any code change. It is importlib's source_hash
    (the keyed 64-bit hash of hash-based .pyc files) of the *.py files in
    name order, each framed as name, NUL, bytes: independent of
    PYTHONHASHSEED, keyed by the interpreter's bytecode magic number, and
    loading no OpenSSL."""
    root = Path(__file__).parent
    framed = b"".join(
        path.name.encode() + b"\0" + path.read_bytes() for path in sorted(root.glob("*.py"))
    )
    return source_hash(framed).hex()


def resolve_cache_dir(flag_value: str | None) -> Path | None:
    """Flag override beats the environment variable; None disables caching."""
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(ENV_VAR)
    return Path(env) if env else None


class ResultCache:
    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: dict) -> Path:
        """The entry file: the source_hash of the canonical key, in hex. Two
        keys that share a name can only cost misses, never a wrong hit,
        because get compares the key stored in the entry."""
        name = source_hash(json_dumps_stable(key).encode()).hex()
        return self.directory / f"{name}.json"

    def get(self, key: dict) -> str | None:
        path = self._path(key)
        try:
            entry = json.loads(path.read_text())
            if entry["key"] != key or not isinstance(entry["payload"], str):
                raise ValueError("key mismatch")
            return entry["payload"]
        except OSError:
            # missing, or unreadable (a directory, no permission): a miss
            return None
        except (ValueError, KeyError, TypeError, RecursionError):
            # corrupt entry (too deeply nested counts too): evict rather than trust
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, key: dict, payload: str) -> None:
        entry = {"key": key, "payload": payload}
        path = self._path(key)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(entry))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def verify(self, key: dict, fresh_payload: str) -> bool:
        """True when the cached payload is byte-identical to a recomputation
        (vacuously true when nothing is cached)."""
        cached = self.get(key)
        return cached is None or cached == fresh_payload
