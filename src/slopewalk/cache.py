"""On-disk result cache with atomic writes and byte-exact verification.

Entries are keyed by a canonical JSON object (command, parameters, package
version); the payload is stored as the exact output string so that a cache
hit is byte-identical to recomputation by construction, and --verify-cache
can prove it stayed that way. Writes go through a temp file plus os.replace,
so concurrent writers are safe; corrupt entries are evicted, never trusted.
"""

from __future__ import annotations

import json
import os
import tempfile
from functools import lru_cache
from pathlib import Path

from .serialize import json_dumps_stable

ENV_VAR = "SLOPEWALK_CACHE_DIR"


@lru_cache(maxsize=1)
def code_version() -> str:
    """Hash of the installed package sources; cache keys carry it so stale
    entries die on any code change. hashlib is imported here and in _path,
    never at module level, so a process that uses no cache never loads it."""
    import hashlib

    root = Path(__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


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
        import hashlib

        digest = hashlib.sha256(json_dumps_stable(key).encode()).hexdigest()
        return self.directory / f"{digest}.json"

    def get(self, key: dict) -> str | None:
        path = self._path(key)
        try:
            entry = json.loads(path.read_text())
            if entry["key"] != key or not isinstance(entry["payload"], str):
                raise ValueError("key mismatch")
            return entry["payload"]
        except FileNotFoundError:
            return None
        except (ValueError, KeyError, TypeError, json.JSONDecodeError):
            # corrupt entry: evict rather than trust
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
