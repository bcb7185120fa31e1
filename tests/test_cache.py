import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import slopewalk
from slopewalk.cache import ResultCache, code_version, resolve_cache_dir

# prints code_version() of the slopewalk package found first on sys.path
CODE_VERSION_SCRIPT = "from slopewalk.cache import code_version; print(code_version())"


def child_code_version(pythonpath, seed="0") -> str:
    env = dict(os.environ, PYTHONPATH=str(pythonpath), PYTHONHASHSEED=seed)
    proc = subprocess.run([sys.executable, "-c", CODE_VERSION_SCRIPT], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_resolve_order(tmp_path, monkeypatch):
    monkeypatch.delenv("SLOPEWALK_CACHE_DIR", raising=False)
    assert resolve_cache_dir(None) is None
    monkeypatch.setenv("SLOPEWALK_CACHE_DIR", str(tmp_path / "env"))
    assert resolve_cache_dir(None) == tmp_path / "env"
    assert resolve_cache_dir(str(tmp_path / "flag")) == tmp_path / "flag"


def test_put_get_and_verify(tmp_path):
    cache = ResultCache(tmp_path)
    key = {"command": "x", "k": 12}
    assert cache.get(key) is None
    assert cache.verify(key, "payload")  # vacuous before a write
    cache.put(key, "payload")
    assert cache.get(key) == "payload"
    assert cache.verify(key, "payload")
    assert not cache.verify(key, "different")


def test_an_entry_holds_only_its_key_and_payload(tmp_path):
    cache = ResultCache(tmp_path)
    key = {"command": "x", "k": 12}
    cache.put(key, "payload")
    (path,) = tmp_path.glob("*.json")
    assert json.loads(path.read_text()) == {"key": key, "payload": "payload"}
    # entries written with a creation time are still hits
    path.write_text(json.dumps({"key": key, "payload": "older", "created_at": 1.5e9}))
    assert cache.get(key) == "older"


def test_corrupt_entries_are_evicted(tmp_path):
    # json.loads raises RecursionError, not ValueError, on the deep entry
    cache = ResultCache(tmp_path)
    key = {"command": "x"}
    for corrupt in ("{ truncated", "[" * 200000):
        cache.put(key, "good")
        path = next(tmp_path.glob("*.json"))
        path.write_text(corrupt)
        assert cache.get(key) is None
        assert not path.exists()


def test_code_version_ignores_the_hash_seed():
    src = Path(slopewalk.__file__).parents[1]
    versions = {child_code_version(src, seed) for seed in ("0", "1")}
    assert versions == {code_version()}
    assert len(code_version()) == 16 and set(code_version()) <= set("0123456789abcdef")


def test_code_version_follows_every_source_byte_and_name(tmp_path):
    # a copy of the package sources, fingerprinted in fresh processes
    package = tmp_path / "slopewalk"
    shutil.copytree(Path(slopewalk.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    original = child_code_version(tmp_path)
    assert original == code_version()

    edited = package / "pingpong.py"
    source = edited.read_bytes()
    assert source[3:4].isalpha()
    edited.write_bytes(source[:3] + source[3:4].swapcase() + source[4:])
    assert child_code_version(tmp_path) != original
    edited.write_bytes(source)
    assert child_code_version(tmp_path) == original

    edited.rename(package / "pingpong2.py")
    assert child_code_version(tmp_path) != original


def test_key_mismatch_treated_as_corrupt(tmp_path):
    cache = ResultCache(tmp_path)
    key = {"command": "x"}
    cache.put(key, "good")
    path = next(tmp_path.glob("*.json"))
    entry = json.loads(path.read_text())
    entry["key"] = {"command": "y"}
    path.write_text(json.dumps(entry))
    assert cache.get(key) is None


def test_concurrent_writers_leave_a_readable_entry(tmp_path):
    cache = ResultCache(tmp_path)
    key = {"command": "sweep"}
    payloads = [f"payload-{i}" for i in range(8)]

    def writer(p):
        for _ in range(25):
            cache.put(key, p)

    threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    final = cache.get(key)
    assert final in payloads  # atomic replace: never torn, always one writer's value
