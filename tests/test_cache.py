import json
import threading

from slopewalk.cache import ResultCache, resolve_cache_dir


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
    cache = ResultCache(tmp_path)
    key = {"command": "x"}
    cache.put(key, "good")
    path = next(tmp_path.glob("*.json"))
    path.write_text("{ truncated")
    assert cache.get(key) is None
    assert not path.exists()


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
