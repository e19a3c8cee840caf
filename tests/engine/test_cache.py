"""Failure-mode behaviour of the on-disk result cache.

Corrupt, truncated, or schema-mismatched entries must read as misses —
never as crashes or wrong results — and ``--no-cache`` must bypass both
reads and writes.
"""

import json
import os

import pytest

from repro.engine import ResultCache

pytestmark = pytest.mark.engine

KEY = "a" * 64
PAYLOAD = {"schema": 1, "value": [1.5, "x"]}


@pytest.fixture
def cache(tmp_path):
    return ResultCache(cache_dir=str(tmp_path))


class TestRoundTrip:
    def test_store_then_load(self, cache):
        cache.store(KEY, PAYLOAD, summary={"why": "test"})
        assert cache.load(KEY) == PAYLOAD
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1

    def test_missing_entry_is_miss(self, cache):
        assert cache.load(KEY) is None
        assert cache.stats.misses == 1
        assert cache.stats.corrupt == 0

    def test_store_overwrites(self, cache):
        cache.store(KEY, PAYLOAD)
        cache.store(KEY, {"schema": 1, "value": "new"})
        assert cache.load(KEY) == {"schema": 1, "value": "new"}

    def test_no_stray_temp_files(self, cache):
        cache.store(KEY, PAYLOAD)
        assert sorted(os.listdir(cache.root)) == [f"{KEY}.json"]


class TestCorruption:
    def test_truncated_entry_is_miss(self, cache):
        cache.store(KEY, PAYLOAD)
        path = cache.path_for(KEY)
        with open(path, "r+", encoding="utf-8") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        assert cache.load(KEY) is None
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1

    def test_garbage_entry_is_miss(self, cache):
        os.makedirs(cache.root, exist_ok=True)
        with open(cache.path_for(KEY), "w", encoding="utf-8") as handle:
            handle.write("not json at all {{{")
        assert cache.load(KEY) is None
        assert cache.stats.corrupt == 1

    def test_wrong_envelope_version_is_miss(self, cache):
        cache.store(KEY, PAYLOAD)
        path = cache.path_for(KEY)
        with open(path, encoding="utf-8") as handle:
            envelope = json.load(handle)
        envelope["envelope"] = -1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(envelope, handle)
        assert cache.load(KEY) is None
        assert cache.stats.corrupt == 1

    def test_non_dict_entry_is_miss(self, cache):
        os.makedirs(cache.root, exist_ok=True)
        with open(cache.path_for(KEY), "w", encoding="utf-8") as handle:
            json.dump([1, 2, 3], handle)
        assert cache.load(KEY) is None
        assert cache.stats.corrupt == 1

    def test_corrupt_entry_recovers_after_rewrite(self, cache):
        os.makedirs(cache.root, exist_ok=True)
        with open(cache.path_for(KEY), "w", encoding="utf-8") as handle:
            handle.write("garbage")
        assert cache.load(KEY) is None
        cache.store(KEY, PAYLOAD)
        assert cache.load(KEY) == PAYLOAD


class TestDisabled:
    def test_no_cache_never_writes(self, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path), enabled=False)
        cache.store(KEY, PAYLOAD)
        assert not os.path.isdir(cache.root) or not os.listdir(cache.root)
        assert cache.stats.stores == 0

    def test_no_cache_never_reads(self, tmp_path):
        # Populate with an enabled cache, then reopen disabled.
        ResultCache(cache_dir=str(tmp_path)).store(KEY, PAYLOAD)
        disabled = ResultCache(cache_dir=str(tmp_path), enabled=False)
        assert disabled.load(KEY) is None
        assert disabled.stats.misses == 1


class TestStatsFormat:
    def test_format_mentions_counts(self, cache):
        cache.store(KEY, PAYLOAD)
        cache.load(KEY)
        cache.load("c" * 64)
        text = cache.stats.format()
        assert "1 hits" in text
        assert "1 misses" in text
        assert "1 stored" in text
