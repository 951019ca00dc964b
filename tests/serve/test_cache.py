"""Unit tests: canonical hashing, the repro-cache-v1 journal, the breaker,
and server-side option clamping -- the serve layer below the event loop."""

import json

import pytest

from repro.serve import (
    CACHE_SCHEMA,
    CircuitBreaker,
    ResultCache,
    analysis_options,
    canonical_json,
    load_cache,
    request_fingerprint,
)
from repro.util.errors import AnalysisError, ModelError


class TestCanonicalJson:
    def test_key_order_invariant(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_no_whitespace(self):
        assert canonical_json({"a": [1, 2]}) == '{"a":[1,2]}'


class TestFingerprint:
    def test_key_order_invariant(self):
        model = {"name": "m", "schema": "s"}
        assert request_fingerprint(model, {"x": 1, "y": 2}) == request_fingerprint(
            dict(reversed(model.items())), {"y": 2, "x": 1}
        )

    def test_any_analysed_bit_changes_the_address(self):
        model = {"name": "m"}
        assert request_fingerprint(model, {"max_states": 100}) != request_fingerprint(
            model, {"max_states": 101}
        )
        assert request_fingerprint({"name": "m2"}, {}) != request_fingerprint(model, {})


class TestResultCache:
    def test_in_memory_without_path(self):
        cache = ResultCache(None)
        cache.put("fp", "m", "body")
        assert cache.get("fp") == "body"
        assert len(cache) == 1

    def test_journal_round_trip(self, tmp_path):
        path = str(tmp_path / "serve.cache.jsonl")
        with ResultCache(path) as cache:
            cache.put("fp1", "m1", '{"status":"checked"}')
            cache.put("fp2", "m2", '{"status":"degraded"}')
        reopened = ResultCache(path)
        assert reopened.get("fp1") == '{"status":"checked"}'
        assert reopened.get("fp2") == '{"status":"degraded"}'
        assert len(reopened) == 2

    def test_header_written_first(self, tmp_path):
        path = str(tmp_path / "serve.cache.jsonl")
        ResultCache(path).close()
        header = json.loads(open(path, encoding="utf-8").readline())
        assert header["schema"] == CACHE_SCHEMA

    def test_missing_file_is_empty(self, tmp_path):
        assert load_cache(str(tmp_path / "none.jsonl")) == {}

    def test_torn_final_line_ignored(self, tmp_path):
        path = str(tmp_path / "serve.cache.jsonl")
        with ResultCache(path) as cache:
            cache.put("fp1", "m1", "body1")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"fingerprint": "fp2", "body": "bo')  # died mid-write
        assert load_cache(path) == {"fp1": "body1"}

    def test_restart_after_torn_final_line_appends_cleanly(self, tmp_path):
        # a server SIGKILLed mid-append must survive a second restart too
        path = str(tmp_path / "serve.cache.jsonl")
        with ResultCache(path) as cache:
            cache.put("fp1", "m1", "body1")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"fingerprint": "fp2", "body": "bo')  # died mid-write
        with ResultCache(path) as cache:
            assert len(cache) == 1
            cache.put("fp2", "m2", "body2")
            cache.put("fp3", "m3", "body3")
        assert load_cache(path) == {"fp1": "body1", "fp2": "body2",
                                    "fp3": "body3"}

    def test_corrupt_middle_line_rejected(self, tmp_path):
        path = str(tmp_path / "serve.cache.jsonl")
        with ResultCache(path) as cache:
            cache.put("fp1", "m1", "body1")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{garbage\n")
            handle.write(json.dumps({"fingerprint": "fp2", "body": "b"}) + "\n")
        with pytest.raises(AnalysisError, match="corrupt record"):
            load_cache(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = str(tmp_path / "serve.cache.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"schema": "somebody-else-v9"}\n')
        with pytest.raises(AnalysisError, match="schema"):
            load_cache(path)

    def test_later_record_wins(self, tmp_path):
        path = str(tmp_path / "serve.cache.jsonl")
        with ResultCache(path) as cache:
            cache.put("fp", "m", "old")
            cache.put("fp", "m", "new")
        assert load_cache(path) == {"fp": "new"}

    def test_reopen_appends_not_truncates(self, tmp_path):
        path = str(tmp_path / "serve.cache.jsonl")
        with ResultCache(path) as cache:
            cache.put("fp1", "m", "body1")
        with ResultCache(path) as cache:
            cache.put("fp2", "m", "body2")
        assert load_cache(path) == {"fp1": "body1", "fp2": "body2"}


class TestCircuitBreaker:
    def test_trips_at_threshold(self):
        breaker = CircuitBreaker(threshold=2, cooldown_seconds=60.0)
        assert breaker.record_failure("fp") is False
        assert breaker.quarantined_for("fp") is None
        assert breaker.record_failure("fp") is True
        assert breaker.quarantined_for("fp") is not None
        assert breaker.active == 1

    def test_success_resets_the_count(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure("fp")
        breaker.record_success("fp")
        assert breaker.record_failure("fp") is False

    def test_cooldown_expiry_readmits(self):
        breaker = CircuitBreaker(threshold=1, cooldown_seconds=0.01)
        breaker.record_failure("fp")
        import time
        time.sleep(0.05)
        assert breaker.quarantined_for("fp") is None
        assert breaker.active == 0
        # and the failure history was cleared with it: one fresh chance
        assert breaker.record_failure("fp") is True

    def test_fingerprints_are_independent(self):
        breaker = CircuitBreaker(threshold=1)
        breaker.record_failure("fp1")
        assert breaker.quarantined_for("fp2") is None


class TestAnalysisOptions:
    def test_defaults_are_the_caps(self):
        options = analysis_options({}, 5000, 5.0)
        assert options["max_states"] == 5000
        assert options["max_seconds"] == 5.0
        assert options["witness"] == "earliest"

    def test_hostile_budgets_clamped(self):
        options = analysis_options({"max_states": 10**9, "max_seconds": 1e9},
                                   5000, 5.0)
        assert options["max_states"] == 5000
        assert options["max_seconds"] == 5.0

    def test_modest_budgets_kept(self):
        options = analysis_options({"max_states": 100, "max_seconds": 0.5},
                                   5000, 5.0)
        assert options["max_states"] == 100
        assert options["max_seconds"] == 0.5

    def test_unknown_option_rejected(self):
        with pytest.raises(ModelError, match="unknown analysis options"):
            analysis_options({"max_sates": 100}, 5000, 5.0)

    def test_bad_witness_rejected(self):
        with pytest.raises(ModelError, match="witness"):
            analysis_options({"witness": "fastest"}, 5000, 5.0)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ModelError, match="positive"):
            analysis_options({"max_states": 0}, 5000, 5.0)

    def test_clamped_requests_share_a_fingerprint(self):
        # two hostile requests that clamp to the same budgets are the same
        # cache entry: the clamp happens before the hash
        model = {"name": "m"}
        a = analysis_options({"max_states": 10**9}, 5000, 5.0)
        b = analysis_options({"max_states": 10**12}, 5000, 5.0)
        assert request_fingerprint(model, a) == request_fingerprint(model, b)
