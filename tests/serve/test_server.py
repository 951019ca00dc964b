"""Tests of the analysis server's happy paths and request validation.

One fault-free in-process server per module: routing, validation errors,
the exact analysis round trip, byte-identical cache hits, in-flight
coalescing, the batch endpoint and the /metrics accounting.
"""

import json

import pytest

from repro.serve import ServerConfig
from repro.serve.smoke import get_json, post_json, two_task_model_dict


@pytest.fixture(scope="module")
def server(tmp_path_factory, live_server_cls):
    cache = str(tmp_path_factory.mktemp("serve") / "serve.cache.jsonl")
    live = live_server_cls(ServerConfig(
        workers=2, queue_limit=8, deadline_seconds=30.0,
        max_states_cap=5_000, max_seconds_cap=5.0, cache_path=cache,
    ))
    yield live
    live.stop()


class TestRouting:
    def test_healthz(self, server):
        status, _headers, health = get_json(server.port, "/healthz")
        assert status == 200
        assert health["status"] == "ok"

    def test_unknown_route_404(self, server):
        status, _headers, body = post_json(server.port, "/nope", {})
        assert status == 404

    def test_analyze_requires_post(self, server):
        status, _headers, _body = get_json(server.port, "/analyze")
        assert status == 405

    def test_unparseable_body_400(self, server):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("POST", "/analyze", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 400
            assert b"unparseable" in response.read()
        finally:
            conn.close()

    def test_missing_model_400(self, server):
        status, _headers, body = post_json(server.port, "/analyze", {})
        assert status == 400
        assert "model" in json.loads(body)["error"]

    def test_malformed_model_400(self, server):
        payload = {"model": {"schema": "repro-diffcheck-model-v1",
                             "name": "broken"}}
        status, _headers, _body = post_json(server.port, "/analyze", payload)
        assert status == 400

    def test_wrong_schema_400(self, server):
        model = two_task_model_dict("schema-model")
        model["schema"] = "somebody-else-v9"
        status, _headers, body = post_json(server.port, "/analyze",
                                           {"model": model})
        assert status == 400
        assert "schema" in json.loads(body)["error"]

    def test_unknown_option_400(self, server):
        payload = {"model": two_task_model_dict("opt-model"),
                   "options": {"max_sates": 10}}
        status, _headers, body = post_json(server.port, "/analyze", payload)
        assert status == 400
        assert "unknown analysis options" in json.loads(body)["error"]

    def test_removed_partial_order_reduction_400(self, server):
        payload = {"model": two_task_model_dict("por-model"),
                   "options": {"reductions": {"partial_order": False}}}
        status, _headers, body = post_json(server.port, "/analyze", payload)
        assert status == 400
        error = json.loads(body)["error"]
        assert "partial_order" in error and "lu_extrapolation, symmetry" in error


class TestAnalyze:
    def test_exact_analysis_with_witness(self, server):
        payload = {"model": two_task_model_dict("exact-model")}
        status, headers, body = post_json(server.port, "/analyze", payload)
        assert status == 200, body
        assert headers["x-repro-cache"] == "miss"
        result = json.loads(body)
        assert result["status"] == "checked"
        assert result["wcrt_ticks"] == 12
        assert result["satisfied"] is True
        assert result["witness_validated"] is True
        assert result["engines"]["ta"]["exact"] is True
        # soundness ordering visible in the response
        assert result["engines"]["des"]["value"] <= 12
        assert result["engines"]["symta"]["value"] >= 12

    def test_cache_hit_is_byte_identical(self, server):
        payload = {"model": two_task_model_dict("hit-model")}
        _status, headers, first = post_json(server.port, "/analyze", payload)
        assert headers["x-repro-cache"] == "miss"
        status, headers, second = post_json(server.port, "/analyze", payload)
        assert status == 200
        assert headers["x-repro-cache"] == "hit"
        assert second == first

    def test_json_formatting_does_not_defeat_the_cache(self, server):
        # same model, different key order: same fingerprint, cache hit
        model = two_task_model_dict("order-model")
        post_json(server.port, "/analyze", {"model": model})
        reordered = dict(reversed(list(model.items())))
        _status, headers, _body = post_json(server.port, "/analyze",
                                            {"model": reordered})
        assert headers["x-repro-cache"] == "hit"

    def test_skipping_the_witness_changes_the_fingerprint(self, server):
        model = two_task_model_dict("witness-model")
        _s, _h, with_witness = post_json(server.port, "/analyze",
                                         {"model": model})
        status, headers, without = post_json(
            server.port, "/analyze",
            {"model": model, "options": {"witness": "none"}})
        assert status == 200
        assert headers["x-repro-cache"] == "miss"
        assert "witness" not in json.loads(without)
        assert "witness" in json.loads(with_witness)

class TestBatch:
    def test_small_grid(self, server):
        payload = {"grid": {
            "combinations": ["AL+TMC"],
            "configurations": ["po", "pno"],
            "requirements": ["TMC"],
            "settings": {"search_order": "bfs", "max_states": 200, "seed": 1},
        }}
        status, _headers, body = post_json(server.port, "/batch", payload)
        assert status == 200, body
        result = json.loads(body)
        assert result["cells"] == 2
        for name in ("AL+TMC/po/TMC", "AL+TMC/pno/TMC"):
            point = result["points"][name]
            assert point["termination"] in ("completed", "state-budget"), point

    def test_unknown_grid_key_400(self, server):
        payload = {"grid": {"combinations": ["NOPE"]}}
        status, _headers, _body = post_json(server.port, "/batch", payload)
        assert status == 400


class TestRetryAfter:
    """429/503 ``Retry-After`` values are derived, not hardcoded."""

    def test_queue_full_429_derives_from_depth_and_latency(
        self, server, monkeypatch
    ):
        from repro.sweep.supervisor import WorkerPool

        # a saturated queue (depth == queue_limit == 8) with a known job
        # latency history: the header must say ceil(8 * mean(1.5, 2.5))
        monkeypatch.setattr(WorkerPool, "depth", property(lambda self: 8))
        server.server._latencies.clear()
        server.server._latencies.extend([1.5, 2.5])
        status, headers, body = post_json(
            server.port, "/analyze",
            {"model": two_task_model_dict("retry-after-model")})
        assert status == 429, body
        assert headers["retry-after"] == "16"

    def test_batch_429_shares_the_derived_retry_after(
        self, server, monkeypatch
    ):
        from repro.sweep.supervisor import WorkerPool

        monkeypatch.setattr(WorkerPool, "depth", property(lambda self: 8))
        server.server._latencies.clear()
        server.server._latencies.extend([0.5])
        payload = {"grid": {
            "combinations": ["AL+TMC"],
            "configurations": ["po", "pno"],
            "requirements": ["TMC"],
            "settings": {"max_states": 200},
        }}
        status, headers, _body = post_json(server.port, "/batch", payload)
        assert status == 429
        assert headers["retry-after"] == "4"  # ceil(8 * 0.5)

    def test_queue_full_429_floors_at_one_second_without_history(
        self, server, monkeypatch
    ):
        from repro.sweep.supervisor import WorkerPool

        monkeypatch.setattr(WorkerPool, "depth", property(lambda self: 8))
        server.server._latencies.clear()
        status, headers, _body = post_json(
            server.port, "/analyze",
            {"model": two_task_model_dict("retry-after-floor-model")})
        assert status == 429
        assert headers["retry-after"] == "1"

    def test_breaker_503_retry_after_is_the_ceiled_cooldown(
        self, server, monkeypatch
    ):
        from repro.serve.breaker import CircuitBreaker

        # 2.0 s of cooldown left: ceil(2.0) == 2, not int(2.0) + 1 == 3
        monkeypatch.setattr(CircuitBreaker, "quarantined_for",
                            lambda self, fingerprint: 2.0)
        status, headers, body = post_json(
            server.port, "/analyze",
            {"model": two_task_model_dict("breaker-retry-after-model")})
        assert status == 503, body
        assert json.loads(body)["status"] == "quarantined"
        assert headers["retry-after"] == "2"


class TestMetrics:
    def test_counters_accumulate(self, server):
        status, _headers, metrics = get_json(server.port, "/metrics")
        assert status == 200
        assert metrics["requests"] >= 10
        assert metrics["cache_hits"] == 2
        assert metrics["cache_misses"] == 5
        assert metrics["rejected_invalid"] == 6
        assert metrics["cache_entries"] == 5
        assert metrics["worker_restarts"] == 0
        assert metrics["draining"] is False
        assert metrics["queue_depth"] == 0
