"""Tests for the serving wire protocol: requests and frames."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.serve.protocol import (
    CONTENT_TYPES,
    FORMATS,
    FrameFactory,
    QueryRequest,
    encode_frame,
)
from repro.session.config import EngineConfig

SQL = "SELECT R.x FROM R R, T T WHERE R.k = T.k PREFERRING LOWEST(x)"


class TestQueryRequest:
    def test_minimal_request(self):
        request = QueryRequest.from_mapping({"sql": SQL})
        assert request.sql == SQL
        assert request.algorithm == "ProgXe"
        assert request.format == "ndjson"
        assert request.budget() is None
        assert request.engine_config() is None

    def test_missing_sql_rejected(self):
        with pytest.raises(ProtocolError, match="sql"):
            QueryRequest.from_mapping({})
        with pytest.raises(ProtocolError, match="sql"):
            QueryRequest.from_mapping({"sql": "   "})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ProtocolError, match="max_resuls"):
            QueryRequest.from_mapping({"sql": SQL, "max_resuls": 5})

    def test_numeric_strings_coerced(self):
        """URL query parameters arrive as strings and must still work."""
        request = QueryRequest.from_mapping(
            {"sql": SQL, "max_results": "5", "max_vtime": "1e4",
             "progress_every": "3"}
        )
        assert request.max_results == 5
        assert request.max_vtime == 10_000.0
        assert request.progress_every == 3

    def test_bad_numeric_rejected(self):
        with pytest.raises(ProtocolError, match="max_results"):
            QueryRequest.from_mapping({"sql": SQL, "max_results": "many"})
        with pytest.raises(ProtocolError, match="positive"):
            QueryRequest.from_mapping({"sql": SQL, "max_results": -1})

    def test_unknown_format_rejected(self):
        with pytest.raises(ProtocolError, match="format"):
            QueryRequest.from_mapping({"sql": SQL, "format": "xml"})

    def test_budget_built_from_ceilings(self):
        request = QueryRequest.from_mapping(
            {"sql": SQL, "max_results": 7, "max_wall_seconds": 2.5}
        )
        budget = request.budget()
        assert budget is not None
        assert budget.max_results == 7
        assert budget.max_wall_seconds == 2.5
        assert budget.max_vtime is None

    def test_engine_config_from_preset_and_overrides(self):
        request = QueryRequest.from_mapping(
            {"sql": SQL, "preset": "production", "config": {"input_cells": 6}}
        )
        config = request.engine_config()
        assert config == EngineConfig.preset("production").with_options(
            input_cells=6
        )
        # The retired scalar-path switch is an unknown override, not a
        # silent fallback to the default engine.
        stale = QueryRequest.from_mapping(
            {"sql": SQL, "preset": "production",
             "config": {"use_vectorized": False}}
        )
        with pytest.raises(
            ProtocolError, match="invalid engine config override: .*use_vectorized"
        ):
            stale.engine_config()

    def test_engine_config_json_string(self):
        """GET clients pass config as a JSON string parameter."""
        request = QueryRequest.from_mapping(
            {"sql": SQL, "config": '{"partitioning": "quadtree"}'}
        )
        assert request.engine_config().partitioning == "quadtree"

    def test_bad_config_surfaces_as_protocol_error(self):
        with pytest.raises(ProtocolError):
            QueryRequest.from_mapping(
                {"sql": SQL, "config": '{"partitioning": "octree"}'}
            ).engine_config()
        with pytest.raises(ProtocolError):
            QueryRequest.from_mapping(
                {"sql": SQL, "config": '{"no_such_option": 1}'}
            ).engine_config()
        with pytest.raises(ProtocolError, match="not valid JSON"):
            QueryRequest.from_mapping({"sql": SQL, "config": "{broken"})

    def test_unknown_preset_rejected_at_resolution(self):
        with pytest.raises(ProtocolError, match="preset"):
            QueryRequest.from_mapping(
                {"sql": SQL, "preset": "warp-speed"}
            ).engine_config()


class TestFrames:
    def test_sequence_numbers_are_monotonic_across_events(self):
        frames = FrameFactory()
        built = [
            frames.accepted(qid=1, name="q", algorithm="ProgXe"),
            frames.progress(steps=3, results=0, vtime=10.0, state="running"),
            frames.error("boom"),
            frames.complete(state="failed", stop_reason="boom"),
        ]
        assert [f["seq"] for f in built] == [0, 1, 2, 3]
        assert frames.next_seq == 4

    def test_complete_frame_carries_stats(self):
        frame = FrameFactory().complete(
            state="completed", stop_reason=None, stats={"results": 4}
        )
        assert frame["event"] == "complete"
        assert frame["stats"] == {"results": 4}

    def test_ndjson_encoding_is_one_json_line(self):
        frame = FrameFactory().accepted(qid=0, name="q", algorithm="a")
        data = encode_frame(frame, "ndjson")
        assert data.endswith(b"\n") and data.count(b"\n") == 1
        assert json.loads(data) == frame

    def test_sse_encoding_carries_the_same_payload(self):
        frame = FrameFactory().error("nope")
        data = encode_frame(frame, "sse").decode()
        assert data.startswith("event: error\n")
        assert data.endswith("\n\n")
        payload = [
            line for line in data.splitlines() if line.startswith("data: ")
        ][0]
        assert json.loads(payload[len("data: "):]) == frame

    def test_numpy_scalars_encode_as_json_numbers(self):
        frame = {
            "a": np.int64(1), "b": np.bool_(True), "c": np.float32(0.5),
            "d": [np.intp(7)], "e": object(),
        }
        decoded = json.loads(encode_frame(frame, "ndjson"))
        assert decoded["a"] == 1 and type(decoded["a"]) is int
        assert decoded["b"] is True
        assert decoded["c"] == 0.5
        assert decoded["d"] == [7]
        # Anything else still falls back to its string form.
        assert isinstance(decoded["e"], str)

    def test_unknown_format_rejected(self):
        with pytest.raises(ProtocolError, match="format"):
            encode_frame({"event": "x", "seq": 0}, "csv")

    def test_every_format_has_a_content_type(self):
        assert set(CONTENT_TYPES) == set(FORMATS)
