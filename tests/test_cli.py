"""Integration tests for the command-line interface."""

import json

import pytest

from repro.cli import main, parse_tag
from repro.model.objects import PackagingLevel, TagId


SIM_ARGS = [
    "--epochs", "240",
    "--pallet-period", "80",
    "--cases-per-pallet", "2",
    "--items-per-case", "3",
    "--shelf-period", "10",
    "--shelving-time", "60",
    "--seed", "5",
]


class TestParseTag:
    def test_valid_specs(self):
        assert parse_tag("item:5") == TagId(PackagingLevel.ITEM, 5)
        assert parse_tag("CASE:3") == TagId(PackagingLevel.CASE, 3)
        assert parse_tag("pallet:1") == TagId(PackagingLevel.PALLET, 1)

    @pytest.mark.parametrize("bad", ["item", "crate:1", "item:x", "item:1:2"])
    def test_invalid_specs(self, bad):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_tag(bad)


class TestSimulate:
    def test_writes_trace_and_sidecar(self, tmp_path, capsys):
        trace = tmp_path / "trace.bin"
        rc = main(["simulate", *SIM_ARGS, "-o", str(trace)])
        assert rc == 0
        assert trace.exists() and trace.stat().st_size > 0
        sidecar = json.loads((tmp_path / "trace.bin.json").read_text())
        assert sidecar["duration"] == 240
        out = capsys.readouterr().out
        assert "readings" in out and "pallets" in out


class TestInterpretAndQuery:
    @pytest.fixture
    def trace(self, tmp_path):
        path = tmp_path / "trace.bin"
        assert main(["simulate", *SIM_ARGS, "-o", str(path)]) == 0
        return path

    def test_interpret_writes_events(self, trace, tmp_path, capsys):
        events = tmp_path / "events.bin"
        rc = main(["interpret", str(trace), "-o", str(events), "--compression", "1"])
        assert rc == 0
        assert events.exists() and events.stat().st_size > 0
        assert "interpreted" in capsys.readouterr().out

    def test_interpret_requires_sidecar(self, trace, tmp_path, capsys):
        (tmp_path / "trace.bin.json").unlink()
        rc = main(["interpret", str(trace), "-o", str(tmp_path / "e.bin")])
        assert rc == 2
        assert "sidecar" in capsys.readouterr().err

    def test_query_point(self, trace, tmp_path, capsys):
        events = tmp_path / "events.bin"
        main(["interpret", str(trace), "-o", str(events), "--compression", "1"])
        rc = main(["query", str(events), "--object", "case:1", "--at", "30"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "location" in out

    def test_query_path(self, trace, tmp_path, capsys):
        events = tmp_path / "events.bin"
        main(["interpret", str(trace), "-o", str(events), "--compression", "1"])
        rc = main(["query", str(events), "--object", "case:1", "--path"])
        assert rc == 0
        assert "L" in capsys.readouterr().out

    def test_query_level2_with_decompress(self, trace, tmp_path, capsys):
        events = tmp_path / "events2.bin"
        main(["interpret", str(trace), "-o", str(events), "--compression", "2"])
        rc = main(
            ["query", str(events), "--object", "item:1", "--at", "20", "--decompress"]
        )
        assert rc == 0

    def test_query_requires_at_or_path(self, trace, tmp_path, capsys):
        events = tmp_path / "events.bin"
        main(["interpret", str(trace), "-o", str(events)])
        rc = main(["query", str(events), "--object", "case:1"])
        assert rc == 2

    def test_query_index_cache_round_trip(self, trace, tmp_path, capsys):
        events = tmp_path / "events.bin"
        cache = tmp_path / "events.idx"
        main(["interpret", str(trace), "-o", str(events), "--compression", "2"])
        capsys.readouterr()
        args = ["query", str(events), "--object", "case:1", "--at", "30",
                "--decompress", "--index-cache", str(cache)]
        assert main(args) == 0
        cold = capsys.readouterr()
        assert "wrote index cache" in cold.err
        assert cache.exists() and cache.stat().st_size > 0
        # warm run: identical answer, no rebuild
        assert main(args) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out
        assert "wrote index cache" not in warm.err

    def test_query_index_cache_invalidated_by_new_stream(self, trace, tmp_path, capsys):
        events = tmp_path / "events.bin"
        cache = tmp_path / "events.idx"
        main(["interpret", str(trace), "-o", str(events), "--compression", "1"])
        base = ["query", str(events), "--object", "case:1", "--at", "30",
                "--index-cache", str(cache)]
        assert main(base) == 0
        capsys.readouterr()
        # different flag (decompress) -> stale cache -> rebuild
        assert main([*base, "--decompress"]) == 0
        assert "stale" in capsys.readouterr().err

    def test_query_index_cache_survives_corruption(self, trace, tmp_path, capsys):
        events = tmp_path / "events.bin"
        cache = tmp_path / "events.idx"
        main(["interpret", str(trace), "-o", str(events), "--compression", "1"])
        base = ["query", str(events), "--object", "case:1", "--at", "30",
                "--index-cache", str(cache)]
        assert main(base) == 0
        capsys.readouterr()
        cache.write_bytes(b"garbage")
        assert main(base) == 0
        err = capsys.readouterr().err
        assert "unreadable" in err and "wrote index cache" in err


class TestClientPatternParsing:
    def test_valid_patterns(self):
        from repro.cli import parse_pattern
        from repro.serving.patterns import (
            PATTERN_DWELL,
            PATTERN_LEFT_WITHOUT_CONTAINER,
            PATTERN_MISSING,
            PATTERN_OBJECT,
            PATTERN_PLACE,
            PATTERN_TAIL,
        )

        assert parse_pattern("tail").kind == PATTERN_TAIL
        assert parse_pattern("tail:3").place == 3
        spec = parse_pattern("object:item:5")
        assert spec.kind == PATTERN_OBJECT
        assert spec.obj == TagId(PackagingLevel.ITEM, 5)
        assert parse_pattern("place:2").kind == PATTERN_PLACE
        dwell = parse_pattern("dwell:3:10")
        assert (dwell.kind, dwell.place, dwell.k) == (PATTERN_DWELL, 3, 10)
        assert parse_pattern("missing:7").k == 7
        anomaly = parse_pattern("anomaly:4")
        assert (anomaly.kind, anomaly.place) == (PATTERN_LEFT_WITHOUT_CONTAINER, 4)

    @pytest.mark.parametrize("bad", ["", "dwell:3", "object:5", "watch:1", "place:x"])
    def test_invalid_patterns(self, bad):
        import argparse

        from repro.cli import parse_pattern

        with pytest.raises(argparse.ArgumentTypeError):
            parse_pattern(bad)

    @pytest.mark.parametrize(
        "bad, needle",
        [
            ("dwell:3", "missing its K field"),
            ("dwell:x:5", "field PLACE must be an integer"),
            ("object:5", "missing its LEVEL:SERIAL tag"),
            ("place:x", "field PLACE must be an integer"),
            ("missing", "missing its K field"),
            ("tail:1:2", "at most one field"),
            ("watch:1", "unknown pattern"),
        ],
    )
    def test_errors_name_the_failing_field(self, bad, needle):
        import argparse

        from repro.cli import parse_pattern

        with pytest.raises(argparse.ArgumentTypeError, match=needle):
            parse_pattern(bad)

    def test_pattern_source_parses_to_a_sase_spec(self):
        from repro.cli import parse_pattern
        from repro.serving.patterns import PATTERN_SASE

        source = ("PATTERN SEQ(arrival a, !departure d) "
                  "WHERE d.obj == a.obj WITHIN 10 EPOCHS")
        spec = parse_pattern(source)
        assert spec.kind == PATTERN_SASE and spec.source == source
        # lower-case + leading-whitespace variants are recognized too
        assert parse_pattern("  seq(any e)").kind == PATTERN_SASE

    @pytest.mark.parametrize(
        "bad, needle",
        [
            ("SEQ(arrival a", "does not compile"),
            ("SEQ(arrival a) WHERE x.place == 1", "unknown binding"),
            ("PATTERN SEQ(landing e)", "event class"),
            pytest.param(
                "SEQ(any e) WHERE " + "NOT (" * 5000 + "e.place == 1" + ")" * 5000,
                "nests more than 64 levels",
                id="nested-5000-deep",
            ),
        ],
    )
    def test_bad_pattern_source_reports_the_compiler_error(self, bad, needle):
        import argparse

        from repro.cli import parse_pattern

        with pytest.raises(argparse.ArgumentTypeError, match=needle):
            parse_pattern(bad)

    def test_legacy_shorthands_route_through_the_library(self):
        """Shorthand specs now instantiate compiled patterns."""
        from repro.cli import parse_pattern
        from repro.sase.compiled import CompiledPattern
        from repro.serving.patterns import pattern_from_spec

        for text in ["tail:3", "object:item:5", "place:2", "dwell:3:10",
                     "missing:7", "anomaly:4"]:
            spec = parse_pattern(text)
            pattern = pattern_from_spec(spec)
            assert isinstance(pattern, CompiledPattern)
            assert pattern.spec() == spec  # wire spec round-trips


class TestServeAndClient:
    def test_serve_then_client_over_tcp(self, tmp_path, capsys):
        """Full CLI round trip: serve a short trace, query it, follow a
        tail subscription, read stats — all through the subcommands."""
        import socket
        import threading

        trace = tmp_path / "trace.bin"
        # pallets keep arriving, so tail events flow throughout the replay
        assert main(["simulate", *SIM_ARGS, "--epochs", "150",
                     "--pallet-period", "40", "-o", str(trace)]) == 0
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        server = threading.Thread(
            target=main,
            args=(["serve", str(trace), "--port", str(port),
                   "--epoch-interval", "0.02", "--linger", "1"],),
            daemon=True,
        )
        server.start()
        client_args = ["client", "--port", str(port)]
        for attempt in range(50):
            rc = main([*client_args, "--stats"])
            if rc == 0:
                break
            import time

            time.sleep(0.2)
        assert rc == 0, "server never came up"
        assert main([*client_args, "--subscribe", "tail", "--count", "2",
                     "--timeout", "15"]) == 0
        out = capsys.readouterr().out
        assert "subscribed" in out and "[event @" in out
        assert main([*client_args, "--object", "case:1", "--at", "10"]) == 0
        assert "location" in capsys.readouterr().out
        server.join(timeout=30)

    def test_client_subscribe_timeout_returns_error(self, tmp_path, capsys):
        """A subscription that never matches exits 1 after --timeout."""
        import socket
        import threading
        import time

        trace = tmp_path / "trace.bin"
        assert main(["simulate", *SIM_ARGS, "--epochs", "60",
                     "-o", str(trace)]) == 0
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        server = threading.Thread(
            target=main,
            args=(["serve", str(trace), "--port", str(port),
                   "--epoch-interval", "0.02", "--linger", "4"],),
            daemon=True,
        )
        server.start()
        client_args = ["client", "--port", str(port)]
        for _attempt in range(50):
            if main([*client_args, "--stats"]) == 0:
                break
            time.sleep(0.2)
        # place 999999 exists in no layout, so nothing ever matches
        rc = main([*client_args, "--subscribe", "place:999999",
                   "--count", "1", "--timeout", "1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "no notification within 1s" in captured.err
        server.join(timeout=30)

    def test_repeated_subscribe_prefixes_notifications_with_ids(
        self, tmp_path, capsys
    ):
        """Two --subscribe flags (one shorthand, one pattern source) open
        two subscriptions; notifications carry their #id prefix."""
        import re
        import socket
        import threading
        import time

        trace = tmp_path / "trace.bin"
        assert main(["simulate", *SIM_ARGS, "--epochs", "150",
                     "--pallet-period", "40", "-o", str(trace)]) == 0
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        server = threading.Thread(
            target=main,
            args=(["serve", str(trace), "--port", str(port),
                   "--epoch-interval", "0.02", "--linger", "1"],),
            daemon=True,
        )
        server.start()
        client_args = ["client", "--port", str(port)]
        for _attempt in range(50):
            if main([*client_args, "--stats"]) == 0:
                break
            time.sleep(0.2)
        capsys.readouterr()
        assert main([*client_args,
                     "--subscribe", "tail",
                     "--subscribe", "PATTERN SEQ(any e)",
                     "--count", "4", "--timeout", "15"]) == 0
        out = capsys.readouterr().out
        ids = re.findall(r"subscribed #(\d+)", out)
        assert len(ids) == 2 and ids[0] != ids[1]
        prefixed = re.findall(r"^#(\d+) \[\w+ @", out, flags=re.M)
        assert len(prefixed) == 4 and set(prefixed) <= set(ids)
        server.join(timeout=30)


class TestDecompress:
    def test_decompress_expands_level2(self, tmp_path, capsys):
        trace = tmp_path / "trace.bin"
        main(["simulate", *SIM_ARGS, "-o", str(trace)])
        events = tmp_path / "events2.bin"
        main(["interpret", str(trace), "-o", str(events), "--compression", "2"])
        expanded = tmp_path / "events1.bin"
        rc = main(["decompress", str(events), "-o", str(expanded)])
        assert rc == 0
        assert expanded.stat().st_size >= events.stat().st_size
        # the expanded stream is directly queriable without --decompress
        rc = main(["query", str(expanded), "--object", "item:1", "--path"])
        assert rc == 0


class TestEvaluate:
    def test_evaluate_prints_metrics(self, capsys):
        rc = main(["evaluate", *SIM_ARGS])
        assert rc == 0
        out = capsys.readouterr().out
        assert "location error" in out
        assert "compression ratio" in out

    def test_evaluate_with_smurf(self, capsys):
        rc = main(["evaluate", *SIM_ARGS, "--smurf"])
        assert rc == 0
        assert "SMURF baseline" in capsys.readouterr().out


class TestChaos:
    def test_chaos_reports_degradation(self, capsys):
        rc = main(["chaos", *SIM_ARGS, "--outage-start", "80",
                   "--outage-epochs", "40", "--fault-seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault schedule" in out
        assert "degradation" in out
        assert "well-formedness (fault-free): ok" in out
        assert "well-formedness (faulted): ok" in out

    def test_chaos_schedule_file(self, tmp_path, capsys):
        schedule = tmp_path / "faults.json"
        schedule.write_text(json.dumps([
            {"kind": "drop_batches", "rate": 0.05},
            {"kind": "duplicate_batches", "rate": 0.05},
        ]))
        rc = main(["chaos", *SIM_ARGS, "--schedule", str(schedule)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "DropBatches" in out and "DuplicateBatches" in out

    def test_chaos_pipe_pool_applies_a_scripted_worker_crash(self, tmp_path, capsys):
        """``worker_crash`` with ``--workers N`` kills the worker process;
        losing a worker does not show in the stream, so the faulted
        F-measure is that of the same schedule without the crash."""
        faulted = {}
        for name, crash in (("crash", [{"kind": "worker_crash", "worker": 0, "at_epoch": 150}]),
                            ("quiet", [])):
            schedule = tmp_path / f"{name}.json"
            schedule.write_text(json.dumps([{"kind": "drop_batches", "rate": 0.05}, *crash]))
            rc = main(["chaos", *SIM_ARGS, "--schedule", str(schedule), "--workers", "2"])
            assert rc == 0
            out = capsys.readouterr().out
            faulted[name] = next(line for line in out.splitlines() if "under faults" in line)
            assert ("WorkerCrash(worker=0, at_epoch=150)" in out) == bool(crash)
            assert ("'worker_lost': 1" in out) == bool(crash)
        assert faulted["crash"] == faulted["quiet"]

    @pytest.mark.parametrize(
        "spec,pool",
        [
            ({"kind": "worker_crash", "worker": 0, "at_epoch": 150}, []),
            ({"kind": "worker_crash", "worker": 2, "at_epoch": 150}, ["--workers", "2"]),
            ({"kind": "net_partition", "start": 40, "duration": 20}, ["--workers", "2"]),
            ({"kind": "net_delay", "rate": 0.1, "seconds": 0.005}, []),
        ],
    )
    def test_chaos_rejects_a_spec_no_engine_of_the_run_can_apply(
        self, spec, pool, tmp_path, capsys
    ):
        schedule = tmp_path / "faults.json"
        schedule.write_text(json.dumps([{"kind": "drop_batches", "rate": 0.05}, spec]))
        assert main(["chaos", *SIM_ARGS, "--schedule", str(schedule), *pool]) == 2
        err = capsys.readouterr().err
        assert "cannot apply" in err
        assert ("WorkerCrash(" if spec["kind"] == "worker_crash" else "Net") in err

    def test_chaos_max_degradation_gate(self, capsys):
        # a negative bound no run can satisfy forces the failure path
        rc = main(["chaos", *SIM_ARGS, "--max-degradation", "-101"])
        assert rc == 1
        assert "exceeds" in capsys.readouterr().err


class TestBench:
    def test_sweep_writes_a_payload_it_can_gate_against(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(["bench", "--milestones", "200", "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert [row["milestone"] for row in payload["sweep"]["milestones"]] == [200]
        assert set(payload) == {
            "workload", "machine", "calibration_s", "sweep", "peak_rss_kb",
        }
        # generous tolerance: a 200-node window is a few milliseconds of work
        rc = main(["bench", "--milestones", "200", "--check-against", str(out),
                   "--max-regression", "20"])
        assert rc == 0
        assert "regression check" in capsys.readouterr().out
        assert main(["bench", "--milestones", "200", "--check-against",
                     str(tmp_path / "absent.json")]) == 2

    def test_retired_scaling_sweep_flag_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--milestones", "200", "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err


# the Spire substrate's own series, as (name, labels) pairs
SPIRE_SERIES = {
    (name, ()) for name in (
        "spire_candidate_edges_total", "spire_departed_objects_total",
        "spire_dirty_nodes", "spire_dirty_nodes_total", "spire_event_bytes_total",
        "spire_events_total", "spire_graph_edges", "spire_graph_nodes",
        "spire_inference_seconds", "spire_raw_bytes_total",
        "spire_readings_deduped_total", "spire_readings_total",
        "spire_tracked_objects", "spire_update_seconds",
    )
} | {("spire_epochs_total", (("mode", mode),)) for mode in ("complete", "partial")}
COORDINATOR_SERIES = {
    (name, ()) for name in (
        "spire_checkpoint_seconds", "spire_checkpoints_total",
        "spire_coordinator_epochs_total", "spire_failed_zones", "spire_handoffs_total",
    )
}
INGEST_SERIES = {
    ("spire_ingest_batches_released_total", ()),
    ("spire_ingest_synthesized_epochs_total", ()),
    ("spire_warnings_total", (("kind", "gap_synthesized"),)),
}
SERVING_SERIES = {
    (name, ()) for name in (
        "spire_sase_active_instances", "spire_sase_compile_seconds_total",
        "spire_sase_compiled_patterns", "spire_sase_events_admitted_total",
        "spire_sase_events_offered_total", "spire_sase_kills_total",
        "spire_sase_matches_total", "spire_sase_partitions", "spire_sase_prunes_total",
        "spire_serving_active_subscriptions", "spire_serving_epochs_published_total",
        "spire_serving_evictions_total", "spire_serving_messages_published_total",
        "spire_serving_notifications_delivered_total",
        "spire_serving_notifications_dropped_total",
        "spire_serving_pattern_evaluations_total",
        "spire_serving_publish_latency_microseconds", "spire_serving_queries_total",
        "spire_serving_query_latency_microseconds", "spire_serving_queued_notifications",
        "spire_serving_shared_runtimes", "spire_serving_subscriptions_closed_total",
        "spire_serving_subscriptions_opened_total",
    )
}
# the zone map of the SIM_ARGS layout (four shelves)
ZONES = ("inbound", "shelf-01", "shelf-02", "shelf-03", "shelf-04", "outbound")


def _zoned(series):
    return {
        (name, tuple(sorted({**dict(labels), "zone": zone}.items())))
        for name, labels in series
        for zone in ZONES
    }


def _written_series(path):
    snapshot = json.loads(path.read_text())
    return {
        (entry["name"], tuple(sorted(entry["labels"].items())))
        for entry in snapshot["series"]
    }


class TestMetricsJson:
    """What ``--metrics-json`` writes, pinned as (series name, labels)."""

    @pytest.fixture
    def trace(self, tmp_path):
        path = tmp_path / "trace.bin"
        assert main(["simulate", *SIM_ARGS, "-o", str(path)]) == 0
        return path

    def test_chaos_local(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(["chaos", *SIM_ARGS, "--metrics-json", str(path)]) == 0
        assert _written_series(path) == SPIRE_SERIES | INGEST_SERIES
        assert f"wrote metrics snapshot to {path}" in capsys.readouterr().out

    def test_chaos_worker_pool(self, tmp_path):
        path = tmp_path / "metrics.json"
        assert main(["chaos", *SIM_ARGS, "--workers", "2", "--metrics-json", str(path)]) == 0
        assert _written_series(path) == (
            _zoned(SPIRE_SERIES) | COORDINATOR_SERIES | INGEST_SERIES
        )

    def test_serve(self, trace, tmp_path):
        path = tmp_path / "metrics.json"
        assert main(["serve", str(trace), "--metrics-json", str(path)]) == 0
        assert _written_series(path) == (
            _zoned(SPIRE_SERIES) | COORDINATOR_SERIES | SERVING_SERIES
        )

    def test_serve_with_acceptors_writes_the_substrate_snapshot(self, trace, tmp_path):
        path = tmp_path / "metrics.json"
        assert main(["serve", str(trace), "--epochs", "30", "--acceptors", "1",
                     "--metrics-json", str(path)]) == 0
        # the acceptors' serving counters stay in their processes; the
        # file carries the session's substrate series
        assert _written_series(path) == _zoned(SPIRE_SERIES) | COORDINATOR_SERIES


class TestServeArguments:
    def test_negative_evict_after_is_an_error(self, tmp_path, capsys):
        trace = tmp_path / "trace.bin"
        assert main(["simulate", *SIM_ARGS, "--epochs", "30", "-o", str(trace)]) == 0
        capsys.readouterr()
        assert main(["serve", str(trace), "--evict-after", "-1"]) == 2
        captured = capsys.readouterr()
        assert "error: --evict-after" in captured.err
        assert "serving on" not in captured.out
