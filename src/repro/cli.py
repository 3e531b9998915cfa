"""Command-line interface for the SPIRE substrate.

Subcommands cover the trace lifecycle:

* ``simulate`` — generate a synthetic warehouse trace and persist it (raw
  binary readings + a JSON sidecar with the configuration);
* ``interpret`` — run SPIRE over a persisted trace, writing the compressed
  event stream and printing summary statistics;
* ``evaluate`` — simulate + interpret + score in one go (accuracy,
  compression ratio, optional SMURF comparison);
* ``query`` — answer point/path queries over a persisted event stream
  (``--index-cache`` persists the built index for instant reloads);
* ``serve`` — replay a persisted trace through a zone-sharded session
  and serve continuous queries over TCP: one-shot lookups against the
  live index plus standing-pattern subscriptions (see docs/SERVING.md);
* ``client`` — connect to a running ``serve`` instance: issue a point
  query, follow a subscription, or dump serving statistics;
* ``chaos`` — run the same simulation fault-free and under a fault
  schedule (reader outages, dropped/delayed/duplicated batches, unknown
  readers) through the resilient ingestion front-end, and report the
  event-stream F-measure degradation;
* ``bench`` — run the paper's Table III per-epoch cost sweep and write
  the ``BENCH_table3.json`` payload (optionally gating against a
  committed baseline; the repo's own speed is measured by
  ``benchmarks/e2e/run.py`` only — see docs/BENCHMARKS.md);
* ``worker`` — run one remote zone-worker daemon: a TCP process that
  hosts zone substrates for a ``RemoteCoordinator`` on another host
  (see docs/SCALING.md).

Examples::

    repro-spire simulate --epochs 1200 --read-rate 0.85 -o trace.bin
    repro-spire interpret trace.bin -o events.bin --compression 2
    repro-spire evaluate --epochs 1800 --read-rate 0.7 --smurf
    repro-spire query events.bin --object case:3 --at 500
    repro-spire query events.bin --object case:3 --path --index-cache events.idx
    repro-spire serve trace.bin --port 7070 --workers 2
    repro-spire client --port 7070 --object case:3 --at 500
    repro-spire client --port 7070 --subscribe dwell:3:50 --count 5
    repro-spire client --port 7070 --metrics
    repro-spire chaos --epochs 600 --outage-epochs 50 --drop-rate 0.02 --delay-rate 0.05
    repro-spire chaos --epochs 600 --workers 2 --metrics-json metrics.json
    repro-spire chaos --epochs 600 --schedule faults.json --remote-workers 3
    repro-spire worker --port 7171
    repro-spire bench -o BENCH_table3.json
    repro-spire bench --milestones 2000 --remote-workers 3
    repro-spire bench --milestones 1000 2000 --check-against benchmarks/baselines/perf_smoke.json

Every subcommand that runs SPIRE builds it as a
:class:`~repro.api.SpireSession` from a :class:`~repro.api.SpireConfig`
(``chaos --remote-workers`` runs its faulted pass on
:class:`~repro.experiments.remote.RemoteHarness`, whose network-fault
proxies a config cannot express).  Cross-command flags are normalized:
``--seed``, ``--workers`` and ``--metrics-json`` come from shared parent
parsers, and the epoch-count knob is ``--epochs`` everywhere.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from repro.api import SpireConfig, SpireSession
from repro.baselines.smurf import SmurfPipeline
from repro.distributed.coordinator import DEFAULT_CHECKPOINT_INTERVAL
from repro.events import codec as event_codec
from repro.metrics.accuracy import AccuracyAccumulator, ScoringPolicy
from repro.metrics.sizing import compression_ratio
from repro.model.objects import PackagingLevel, TagId
from repro.obs.metrics import MetricRegistry
from repro.query.index import EventStreamIndex
from repro.readers import codec as reading_codec
from repro.simulator.config import SimulationConfig
from repro.simulator.layout import WarehouseLayout
from repro.simulator.warehouse import WarehouseSimulator


def _sidecar_path(trace_path: Path) -> Path:
    return trace_path.with_suffix(trace_path.suffix + ".json")


def _load_trace(path: str):
    """``(layout, stream)`` of a trace ``simulate`` wrote, rebuilt from its
    sidecar; ``None`` (after printing why) when the sidecar is missing."""
    trace_path = Path(path)
    sidecar = _sidecar_path(trace_path)
    if not sidecar.exists():
        print(f"error: missing deployment sidecar {sidecar}", file=sys.stderr)
        return None
    layout = WarehouseLayout.build(SimulationConfig(**json.loads(sidecar.read_text())))
    with trace_path.open("rb") as fp:
        return layout, reading_codec.read_trace(fp)


def _session_config(layout: WarehouseLayout, compression: int, **fields) -> SpireConfig:
    """The session config every SPIRE-running subcommand starts from."""
    return SpireConfig(
        readers=list(layout.readers),
        registry=layout.registry,
        compression_level=compression,
        **fields,
    )


# ---------------------------------------------------------------------------
# shared flags
# ---------------------------------------------------------------------------


#: parent parser carrying the canonical cross-command flags (--seed,
#: --workers, --metrics-json); subcommands opt in via ``parents=[...]``
def _seed_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--seed", type=int, default=None,
        help="deterministic RNG seed (default: the subcommand's own)",
    )
    return parent


def _workers_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--workers", type=int, default=None,
        help="shard zones over this many persistent worker processes",
    )
    return parent


def _metrics_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="enable the telemetry substrate and write the merged metrics "
             "snapshot as JSON here ('-' writes to stdout)",
    )
    return parent


def _dump_metrics_json(snapshot: dict, destination: str) -> None:
    """Write an obs snapshot where ``--metrics-json`` asked for it."""
    payload = json.dumps(snapshot, sort_keys=True, indent=2)
    if destination == "-":
        print(payload)
    else:
        Path(destination).write_text(payload + "\n")
        print(f"wrote metrics snapshot to {destination}")


def parse_tag(text: str) -> TagId:
    """Parse a ``level:serial`` tag spec, e.g. ``case:3``."""
    try:
        level_name, serial_text = text.split(":")
        level = PackagingLevel[level_name.upper()]
        return TagId(level, int(serial_text))
    except (ValueError, KeyError) as exc:
        raise argparse.ArgumentTypeError(
            f"invalid tag {text!r}; expected e.g. 'item:5', 'case:3', 'pallet:1'"
        ) from exc


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    defaults = SimulationConfig()
    parser.add_argument("--epochs", dest="epochs", type=int, default=1800,
                        help="epochs to simulate")
    parser.add_argument("--pallet-period", type=int, default=300)
    parser.add_argument("--cases-per-pallet", type=int, default=defaults.cases_per_pallet_min)
    parser.add_argument("--items-per-case", type=int, default=8)
    parser.add_argument("--read-rate", type=float, default=defaults.read_rate)
    parser.add_argument("--shelf-period", type=int, default=defaults.shelf_read_period)
    parser.add_argument("--num-shelves", type=int, default=defaults.num_shelves)
    parser.add_argument("--shelving-time", type=int, default=600)
    parser.add_argument("--anomaly-period", type=int, default=0)


def _config_from_args(args: argparse.Namespace) -> SimulationConfig:
    defaults = SimulationConfig()
    return SimulationConfig(
        duration=args.epochs,
        pallet_period=args.pallet_period,
        cases_per_pallet_min=args.cases_per_pallet,
        cases_per_pallet_max=args.cases_per_pallet,
        items_per_case=args.items_per_case,
        read_rate=args.read_rate,
        shelf_read_period=args.shelf_period,
        num_shelves=args.num_shelves,
        shelving_time_mean=args.shelving_time,
        shelving_time_jitter=max(1, args.shelving_time // 5),
        anomaly_period=args.anomaly_period,
        seed=defaults.seed if args.seed is None else args.seed,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    """Generate a synthetic trace and persist it with its config sidecar."""
    config = _config_from_args(args)
    sim = WarehouseSimulator(config).run()
    trace_path = Path(args.output)
    with trace_path.open("wb") as fp:
        written = reading_codec.write_trace(sim.stream, fp)
    with _sidecar_path(trace_path).open("w") as fp:
        json.dump(dataclasses.asdict(config), fp, indent=2)
    print(
        f"wrote {sim.stream.total_readings} readings ({written} bytes) over "
        f"{len(sim.stream)} epochs to {trace_path}"
    )
    print(
        f"pallets: {sim.pallets_arrived} in / {sim.pallets_assembled} assembled; "
        f"peak objects {sim.peak_objects}; removals {len(sim.removals)}"
    )
    return 0


def cmd_interpret(args: argparse.Namespace) -> int:
    """Run SPIRE over a persisted trace and write the event stream."""
    loaded = _load_trace(args.trace)
    if loaded is None:
        return 2
    layout, stream = loaded
    session = SpireSession(_session_config(layout, args.compression))
    messages = []
    for epoch_readings in stream:
        messages.extend(session.process_epoch(epoch_readings).messages)

    with Path(args.output).open("wb") as fp:
        written = event_codec.write_stream(messages, fp)
    ratio = compression_ratio(messages, stream.raw_bytes)
    print(
        f"interpreted {stream.total_readings} readings -> {len(messages)} events "
        f"({written} bytes, {ratio:.1%} of raw) to {args.output}"
    )
    print(f"objects tracked at end: {session.engine.tracked_objects}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Simulate, interpret and score in one go (optionally vs. SMURF)."""
    config = _config_from_args(args)
    sim = WarehouseSimulator(config).run()
    exclude = frozenset({sim.layout.entry_door.color})

    session = SpireSession(_session_config(sim.layout, args.compression))
    spire = session.engine
    accuracy = AccuracyAccumulator(policy=ScoringPolicy.ALL, exclude_colors=exclude)
    messages = []
    for epoch_readings, snapshot in zip(sim.stream, sim.truth.snapshots):
        messages.extend(session.process_epoch(epoch_readings).messages)
        accuracy.score_epoch(spire, snapshot)

    print(f"trace: {sim.stream.total_readings} readings, {len(sim.stream)} epochs, "
          f"read rate {config.read_rate}")
    print(f"SPIRE (level {args.compression}):")
    print(f"  location error     {accuracy.location_error_rate:8.3%}")
    print(f"  containment error  {accuracy.containment_error_rate:8.3%}")
    print(f"  compression ratio  {compression_ratio(messages, sim.stream.raw_bytes):8.3%}")
    print(f"  output events      {len(messages):8d}")

    if args.smurf:
        smurf = SmurfPipeline(spire.deployment)
        smurf_messages = []
        errors = total = 0
        for epoch_readings, snapshot in zip(sim.stream, sim.truth.snapshots):
            smurf_messages.extend(smurf.process_epoch(epoch_readings))
            for tag, location in snapshot.locations.items():
                if location.color in exclude:
                    continue
                total += 1
                if smurf.location_of(tag) != location.color:
                    errors += 1
        print("SMURF baseline (location only):")
        print(f"  location error     {errors / total if total else 0.0:8.3%}")
        print(f"  compression ratio  {compression_ratio(smurf_messages, sim.stream.raw_bytes):8.3%}")
        print(f"  output events      {len(smurf_messages):8d}")
    return 0


def cmd_decompress(args: argparse.Namespace) -> int:
    """Expand a level-2 event stream file to its level-1 equivalent."""
    from repro.compression.decompress import decompress_stream

    with Path(args.events).open("rb") as fp:
        messages = list(event_codec.read_stream(fp))
    expanded = decompress_stream(messages)
    with Path(args.output).open("wb") as fp:
        written = event_codec.write_stream(expanded, fp)
    print(
        f"decompressed {len(messages)} -> {len(expanded)} messages "
        f"({written} bytes) to {args.output}"
    )
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    """Run one remote zone-worker daemon until stopped."""
    from repro.distributed.remote import WorkerDaemon

    daemon = WorkerDaemon(host=args.host, port=args.port, name=args.name)
    # the banner is machine-read by spawn_worker_process: keep the format
    print(f"spire-worker {daemon.name} listening on {daemon.host}:{daemon.port}",
          flush=True)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        daemon.stop()
    print("spire-worker stopped")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run a simulation fault-free and under faults; report the degradation."""
    from repro.events.wellformed import WellFormednessError, check_well_formed
    from repro.experiments.runner import ground_truth_stream
    from repro.experiments.table3 import scaling_zone_assignment
    from repro.faults import (
        DelayBatches,
        DropBatches,
        DuplicateBatches,
        FaultInjector,
        ReaderHealthMonitor,
        ReaderOutage,
        schedule_from_dict,
        split_net_schedule,
    )
    from repro.metrics.events import f_measure

    config = _config_from_args(args)
    sim = WarehouseSimulator(config).run()
    reference = ground_truth_stream(sim)
    tolerance = max(r.period for r in sim.layout.readers) + args.max_delay + 2

    if args.schedule:
        try:
            schedule = schedule_from_dict(json.loads(Path(args.schedule).read_text()))
        except (OSError, ValueError) as exc:  # ValueError covers bad JSON too
            print(f"error: cannot load schedule {args.schedule}: {exc}", file=sys.stderr)
            return 2
    else:
        schedule = []
        if args.outage_epochs > 0:
            shelves = [r for r in sim.layout.readers if "shelf" in r.location.name]
            target = shelves[0] if shelves else sim.layout.readers[0]
            schedule.append(
                ReaderOutage(
                    reader_id=target.reader_id,
                    start=args.outage_start,
                    duration=args.outage_epochs,
                )
            )
        if args.drop_rate > 0:
            schedule.append(DropBatches(rate=args.drop_rate))
        if args.delay_rate > 0:
            schedule.append(DelayBatches(rate=args.delay_rate, max_delay=args.max_delay))
        if args.dup_rate > 0:
            schedule.append(DuplicateBatches(rate=args.dup_rate))

    if args.remote_workers and args.workers:
        print("error: --workers and --remote-workers are mutually exclusive", file=sys.stderr)
        return 2
    # transport faults go to the remote layer and scripted crashes to the
    # worker pool; the injector keeps the stream-level specs.  A spec no
    # engine of this run can apply is an error, not a no-op.
    full_schedule = list(schedule)
    schedule, net_specs, crashes = split_net_schedule(schedule)
    pool = args.remote_workers or args.workers
    base = _session_config(sim.layout, args.compression)
    pool_size = 0
    if pool:
        # pooled runs shard both passes over one zone map: every pool's
        # clean-run stream is byte-identical to the in-process one, so the
        # degradation isolates the faults
        base = base.with_overrides(
            zone_map=scaling_zone_assignment(config.num_shelves),
            checkpoint_interval=DEFAULT_CHECKPOINT_INTERVAL,
        )
        pool_size = min(pool, len(base.zone_map))
    unusable = [(spec, "needs --remote-workers") for spec in net_specs if not args.remote_workers]
    unusable += [
        (crash, f"the run has {pool_size} pool worker(s)")
        for crash in crashes
        if not 0 <= crash.worker < pool_size
    ]
    for spec, why in unusable:
        print(f"error: cannot apply {spec}: {why}", file=sys.stderr)
    if unusable:
        return 2

    with SpireSession(base) as baseline:
        baseline_messages = [m for out in baseline.process(sim.stream) for m in out.messages]

    # faulted run: injector -> resilient ingestion -> engine
    injector = FaultInjector(sim.stream, schedule, seed=args.fault_seed)
    if args.remote_workers:
        # net faults need NetFaultProxy shims between the coordinator and
        # its TCP workers, which SpireConfig cannot express: the harness
        # builds this run, with the ingestion a session would have applied
        from repro.distributed import partition_by_location
        from repro.experiments.remote import RemoteHarness
        from repro.faults import ResilientStream

        registry = MetricRegistry() if args.metrics_json else None
        resilient = ResilientStream(
            injector,
            max_delay=args.max_delay,
            known_readers=[r.reader_id for r in sim.layout.readers],
            metrics=registry,
        )
        runner = RemoteHarness(
            partition_by_location(
                sim.layout.readers, base.zone_map, sim.layout.registry,
                compression_level=args.compression,
            ),
            args.remote_workers,
            net_specs=net_specs,
            net_seed=args.fault_seed,
            metrics=registry,
        )
        engine = runner.coordinator
        kill_worker, metrics_snapshot = runner.crash_worker, engine.metrics_snapshot
    else:
        runner = SpireSession(base.with_overrides(
            workers=args.workers or None,
            resilient=True,
            max_delay=args.max_delay,
            metrics=bool(args.metrics_json),
        ))
        resilient = runner.ingest(injector)
        engine = runner.engine
        if not pool:  # Spire reads its health monitor at run time
            engine.health = ReaderHealthMonitor(engine.deployment.readers, k=args.health_k)
        kill_worker = lambda i: engine._workers[i].kill()
        metrics_snapshot = runner.metrics_snapshot
    crash_at = {crash.at_epoch: crash.worker for crash in crashes}
    faulted_messages = []
    with runner:
        for epoch_readings in resilient:
            if epoch_readings.epoch in crash_at:
                kill_worker(crash_at[epoch_readings.epoch])
            faulted_messages.extend(engine.process_epoch(epoch_readings).messages)

    f_baseline = f_measure(baseline_messages, reference, tolerance)
    f_faulted = f_measure(faulted_messages, reference, tolerance)
    degradation = 100.0 * (f_baseline - f_faulted)

    print(f"trace: {sim.stream.total_readings} readings, {len(sim.stream)} epochs")
    print(f"fault schedule ({len(full_schedule)} spec(s)):")
    for spec in full_schedule:
        print(f"  {spec}")
    print(f"injected: {len(injector.dropped_epochs)} dropped, "
          f"{len(injector.delayed_epochs)} delayed, "
          f"{len(injector.duplicated_epochs)} duplicated batch(es)")
    print(f"absorbed: {resilient.synthesized_epochs} epoch(s) synthesized; warnings "
          f"{resilient.quarantine.counts() or '{}'}")
    if not pool:
        silent = sum(1 for w in engine.health.events if w.kind == "reader_silent")
        print(f"reader health: {silent} silent transition(s), "
              f"{len(engine.health.events) - silent} recovery transition(s)")
    else:
        print(f"{'remote' if args.remote_workers else 'parallel'} engine: "
              f"{pool} worker(s), {len(engine.zones)} zones")
        for line in engine.stats.summary_lines():
            print(f"  {line}")
        if args.remote_workers:
            for line in engine.supervisor.stats.summary_lines():
                print(f"  {line}")
        counts = engine.quarantine.counts()
        if counts:
            print(f"  coordinator warnings  {counts}")
    print(f"F-measure (tolerance {tolerance} epochs):")
    print(f"  fault-free   {f_baseline:8.4f}  ({len(baseline_messages)} events)")
    print(f"  under faults {f_faulted:8.4f}  ({len(faulted_messages)} events)")
    print(f"  degradation  {degradation:+8.2f} points")

    exit_code = 0
    for label, messages in (("fault-free", baseline_messages), ("faulted", faulted_messages)):
        try:
            check_well_formed(messages)
            print(f"well-formedness ({label}): ok")
        except WellFormednessError as exc:
            print(f"well-formedness ({label}): VIOLATED — {exc}", file=sys.stderr)
            exit_code = 1
    if args.max_degradation is not None and degradation > args.max_degradation:
        print(
            f"error: degradation {degradation:.2f} exceeds "
            f"--max-degradation {args.max_degradation}",
            file=sys.stderr,
        )
        exit_code = 1
    if args.metrics_json:
        _dump_metrics_json(metrics_snapshot(), args.metrics_json)
    return exit_code


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the Table III speed sweep and write ``BENCH_table3.json``."""
    from repro.experiments import table3

    if args.seed is None:
        args.seed = 41
    registry = MetricRegistry() if args.metrics_json else None
    milestones = args.milestones or list(table3.DEFAULT_MILESTONES)
    payload = table3.run_table3(
        milestones=milestones,
        cases_per_pallet=args.cases,
        seed=args.seed,
        metrics=registry,
    )
    rows = payload["sweep"]["milestones"]
    print(f"workload: {payload['workload']['duration']} epochs, "
          f"{args.cases} cases/pallet, seed {args.seed}")
    print(f"{'milestone':>9}  {'nodes':>6}  {'edges':>7}  "
          f"{'avg/epoch':>10}  {'complete':>10}")
    for row in rows:
        print(f"{row['milestone']:>9}  {row['nodes']:>6}  {row['edges']:>7}  "
              f"{row['avg_epoch_s'] * 1000:>8.2f}ms  "
              f"{row['complete_epoch_s'] * 1000:>8.1f}ms")
    print(f"peak RSS {payload['peak_rss_kb']} kB")

    exit_code = 0
    if args.remote_workers:
        from repro.experiments.remote import run_remote
        from repro.faults import schedule_from_dict

        remote_schedule = []
        if args.remote_schedule:
            try:
                remote_schedule = schedule_from_dict(
                    json.loads(Path(args.remote_schedule).read_text())
                )
            except (OSError, ValueError) as exc:
                print(f"error: cannot load schedule {args.remote_schedule}: {exc}",
                      file=sys.stderr)
                return 2
        remote = run_remote(
            milestones=milestones,
            workers=args.remote_workers,
            cases_per_pallet=args.cases,
            seed=args.seed,
            schedule=remote_schedule,
        )
        payload["remote"] = remote
        sup = remote["remote"]["supervisor"]
        print(f"remote sweep: {args.remote_workers} TCP worker(s), "
              f"{len(remote['net_schedule'])} net fault(s), "
              f"{len(remote['crashes'])} scripted crash(es)")
        print(f"  remote {remote['remote']['total_s']:.2f}s / "
              f"serial {remote['serial']['total_s']:.2f}s; "
              f"requests {sup['requests']}, deadline misses {sup['timeouts']}, "
              f"worker deaths {sup['worker_deaths']}")
        print(f"  streams identical: {remote['streams_identical']}")
        if not remote["streams_identical"]:
            print("error: remote merged stream diverged from serial", file=sys.stderr)
            exit_code = 1

    if args.fanout:
        from repro.experiments import fanout as fanout_mod

        fanout = fanout_mod.run_fanout_bench(
            milestone=max(milestones),
            cases_per_pallet=args.cases,
            seed=args.seed,
            subscribers=args.fanout_subscribers,
            distinct=args.fanout_distinct,
        )
        payload["fanout"] = fanout
        inproc = fanout["fanout"]
        print(f"fan-out @ {inproc['milestone']}: {inproc['subscribers']} "
              f"subscriber(s) over {inproc['distinct_patterns']} pattern(s), "
              f"{inproc['shared_runtimes']} shared runtime(s), "
              f"{inproc['evaluations_per_epoch']:.0f} eval(s)/epoch, "
              f"publish mean {inproc['publish_latency']['mean_ms']:.2f}ms, "
              f"{inproc['notifications_delivered']} delivered")
        print(f"  equivalence: byte_identical={fanout['equivalence']['byte_identical']}, "
              f"{fanout['equivalence']['evaluation_savings_x']:.1f}x fewer evaluations")
        for problem in fanout_mod.check_fanout(fanout):
            print(f"fanout gate: {problem}", file=sys.stderr)
            exit_code = 1

    if args.check_against:
        baseline_path = Path(args.check_against)
        if not baseline_path.exists():
            print(f"error: baseline {baseline_path} not found", file=sys.stderr)
            return 2
        problems = table3.check_regression(
            payload, table3.load_payload(baseline_path), args.max_regression
        )
        if problems:
            for problem in problems:
                print(f"regression: {problem}", file=sys.stderr)
            exit_code = 1
        else:
            print(f"regression check vs {baseline_path}: ok "
                  f"(tolerance {args.max_regression:.0%})")

    if registry is not None:
        _dump_metrics_json(registry.snapshot(), args.metrics_json)
    if args.output:
        table3.write_payload(payload, args.output)
        print(f"wrote {args.output}")
    return exit_code


def _load_query_index(args: argparse.Namespace) -> EventStreamIndex:
    """Build the query index, through the snapshot cache when requested.

    The cache is keyed on the sha256 of the raw event-stream bytes plus
    the ``--decompress`` flag: a hit skips decoding and index construction
    entirely; a miss (or a stale/corrupt snapshot) rebuilds and rewrites.
    """
    import io

    raw = Path(args.events).read_bytes()
    cache = getattr(args, "index_cache", None)
    if cache:
        from repro.query.snapshot import (
            SnapshotError,
            fingerprint_stream,
            load_index,
            save_index,
        )

        fingerprint = fingerprint_stream(raw)
        cache_path = Path(cache)
        if cache_path.exists():
            try:
                index, meta = load_index(cache_path)
            except SnapshotError as exc:
                print(f"index cache unreadable ({exc}); rebuilding", file=sys.stderr)
            else:
                if meta.fingerprint == fingerprint and meta.decompress == args.decompress:
                    return index
                print("index cache stale; rebuilding", file=sys.stderr)
        messages = list(event_codec.read_stream(io.BytesIO(raw)))
        index = EventStreamIndex(messages, decompress=args.decompress)
        written = save_index(
            index, cache_path, fingerprint=fingerprint, decompress=args.decompress
        )
        print(f"wrote index cache {cache_path} ({written} bytes)", file=sys.stderr)
        return index
    messages = list(event_codec.read_stream(io.BytesIO(raw)))
    return EventStreamIndex(messages, decompress=args.decompress)


def cmd_query(args: argparse.Namespace) -> int:
    """Answer point/path/tree queries over a persisted event stream."""
    index = _load_query_index(args)

    if args.path:
        for interval in index.path(args.object):
            ve = "now" if interval.ve == float("inf") else int(interval.ve)
            print(f"L{interval.value}: [{interval.vs}, {ve})")
        for report in index.missing_reports(args.object):
            print(f"reported missing at {report}")
        return 0

    if args.at is None:
        print("error: provide --at EPOCH or --path", file=sys.stderr)
        return 2
    place = index.location_of(args.object, args.at)
    container = index.container_of(args.object, args.at)
    top = index.top_level_container(args.object, args.at)
    print(f"object     {args.object}")
    print(f"location   {'L' + str(place) if place is not None else 'unknown'}")
    print(f"container  {container if container is not None else '-'}")
    if top != args.object:
        print(f"top-level  {top}")
    if index.is_missing(args.object, args.at):
        print("status     reported missing")
    if args.tree:
        print("containment tree:")
        print(index.render_tree(top, args.at))
    return 0


#: legacy shorthand -> (argument field names, expected form); the field
#: list drives per-field error messages in parse_pattern
_PATTERN_FORMS = {
    "tail": ((), "tail or tail:PLACE"),
    "object": (("LEVEL", "SERIAL"), "object:LEVEL:SERIAL (e.g. object:item:5)"),
    "place": (("PLACE",), "place:PLACE"),
    "dwell": (("PLACE", "K"), "dwell:PLACE:K"),
    "missing": (("K",), "missing:K"),
    "anomaly": (("PLACE",), "anomaly:PLACE"),
}


def _looks_like_pattern_source(text: str) -> bool:
    head = text.lstrip().upper()
    return head.startswith("PATTERN") or head.startswith("SEQ")


def _int_field(parts: list[str], index: int, name: str, head: str, form: str) -> int:
    """One integer field of a legacy shorthand, with a named error."""
    if index >= len(parts) or not parts[index]:
        raise argparse.ArgumentTypeError(
            f"{head} pattern is missing its {name} field; expected {form}"
        )
    try:
        return int(parts[index])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{head} pattern field {name} must be an integer, "
            f"got {parts[index]!r}; expected {form}"
        ) from None


def parse_pattern(text: str):
    """Parse a ``client --subscribe`` argument into a pattern spec.

    Accepts the legacy shorthands — ``tail[:PLACE]``,
    ``object:LEVEL:SERIAL``, ``place:PLACE``, ``dwell:PLACE:K``,
    ``missing:K``, ``anomaly:PLACE`` (each now served by its
    :mod:`repro.sase` library definition) — or full pattern source text
    (anything starting with ``PATTERN`` or ``SEQ``), validated by the
    local compiler before it is shipped to the server.
    """
    from repro.serving.patterns import (
        PATTERN_DWELL,
        PATTERN_LEFT_WITHOUT_CONTAINER,
        PATTERN_MISSING,
        PATTERN_OBJECT,
        PATTERN_PLACE,
        PATTERN_SASE,
        PATTERN_TAIL,
        PatternSpec,
    )

    if _looks_like_pattern_source(text):
        from repro.sase import PatternError, compile_pattern

        try:
            compile_pattern(text)
        except PatternError as exc:
            raise argparse.ArgumentTypeError(f"pattern does not compile: {exc}") from exc
        return PatternSpec(PATTERN_SASE, source=text)

    parts = text.split(":")
    head = parts[0]
    if head not in _PATTERN_FORMS:
        forms = ", ".join(form for _, form in _PATTERN_FORMS.values())
        raise argparse.ArgumentTypeError(
            f"unknown pattern {text!r}; expected one of: {forms}; "
            f"or full pattern source starting with PATTERN/SEQ "
            f"(e.g. \"PATTERN SEQ(arrival a, !departure d) WHERE ... WITHIN 10 EPOCHS\")"
        )
    fields, form = _PATTERN_FORMS[head]
    extra = len(parts) - 1 - len(fields)
    if head == "tail":
        if len(parts) > 2:
            raise argparse.ArgumentTypeError(
                f"tail pattern takes at most one field; expected {form}"
            )
        place = _int_field(parts, 1, "PLACE", head, form) if len(parts) > 1 else None
        return PatternSpec(PATTERN_TAIL, place=place)
    if extra > 0:
        raise argparse.ArgumentTypeError(
            f"{head} pattern has {extra} extra field(s); expected {form}"
        )
    if head == "object":
        if len(parts) < 3 or not parts[1] or not parts[2]:
            raise argparse.ArgumentTypeError(
                f"object pattern is missing its LEVEL:SERIAL tag; expected {form}"
            )
        try:
            obj = parse_tag(f"{parts[1]}:{parts[2]}")
        except argparse.ArgumentTypeError as exc:
            raise argparse.ArgumentTypeError(
                f"object pattern tag field: {exc}; expected {form}"
            ) from exc
        return PatternSpec(PATTERN_OBJECT, obj=obj)
    if head == "place":
        return PatternSpec(PATTERN_PLACE, place=_int_field(parts, 1, "PLACE", head, form))
    if head == "dwell":
        return PatternSpec(
            PATTERN_DWELL,
            place=_int_field(parts, 1, "PLACE", head, form),
            k=_int_field(parts, 2, "K", head, form),
        )
    if head == "missing":
        return PatternSpec(PATTERN_MISSING, k=_int_field(parts, 1, "K", head, form))
    return PatternSpec(
        PATTERN_LEFT_WITHOUT_CONTAINER, place=_int_field(parts, 1, "PLACE", head, form)
    )


def cmd_serve(args: argparse.Namespace) -> int:
    """Replay a trace through a session and serve continuous queries."""
    import asyncio
    import itertools

    from repro.experiments.table3 import scaling_zone_assignment

    if args.evict_after < 0:
        print(f"error: --evict-after must be >= 0 (0 disables eviction), "
              f"got {args.evict_after}", file=sys.stderr)
        return 2

    loaded = _load_trace(args.trace)
    if loaded is None:
        return 2
    layout, stream = loaded
    config = _session_config(
        layout,
        args.compression,
        zone_map=scaling_zone_assignment(len(layout.shelves)),
        workers=args.workers or None,
        checkpoint_interval=DEFAULT_CHECKPOINT_INTERVAL,
        host=args.host,
        port=args.port,
        evict_after=args.evict_after,
        expand_level2=(args.compression == 2),
        metrics=bool(args.metrics_json),
    )

    async def run() -> int:
        epochs = stream
        if args.epochs is not None:
            epochs = itertools.islice(stream, args.epochs)
        async with server:
            print(
                f"serving on {server.host}:{server.port} "
                f"({len(config.zone_map)} zone(s), "
                f"{args.workers or 'no'} worker(s), "
                f"compression level {args.compression})"
            )
            pumped = await session.pump(server, epochs, epoch_interval=args.epoch_interval)
            print(f"pumped {pumped} epoch(s); stream exhausted")
            if args.linger > 0:
                print(f"lingering {args.linger:.0f}s for queries")
                await asyncio.sleep(args.linger)
            if args.state:
                saved = server.save_subscriptions(args.state)
                print(f"saved {saved} subscription(s) to {args.state}")
        return pumped

    with SpireSession(config) as session:
        server = session.serve()
        if args.state:
            restored = server.load_subscriptions(args.state)
            if restored:
                print(f"restored {restored} subscription(s) from {args.state}")
        try:
            asyncio.run(run())
        except KeyboardInterrupt:
            print("interrupted", file=sys.stderr)
        finally:
            print("serving statistics:")
            for line in server.engine.stats.summary_lines():
                print(f"  {line}")
            counts = server.engine.quarantine.counts()
            if counts:
                print(f"  warnings              {counts}")
            if args.metrics_json:
                _dump_metrics_json(server.metrics_snapshot(), args.metrics_json)
    return 0


def cmd_client(args: argparse.Namespace) -> int:
    """Connect to a running ``serve`` instance and query or follow it."""
    import asyncio

    from repro.serving.client import ServingError, SpireClient

    async def run() -> int:
        client = await SpireClient.connect(args.host, args.port)
        try:
            if args.metrics:
                print(await client.metrics(), end="")
                return 0
            if args.stats:
                for key, value in (await client.stats()).items():
                    print(f"{key:26} {value}")
                return 0
            if args.subscribe:
                subs = []
                for text in args.subscribe:
                    spec = parse_pattern(text)
                    sub = await client.subscribe(spec.source or spec)
                    print(f"subscribed #{sub.id} to {text}")
                    subs.append(sub)
                received = 0
                while args.count is None or received < args.count:
                    try:
                        sub_id, note = await client.next_notification(
                            timeout=args.timeout
                        )
                    except asyncio.TimeoutError:
                        print(f"no notification within {args.timeout:.0f}s", file=sys.stderr)
                        return 1
                    print(f"#{sub_id} {note}" if len(subs) > 1 else note)
                    received += 1
                for sub in subs:
                    await sub.cancel()
                return 0
            if args.object is None or args.at is None:
                print("error: provide --object and --at, --subscribe, --stats, "
                      "or --metrics", file=sys.stderr)
                return 2
            place = await client.location_of(args.object, args.at)
            container = await client.container_of(args.object, args.at)
            missing = await client.is_missing(args.object, args.at)
            print(f"object     {args.object}")
            print(f"location   {'L' + str(place) if place is not None else 'unknown'}")
            print(f"container  {container if container is not None else '-'}")
            if missing:
                print("status     reported missing")
            return 0
        finally:
            await client.close()

    try:
        return asyncio.run(run())
    except argparse.ArgumentTypeError as exc:
        print(f"error: argument --subscribe: {exc}", file=sys.stderr)
        return 2
    except (ConnectionError, ServingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Construct the repro-spire argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-spire",
        description="SPIRE: RFID stream interpretation and compression",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    seed_parent = _seed_parent()
    workers_parent = _workers_parent()
    metrics_parent = _metrics_parent()

    simulate = subparsers.add_parser("simulate", help="generate a synthetic trace",
                                     parents=[seed_parent])
    _add_config_arguments(simulate)
    simulate.add_argument("-o", "--output", required=True, help="trace output path")
    simulate.set_defaults(func=cmd_simulate)

    interpret = subparsers.add_parser("interpret", help="run SPIRE over a trace")
    interpret.add_argument("trace", help="trace file written by 'simulate'")
    interpret.add_argument("-o", "--output", required=True, help="event stream output path")
    interpret.add_argument("--compression", type=int, choices=(1, 2), default=2)
    interpret.set_defaults(func=cmd_interpret)

    evaluate = subparsers.add_parser("evaluate", help="simulate + interpret + score",
                                     parents=[seed_parent])
    _add_config_arguments(evaluate)
    evaluate.add_argument("--compression", type=int, choices=(1, 2), default=2)
    evaluate.add_argument("--smurf", action="store_true", help="also run the SMURF baseline")
    evaluate.set_defaults(func=cmd_evaluate)

    decompress = subparsers.add_parser(
        "decompress", help="expand a level-2 event stream to level-1 (§V-C)"
    )
    decompress.add_argument("events", help="level-2 event stream file")
    decompress.add_argument("-o", "--output", required=True, help="level-1 output path")
    decompress.set_defaults(func=cmd_decompress)

    chaos = subparsers.add_parser(
        "chaos", help="run a simulation under an injected fault schedule",
        parents=[seed_parent, workers_parent, metrics_parent],
    )
    _add_config_arguments(chaos)
    chaos.add_argument("--compression", type=int, choices=(1, 2), default=2)
    chaos.add_argument(
        "--schedule",
        help="JSON fault schedule file (see docs/FAULTS.md); overrides the flags below",
    )
    chaos.add_argument("--fault-seed", type=int, default=7, help="injector RNG seed")
    chaos.add_argument("--outage-epochs", type=int, default=50,
                       help="length of the shelf-reader outage (0 disables)")
    chaos.add_argument("--outage-start", type=int, default=200)
    chaos.add_argument("--drop-rate", type=float, default=0.02,
                       help="per-batch drop probability")
    chaos.add_argument("--delay-rate", type=float, default=0.05,
                       help="per-batch delay probability")
    chaos.add_argument("--dup-rate", type=float, default=0.0,
                       help="per-batch duplication probability")
    chaos.add_argument("--max-delay", type=int, default=3,
                       help="injector max delay and ingestion watermark lag (epochs)")
    chaos.add_argument("--health-k", type=float, default=3.0,
                       help="reader-health silence tolerance in interrogation periods")
    chaos.add_argument("--max-degradation", type=float, default=None,
                       help="fail (exit 1) if F-measure degrades by more than this many points")
    chaos.add_argument(
        "--remote-workers", type=int, default=None,
        help="run the faulted engine over this many localhost TCP worker "
             "daemons; net_delay/net_partition/worker_crash "
             "entries in --schedule apply to the transport (docs/FAULTS.md)",
    )
    chaos.set_defaults(func=cmd_chaos)

    worker = subparsers.add_parser(
        "worker", help="run one remote zone-worker daemon (TCP)"
    )
    worker.add_argument("--host", default="127.0.0.1")
    worker.add_argument("--port", type=int, default=0,
                        help="TCP port (0 picks a free one and prints it)")
    worker.add_argument("--name", default=None,
                        help="identity reported in the HELLO handshake")
    worker.set_defaults(func=cmd_worker)

    bench = subparsers.add_parser(
        "bench", help="run the Table III speed sweep (writes BENCH_table3.json)",
        parents=[seed_parent, metrics_parent],
    )
    bench.add_argument(
        "--milestones", type=int, nargs="+", default=None,
        help="node-count milestones to window costs at (default: 2k 4k 8k 12k)",
    )
    bench.add_argument("--cases", type=int, default=5, help="cases per pallet")
    bench.add_argument("-o", "--output", default=None,
                       help="write the JSON payload here (e.g. BENCH_table3.json)")
    bench.add_argument("--check-against", default=None,
                       help="baseline payload to gate against (exit 1 on regression)")
    bench.add_argument("--max-regression", type=float, default=0.25,
                       help="allowed fractional avg-epoch regression vs the baseline")
    bench.add_argument(
        "--remote-workers", type=int, default=None,
        help="also run the remote-transport determinism sweep over this many "
             "localhost TCP workers; adds a 'remote' section to the payload "
             "and fails (exit 1) if its stream diverges from serial",
    )
    bench.add_argument(
        "--remote-schedule", default=None,
        help="JSON transport-fault schedule for the remote sweep "
             "(net_* and worker_crash kinds only; see docs/FAULTS.md)",
    )
    bench.add_argument(
        "--fanout", action="store_true",
        help="also run the subscription fan-out bench at the largest "
             "milestone (shared fan-out tree, shared-vs-independent "
             "equivalence); adds a 'fanout' section "
             "and fails (exit 1) on any floor violation",
    )
    bench.add_argument("--fanout-subscribers", type=int, default=10_000,
                       help="subscriber count for the fan-out bench")
    bench.add_argument("--fanout-distinct", type=int, default=100,
                       help="distinct pattern count for the fan-out bench")
    bench.set_defaults(func=cmd_bench)

    query = subparsers.add_parser("query", help="query a persisted event stream")
    query.add_argument("events", help="event stream file written by 'interpret'")
    query.add_argument("--object", type=parse_tag, required=True, help="e.g. case:3")
    query.add_argument("--at", type=int, help="epoch to query")
    query.add_argument("--path", action="store_true", help="print the full trajectory")
    query.add_argument(
        "--tree",
        action="store_true",
        help="with --at: print the containment tree of the object's top-level container",
    )
    query.add_argument(
        "--decompress",
        action="store_true",
        help="treat the input as a level-2 stream and decompress first",
    )
    query.add_argument(
        "--index-cache",
        default=None,
        help="snapshot file to persist/reload the built index (keyed on the "
             "event file's sha256; stale or corrupt caches are rebuilt)",
    )
    query.set_defaults(func=cmd_query)

    serve = subparsers.add_parser(
        "serve", help="replay a trace and serve continuous queries over TCP",
        parents=[workers_parent, metrics_parent],
    )
    serve.add_argument("trace", help="trace file written by 'simulate'")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 picks a free one and prints it)")
    serve.add_argument("--compression", type=int, choices=(1, 2), default=2)
    serve.add_argument("--epoch-interval", type=float, default=0.0,
                       help="seconds between epochs (approximate a live stream)")
    serve.add_argument("--epochs", dest="epochs", type=int, default=None,
                       help="stop after this many epochs (default: whole trace)")
    serve.add_argument("--linger", type=float, default=0.0,
                       help="keep serving queries this many seconds after the "
                            "stream is exhausted")
    serve.add_argument("--evict-after", type=int, default=0,
                       help="evict a subscriber after this many consecutive "
                            "overflowing epochs (0 disables eviction)")
    serve.add_argument("--state", default=None,
                       help="subscription state file: restore standing "
                            "patterns from it on start and save them on "
                            "shutdown")
    serve.set_defaults(func=cmd_serve)

    client = subparsers.add_parser(
        "client", help="connect to a running 'serve' instance"
    )
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, required=True)
    client.add_argument("--object", type=parse_tag, help="e.g. case:3 (with --at)")
    client.add_argument("--at", type=int, help="epoch to query")
    client.add_argument(
        "--subscribe", action="append", metavar="PATTERN",
        help="follow a standing pattern (repeatable; notifications are "
             "prefixed with their #id when several are active): a shorthand "
             "— tail[:PLACE], object:LEVEL:SERIAL, place:PLACE, dwell:PLACE:K, "
             "missing:K, anomaly:PLACE — or full pattern source, e.g. "
             "\"PATTERN SEQ(arrival a, !departure d) WHERE a.place == 3 AND "
             "d.obj == a.obj WITHIN 50 EPOCHS\"",
    )
    client.add_argument("--count", type=int, default=None,
                        help="with --subscribe: exit after this many notifications")
    client.add_argument("--timeout", type=float, default=30.0,
                        help="with --subscribe: per-notification wait (seconds)")
    client.add_argument("--stats", action="store_true",
                        help="print the server's serving counters and exit")
    client.add_argument("--metrics", action="store_true",
                        help="print the server's Prometheus metrics scrape and exit")
    client.set_defaults(func=cmd_client)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
