"""The one inference path, pinned (DESIGN.md §8).

Until PR 15 a version-keyed decision cache (``Spire(incremental=True)``) ran
beside the plain path and this file asserted that both emitted the same
stream.  The cache is gone; the stream SHA-256 of every scenario below was
recorded at the last commit that had both paths, where they agreed, and the
surviving path must keep reproducing it — across clean runs, chaos-injected
runs with reader outages, and checkpoint round-trips.  The dirty set stays
as a per-epoch diagnostic and is tested as such.

(The file and test names predate the removal: the test ids are pinned by
the suite's floor list.)
"""

from __future__ import annotations

import hashlib
import io
import struct

import pytest

from repro.core.capture import ReaderInfo
from repro.core.checkpoint import dumps_spire, load_checkpoint, save_checkpoint
from repro.core.graph import Graph
from repro.core.interpretation import Estimate, InterpretationResult, LocationSource
from repro.core.params import InferenceParams
from repro.core.pipeline import CurrentEstimate, Deployment, Spire
from repro.model.locations import UNKNOWN_COLOR
from repro.events.codec import encode_stream
from repro.faults import (
    DelayBatches,
    DropBatches,
    FaultInjector,
    ReaderOutage,
    ResilientStream,
)
from repro.simulator.config import SimulationConfig
from repro.simulator.warehouse import WarehouseSimulator

from tests.conftest import case, epoch_readings, item, make_deployment
from tests.test_failover import warehouse_zones

DOCK = ReaderInfo(reader_id=0, color=0)
SHELF = ReaderInfo(reader_id=1, color=1, period=5)
DEPLOYMENT = make_deployment(DOCK, SHELF)

#: sha256(encode_stream(all messages)) per scenario seed, recorded at commit
#: 8dbb1c5 with ``incremental=True`` and ``False`` (identical in every case)
CLEAN_SHA256 = {
    3: "5a79e1c24d489439481bc002fafb0f9bc97a44374f9582a84d53e3ff742ea8c4",
    11: "5b4918b3f5a725855e8a474cb4897f21a10df539fc54e78709540e12d1a46517",
    29: "2ae841a400c77073c26c2e6b832cd0f216195cce00f35f8cdb2fa24f8f9a5380",
}
#: the same digest of the chaos scenarios; 008945c emitted these streams
#: with no reader-health monitor attached
CHAOS_SHA256 = {
    5: "7bba3a2126ec462a9bf121c511e503db76de3697667cf28eb7d3aef6474a293d",
    23: "c4519843f85008e797717205394dad03fc124fa5ca91968a6773f22c63546eeb",
}
#: checkpoint size of the seed-7 substrate at epoch 120 (18 nodes) at 8dbb1c5
PARENT_CHECKPOINT_BYTES = 7435
#: sha256 of the seed-7 checkpoint at epoch 125 (37 nodes, 38 edges) from
#: the end of its pickled config blob on — every flat section —
#: recorded at 26f255b, before the edge section was filled by columns,
#: less the trailing dedup section that format 3 dropped (8 + 16 x 37 bytes)
CHECKPOINT_SECTIONS_SHA256 = "2224a74be7e7b735ec5474298998c44bd0c8512eaa24309f260cab5ddc060b08"


def _sim(seed: int, duration: int = 500) -> "WarehouseSimulator":
    config = SimulationConfig(
        duration=duration,
        pallet_period=120,
        cases_per_pallet_min=3,
        cases_per_pallet_max=3,
        items_per_case=5,
        read_rate=0.85,
        shelf_read_period=20,
        num_shelves=2,
        shelving_time_mean=150,
        shelving_time_jitter=40,
        seed=seed,
    )
    return WarehouseSimulator(config).run()


def _chaos(seed: int):
    """The seed's scenario behind fixed-seed fault injection (outage + drops
    + delays) and the resilient front-end: ``(sim, epochs)``."""
    sim = _sim(seed, duration=400)
    shelves = [r for r in sim.layout.readers if "shelf" in r.location.name]
    schedule = [
        ReaderOutage(reader_id=shelves[0].reader_id, start=100, duration=60),
        DropBatches(rate=0.03),
        DelayBatches(rate=0.05, max_delay=3),
    ]
    injector = FaultInjector(sim.stream, schedule, seed=seed)
    epochs = list(
        ResilientStream(
            injector,
            max_delay=3,
            known_readers=[r.reader_id for r in sim.layout.readers],
        )
    )
    return sim, epochs


def _spire(cls, sim) -> Spire:
    """A level-2 substrate of class ``cls`` over the scenario's deployment."""
    deployment = Deployment.from_readers(sim.layout.readers, sim.layout.registry)
    return cls(deployment, InferenceParams())


def _stream_sha256(sim, epochs) -> str:
    """Run the pipeline over ``epochs`` and digest its encoded stream."""
    spire = _spire(Spire, sim)
    messages = []
    for readings in epochs:
        messages.extend(spire.process_epoch(readings).messages)
    return hashlib.sha256(encode_stream(messages)).hexdigest()


class TestEquivalence:
    """The stream is the contract: it equals what both paths used to emit."""

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_clean_run_byte_identical(self, seed):
        sim = _sim(seed)
        assert _stream_sha256(sim, sim.stream) == CLEAN_SHA256[seed]

    @pytest.mark.parametrize("seed", [5, 23])
    def test_chaos_run_byte_identical(self, seed):
        """Fixed-seed fault injection (outage + drops + delays) through the
        resilient front-end: the pinned stream includes the outage window,
        where objects last seen at the dead reader decay like any unread
        object."""
        sim, epochs = _chaos(seed)
        assert _stream_sha256(sim, epochs) == CHAOS_SHA256[seed]

    def test_same_process_runs_deterministic(self):
        """Two identical pipelines in one process emit identical streams
        (guards the tag-ordered candidate iteration; identity-hash order
        used to leak allocation addresses into tie-breaking)."""
        sim = _sim(seed=13, duration=300)
        deployment = Deployment.from_readers(sim.layout.readers, sim.layout.registry)
        streams = []
        for _ in range(2):
            spire = Spire(deployment, InferenceParams(), compression_level=2)
            messages = []
            for readings in sim.stream:
                messages.extend(str(m) for m in spire.process_epoch(readings).messages)
            streams.append(messages)
        assert streams[0] == streams[1]

    def test_checkpoint_roundtrip_preserves_incremental_state(self):
        """A substrate restored at epoch 120 continues exactly like the one
        it was saved from; its checkpoint no longer carries the four cache
        columns per node nor the expiry-heap and hold sections."""
        sim = _sim(seed=7, duration=240)
        deployment = Deployment.from_readers(sim.layout.readers, sim.layout.registry)
        spire = Spire(deployment, InferenceParams())
        epochs = list(sim.stream)
        for readings in epochs[:120]:
            spire.process_epoch(readings)
        buffer = io.BytesIO()
        save_checkpoint(spire, buffer)
        saved = 32 * spire.graph.node_count + 16  # 4 columns/node + 2 section counts
        assert len(buffer.getvalue()) <= PARENT_CHECKPOINT_BYTES - saved
        buffer.seek(0)
        restored = load_checkpoint(buffer)
        for readings in epochs[120:]:
            a = [str(m) for m in spire.process_epoch(readings).messages]
            b = [str(m) for m in restored.process_epoch(readings).messages]
            assert a == b


def _apply_every_estimate(self, result, now):
    """``Spire._apply_result`` without the no-delta short-circuit: every
    estimate overwrites the store and is handed to the compressor (the
    reference the short-circuit is compared against)."""
    messages = []
    for estimate in sorted(result, key=lambda e: e.tag):
        estimate.exiting = estimate.tag in self.updater.exiting
        current = self.estimates.get(estimate.tag)
        if estimate.source is LocationSource.WITHHELD:
            location = current.location if current is not None else UNKNOWN_COLOR
        else:
            location = estimate.location
        self.estimates[estimate.tag] = CurrentEstimate(
            location=location,
            container=estimate.container,
            observed=estimate.observed,
            updated_at=now,
        )
        if estimate.source is LocationSource.WITHHELD and current is None:
            continue
        messages.extend(
            self.compressor.observe(estimate.tag, location, estimate.container, now)
        )
    return messages


class _NaiveSpire(Spire):
    _apply_result = _apply_every_estimate


def _assert_same_epochs(real: Spire, naive: Spire, epochs) -> int:
    """Feed both substrates; every epoch's messages and the stores agree.
    Returns how many ``observe`` calls the short-circuit skipped."""
    skipped = 0
    for readings in epochs:
        expected = naive.process_epoch(readings)
        observed = real.process_epoch(readings)
        assert observed.messages == expected.messages, f"epoch {readings.epoch}"
        assert real.estimates == naive.estimates, f"epoch {readings.epoch}"
        skipped += len(expected.result) - len(observed.messages)
    return skipped


class TestNoDeltaShortCircuit:
    """``Spire._apply_result`` skips the compressor for an estimate the
    store already holds and the compressor was already told; the emitted
    stream and the store must equal those of an applier that skips nothing."""

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_clean_runs_emit_what_the_naive_applier_emits(self, seed):
        sim = _sim(seed)
        assert _assert_same_epochs(_spire(Spire, sim), _spire(_NaiveSpire, sim), sim.stream)

    @pytest.mark.parametrize("seed", [5, 23])
    def test_chaos_runs_emit_what_the_naive_applier_emits(self, seed):
        sim, epochs = _chaos(seed)
        _assert_same_epochs(_spire(Spire, sim), _spire(_NaiveSpire, sim), epochs)

    def test_restored_substrate_keeps_emitting_the_same(self):
        """Checkpoint at epoch 120 -> restore -> continue: the restored
        store and compressor states still pair up."""
        sim = _sim(seed=7, duration=240)
        epochs = list(sim.stream)
        real, naive = _spire(Spire, sim), _spire(_NaiveSpire, sim)
        _assert_same_epochs(real, naive, epochs[:120])
        buffer = io.BytesIO()
        save_checkpoint(real, buffer)
        buffer.seek(0)
        _assert_same_epochs(load_checkpoint(buffer), naive, epochs[120:])

    def test_migrations_emit_the_same(self, monkeypatch):
        """Objects handed between zones are released (store entry and
        compressor state dropped together) and adopted (neither created):
        the adopting zone's first estimate must reach its compressor."""

        def run():
            sim, coordinator = warehouse_zones(duration=300, checkpoint_interval=None)
            results = [coordinator.process_epoch(readings) for readings in sim.stream]
            assert sum(len(r.handoffs) for r in results) > 0
            return [r.messages for r in results]

        real = run()
        monkeypatch.setattr(Spire, "_apply_result", _apply_every_estimate)
        assert real == run()

    def test_withheld_first_estimate_is_stored_but_still_reported_later(self):
        """The trap: a brand-new object whose first estimate is WITHHELD
        enters the store unreported; the same pair next epoch equals the
        store but has never reached the compressor, and must."""
        spire = Spire(DEPLOYMENT, InferenceParams())

        def estimate(now):
            result = InterpretationResult(epoch=now, complete=False)
            result.add(Estimate(item(1), UNKNOWN_COLOR, 1.0, LocationSource.WITHHELD, None))
            return result

        assert spire._apply_result(estimate(1), 1) == []
        assert spire.estimates[item(1)].location == UNKNOWN_COLOR
        assert spire.compressor.state_of(item(1)) is None  # stored, never reported
        spire._apply_result(estimate(2), 2)
        assert spire.compressor.state_of(item(1)) is not None
        assert spire.compressor.state_of(item(1)).is_missing
        assert spire.estimates[item(1)].updated_at == 2


def test_checkpoint_sections_byte_identical():
    """The encoder may be rearranged, the bytes may not move (format 3).
    The config blob is left out: it is a pickle, whose bytes are the
    interpreter's business."""
    sim = _sim(seed=7, duration=240)
    spire = _spire(Spire, sim)
    for readings in list(sim.stream)[:125]:
        spire.process_epoch(readings)
    assert (spire.graph.node_count, spire.graph.edge_count) == (37, 38)
    data = dumps_spire(spire)
    blob_at = len(b"SPIREfast") + 2
    (blob_len,) = struct.unpack_from("<Q", data, blob_at)
    sections = data[blob_at + 8 + blob_len :]
    assert hashlib.sha256(sections).hexdigest() == CHECKPOINT_SECTIONS_SHA256


class TestDirtyTracking:
    def test_new_node_is_dirty(self):
        graph = Graph()
        graph.begin_epoch()
        node = graph.get_or_create(item(1), now=0)
        assert node in graph.dirty_nodes()
        assert graph.dirty_count == 1

    def test_unchanged_recolor_not_dirty(self):
        graph = Graph()
        graph.begin_epoch()
        node = graph.get_or_create(item(1), now=0)
        graph.set_color(node, 1, now=0)
        graph.finalize_epoch()
        # same color next epoch: no color-state change
        graph.begin_epoch()
        graph.set_color(node, 1, now=1)
        graph.finalize_epoch()
        assert node not in graph.dirty_nodes()

    def test_color_change_is_dirty(self):
        graph = Graph()
        graph.begin_epoch()
        node = graph.get_or_create(item(1), now=0)
        graph.set_color(node, 1, now=0)
        graph.finalize_epoch()
        graph.begin_epoch()
        graph.set_color(node, 2, now=1)
        assert node in graph.dirty_nodes()

    def test_lost_color_is_dirty(self):
        """A node colored last epoch but unobserved this epoch changed
        state (colored -> uncolored) and must enter the dirty set."""
        graph = Graph()
        graph.begin_epoch()
        node = graph.get_or_create(item(1), now=0)
        graph.set_color(node, 1, now=0)
        graph.finalize_epoch()
        graph.begin_epoch()
        graph.finalize_epoch()
        assert node in graph.dirty_nodes()

    def test_edge_change_bumps_child_version_only(self):
        """Adding or removing an edge dirties both endpoints."""
        graph = Graph()
        graph.begin_epoch()
        parent = graph.get_or_create(case(1), now=0)
        child = graph.get_or_create(item(1), now=0)
        graph.begin_epoch()  # next epoch: the creations are no longer dirty
        edge = graph.add_edge(parent, child, now=1)
        assert set(graph.dirty_nodes()) == {parent, child}
        graph.begin_epoch()
        graph.remove_edge(edge)
        assert set(graph.dirty_nodes()) == {parent, child}

    def test_history_value_change_bumps_version(self):
        """A history push that changes the stored value dirties the child;
        a push into a saturated history of the same bit does not."""
        spire = Spire(DEPLOYMENT, InferenceParams(history_size=4))
        both = {0: [case(1), item(1)]}
        for epoch in range(4):  # filling: (history, filled) changes every epoch
            spire.process_epoch(epoch_readings(epoch, both))
            child = spire.graph.node(item(1))
            assert child in spire.graph.dirty_nodes()
        edge = child.parents[case(1)]
        assert edge.history == 0b1111 and edge.filled == 4
        spire.process_epoch(epoch_readings(4, both))  # saturated all-ones + 1
        assert child not in spire.graph.dirty_nodes()
        assert not edge.push_history(True, size=4)
        assert edge.push_history(False, size=4)

    def test_pipeline_reports_dirty_nodes(self):
        spire = Spire(DEPLOYMENT)
        out = spire.process_epoch(epoch_readings(0, {0: [case(1), item(1)]}))
        assert out.dirty_nodes >= 2
