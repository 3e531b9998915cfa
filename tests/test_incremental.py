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

import pytest

from repro.core.capture import ReaderInfo
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.graph import Graph
from repro.core.params import InferenceParams
from repro.core.pipeline import Deployment, Spire
from repro.events.codec import encode_stream
from repro.faults import (
    DelayBatches,
    DropBatches,
    FaultInjector,
    ReaderHealthMonitor,
    ReaderOutage,
    ResilientStream,
)
from repro.simulator.config import SimulationConfig
from repro.simulator.warehouse import WarehouseSimulator

from tests.conftest import case, epoch_readings, item, make_deployment

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
CHAOS_SHA256 = {
    5: "02f9a3dc7a8184577f8639b8e2eccb30d193f6f79d2980698707c47c2a47b0ff",
    23: "5f3317c9a5dad9f67e4f8400ac7950c0d1cd7ac0b791cee32438d760c8402ef5",
}
#: checkpoint size of the seed-7 substrate at epoch 120 (18 nodes) at 8dbb1c5
PARENT_CHECKPOINT_BYTES = 7435


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


def _stream_sha256(sim, epochs, health: bool) -> str:
    """Run the pipeline over ``epochs`` and digest its encoded stream."""
    deployment = Deployment.from_readers(sim.layout.readers, sim.layout.registry)
    spire = Spire(
        deployment,
        InferenceParams(),
        compression_level=2,
        health=ReaderHealthMonitor(deployment.readers) if health else None,
    )
    messages = []
    for readings in epochs:
        messages.extend(spire.process_epoch(readings).messages)
    return hashlib.sha256(encode_stream(messages)).hexdigest()


class TestEquivalence:
    """The stream is the contract: it equals what both paths used to emit."""

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_clean_run_byte_identical(self, seed):
        sim = _sim(seed)
        assert _stream_sha256(sim, sim.stream, health=False) == CLEAN_SHA256[seed]

    @pytest.mark.parametrize("seed", [5, 23])
    def test_chaos_run_byte_identical(self, seed):
        """Fixed-seed fault injection (outage + drops + delays) through the
        resilient front-end, with the reader-health monitor attached: the
        pinned stream includes the suppression windows."""
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
        assert _stream_sha256(sim, epochs, health=True) == CHAOS_SHA256[seed]

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
