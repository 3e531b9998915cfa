"""Fast, slots-aware binary serialization of a running :class:`Spire`.

The payload behind :mod:`repro.core.checkpoint`'s magic prefix.  Pickling
a whole substrate walks the object graph recursively, which is slow *and*
fragile: the node ↔ edge reference chains of a 6k-node containment graph
exceed CPython's default recursion limit, so ``pickle.dump`` raises
``RecursionError`` exactly when checkpoints matter most.  This module is a
versioned, field-batched encoder that writes the ``__slots__`` of the hot
objects (graph nodes, edges, estimates, compressor states) into flat
``struct``/``array`` sections — no recursion, a few Python-level loops,
and a fraction of the bytes.

Only the small configuration objects (deployment, inference params) go
through pickle, inside one length-prefixed blob; they are bounded by the
reader count, not the object population.  Checkpoint
bytes also arrive from peers (``MSG_INSTALL`` on a worker's TCP port), so
the blob is decoded by :class:`_ConfigUnpickler`, which resolves only the
classes a real blob references and refuses everything else.

**Fidelity contract**: decoding must reproduce the source substrate
*bit-for-bit* with respect to future output — including dict insertion
orders.  ``node.parents`` / ``node.children`` iteration order feeds float
accumulation in edge and node inference, so edges are stored in
children-insertion order (restoring every ``children`` dict) plus a
per-node parent-key list (restoring every ``parents`` dict).  Sets
(``_colored``, ``_dirty``, the ``_by_level_color`` index) are rebuilt from
node state; their iteration order is identity-based and never reaches the
output (guarded by the equivalence tests).
"""

from __future__ import annotations

import io
import pickle
import struct
import sys
from array import array

from repro.compression.level1 import ObjectState, RangeCompressor
from repro.compression.level2 import ContainmentCompressor
from repro.core.graph import GraphEdge, GraphNode
from repro.core.pipeline import CurrentEstimate, Spire
from repro.model.objects import TagId

#: bump when the section layout changes shape
FAST_FORMAT_VERSION = 4

#: sentinel for "None" in signed int fields (colors are small ints and
#: UNKNOWN_COLOR is -1, so any huge negative works)
_NONE = -(1 << 62)

#: edge history bit-vectors are split into two signed-63-bit halves; the
#: default history size is 32 bits, so this bound is far from real configs
_MAX_HISTORY_BITS = 124
_HIST_LO_BITS = 62
_HIST_LO_MASK = (1 << _HIST_LO_BITS) - 1

_HEADER = struct.Struct("<BB")  # format version, byteorder (1 = little)
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

_NODE_INTS = 9
_EDGE_INTS = 7
_ESTIMATE_INTS = 5
_STATE_INTS = 7

_BYTEORDER_CODE = 1 if sys.byteorder == "little" else 0


class FastCheckpointError(ValueError):
    """Raised when a substrate cannot be encoded or bytes cannot be decoded."""


#: every global a config blob written by :func:`encode_spire` references
_CONFIG_CLASSES = frozenset({
    ("repro.core.capture", "ReaderInfo"),
    ("repro.core.params", "InferenceParams"),
    ("repro.core.pipeline", "Deployment"),
    ("repro.model.locations", "Location"),
    ("repro.model.locations", "LocationKind"),
    ("repro.model.locations", "LocationRegistry"),
    ("repro.model.objects", "PackagingLevel"),
})


class _ConfigUnpickler(pickle.Unpickler):
    """Unpickler for the config blob: unpickling may import and call any
    global the bytes name, so only :data:`_CONFIG_CLASSES` resolve."""

    def find_class(self, module: str, name: str):
        if (module, name) not in _CONFIG_CLASSES:
            raise pickle.UnpicklingError(
                f"config blob references {module}.{name}, which no checkpoint "
                f"written by this library contains"
            )
        return super().find_class(module, name)


def _opt(value: int | None) -> int:
    return _NONE if value is None else value


def _opt_back(value: int) -> int | None:
    return None if value == _NONE else value


def _opt_key(tag: TagId | None) -> int:
    return 0 if tag is None else tag.key()


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def _write_ints(out: bytearray, count: int, ints: array) -> None:
    out += _U64.pack(count)
    out += ints.tobytes()


def encode_spire(spire: Spire) -> bytes:
    """Serialise ``spire`` into the fast binary checkpoint payload."""
    params = spire.params
    if params.history_size > _MAX_HISTORY_BITS:
        raise FastCheckpointError(
            f"history_size {params.history_size} exceeds the fast-codec bound "
            f"of {_MAX_HISTORY_BITS} bits"
        )
    compressor = spire.compressor
    if isinstance(compressor, ContainmentCompressor):
        inner = compressor._inner
    elif isinstance(compressor, RangeCompressor):
        inner = compressor
    else:
        raise FastCheckpointError(
            f"unsupported compressor type {type(compressor).__name__}"
        )

    graph = spire.graph
    config = {
        "deployment": spire.deployment,
        "params": params,
        "compression_level": spire.compression_level,
        "complete_period": spire._complete_period,
        "epochs_processed": spire._epochs_processed,
        "last_epoch": spire._last_epoch,
        "updater_exiting": sorted(tag.key() for tag in spire.updater.exiting),
        "compressor_emit": (inner._emit_location, inner._emit_containment),
    }
    blob = pickle.dumps(config, protocol=pickle.HIGHEST_PROTOCOL)

    out = bytearray()
    out += _HEADER.pack(FAST_FORMAT_VERSION, _BYTEORDER_CODE)
    out += _U64.pack(len(blob))
    out += blob

    # --- nodes (graph insertion order) ---------------------------------
    nodes = list(graph._nodes.values())
    keys = {n: n.tag.key() for n in nodes}
    ints = array("q")
    ext = ints.extend
    for n in nodes:
        ext((
            keys[n],
            _opt(n.color),
            _opt(n.prev_color),
            _opt(n.recent_color),
            n.seen_at,
            _opt_key(n.confirmed_parent),
            n.confirmed_at,
            n.confirmed_conflicts,
            n.created_at,
        ))
    _write_ints(out, len(nodes), ints)

    # --- edges (children-insertion order per parent, parents in node
    # order) + per-node parents-insertion order; the interleaved 7-int /
    # 2-float rows are filled one column at a time ---------------------
    edges = [edge for parent in nodes for edge in parent.children.values()]
    ints = array("q", bytes(8 * _EDGE_INTS * len(edges)))
    ints[0::_EDGE_INTS] = array("q", [keys[e.parent] for e in edges])
    ints[1::_EDGE_INTS] = array("q", [keys[e.child] for e in edges])
    ints[2::_EDGE_INTS] = array("q", [e.history & _HIST_LO_MASK for e in edges])
    ints[3::_EDGE_INTS] = array("q", [e.history >> _HIST_LO_BITS for e in edges])
    ints[4::_EDGE_INTS] = array("q", [e.filled for e in edges])
    ints[5::_EDGE_INTS] = array("q", [e.created_at for e in edges])
    ints[6::_EDGE_INTS] = array("q", [e.update_time for e in edges])
    floats = array("d", bytes(8 * 2 * len(edges)))
    floats[0::2] = array("d", [e.prob for e in edges])
    floats[1::2] = array("d", [e.confidence for e in edges])
    _write_ints(out, len(edges), ints)
    out += floats.tobytes()

    order = array("q")
    ext = order.extend
    for n in nodes:
        parents = n.parents
        ext((len(parents),))
        if parents:
            ext([keys[e.parent] for e in parents.values()])
    _write_ints(out, len(order), order)

    # --- graph side state ----------------------------------------------
    _write_ints(
        out,
        len(graph._dirty),
        array("q", sorted(n.tag.key() for n in graph._dirty)),
    )

    # --- estimate store (insertion order) ------------------------------
    ints = array("q")
    ext = ints.extend
    for tag, est in spire.estimates.items():
        ext((
            tag.key(),
            est.location,
            _opt_key(est.container),
            1 if est.observed else 0,
            est.updated_at,
        ))
    _write_ints(out, len(spire.estimates), ints)

    # --- compressor states (insertion order) ---------------------------
    ints = array("q")
    ext = ints.extend
    for tag, state in inner._states.items():
        loc = state.location
        cont = state.containment
        ext((
            tag.key(),
            loc[0] if loc is not None else _NONE,
            loc[1] if loc is not None else _NONE,
            _opt(state.last_place),
            1 if state.is_missing else 0,
            cont[0].key() if cont is not None else 0,
            cont[1] if cont is not None else _NONE,
        ))
    _write_ints(out, len(inner._states), ints)

    return bytes(out)


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


class _Cursor:
    __slots__ = ("data", "offset")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def u64(self) -> int:
        (value,) = _U64.unpack_from(self.data, self.offset)
        self.offset += 8
        return value

    def ints(self, count: int) -> array:
        arr = array("q")
        end = self.offset + 8 * count
        arr.frombytes(self.data[self.offset : end])
        self.offset = end
        return arr

    def floats(self, count: int) -> array:
        arr = array("d")
        end = self.offset + 8 * count
        arr.frombytes(self.data[self.offset : end])
        self.offset = end
        return arr

    def blob(self) -> bytes:
        length = self.u64()
        end = self.offset + length
        chunk = self.data[self.offset : end]
        self.offset = end
        return chunk


def decode_spire(data: bytes) -> Spire:
    """Rebuild a substrate from :func:`encode_spire` output."""
    if len(data) < _HEADER.size:
        raise FastCheckpointError("truncated fast checkpoint (no header)")
    version, byteorder = _HEADER.unpack_from(data, 0)
    if version != FAST_FORMAT_VERSION:
        raise FastCheckpointError(
            f"fast checkpoint format {version} incompatible with "
            f"{FAST_FORMAT_VERSION}"
        )
    if byteorder != _BYTEORDER_CODE:
        raise FastCheckpointError(
            "fast checkpoint written on a machine with different byte order"
        )
    cur = _Cursor(data)
    cur.offset = _HEADER.size
    try:
        config = _ConfigUnpickler(io.BytesIO(cur.blob())).load()
    except Exception as exc:
        raise FastCheckpointError(f"corrupt config blob: {exc}") from exc

    spire = Spire(
        config["deployment"],
        config["params"],
        compression_level=config["compression_level"],
        complete_period=config["complete_period"],
    )
    spire._epochs_processed = config["epochs_processed"]
    spire._last_epoch = config["last_epoch"]
    spire.updater.exiting = {TagId.from_key(key) for key in config["updater_exiting"]}
    emit_location, emit_containment = config["compressor_emit"]
    if spire.compression_level == 1 and (emit_location, emit_containment) != (True, True):
        spire.compressor = RangeCompressor(emit_location, emit_containment)
    inner = (
        spire.compressor._inner
        if isinstance(spire.compressor, ContainmentCompressor)
        else spire.compressor
    )

    from_key = TagId.from_key
    graph = spire.graph

    # --- nodes ----------------------------------------------------------
    node_count = cur.u64()
    ints = cur.ints(node_count * _NODE_INTS)
    nodes_by_key: dict[int, GraphNode] = {}
    graph_nodes = graph._nodes
    colored = graph._colored
    by_level_color = graph._by_level_color
    new_node = GraphNode.__new__
    base = 0
    for _ in range(node_count):
        key = ints[base]
        tag = from_key(key)
        node = new_node(GraphNode)
        node.tag = tag
        node.level = tag.level.value
        node.color = _opt_back(ints[base + 1])
        node.prev_color = _opt_back(ints[base + 2])
        node.recent_color = _opt_back(ints[base + 3])
        node.seen_at = ints[base + 4]
        cp = ints[base + 5]
        node.confirmed_parent = from_key(cp) if cp else None
        node.confirmed_at = ints[base + 6]
        node.confirmed_conflicts = ints[base + 7]
        node.created_at = ints[base + 8]
        node.parents = {}
        node.children = {}
        graph_nodes[tag] = node
        nodes_by_key[key] = node
        if node.color is not None:
            colored.add(node)
            by_level_color[node.level].setdefault(node.color, set()).add(node)
        base += _NODE_INTS
    graph._prev_colored = [n for n in graph_nodes.values() if n.prev_color is not None]

    # --- edges ----------------------------------------------------------
    edge_count = cur.u64()
    ints = cur.ints(edge_count * _EDGE_INTS)
    floats = cur.floats(edge_count * 2)
    edges_by_pair: dict[tuple[int, int], GraphEdge] = {}
    new_edge = GraphEdge.__new__
    base = 0
    fbase = 0
    for _ in range(edge_count):
        pk = ints[base]
        ck = ints[base + 1]
        parent = nodes_by_key[pk]
        child = nodes_by_key[ck]
        edge = new_edge(GraphEdge)
        edge.parent = parent
        edge.child = child
        edge.history = (ints[base + 3] << _HIST_LO_BITS) | ints[base + 2]
        edge.filled = ints[base + 4]
        edge.created_at = ints[base + 5]
        edge.update_time = ints[base + 6]
        edge.prob = floats[fbase]
        edge.confidence = floats[fbase + 1]
        parent.children[child.tag] = edge
        edges_by_pair[(pk, ck)] = edge
        base += _EDGE_INTS
        fbase += 2
    graph._edge_count = edge_count

    # parents dicts, in their original insertion order
    order_len = cur.u64()
    order = cur.ints(order_len)
    pos = 0
    for node in graph_nodes.values():
        count = order[pos]
        pos += 1
        ck = node.tag.key()
        parents = node.parents
        for _ in range(count):
            pk = order[pos]
            pos += 1
            edge = edges_by_pair[(pk, ck)]
            parents[edge.parent.tag] = edge

    # --- graph side state ----------------------------------------------
    dirty_count = cur.u64()
    dirty = cur.ints(dirty_count)
    graph._dirty = {nodes_by_key[key] for key in dirty}

    # --- estimate store -------------------------------------------------
    est_count = cur.u64()
    ints = cur.ints(est_count * _ESTIMATE_INTS)
    estimates = spire.estimates
    base = 0
    for _ in range(est_count):
        container = ints[base + 2]
        estimates[from_key(ints[base])] = CurrentEstimate(
            location=ints[base + 1],
            container=from_key(container) if container else None,
            observed=bool(ints[base + 3]),
            updated_at=ints[base + 4],
        )
        base += _ESTIMATE_INTS

    # --- compressor states ----------------------------------------------
    state_count = cur.u64()
    ints = cur.ints(state_count * _STATE_INTS)
    states = inner._states
    base = 0
    for _ in range(state_count):
        loc_place = ints[base + 1]
        cont_key = ints[base + 5]
        states[from_key(ints[base])] = ObjectState(
            location=(loc_place, ints[base + 2]) if loc_place != _NONE else None,
            last_place=_opt_back(ints[base + 3]),
            is_missing=bool(ints[base + 4]),
            containment=(from_key(cont_key), ints[base + 6]) if cont_key else None,
        )
        base += _STATE_INTS

    if cur.offset != len(data):
        raise FastCheckpointError(f"{len(data) - cur.offset} bytes past the fast checkpoint")
    return spire
