"""Pangenome graph data model, parsers, and graph-side preprocessing.

A pangenome graph is a directed graph whose vertices carry non-empty byte
labels.  A path through the graph "spells" the concatenation of its vertex
labels, and those spelled strings are the graph-side sequences that the
solver modules align queries against.

Inside the solvers a graph position is one coordinate, its character id:
node ``k`` of :func:`build_char_graph`, numbered label order within vertex
order, so the characters of one vertex have consecutive ids.  A (vertex,
offset) pair appears only where a result is built or read.

Preprocessing products computed here:

* :func:`reachability` -- dense vertex-to-vertex reachability (a directed
  path of at least one edge), as a closure over the strongly connected
  components: one Python-int bitset row per component, filled in the
  order the components complete and unpacked into the matrix once,
  refused past :data:`MAX_BYTES`; lcs, chaining and unbounded-gap fglcs
  use it.
* :func:`build_char_graph` -- the character-split graph, one node per label
  character.  It answers bounded distance questions by breadth-first
  search: :meth:`CharGraph.ball_pairs` lists every node pair at most ``r``
  arcs apart (the predecessor relation of gap-bounded fglcs) and
  :meth:`CharGraph.distance` gives one step's graph gap.
* :func:`char_distances` -- dense all-pairs minimum arc counts on the
  character-split graph, via Floyd-Warshall: cubic time and quadratic memory
  in the total label length.  No solver needs it; it backs the reference
  product-DAG construction of fglcs and the tests.

They are computed on first use and kept on the graph instance, so every
later call on that graph returns the same object: a batch of queries
against one :class:`PangenomeGraph` pays for its preprocessing once.

:func:`precedes` is the one graph-side step rule of all four reductions:
a position advances within one vertex's label (a lower character id comes
first), or a caller-given predicate (reachability, a bounded distance)
admits the cross-vertex step.  :class:`ReachMatrix` holds only its matrix;
it stays a type because the benchmark tracer reads ``.matrix`` off
:func:`reachability`'s result.

Labels are raw bytes and all comparisons are exact byte equality.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

log = logging.getLogger(__name__)

GRAPH_FORMATS = ("tsv", "gfa")
_T = TypeVar("_T")


class GraphError(ValueError):
    """Malformed graph input, an invalid path, or a bad vertex reference."""


def _as_bytes(value: bytes | str) -> bytes:
    if isinstance(value, str):
        return value.encode("latin-1")
    return bytes(value)


@dataclass(frozen=True)
class PangenomeGraph:
    """Vertex-labeled directed graph.

    ``ids`` are opaque vertex tokens, ``labels`` the parallel byte labels,
    and ``edges`` ordered pairs of vertex indices.  Duplicate edges are
    collapsed on construction; self-loops and cycles are allowed.  Instances
    are immutable (and hashable) after construction.

    The constructor checks ids, labels and edges in bulk, walking them one
    by one only to name the first offender, and converts the edges once
    into the (E, 2) int64 array that the numpy stages read.
    """

    ids: tuple[str, ...]
    labels: tuple[bytes, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        ids, labels, n = self.ids, self.labels, len(self.ids)
        if n != len(labels):
            raise GraphError("ids and labels must have equal length")
        if len(set(ids)) < n or not (set(map(type, labels)) <= {bytes} and all(labels)):
            _name_vertex_fault(ids, labels)  # bytes subclasses pass
        edges = tuple(dict.fromkeys(map(tuple, self.edges)))
        try:
            ends = np.fromiter(chain.from_iterable(edges), np.int64, 2 * len(edges)).reshape(-1, 2)
            valid = set(map(len, edges)) <= {2} and (not len(ends) or (ends.min() >= 0 and ends.max() < n))
        except (TypeError, ValueError, OverflowError):  # not integers, too few, or past int64
            valid = False
        if not valid:
            for u, v in edges:  # name the first offender
                if not (0 <= u < n and 0 <= v < n):
                    raise GraphError(f"edge ({u}, {v}) references a missing vertex")
            raise GraphError("edges must be pairs of vertex indices")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_ends", _freeze(ends))

    @classmethod
    def from_items(
        cls,
        vertices: Iterable[tuple[str, bytes | str]],
        edges: Iterable[tuple[str, str]] = (),
    ) -> "PangenomeGraph":
        """Build a graph from (id, label) pairs and id-level edges."""
        vertices = list(vertices)
        ids = [str(vid) for vid, _ in vertices]
        labels = [_as_bytes(label) for _, label in vertices]
        return cls._of_ends(ids, labels, [vid for src, dst in edges for vid in (src, dst)])

    @classmethod
    def _of_ends(cls, ids: list[str], labels: list[bytes], ends: list[str]) -> "PangenomeGraph":
        """Build a graph from its ids, labels and edge endpoint ids, the
        edges flat (source, target, source, target, ...); the first
        endpoint that names no vertex is an error."""
        index = dict(zip(ids, range(len(ids))))  # a repeated id maps to its last vertex
        try:
            found = list(map(index.__getitem__, ends))
        except KeyError as exc:
            raise GraphError(f"edge endpoint {exc.args[0]!r} is not a declared vertex") from None
        pairs = iter(found)
        graph = cls(tuple(ids), tuple(labels), tuple(zip(pairs, pairs)))
        vars(graph)["index"] = index  # the ids are distinct: it is the graph's index
        return graph

    @cached_property
    def index(self) -> dict[str, int]:
        return {vid: k for k, vid in enumerate(self.ids)}

    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self.ids)

    @cached_property
    def total_label_length(self) -> int:
        """Sum of all label lengths (the character count of the graph)."""
        return sum(len(label) for label in self.labels)

    def vertex_index(self, vid: str) -> int:
        try:
            return self.index[vid]
        except KeyError:
            raise GraphError(f"unknown vertex id {vid!r}") from None

    def label_of(self, vid: str) -> bytes:
        return self.labels[self.vertex_index(vid)]

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self._edge_set

    @cached_property
    def _edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)


def _name_vertex_fault(ids: Sequence[str], labels: Sequence[bytes]) -> None:
    """Raise the error of the first repeated id, or else of the first label
    that is not bytes or is empty, in vertex order."""
    seen: set[str] = set()
    for vid in ids:
        if vid in seen:
            raise GraphError(f"duplicate vertex id {vid!r}")
        seen.add(vid)
    for vid, label in zip(ids, labels):
        if not isinstance(label, bytes):
            raise GraphError(f"label of vertex {vid!r} must be bytes")
        if not label:
            raise GraphError(f"empty label for vertex {vid!r}")


def spell(graph: PangenomeGraph, path: Sequence[str]) -> bytes:
    """Concatenate the labels along ``path`` (a sequence of vertex ids).

    The path must be non-empty and every consecutive id pair must be an
    edge of ``graph``; a single vertex is a valid path.
    """
    if not path:
        raise GraphError("path must contain at least one vertex")
    idxs = [graph.vertex_index(vid) for vid in path]
    for a, b in zip(idxs, idxs[1:]):
        if not graph.has_edge(a, b):
            raise GraphError(
                f"consecutive pair ({graph.ids[a]!r}, {graph.ids[b]!r}) is not an edge"
            )
    return b"".join(graph.labels[k] for k in idxs)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def records(data: bytes | str) -> Iterator[tuple[int, list[bytes]]]:
    """The records of a line-oriented input file: ``(line number, tokens)``
    for every line that is neither blank nor a comment.

    Every input format (graph, instance, seed and DAG files) follows one
    rule: lines end at ``\\n``, ``\\r\\n`` or ``\\r``; tokens are separated
    by ASCII whitespace (space, tab, ``\\v``, ``\\f``); a line whose first
    token starts with ``#`` is a comment; every other byte is data.  A
    ``str`` argument stands for its latin-1 bytes.
    """
    for lineno, tokens in enumerate(map(bytes.split, _as_bytes(data).splitlines()), start=1):
        if tokens and tokens[0][0] != b"#"[0]:
            yield lineno, tokens


def token_text(token: bytes) -> str:
    """A token as text, one latin-1 code point per byte: the form of vertex
    ids, and of tokens quoted in error messages."""
    return token.decode("latin-1")


def token_texts(tokens: list[bytes]) -> list[str]:
    """:func:`token_text` of every token, decoded at once (a token never
    holds a line end)."""
    return b"\n".join(tokens).decode("latin-1").split("\n") if tokens else []


def parse_graph(text: bytes | str, fmt: str = "tsv") -> PangenomeGraph:
    """Parse a graph in the ``tsv`` or ``gfa`` subset format (records as
    :func:`records` splits them).

    TSV: ``V <id> <label>`` and ``E <src> <dst>`` records.

    GFA subset: ``S <id> <seq>`` and ``L <from> + <to> + <overlap>`` records;
    only ``+``/``+`` orientations are supported, the overlap column is
    ignored, and all other record types are skipped (a warning with the
    skip count is logged).
    """
    if fmt == "tsv":
        return read_tsv(text)[0]
    if fmt == "gfa":
        return read_gfa(text)[0]
    raise GraphError(f"unknown graph format {fmt!r} (expected one of {GRAPH_FORMATS})")


def read_tsv(
    data: bytes | str, seed_rows: list[tuple[int, list[bytes]]] | None = None
) -> tuple[PangenomeGraph, bytes | None]:
    """The graph, and the query or ``None``, of a TSV graph file, read in
    one loop over its records.  Vertex ids are decoded once, at the end.

    Given a ``seed_rows`` list, the file is an instance: ``Q`` and ``S``
    records are read too, each ``S`` record appended to ``seed_rows`` as
    (line number, tokens after the tag); a bad record raises after the
    ``S`` records before it are appended."""
    vertices: list[bytes] = []  # V records' tokens, flat
    edges: list[bytes] = []  # E records' tokens, flat
    query: bytes | None = None
    instance = seed_rows is not None
    for lineno, tokens in records(data):
        tag = tokens[0]
        if len(tokens) == 3 and tag == b"V":
            vertices += tokens
        elif len(tokens) == 3 and tag == b"E":
            edges += tokens
        elif instance and tag == b"S":
            seed_rows.append((lineno, tokens[1:]))
        elif instance and tag == b"Q" and query is None and len(tokens) <= 2:
            query = tokens[1] if len(tokens) == 2 else b""
        else:
            raise GraphError(f"line {lineno}: {_record_fault(tokens, instance, query)}")
    del edges[::3]  # the tags; source, target, source, ... remain
    n = len(vertices) // 3
    texts = token_texts(vertices[1::3] + edges)
    return PangenomeGraph._of_ends(texts[:n], vertices[2::3], texts[n:]), query


def _record_fault(tokens: list[bytes], instance: bool, query: bytes | None) -> str:
    """What is wrong with a record that :func:`read_tsv` refuses, the
    instance's query read so far being ``query``."""
    tag = tokens[0]
    if instance and tag == b"Q":
        return "more than one Q line" if query is not None else "queries may not contain whitespace"
    if tag == b"V":
        return "empty label (V lines need `V <id> <label>`)" if len(tokens) < 3 else "labels may not contain whitespace"
    if tag == b"E":
        return "E lines need `E <src> <dst>`"
    return f"unknown record tag {token_text(tag)!r}"


def read_gfa(data: bytes | str) -> tuple[PangenomeGraph, int]:
    """The graph of a GFA file, and the number of records of unsupported
    types it skipped (logged by :func:`warn_skipped`), read in one loop
    over its records as :func:`read_tsv` reads TSV: segment ids are decoded
    once, at the end."""
    segments: list[bytes] = []  # S records' id and sequence tokens, flat
    links: list[bytes] = []  # L records' source and target tokens, flat
    skipped = 0
    for lineno, tokens in records(data):
        tag = tokens[0]
        if tag == b"S":
            if len(tokens) < 3:
                raise GraphError(f"line {lineno}: S lines need `S <id> <seq>`")
            if tokens[2] == b"*":
                raise GraphError(f"line {lineno}: segment {token_text(tokens[1])!r} has no sequence")
            segments += tokens[1:3]
        elif tag == b"L":
            if len(tokens) < 5:
                raise GraphError(f"line {lineno}: L lines need `L <from> <orient> <to> <orient> [overlap]`")
            if not tokens[2] == tokens[4] == b"+":
                orient = tokens[2] if tokens[2] != b"+" else tokens[4]
                if orient == b"-":
                    raise GraphError(f"line {lineno}: '-' orientation is unsupported (forward strand only)")
                raise GraphError(f"line {lineno}: bad orientation {token_text(orient)!r}")
            links += tokens[1:4:2]
        else:
            skipped += 1
    warn_skipped(skipped)
    n = len(segments) // 2
    texts = token_texts(segments[::2] + links)
    return PangenomeGraph._of_ends(texts[:n], segments[1::2], texts[n:]), skipped


def warn_skipped(skipped: int) -> None:
    """Log a warning naming the ``skipped`` GFA records, if there are any."""
    if skipped:
        log.warning("skipped %d GFA records of unsupported types", skipped)


# ---------------------------------------------------------------------------
# character-split graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharGraph:
    """One node per label character, preserving the originating vertex.

    Node ``k``, the character id, carries ``chars[k]`` and sits at
    ``offset[k]`` within the label of vertex ``origin[k]``.  Nodes are
    numbered label-order within vertex-order, so node ids for vertex ``v``
    occupy ``starts[v] .. starts[v+1]-1``.  Arcs step through each label
    (``(v,f) -> (v,f+1)``) and jump from the last character of ``u`` to the
    first of ``u'`` for every graph edge ``(u, u')``.
    """

    origin: np.ndarray
    offset: np.ndarray
    chars: np.ndarray
    arcs: np.ndarray
    starts: np.ndarray

    @property
    def node_count(self) -> int:
        return len(self.origin)

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    @cached_property
    def _successors(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR adjacency: the successors of node ``a`` are
        ``targets[indptr[a]:indptr[a + 1]]``."""
        order = np.argsort(self.arcs[:, 0], kind="stable")
        counts = np.bincount(self.arcs[:, 0], minlength=self.node_count)
        return _freeze(np.concatenate([[0], np.cumsum(counts)])), _freeze(self.arcs[order, 1])

    def ball_pairs(self, radius: int) -> tuple[np.ndarray, np.ndarray]:
        """Every ordered node pair ``(src, dst)`` whose minimum arc count is
        between 1 and ``radius``, sorted by ``dst`` and then ``src``.

        A breadth-first search from every node at once, one round per
        depth over the (source, node) pairs first reached at the previous
        depth; it suits small radii, and the pair count is the size of all
        radius-``radius`` balls together.  Each round is refused past
        :data:`MAX_BYTES` (:func:`check_bytes`) before it allocates its
        candidate keys."""
        n = self.node_count
        indptr, targets = self._successors
        degrees = np.diff(indptr)
        src = node = np.arange(n, dtype=np.int64)
        seen = node * (n + 1)  # sorted (node, source) keys reached so far
        for depth in range(1, radius + 1):
            degree = degrees[node]
            total = int(degree.sum())
            if not total:
                break
            need = f"radius-{radius} balls: depth {depth} needs {8 * total} bytes for {total} candidate pairs"
            check_bytes(8 * total, need)
            slot = np.arange(total) + np.repeat(indptr[node] - np.cumsum(degree) + degree, degree)
            keys = _sorted_unique(targets[slot] * n + np.repeat(src, degree))
            keys = keys[seen[np.minimum(np.searchsorted(seen, keys), len(seen) - 1)] != keys]
            if not len(keys):
                break
            # timsort merges the two sorted runs in linear time
            seen = np.sort(np.concatenate([seen, keys]), kind="stable")
            node, src = np.divmod(keys, n)
        dst, src = np.divmod(seen, n)
        apart = dst != src
        return src[apart], dst[apart]

    def distance(self, a: int, b: int) -> int | None:
        """The graph gap of a step from character ``a`` to character ``b``:
        the id difference on one vertex, else the minimum arc count, or
        ``None`` if no path leads there (a breadth-first search that stops
        at the target).  Forward on one vertex the two agree."""
        if self.origin[a] == self.origin[b]:
            return b - a
        indptr, targets = self._successors
        seen, frontier, depth = {a}, [a], 0
        while frontier:
            depth += 1
            nxt = []
            for x in frontier:
                for c in targets[indptr[x] : indptr[x + 1]].tolist():
                    if c == b:
                        return depth
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
            frontier = nxt
        return None


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` by sorting: numpy 2's hash-based ``np.unique`` runs
    tens of times slower on the large key arrays of :meth:`CharGraph.ball_pairs`."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _kept(compute: Callable[..., _T]) -> Callable[..., _T]:
    """``compute(graph, *args)`` once per graph instance and ``args``: the
    result of the last ``args`` is kept on the graph (which is frozen, so it
    never goes stale) and returned by later calls with equal ``args``; a
    call with other ``args`` drops it before computing anew.  A refusal
    raises again on the next call; nothing is kept."""
    name = f"_kept_{compute.__name__}"

    @functools.wraps(compute)
    def kept(graph: PangenomeGraph, *args) -> _T:
        cache = vars(graph)
        entry = cache.get(name)  # read once: another thread may replace it
        if entry is not None and entry[0] == args:
            return entry[1]
        entry = None
        cache.pop(name, None)  # one result per graph: the old one is freed before the new one is computed
        result = compute(graph, *args)
        cache[name] = (args, result)
        return result

    return kept


@_kept
def build_char_graph(graph: PangenomeGraph) -> CharGraph:
    """Split every vertex into one node per label character."""
    lengths = np.array([len(label) for label in graph.labels], dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(lengths)])
    chars = np.frombuffer(b"".join(graph.labels), dtype=np.uint8)
    origin = np.repeat(np.arange(graph.n, dtype=np.int64), lengths)
    offset = np.arange(int(starts[-1]), dtype=np.int64) - starts[origin]
    intra = np.flatnonzero(offset[:-1] + 1 == offset[1:])
    edges = graph._ends
    arcs = np.concatenate([
        np.stack([intra, intra + 1], axis=1),
        np.stack([starts[edges[:, 0] + 1] - 1, starts[edges[:, 1]]], axis=1),
    ])
    return CharGraph(
        origin=_freeze(origin),
        offset=_freeze(offset),
        chars=_freeze(chars.copy()),
        arcs=_freeze(arcs),
        starts=_freeze(starts),
    )


# ---------------------------------------------------------------------------
# all-pairs preprocessing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReachMatrix:
    """Dense vertex reachability: entry (u, v) is true iff a directed path
    with at least one edge leads from u to v.  A vertex reaches itself only
    through a cycle."""

    matrix: np.ndarray


MAX_BYTES = 2 << 30
"""The largest array, in bytes, that the reachability matrix, the lcs
product DAG's arc lists, the arcs of a pair scan, a round of
:meth:`CharGraph.ball_pairs`, the fglcs table or the character distances
may take (:func:`check_bytes`)."""


def check_bytes(nbytes: int, need: str) -> None:
    """Refuse a stage before it allocates ``nbytes`` bytes past
    :data:`MAX_BYTES`: a :class:`GraphError` (exit 3), ``need`` naming the
    stage and its size."""
    if nbytes > MAX_BYTES:
        raise GraphError(f"{need}, over the limit of {MAX_BYTES}")


@_kept
def reachability(graph: PangenomeGraph) -> ReachMatrix:
    """All-pairs reachability as a closure over the strongly connected
    components (Purdom 1970): one O(V + E) pass for the components, then
    one OR of a V-bit row per arc between components.

    Every component's row is a Python int, a bitset of the vertices it
    reaches or holds (bit v for vertex v).  Rows are filled in the order
    :func:`_strong_components` completes the components, so a component's
    row is its members ORed with its successor components' finished rows.
    The rows are packed once (``int.to_bytes``, one row per vertex) and
    unpacked once into the matrix.  A vertex reaches itself only if its
    component holds a cycle (more than one vertex, or a self-loop).

    Raises :class:`GraphError` when the matrix would exceed
    :data:`MAX_BYTES`, before allocating it."""
    n = graph.n
    check_bytes(n * n, f"reachability: {n} vertices need {n * n} bytes for the vertex-pair matrix")
    comp, count = _strong_components(n, graph.edges)
    src, dst = comp[graph._ends[:, 0]], comp[graph._ends[:, 1]]
    cyclic = np.bincount(comp, minlength=count) > 1
    cyclic[src[src == dst]] = True
    keys = _sorted_unique(src[src != dst] * count + dst[src != dst])  # component arcs, by source

    order = comp.tolist()
    rows = [0] * count
    for v, c in enumerate(order):
        rows[c] |= 1 << v
    for c, d in zip(*(part.tolist() for part in np.divmod(keys, count))):  # d < c: its row is final
        rows[c] |= rows[d]
    width = (n + 7) // 8
    packed = [row.to_bytes(width, "little") for row in rows]
    del rows  # each form is freed before the next is built: the peak stays near 1.15 V^2 bytes
    data = np.frombuffer(b"".join(map(packed.__getitem__, order)), np.uint8).reshape(n, width)
    del packed
    reach = np.unpackbits(data, axis=1, count=n, bitorder="little").view(bool)
    vertices = np.arange(n)
    reach[vertices, vertices] = cyclic[comp]
    return ReachMatrix(matrix=_freeze(reach))


def _strong_components(n: int, edges: Iterable[tuple[int, int]]) -> tuple[np.ndarray, int]:
    """Tarjan's strongly connected components without recursion:
    ``(comp, count)`` where ``comp[v]`` numbers v's component in the order
    the search completes them, so every edge between two components leads
    to a lower number."""
    out: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        out[u].append(v)
    order = [-1] * n  # discovery index
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []  # visited vertices not yet in a component
    found = count = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = found
        found += 1
        stack.append(root)
        work = [(root, iter(out[root]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if order[w] < 0:
                    order[w] = low[w] = found
                    found += 1
                    stack.append(w)
                    work.append((w, iter(out[w])))
                    break
                if comp[w] < 0 and order[w] < low[v]:  # on the stack: same component as v, or an ancestor's
                    low[v] = order[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == order[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = count
                        if w == v:
                            break
                    count += 1
    return np.array(comp, dtype=np.int64), count


def precedes(u, a, v, b, across) -> np.ndarray:
    """Whether character ``a`` of vertex ``u`` may come before character
    ``b`` of vertex ``v``: on one vertex the lower character id comes
    first (``a < b``), across vertices ``across`` decides, the caller's
    cross-vertex predicate (reachability, or a character distance within
    bounds).  Broadcasts as :func:`numpy.where`."""
    return np.where(u == v, a < b, across)


@_kept
def char_distances(graph: PangenomeGraph) -> np.ndarray:
    """All-pairs minimum arc counts via Floyd-Warshall on the split graph,
    as a read-only N x N float array indexed by character id: ``inf`` where
    no path leads, 0 on the diagonal.

    The dense reference for :meth:`CharGraph.distance` and
    :meth:`CharGraph.ball_pairs`: cubic in the character count, refused
    past :data:`MAX_BYTES` before the matrix is allocated."""
    char_graph = build_char_graph(graph)
    total = char_graph.node_count
    need = 8 * total * total
    check_bytes(need, f"character distances: {total} characters need {need} bytes for the character-pair matrix")
    dist = np.full((total, total), np.inf)
    if total:
        np.fill_diagonal(dist, 0.0)
    for a, b in char_graph.arcs:
        dist[a, b] = min(dist[a, b], 1.0)
    for k in range(total):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    return _freeze(dist)
