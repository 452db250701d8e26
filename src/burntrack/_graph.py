"""Graphs, tight edge paths and stratified graph maps: what a ``graphmap`` block builds.

This module holds the core of :mod:`burntrack.graphmap`: :class:`Graph`,
:class:`EdgePath`, :class:`StratifiedGraphMap` and :func:`f_sharp`.  The
command line imports it to load a session's graph maps and to iterate
them without compiling the stratum, train-track and red-projection
analysis.  :mod:`burntrack.graphmap` imports every public name here back
and remains their public home: import from it, not from here.

A path is its graph, its tuple of oriented edge indices and its origin;
its word over the edge alphabet is built only when asked for.  A graph
builds one spanning tree, cached like its red tables:
``Graph.is_connected`` asks whether it reaches every vertex, and
``StratifiedGraphMap.h1_matrix`` takes its cycle basis from it.  A map
builds one stable power of its edge derivative Df, and a turn is illegal
exactly when that table sends its two edges to one.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from ._maps import AbelianizationMatrix, NonnegIntMatrix, _pair_count_matrix, _signed_counts
from .words import InverseAlphabet, Word, _image_length, _LetterMap, _tighten

if TYPE_CHECKING:
    from .graphmap import StratumReport


class _RedTable(NamedTuple):
    """One height's red alphabet and its index maps; see ``Graph._red_table``."""

    red: InverseAlphabet
    index: tuple[int, ...]
    translate: bytes | None
    delete: bytes | None


class Graph:
    """Finite graph with oriented edge pairs and a height per edge.

    Each positive edge name contributes the oriented letters ``e`` and
    ``e^-1``; reversing a letter swaps its endpoints.  Heights must cover
    1..m with no gaps, so that "all edges of height <= k" is a meaningful
    ladder of subgraphs.
    """

    __slots__ = ("_vertices", "_vset", "_alphabet", "_origin", "_heights", "_red", "_tree")

    def __init__(
        self,
        vertices: Iterable[str],
        edges: Iterable[tuple[str, str, str, int]],
    ):
        vs = tuple(dict.fromkeys(vertices))
        if not vs:
            raise ValueError("a graph needs at least one vertex")
        vset = frozenset(vs)
        names: list[str] = []
        origin: list[str] = []
        heights: list[int] = []
        for name, o, t, h in edges:
            if o not in vset or t not in vset:
                raise ValueError(f"edge {name!r} uses unknown vertex {o!r} or {t!r}")
            h = int(h)
            if h < 1:
                raise ValueError(f"edge {name!r} height must be >= 1, got {h}")
            names.append(name)
            origin.append(o)
            origin.append(t)  # origin of the reversed letter
            heights.append(h)
        if not names:
            raise ValueError("a graph needs at least one edge")
        present = set(heights)
        if present != set(range(1, max(present) + 1)):
            raise ValueError(f"heights must cover 1..m without gaps, got {sorted(present)}")
        self._vertices = vs
        self._vset = vset
        self._alphabet = InverseAlphabet(names)
        self._origin = tuple(origin)
        self._heights = tuple(heights)
        self._red: dict[int, _RedTable] = {}
        self._tree: dict[str, tuple[int, str]] | None = None

    @classmethod
    def rose(cls, edges: Iterable[str], heights: Mapping[str, int] | None = None) -> "Graph":
        """One-vertex graph whose edges are all loops at ``*``."""
        names = list(edges)
        hs = heights or {}
        return cls(["*"], [(e, "*", "*", hs.get(e, 1)) for e in names])

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    @property
    def edge_alphabet(self) -> InverseAlphabet:
        return self._alphabet

    @property
    def positive_edges(self) -> tuple[str, ...]:
        return self._alphabet.positive_letters

    def has_vertex(self, v: str) -> bool:
        return v in self._vset

    def origin(self, i: int) -> str:
        """Initial vertex of oriented edge index i."""
        return self._origin[i]

    def terminus(self, i: int) -> str:
        return self._origin[i ^ 1]

    def height(self, i: int) -> int:
        """Height of the edge pair containing oriented index i."""
        return self._heights[i >> 1]

    @property
    def max_height(self) -> int:
        return max(self._heights)

    def edges_of_height(self, k: int) -> tuple[str, ...]:
        names = self._alphabet.positive_letters
        return tuple(names[p] for p, h in enumerate(self._heights) if h == k)

    def _red_table(self, k: int) -> _RedTable:
        """The height-k alphabet and the maps into it; built once per k.

        ``index`` gives each oriented index its letter in the red alphabet,
        or -1.  With at most 256 oriented letters, ``translate`` holds the
        same map as a ``bytes.translate`` table and ``delete`` the bytes of
        the indices it drops; with more, both are None.
        """
        got = self._red.get(k)
        if got is None:
            names = self.edges_of_height(k)
            if not names:
                raise ValueError(f"no edges of height {k}")
            red = InverseAlphabet(names)
            index = tuple(red.index(x) if x in red else -1 for x in self._alphabet.letters)
            translate = delete = None
            if len(index) <= 256:
                translate = bytes(max(j, 0) for j in index).ljust(256, b"\0")
                delete = bytes(i for i, j in enumerate(index) if j < 0)
            got = self._red.setdefault(k, _RedTable(red, index, translate, delete))
        return got

    def _spanning_tree(self) -> dict[str, tuple[int, str]]:
        """Vertex -> (oriented edge into it, parent), for each vertex the tree reaches.

        Built once, by a stack from the first vertex (the root, with no entry)
        over outgoing letters in index order.  That order fixes the cycle
        basis of :meth:`StratifiedGraphMap.h1_matrix`, so its determinant's sign.
        """
        tree = self._tree
        if tree is None:
            origin = self._origin
            root = self._vertices[0]
            tree = {}
            frontier = [root]
            while frontier:
                v = frontier.pop()
                for i, o in enumerate(origin):
                    w = origin[i ^ 1]
                    if o == v and w != root and w not in tree:
                        tree[w] = (i, v)
                        frontier.append(w)
            self._tree = tree
        return tree

    def is_connected(self) -> bool:
        return len(self._spanning_tree()) == len(self._vertices) - 1

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._vertices == other._vertices
            and self._alphabet == other._alphabet
            and self._origin == other._origin
            and self._heights == other._heights
        )

    def __hash__(self) -> int:
        return hash((self._vertices, self._alphabet, self._origin, self._heights))

    def __repr__(self) -> str:
        return (
            f"Graph(vertices={list(self._vertices)!r}, "
            f"edges={len(self._heights)}, max_height={self.max_height})"
        )


class EdgePath:
    """Tight path: consecutive edges compose and never backtrack.

    A path is its graph, its tuple of oriented edge indices and its origin;
    :attr:`word` builds the word over the graph's edge alphabet on demand.
    The empty path needs an explicit basepoint (``at=``).  Paths are
    immutable.  ``*`` concatenates and tightens, so the product is the
    homotopy class of the composite relative to its endpoints.
    """

    __slots__ = ("_graph", "_seq", "_origin")

    def __init__(self, graph: Graph, edges: Word | Iterable[str] = (), at: str | None = None):
        if isinstance(edges, Word):
            if edges.alphabet != graph.edge_alphabet:
                raise ValueError("word is not over this graph's edge alphabet")
            word = edges
        elif isinstance(edges, str):
            word = Word.parse(graph.edge_alphabet, edges)
        else:
            word = Word(graph.edge_alphabet, edges)
        seq = word.indices
        for n in range(len(seq) - 1):
            if graph.terminus(seq[n]) != graph.origin(seq[n + 1]):
                raise ValueError(
                    f"edges {word[n]} and {word[n + 1]} do not compose "
                    f"({graph.terminus(seq[n])!r} vs {graph.origin(seq[n + 1])!r})"
                )
            if seq[n] == seq[n + 1] ^ 1:
                raise ValueError(f"path backtracks at position {n} ({word[n]} {word[n + 1]})")
        if seq:
            derived = graph.origin(seq[0])
            if at is not None and at != derived:
                raise ValueError(f"path starts at {derived!r}, not {at!r}")
            start = derived
        else:
            if at is None:
                raise ValueError("an empty path needs a basepoint (at=...)")
            if not graph.has_vertex(at):
                raise ValueError(f"unknown vertex {at!r}")
            start = at
        self._graph = graph
        self._seq = seq
        self._origin = start

    @classmethod
    def _make(cls, graph: Graph, seq: Iterable[int], origin: str) -> "EdgePath":
        # trusted constructor: caller guarantees range, tightness and composability
        self = object.__new__(cls)
        self._graph = graph
        self._seq = tuple(seq)
        self._origin = origin
        return self

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def word(self) -> Word:
        return Word._trusted(self._graph.edge_alphabet, self._seq)

    @property
    def indices(self) -> tuple[int, ...]:
        return self._seq

    @property
    def origin(self) -> str:
        return self._origin

    @property
    def terminus(self) -> str:
        seq = self._seq
        return self._graph.terminus(seq[-1]) if seq else self._origin

    @property
    def is_trivial(self) -> bool:
        return not self._seq

    @property
    def is_loop(self) -> bool:
        return self.origin == self.terminus

    def vertex_at(self, n: int) -> str:
        """Vertex reached after the first n edges."""
        if not 0 <= n <= len(self._seq):
            raise IndexError(n)
        if n == 0:
            return self._origin
        return self._graph.terminus(self._seq[n - 1])

    def __len__(self) -> int:
        return len(self._seq)

    def __getitem__(self, key) -> "EdgePath | str":
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self._seq))
            if step != 1:
                raise ValueError("paths cannot be sliced with a step")
            return EdgePath._make(self._graph, self._seq[start:stop], self.vertex_at(start))
        return self._graph.edge_alphabet.token(self._seq[key])

    def reverse(self) -> "EdgePath":
        return EdgePath._make(self._graph, [i ^ 1 for i in reversed(self._seq)], self.terminus)

    def __mul__(self, other: "EdgePath") -> "EdgePath":
        if not isinstance(other, EdgePath):
            return NotImplemented
        if self._graph != other._graph:
            raise ValueError("paths live on different graphs")
        if self.terminus != other.origin:
            raise ValueError(
                f"paths do not compose: {self.terminus!r} vs {other.origin!r}"
            )
        return EdgePath._make(self._graph, _tighten((self._seq, other._seq)), self._origin)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgePath):
            return NotImplemented
        return (self._graph, self._seq, self._origin) == (other._graph, other._seq, other._origin)

    def __hash__(self) -> int:
        return hash((self._graph, self._seq, self._origin))

    def __str__(self) -> str:
        return str(self.word) if self._seq else f"<trivial at {self._origin}>"

    def compact(self) -> str:
        return self.word.compact()

    def __repr__(self) -> str:
        return f"EdgePath({str(self)!r})"


def _check_on_graph(graph: Graph, path: EdgePath) -> None:
    """ValueError unless ``path`` lives on ``graph``; identity is tested first."""
    if path._graph is not graph and path._graph != graph:
        raise ValueError("path lives on a different graph")


class StratifiedGraphMap(_LetterMap):
    """Graph self-map respecting the height filtration.

    ``vertex_map`` sends every vertex to a vertex; ``edge_images`` sends
    every positive edge name to a tight nontrivial path (a token string is
    parsed).  Reversed edges map to reversed paths.  Images may only use
    edges of height at most the edge's own height, and must run from the
    image of the origin to the image of the terminus.

    On a connected graph the induced action on the first homology of the
    graph is computed through a spanning tree; a determinant other than
    +-1 cannot come from a homotopy equivalence, so it triggers a warning
    (only a necessary condition is checked, nothing is proved).

    Maps on different graphs can share an edge alphabet and a table, so
    equality is identity.
    """

    __slots__ = ("_graph", "_vmap", "_df_stable", "_strata_cache")

    _keys = "positive edge names"
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        graph: Graph,
        vertex_map: Mapping[str, str],
        edge_images: Mapping[str, "EdgePath | str"],
    ):
        missing = set(graph.vertices) - set(vertex_map)
        if missing:
            raise ValueError(f"vertex_map is missing {sorted(missing)!r}")
        for v, w in vertex_map.items():
            if not graph.has_vertex(v) or not graph.has_vertex(w):
                raise ValueError(f"vertex_map entry {v!r} -> {w!r} uses unknown vertices")
        self._graph = graph
        self._vmap = dict(vertex_map)
        super().__init__(graph.edge_alphabet, edge_images)
        # Df^(2^b) with 2^b above the number of oriented edges, by b squarings
        stable = tuple(img[0] for img in self._table)
        for _ in range(len(stable).bit_length()):
            stable = tuple(stable[i] for i in stable)
        self._df_stable = stable
        self._strata_cache: tuple[StratumReport, ...] | None = None

        if graph.is_connected():
            h1 = self.h1_matrix()
            if h1.rows and abs(h1.det) != 1:
                warnings.warn(
                    f"homology determinant is {h1.det}, so this map is not a "
                    f"homotopy equivalence",
                    stacklevel=2,
                )

    def _image_indices(self, name: str, image: "EdgePath | str") -> tuple[int, ...]:
        graph = self._graph
        if isinstance(image, str):
            if not image.split():
                raise ValueError(f"image of {name!r} is trivial; edges may not collapse")
            image = EdgePath(graph, image)
        if image.graph != graph:
            raise ValueError(f"image of {name!r} lives on a different graph")
        if image.is_trivial:
            raise ValueError(f"image of {name!r} is trivial; edges may not collapse")
        i = self._alphabet.index(name)
        h = graph.height(i)
        for j in image.indices:
            if graph.height(j) > h:
                raise ValueError(
                    f"filtration violated: image of {name!r} (height {h}) "
                    f"crosses {self._alphabet.token(j)} of height {graph.height(j)}"
                )
        vmap = self._vmap
        if image.origin != vmap[graph.origin(i)] or image.terminus != vmap[graph.terminus(i)]:
            raise ValueError(
                f"image of {name!r} runs {image.origin!r} -> {image.terminus!r}, "
                f"expected {vmap[graph.origin(i)]!r} -> {vmap[graph.terminus(i)]!r}"
            )
        return image.indices

    @property
    def graph(self) -> Graph:
        return self._graph

    def vertex_image(self, v: str) -> str:
        return self._vmap[v]

    def edge_image(self, name_or_index: str | int) -> EdgePath:
        g = self._graph
        i = name_or_index if isinstance(name_or_index, int) else g.edge_alphabet.index(name_or_index)
        return EdgePath._make(g, self._table[i], self._vmap[g.origin(i)])

    def derivative(self, i: int) -> int:
        """First oriented edge of the image of oriented edge i."""
        return self._table[i][0]

    def h1_matrix(self) -> AbelianizationMatrix:
        """Action on cycles, in the basis of edges outside the graph's spanning tree."""
        g = self._graph
        if not g.is_connected():
            raise ValueError("h1_matrix needs a connected graph")
        tree = g._spanning_tree()
        root = g.vertices[0]

        def to_root(v: str) -> list[int]:
            out = []
            while v != root:
                i, v = tree[v]
                out.append(i ^ 1)  # walk against the tree edge
            return out

        def tree_path(u: str, v: str) -> list[int]:
            return to_root(u) + [i ^ 1 for i in reversed(to_root(v))]

        tree_edges = {i >> 1 for i, _ in tree.values()}
        basis = [p for p in range(len(g.positive_edges)) if p not in tree_edges]
        loops = [[2 * p] + tree_path(g.terminus(2 * p), g.origin(2 * p)) for p in basis]
        return _signed_counts(self._table, loops, basis)

    def apply_raw(self, path: EdgePath) -> list[int]:
        """Letterwise image with tightening, as raw oriented indices, after the letter-cap check."""
        _check_on_graph(self._graph, path)
        return self._tight_image(path._seq)

    def image_length_bound(self, path: EdgePath) -> int:
        """Length of the image before tightening; an upper bound after."""
        _check_on_graph(self._graph, path)
        return _image_length(self._table, path.indices)

    def turn_is_legal(self, e1: int, e2: int) -> bool:
        """False when some iterate of the edge derivative sends both edges to one.

        Edges that meet under Df stay together, and past as many steps as
        there are oriented edges both lie on Df's cycles, where Df is
        injective; so the stable power of Df decides.
        """
        if self._graph.origin(e1) != self._graph.origin(e2):
            raise ValueError("a turn needs two edges at the same vertex")
        return self._df_stable[e1] != self._df_stable[e2]

    def stratum_matrix(self, k: int) -> NonnegIntMatrix:
        """Counts of height-k edge pairs in the images of height-k edges."""
        g = self._graph
        positions = [p for p in range(len(g.positive_edges)) if g.height(2 * p) == k]
        if not positions:
            raise ValueError(f"no edges of height {k}")
        return _pair_count_matrix(self._table, positions)


def f_sharp(f: StratifiedGraphMap, path: EdgePath, power: int = 1) -> EdgePath:
    """Image of a tight path under ``power`` applications, tightened each time.

    Tightening first does not change the next image's tightened form, so
    iterating this single-step operation computes the fully reduced p-fold
    image directly.  Each step is one :meth:`StratifiedGraphMap.apply_raw`,
    which checks the letter cap first, like :meth:`BasisMap.apply`.
    """
    if power < 0:
        raise ValueError("power must be >= 0")
    g = f._graph
    _check_on_graph(g, path)
    vmap = f._vmap
    cur = path
    for _ in range(power):
        cur = EdgePath._make(g, f.apply_raw(cur), vmap[cur._origin])
    return cur
