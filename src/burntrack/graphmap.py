"""Stratified graph self-maps: tight paths, strata, legality, projections.

A :class:`Graph` carries finitely many vertices and unoriented edges, each
edge contributing two oriented letters exchanged by the involution, plus a
height making the subgraphs of bounded height nested.  A
:class:`StratifiedGraphMap` sends vertices to vertices and each edge to a
tight nontrivial path while never raising height.  On that foundation:

- :func:`f_sharp` applies the map and tightens, any number of times;
- :func:`classify_strata` types each height layer by its transition matrix;
- :func:`check_rtt` runs the finite train-track checks with witnesses;
- :func:`yellow_red_split`, :func:`red_projection`,
  :func:`induced_substitution` and :func:`red_commutation_check` implement
  the two-color analysis of a single top exponential stratum;
- :func:`yellow_loop_audit` looks for low-height subpaths that close up;
- :func:`pf_length` weighs paths by the top Perron eigenvector.

Maps are immutable after validation; analysis results are cached on the
instance but every public function is pure in its outputs.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping

from .automorphisms import AbelianizationMatrix, Growth
from .limits import check_letters, letter_cap
from .matrices import (
    NonnegIntMatrix,
    int_determinant,
    is_irreducible,
    is_primitive,
    is_transitive_permutation,
    pf_eigenvalue,
    pf_eigenvalue_via_shift,
)
from .substitutions import Substitution
from .words import InverseAlphabet, Word, _image_length, _tighten, flip

__all__ = [
    "Graph",
    "EdgePath",
    "StratifiedGraphMap",
    "f_sharp",
    "StratumKind",
    "StratumReport",
    "classify_strata",
    "RefinementNeeded",
    "growth_classify",
    "Turn",
    "TurnTable",
    "build_turn_table",
    "path_is_k_legal",
    "RTTReport",
    "check_rtt",
    "yellow_red_split",
    "red_alphabet",
    "red_projection",
    "induced_substitution",
    "red_commutation_check",
    "YellowPiece",
    "AuditReport",
    "yellow_loop_audit",
    "pf_length",
]


class Graph:
    """Finite graph with oriented edge pairs and a height per edge.

    Each positive edge name contributes the oriented letters ``e`` and
    ``e^-1``; reversing a letter swaps its endpoints.  Heights must cover
    1..m with no gaps, so that "all edges of height <= k" is a meaningful
    ladder of subgraphs.
    """

    __slots__ = ("_vertices", "_vset", "_alphabet", "_origin", "_heights", "_red")

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
        self._red: dict[int, tuple[InverseAlphabet, tuple[int, ...]]] = {}

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

    def _red_table(self, k: int) -> tuple[InverseAlphabet, tuple[int, ...]]:
        """Height-k alphabet, and each oriented index's letter in it (or -1); built once per k."""
        got = self._red.get(k)
        if got is None:
            names = self.edges_of_height(k)
            if not names:
                raise ValueError(f"no edges of height {k}")
            red = InverseAlphabet(names)
            index = tuple(red.index(x) if x in red else -1 for x in self._alphabet.letters)
            got = self._red.setdefault(k, (red, index))
        return got

    def is_connected(self) -> bool:
        seen = {self._vertices[0]}
        frontier = [self._vertices[0]]
        while frontier:
            v = frontier.pop()
            for i in range(len(self._origin)):
                if self._origin[i] == v:
                    w = self._origin[i ^ 1]
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
        return len(seen) == len(self._vertices)

    def __eq__(self, other: object) -> bool:
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

    The letter sequence is a word over the graph's edge alphabet; the empty
    path needs an explicit basepoint (``at=``).  Paths are immutable.
    ``*`` concatenates and tightens, so the product is the homotopy class
    of the composite relative to its endpoints.
    """

    __slots__ = ("_graph", "_word", "_origin")

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
        self._word = word
        self._origin = start

    @classmethod
    def _make(cls, graph: Graph, word: Word, origin: str) -> "EdgePath":
        # trusted constructor: caller guarantees tightness and composability
        self = object.__new__(cls)
        self._graph = graph
        self._word = word
        self._origin = origin
        return self

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def word(self) -> Word:
        return self._word

    @property
    def indices(self) -> tuple[int, ...]:
        return self._word.indices

    @property
    def origin(self) -> str:
        return self._origin

    @property
    def terminus(self) -> str:
        seq = self._word.indices
        return self._graph.terminus(seq[-1]) if seq else self._origin

    @property
    def is_trivial(self) -> bool:
        return len(self._word) == 0

    @property
    def is_loop(self) -> bool:
        return self.origin == self.terminus

    def vertex_at(self, n: int) -> str:
        """Vertex reached after the first n edges."""
        if not 0 <= n <= len(self._word):
            raise IndexError(n)
        if n == 0:
            return self._origin
        return self._graph.terminus(self._word.indices[n - 1])

    def __len__(self) -> int:
        return len(self._word)

    def __getitem__(self, key) -> "EdgePath | str":
        if isinstance(key, slice):
            start, stop, step = key.indices(len(self._word))
            if step != 1:
                raise ValueError("paths cannot be sliced with a step")
            return EdgePath._make(self._graph, self._word[start:stop], self.vertex_at(start))
        return self._word[key]

    def reverse(self) -> "EdgePath":
        return EdgePath._make(self._graph, flip(self._word), self.terminus)

    def __mul__(self, other: "EdgePath") -> "EdgePath":
        if not isinstance(other, EdgePath):
            return NotImplemented
        if self._graph != other._graph:
            raise ValueError("paths live on different graphs")
        if self.terminus != other.origin:
            raise ValueError(
                f"paths do not compose: {self.terminus!r} vs {other.origin!r}"
            )
        return EdgePath._make(
            self._graph,
            Word._trusted(self._graph.edge_alphabet, _tighten((self.indices, other.indices))),
            self._origin,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgePath):
            return NotImplemented
        return (
            self._graph == other._graph
            and self._word == other._word
            and self._origin == other._origin
        )

    def __hash__(self) -> int:
        return hash((self._graph, self._word, self._origin))

    def __str__(self) -> str:
        return str(self._word) if len(self._word) else f"<trivial at {self._origin}>"

    def compact(self) -> str:
        return self._word.compact()

    def __repr__(self) -> str:
        return f"EdgePath({str(self)!r})"


class StratifiedGraphMap:
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
    """

    __slots__ = ("_graph", "_vmap", "_table", "_longest", "_df", "_legal_cache", "_strata_cache")

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

        names = graph.positive_edges
        extra = set(edge_images) - set(names)
        if extra:
            raise ValueError(f"images must be keyed by positive edge names; got {sorted(extra)!r}")
        missing = set(names) - set(edge_images)
        if missing:
            raise ValueError(f"missing images for edges {sorted(missing)!r}")

        alph = graph.edge_alphabet
        table: list[tuple[int, ...]] = [()] * len(alph.letters)
        for p, name in enumerate(names):
            img = edge_images[name]
            if isinstance(img, str):
                if not img.split():
                    raise ValueError(f"image of {name!r} is trivial; edges may not collapse")
                img = EdgePath(graph, img)
            if img.graph != graph:
                raise ValueError(f"image of {name!r} lives on a different graph")
            if img.is_trivial:
                raise ValueError(f"image of {name!r} is trivial; edges may not collapse")
            i = 2 * p
            h = graph.height(i)
            for j in img.indices:
                if graph.height(j) > h:
                    raise ValueError(
                        f"filtration violated: image of {name!r} (height {h}) "
                        f"crosses {alph.token(j)} of height {graph.height(j)}"
                    )
            if img.origin != vertex_map[graph.origin(i)] or img.terminus != vertex_map[graph.terminus(i)]:
                raise ValueError(
                    f"image of {name!r} runs {img.origin!r} -> {img.terminus!r}, "
                    f"expected {vertex_map[graph.origin(i)]!r} -> {vertex_map[graph.terminus(i)]!r}"
                )
            table[i] = img.indices
            table[i ^ 1] = tuple(j ^ 1 for j in reversed(img.indices))

        self._graph = graph
        self._vmap = dict(vertex_map)
        self._table = tuple(table)
        self._longest = max(map(len, table))
        self._df = tuple(img[0] for img in self._table)
        self._legal_cache: dict[tuple[int, int], bool] = {}
        self._strata_cache: tuple[StratumReport, ...] | None = None

        if graph.is_connected():
            h1 = self.h1_matrix()
            if h1.rows and abs(h1.det) != 1:
                warnings.warn(
                    f"homology determinant is {h1.det}, so this map is not a "
                    f"homotopy equivalence",
                    stacklevel=2,
                )

    @property
    def graph(self) -> Graph:
        return self._graph

    def vertex_image(self, v: str) -> str:
        return self._vmap[v]

    def edge_image(self, name_or_index: str | int) -> EdgePath:
        g = self._graph
        i = name_or_index if isinstance(name_or_index, int) else g.edge_alphabet.index(name_or_index)
        return EdgePath._make(
            g,
            Word.from_indices(g.edge_alphabet, self._table[i]),
            self._vmap[g.origin(i)],
        )

    def derivative(self, i: int) -> int:
        """First oriented edge of the image of oriented edge i."""
        return self._df[i]

    def h1_matrix(self) -> AbelianizationMatrix:
        """Action on cycles, in the basis of edges outside a spanning tree."""
        g = self._graph
        tree_parent: dict[str, tuple[int, str]] = {}  # vertex -> (edge into it, parent)
        root = g.vertices[0]
        seen = {root}
        frontier = [root]
        n_oriented = len(g.edge_alphabet.letters)
        tree_edges: set[int] = set()
        while frontier:
            v = frontier.pop()
            for i in range(n_oriented):
                if g.origin(i) == v:
                    w = g.terminus(i)
                    if w not in seen:
                        seen.add(w)
                        tree_parent[w] = (i, v)
                        tree_edges.add(i >> 1)
                        frontier.append(w)
        if len(seen) != len(g.vertices):
            raise ValueError("h1_matrix needs a connected graph")

        def to_root(v: str) -> list[int]:
            out = []
            while v != root:
                i, v = tree_parent[v]
                out.append(i ^ 1)  # walk against the tree edge
            return out

        def tree_path(u: str, v: str) -> list[int]:
            up = to_root(u)
            down = [i ^ 1 for i in reversed(to_root(v))]
            return up + down

        basis = [p for p in range(n_oriented // 2) if p not in tree_edges]
        cols = []
        for p in basis:
            loop = [2 * p] + tree_path(g.terminus(2 * p), g.origin(2 * p))
            counts = dict.fromkeys(basis, 0)
            for i in loop:
                for j in self._table[i]:
                    q = j >> 1
                    if q in counts:
                        counts[q] += -1 if (j & 1) else 1
            cols.append([counts[q] for q in basis])
        rows = tuple(zip(*cols)) if cols else ()
        det = int_determinant(rows) if rows else 1
        return AbelianizationMatrix(rows=rows, det=det)

    def apply_raw(self, path: EdgePath) -> list[int]:
        """Letterwise image with tightening, as raw oriented indices."""
        table = self._table
        return _tighten([table[i] for i in path.indices])

    def image_length_bound(self, path: EdgePath) -> int:
        """Length of the image before tightening; an upper bound after."""
        return _image_length(self._table, path.indices)

    def turn_is_legal(self, e1: int, e2: int) -> bool:
        """Iterate the edge derivative until the pair degenerates or cycles."""
        if self._graph.origin(e1) != self._graph.origin(e2):
            raise ValueError("a turn needs two edges at the same vertex")
        a, b = (e1, e2) if e1 <= e2 else (e2, e1)
        cache = self._legal_cache
        df = self._df
        seen: list[tuple[int, int]] = []
        while True:
            if a == b:
                verdict = False
                break
            known = cache.get((a, b))
            if known is not None:
                verdict = known
                break
            seen.append((a, b))
            if len(seen) > len(df) * len(df):
                raise AssertionError("turn iteration failed to cycle")  # unreachable
            a, b = df[a], df[b]
            if a > b:
                a, b = b, a
            if (a, b) in seen:
                verdict = True
                break
        for pair in seen:
            cache[pair] = verdict
        return verdict

    def stratum_matrix(self, k: int) -> NonnegIntMatrix:
        """Counts of height-k edge pairs in the images of height-k edges."""
        g = self._graph
        alph = g.edge_alphabet
        positions = [p for p in range(len(g.positive_edges)) if g.height(2 * p) == k]
        if not positions:
            raise ValueError(f"no edges of height {k}")
        where = {p: n for n, p in enumerate(positions)}
        cols = []
        for p in positions:
            counts = [0] * len(positions)
            for j in self._table[2 * p]:
                q = j >> 1
                if q in where:
                    counts[where[q]] += 1
            cols.append(counts)
        return NonnegIntMatrix(tuple(zip(*cols)))

    def __repr__(self) -> str:
        g = self._graph
        parts = ", ".join(f"{e} -> {self.edge_image(e).compact()}" for e in g.positive_edges)
        return f"StratifiedGraphMap({parts})"


def f_sharp(f: StratifiedGraphMap, path: EdgePath, power: int = 1) -> EdgePath:
    """Image of a tight path under ``power`` applications, tightened each time.

    Tightening first does not change the next image's tightened form, so
    iterating this single-step operation computes the fully reduced p-fold
    image directly.  Like :meth:`BasisMap.apply`, each step sums the exact
    image length for the letter cap only when the longest edge image times
    the path length could exceed the cap.
    """
    if power < 0:
        raise ValueError("power must be >= 0")
    if path.graph != f.graph:
        raise ValueError("path lives on a different graph")
    g = f.graph
    cur = path
    for _ in range(power):
        if len(cur) * f._longest > letter_cap():
            check_letters(f.image_length_bound(cur))
        cur = EdgePath._make(
            g, Word._trusted(g.edge_alphabet, f.apply_raw(cur)), f.vertex_image(cur.origin)
        )
    return cur


class StratumKind(enum.Enum):
    ZERO = "zero"
    NON_EXPONENTIAL = "non-exponential"
    EXPONENTIAL = "exponential"
    REQUIRES_REFINEMENT = "requires-refinement"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class StratumReport:
    """Classification of one height layer.

    ``matrix`` counts height-k pairs in height-k images.  Kinds: ZERO for
    the zero matrix, NON_EXPONENTIAL for a transitive edge permutation
    (the exact meaning of "irreducible with eigenvalue 1" over the
    integers), EXPONENTIAL for irreducible with eigenvalue above 1, and
    REQUIRES_REFINEMENT for anything nonzero but reducible, which a finer
    height ladder would separate.

    Eigendata is present for EXPONENTIAL only; ``aperiodic`` says whether
    the matrix is primitive (None for ZERO).  When a NON_EXPONENTIAL
    stratum is a single edge whose image is the edge followed by a
    lower-height loop u, that loop is exposed as ``loop_word``.
    """

    height: int
    edges: tuple[str, ...]
    kind: StratumKind
    matrix: NonnegIntMatrix
    aperiodic: bool | None
    eigenvalue: float | None
    eigenvector: tuple[float, ...] | None
    residual: float | None
    single_edge: bool
    loop_word: EdgePath | None


def classify_strata(f: StratifiedGraphMap) -> tuple[StratumReport, ...]:
    """One report per height, bottom to top.  Results are cached on f."""
    if f._strata_cache is not None:
        return f._strata_cache
    g = f.graph
    reports = []
    for k in range(1, g.max_height + 1):
        edges = g.edges_of_height(k)
        m = f.stratum_matrix(k)
        aperiodic: bool | None = None
        eigenvalue = eigenvector = residual = None
        single_edge = len(edges) == 1
        loop_word = None
        if m.is_zero:
            kind = StratumKind.ZERO
        elif not is_irreducible(m):
            kind = StratumKind.REQUIRES_REFINEMENT
            aperiodic = False
        elif is_transitive_permutation(m):
            kind = StratumKind.NON_EXPONENTIAL
            aperiodic = is_primitive(m)
            if single_edge:
                img = f.edge_image(edges[0])
                e = g.edge_alphabet.index(edges[0])
                if img.indices[0] == e:
                    rest = img[1:]
                    if rest.is_loop:
                        loop_word = rest
        else:
            kind = StratumKind.EXPONENTIAL
            aperiodic = is_primitive(m)
            # plain power iteration stalls on imprimitive matrices, so feed
            # it I + M there; the residual reported is still the residual
            # for M itself
            pf = pf_eigenvalue(m) if aperiodic else pf_eigenvalue_via_shift(m)
            eigenvalue = pf.eigenvalue
            eigenvector = pf.eigenvector
            residual = pf.residual
        reports.append(
            StratumReport(
                height=k,
                edges=edges,
                kind=kind,
                matrix=m,
                aperiodic=aperiodic,
                eigenvalue=eigenvalue,
                eigenvector=eigenvector,
                residual=residual,
                single_edge=single_edge,
                loop_word=loop_word,
            )
        )
    f._strata_cache = tuple(reports)
    return f._strata_cache


class RefinementNeeded(RuntimeError):
    """A stratum is reducible but nonzero: the height ladder is too coarse.

    Splitting the offending heights into finer invariant layers (a choice
    this package leaves to the caller) makes classification meaningful.
    """

    def __init__(self, heights: tuple[int, ...]):
        super().__init__(
            f"strata at heights {list(heights)} are reducible but nonzero; "
            f"refine the filtration and rebuild the map"
        )
        self.heights = heights


def growth_classify(f: StratifiedGraphMap) -> Growth:
    """Exponential when any stratum is, polynomial otherwise.

    Meaningful for maps that pass :func:`check_rtt`; raises
    :class:`RefinementNeeded` when reducible nonzero strata make the
    stratum types unreliable.
    """
    reports = classify_strata(f)
    bad = tuple(r.height for r in reports if r.kind is StratumKind.REQUIRES_REFINEMENT)
    if bad:
        raise RefinementNeeded(bad)
    if any(r.kind is StratumKind.EXPONENTIAL for r in reports):
        return Growth.EXPONENTIAL
    return Growth.POLYNOMIAL


@dataclass(frozen=True)
class Turn:
    edges: tuple[str, str]
    legal: bool


@dataclass(frozen=True)
class TurnTable:
    """Every nondegenerate turn of the graph, grouped by vertex."""

    turns: Mapping[str, tuple[Turn, ...]]

    def legal(self, e1: str, e2: str) -> bool:
        key = tuple(sorted((e1, e2)))
        for per_vertex in self.turns.values():
            for t in per_vertex:
                if t.edges == key:
                    return t.legal
        raise KeyError(f"no such turn {key!r}")


def build_turn_table(f: StratifiedGraphMap) -> TurnTable:
    g = f.graph
    alph = g.edge_alphabet
    n = len(alph.letters)
    by_vertex: dict[str, tuple[Turn, ...]] = {}
    for v in g.vertices:
        here = [i for i in range(n) if g.origin(i) == v]
        turns = []
        for a in range(len(here)):
            for b in range(a + 1, len(here)):
                e1, e2 = here[a], here[b]
                key = tuple(sorted((alph.token(e1), alph.token(e2))))
                turns.append(Turn(edges=key, legal=f.turn_is_legal(e1, e2)))
        by_vertex[v] = tuple(turns)
    return TurnTable(turns=by_vertex)


def path_is_k_legal(f: StratifiedGraphMap, path: EdgePath, k: int) -> bool:
    """No illegal turn whose two edges both have height k.

    Turns involving any lower edge do not count against legality at
    height k.
    """
    g = f.graph
    seq = path.indices
    for n in range(len(seq) - 1):
        a, b = seq[n] ^ 1, seq[n + 1]
        if g.height(a) == k and g.height(b) == k and not f.turn_is_legal(a, b):
            return False
    return True


@dataclass(frozen=True)
class RTTReport:
    """Outcome of the finite train-track checks, with witnesses.

    ``derivative_failures``: oriented height-k edges of an exponential
    stratum whose derivative leaves the stratum (first check).
    ``lower_path_failures``: (height, edge, power) triples where a
    lower-height edge with both endpoints on the height-k layer lost its
    endpoints or collapsed within ``checked_depth`` iterations (second
    check, bounded).  ``image_legality_failures``: height-k edges whose
    image is not k-legal (third check, on edges).
    """

    passed: bool
    derivative_failures: tuple[tuple[int, str], ...]
    lower_path_failures: tuple[tuple[int, str, int], ...]
    image_legality_failures: tuple[tuple[int, str], ...]
    turn_table: TurnTable
    checked_depth: int


def check_rtt(f: StratifiedGraphMap, depth: int = 3) -> RTTReport:
    """Run the three train-track conditions at finite scope.

    The first and third conditions are decided exactly (the third on edge
    images, which is the finite generating case).  The second is sampled
    up to ``depth`` iterations and is a bounded check by nature.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    g = f.graph
    alph = g.edge_alphabet
    reports = classify_strata(f)
    exponential = [r.height for r in reports if r.kind is StratumKind.EXPONENTIAL]

    derivative_failures = []
    for k in exponential:
        for name in g.edges_of_height(k):
            for i in (alph.index(name), alph.index(name) ^ 1):
                if g.height(f.derivative(i)) != k:
                    derivative_failures.append((k, alph.token(i)))

    image_legality_failures = []
    for k in exponential:
        for name in g.edges_of_height(k):
            if not path_is_k_legal(f, f.edge_image(name), k):
                image_legality_failures.append((k, name))

    lower_path_failures = []
    for k in exponential:
        layer_vertices = set()
        for name in g.edges_of_height(k):
            i = alph.index(name)
            layer_vertices.add(g.origin(i))
            layer_vertices.add(g.terminus(i))
        for p, name in enumerate(g.positive_edges):
            i = 2 * p
            if g.height(i) >= k:
                continue
            if g.origin(i) not in layer_vertices or g.terminus(i) not in layer_vertices:
                continue
            path = EdgePath._make(
                g, Word.from_indices(alph, (i,)), g.origin(i)
            )
            for power in range(1, depth + 1):
                path = f_sharp(f, path)
                if (
                    path.is_trivial
                    or path.origin not in layer_vertices
                    or path.terminus not in layer_vertices
                ):
                    lower_path_failures.append((k, name, power))
                    break

    return RTTReport(
        passed=not (derivative_failures or lower_path_failures or image_legality_failures),
        derivative_failures=tuple(derivative_failures),
        lower_path_failures=tuple(lower_path_failures),
        image_legality_failures=tuple(image_legality_failures),
        turn_table=build_turn_table(f),
        checked_depth=depth,
    )


def yellow_red_split(
    f: StratifiedGraphMap, path: EdgePath, k: int | None = None
) -> list[tuple[str, EdgePath]]:
    """Maximal single-color pieces of a k-legal path, in order.

    Red means height exactly k (default: the top height), yellow means
    lower.  Adjacent pieces never share a color and concatenating them
    returns the path.  Rejects paths that are not k-legal, where the
    decomposition would not behave well under the map.
    """
    g = f.graph
    if k is None:
        k = g.max_height
    if not path_is_k_legal(f, path, k):
        raise ValueError(f"path is not {k}-legal; the split is only defined for legal paths")
    pieces: list[tuple[str, EdgePath]] = []
    seq = path.indices
    n = 0
    while n < len(seq):
        color = "red" if g.height(seq[n]) == k else "yellow"
        m = n + 1
        while m < len(seq) and ("red" if g.height(seq[m]) == k else "yellow") == color:
            m += 1
        pieces.append((color, path[n:m]))
        n = m
    return pieces


def red_alphabet(graph: Graph, k: int | None = None) -> InverseAlphabet:
    """Inverse-closed alphabet of the height-k edge names.

    Built once per graph and height and cached on the graph, so every call
    (and every :func:`red_projection` at that height) returns the same object.
    """
    return graph._red_table(graph.max_height if k is None else k)[0]


def red_projection(path: EdgePath, k: int | None = None) -> Word:
    """Letters of height k only, as a word over the red alphabet.

    The letters are looked up in the graph's cached table for height k, and
    the word's alphabet is the same object :func:`red_alphabet` returns.
    The result is generally not freely reduced: deleting yellow letters
    can bring an edge next to its own reverse.
    """
    g = path.graph
    red, index = g._red_table(g.max_height if k is None else k)
    return Word._trusted(red, [j for j in map(index.__getitem__, path.indices) if j >= 0])


def _single_top_exponential(f: StratifiedGraphMap) -> StratumReport:
    reports = classify_strata(f)
    exponential = [r for r in reports if r.kind is StratumKind.EXPONENTIAL]
    if len(exponential) != 1:
        raise ValueError(
            f"need exactly one exponential stratum, found {len(exponential)}"
        )
    top = exponential[0]
    if top.height != f.graph.max_height:
        raise ValueError(
            f"the exponential stratum (height {top.height}) must be the top one "
            f"(height {f.graph.max_height})"
        )
    return top


def induced_substitution(f: StratifiedGraphMap) -> Substitution:
    """Red shadow of the map: each red edge goes to the red part of its image.

    Needs exactly one exponential stratum sitting at the top.  The result
    is flip-equivariant over the red alphabet, and its transition matrix is
    exactly the top stratum's matrix.
    """
    top = _single_top_exponential(f)
    k = top.height
    red = red_alphabet(f.graph, k)
    images = {
        name: red_projection(f.edge_image(name), k) for name in top.edges
    }
    return Substitution(red, images)


def red_commutation_check(f: StratifiedGraphMap, path: EdgePath, power: int) -> bool:
    """Does projecting then substituting equal mapping then projecting?

    Compares the red projection of the p-fold tightened image against the
    p-fold induced substitution of the red projection, letter for letter.
    The input must be legal at the top height; equality of the two words
    is the whole point of the construction, so a False here is diagnostic
    of a broken map rather than an expected outcome.
    """
    top = _single_top_exponential(f)
    k = top.height
    if not path_is_k_legal(f, path, k):
        raise ValueError(f"path is not {k}-legal")
    if power < 0:
        raise ValueError("power must be >= 0")
    sigma = induced_substitution(f)
    left = red_projection(f_sharp(f, path, power), k)
    right = sigma.iterate(red_projection(path, k), power)
    return left == right


@dataclass(frozen=True)
class YellowPiece:
    """One maximal lower-height subpath of an iterated edge image."""

    power: int
    path: EdgePath
    is_loop: bool


@dataclass(frozen=True)
class AuditReport:
    """Loop census of the yellow pieces of f_#^p(edge) for p up to depth.

    ``passed`` is True when no yellow piece is a loop.  On a one-vertex
    graph every nontrivial piece is a loop, so the audit can only pass
    there vacuously; spreading the map over more vertices is what makes a
    pass informative.
    """

    edge: str
    depth: int
    passed: bool
    pieces: tuple[YellowPiece, ...]


def yellow_loop_audit(f: StratifiedGraphMap, edge: str, depth: int) -> AuditReport:
    """List every maximal yellow subpath of the iterated images of an edge."""
    top = _single_top_exponential(f)
    k = top.height
    if edge not in top.edges:
        raise ValueError(f"{edge!r} is not an edge of the top stratum")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    g = f.graph
    pieces: list[YellowPiece] = []
    path = f.edge_image(edge)
    for p in range(1, depth + 1):
        if p > 1:
            path = f_sharp(f, path)
        seq = path.indices
        n = 0
        while n < len(seq):
            if g.height(seq[n]) == k:
                n += 1
                continue
            m = n
            while m < len(seq) and g.height(seq[m]) < k:
                m += 1
            sub = path[n:m]
            pieces.append(YellowPiece(power=p, path=sub, is_loop=sub.is_loop))
            n = m
    return AuditReport(
        edge=edge,
        depth=depth,
        passed=not any(piece.is_loop for piece in pieces),
        pieces=tuple(pieces),
    )


def pf_length(f: StratifiedGraphMap, path: EdgePath) -> float:
    """Eigenvector-weighted length: red letters weigh their Perron weight.

    Yellow letters weigh zero, so one application of the map scales this
    length by the top eigenvalue (up to the eigenvector residual).
    """
    top = _single_top_exponential(f)
    if top.eigenvector is None:
        raise ValueError("no eigendata on the top stratum")
    weight = dict(zip(top.edges, top.eigenvector))
    g = f.graph
    alph = g.edge_alphabet
    total = 0.0
    for i in path.indices:
        name = alph.token(i & ~1)
        if name in weight:
            total += weight[name]
    return total
