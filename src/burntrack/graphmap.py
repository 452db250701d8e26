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

:class:`Graph`, :class:`EdgePath`, :class:`StratifiedGraphMap` and
:func:`f_sharp` are defined in :mod:`burntrack._graph` (see there for how
paths and maps are stored) and imported here, where they keep their public
home.  The command line loads a session's graph maps and iterates them
through that module alone, so a question that does not analyse a graph
map never compiles this one.  The analysis stays here rather than moving
out because ``bench/tracing.py`` patches ``classify_strata``,
``red_projection``, ``path_is_k_legal`` and ``yellow_loop_audit`` in this
module's namespace.

Maps are immutable after validation; analysis results are cached on the
instance but every public function is pure in its outputs.
"""

from __future__ import annotations

import enum
from itertools import combinations, groupby
from typing import Iterator, Mapping

from ._graph import EdgePath, Graph, StratifiedGraphMap, _check_on_graph, f_sharp
from ._maps import NonnegIntMatrix, Substitution
from ._records import frozen
from .automorphisms import Growth
from .matrices import _period, _perron, is_irreducible, is_transitive_permutation
from .words import InverseAlphabet, Word

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


class StratumKind(enum.Enum):
    ZERO = "zero"
    NON_EXPONENTIAL = "non-exponential"
    EXPONENTIAL = "exponential"
    REQUIRES_REFINEMENT = "requires-refinement"

    def __str__(self) -> str:
        return self.value


@frozen
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
        elif is_transitive_permutation(m):
            kind = StratumKind.NON_EXPONENTIAL
            aperiodic = _period(m) == 1
            if single_edge:
                img = f.edge_image(edges[0])
                e = g.edge_alphabet.index(edges[0])
                if img.indices[0] == e:
                    rest = img[1:]
                    if rest.is_loop:
                        loop_word = rest
        elif is_irreducible(m):
            kind = StratumKind.EXPONENTIAL
            aperiodic = _period(m) == 1
            pf = _perron(m)
            eigenvalue, eigenvector, residual = pf.eigenvalue, pf.eigenvector, pf.residual
        else:
            kind = StratumKind.REQUIRES_REFINEMENT
            aperiodic = False
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


@frozen
class Turn:
    edges: tuple[str, str]
    legal: bool


@frozen
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
        by_vertex[v] = tuple(
            Turn(edges=tuple(sorted((alph.token(e1), alph.token(e2)))), legal=f.turn_is_legal(e1, e2))
            for e1, e2 in combinations(here, 2)
        )
    return TurnTable(turns=by_vertex)


def path_is_k_legal(f: StratifiedGraphMap, path: EdgePath, k: int) -> bool:
    """No illegal turn whose two edges both have height k.

    Turns involving any lower edge do not count against legality at
    height k.  Consecutive letters meet at a vertex, so each turn reads the stable Df.
    """
    _check_on_graph(f.graph, path)
    g = f.graph
    stable = f._df_stable
    seq = path.indices
    for n in range(len(seq) - 1):
        a, b = seq[n] ^ 1, seq[n + 1]
        if g.height(a) == k and g.height(b) == k and stable[a] == stable[b]:
            return False
    return True


@frozen
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
    image_legality_failures = []
    lower_path_failures = []
    for k in exponential:
        layer_vertices = set()
        for name in g.edges_of_height(k):
            i = alph.index(name)
            for j in (i, i ^ 1):
                layer_vertices.add(g.origin(j))
                if g.height(f.derivative(j)) != k:
                    derivative_failures.append((k, alph.token(j)))
            if not path_is_k_legal(f, f.edge_image(name), k):
                image_legality_failures.append((k, name))
        for p, name in enumerate(g.positive_edges):
            i = 2 * p
            if g.height(i) >= k:
                continue
            if g.origin(i) not in layer_vertices or g.terminus(i) not in layer_vertices:
                continue
            path = EdgePath._make(g, (i,), g.origin(i))
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


def _colour_runs(g: Graph, path: EdgePath, k: int) -> Iterator[tuple[bool, int, int]]:
    """(height is k, start, stop) of each maximal run of height-k or other letters."""
    n = 0
    for red, run in groupby(path.indices, lambda i: g.height(i) == k):
        m = n + len(list(run))
        yield red, n, m
        n = m


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
    return [("red" if red else "yellow", path[n:m]) for red, n, m in _colour_runs(g, path, k)]


def red_alphabet(graph: Graph, k: int | None = None) -> InverseAlphabet:
    """Inverse-closed alphabet of the height-k edge names.

    Built once per graph and height and cached on the graph, so every call
    (and every :func:`red_projection` at that height) returns the same object.
    """
    return graph._red_table(graph.max_height if k is None else k).red


def red_projection(path: EdgePath, k: int | None = None) -> Word:
    """Letters of height k only, as a word over the red alphabet.

    The letters are mapped through the graph's cached tables for height k:
    on graphs with at most 256 oriented edges one ``bytes.translate`` call
    renumbers the red letters and deletes the others, and larger graphs
    look each letter up.  The word's alphabet is the same object
    :func:`red_alphabet` returns.  The result is generally not freely
    reduced: deleting yellow letters can bring an edge next to its own
    reverse.
    """
    g = path._graph
    red, index, translate, delete = g._red.get(k) or g._red_table(g.max_height if k is None else k)
    if translate is None:
        return Word._trusted(red, [j for j in map(index.__getitem__, path._seq) if j >= 0])
    return Word._trusted(red, bytes(path._seq).translate(translate, delete))


def _exponential_stratum(f: StratifiedGraphMap) -> StratumReport:
    """The one exponential stratum of f; ValueError unless there is exactly one."""
    exponential = [r for r in classify_strata(f) if r.kind is StratumKind.EXPONENTIAL]
    if len(exponential) != 1:
        raise ValueError(f"need exactly one exponential stratum, found {len(exponential)}")
    return exponential[0]


def _single_top_exponential(f: StratifiedGraphMap) -> StratumReport:
    top = _exponential_stratum(f)
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


@frozen
class YellowPiece:
    """One maximal lower-height subpath of an iterated edge image."""

    power: int
    path: EdgePath
    is_loop: bool


@frozen
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
        for red, n, m in _colour_runs(g, path, k):
            if not red:
                sub = path[n:m]
                pieces.append(YellowPiece(power=p, path=sub, is_loop=sub.is_loop))
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
    _check_on_graph(f.graph, path)
    top = _single_top_exponential(f)
    if top.eigenvector is None:
        raise ValueError("no eigendata on the top stratum")
    index = f.graph.edge_alphabet.index
    weight = {index(name) >> 1: w for name, w in zip(top.edges, top.eigenvector)}
    total = 0.0
    for i in path.indices:
        total += weight.get(i >> 1, 0.0)
    return total
