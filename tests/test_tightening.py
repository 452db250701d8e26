"""The one tightening stack, checked against leftmost-pair deletion.

Every free reduction in the package runs on ``words._tighten`` and every
length before cancellation on ``words._image_length``.  Each caller is
compared here with ``free_reduce_bruteforce`` applied to the plain
concatenation of the letter images.
"""

import os
import warnings
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from burntrack.automorphisms import BasisMap
from burntrack.graphmap import EdgePath, Graph, StratifiedGraphMap
from burntrack.limits import GrowthCapExceeded
from burntrack.words import InverseAlphabet, Word, _image_length, reduce

from .oracles import free_reduce_bruteforce


def _psi():
    g = Graph.rose(["a", "b", "c", "d"], {"a": 1, "b": 2, "c": 3, "d": 3})
    return StratifiedGraphMap(g, {"*": "*"}, {"a": "a", "b": "b a", "c": "c b c d", "d": "c"})


def _cover():
    g = Graph(["u", "v"], [("y", "u", "v", 1), ("c", "u", "v", 2), ("d", "v", "u", 2)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # homology determinant 5
        return StratifiedGraphMap(
            g, {"u": "u", "v": "v"}, {"y": "y", "c": "c d c y^-1 c", "d": "d c d"}
        )


GRAPH_MAPS = {"psi": _psi(), "cover": _cover()}

choices = st.lists(st.integers(0, 1000), max_size=25)


def letters(width, max_size):
    return st.lists(st.integers(0, width - 1), max_size=max_size)


def concat(images):
    return [k for img in images for k in img]


def walk(graph, start, picks, after=None):
    """A non-backtracking edge walk from ``start``; ``after`` is the letter just before it."""
    n = len(graph.edge_alphabet.letters)
    out = []
    v, last = start, after
    for c in picks:
        allowed = [i for i in range(n) if graph.origin(i) == v and (last is None or i != last ^ 1)]
        last = allowed[c % len(allowed)]
        out.append(last)
        v = graph.terminus(last)
    return out


def path(graph, start, indices):
    return EdgePath(graph, Word.from_indices(graph.edge_alphabet, indices), at=start)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda r: st.tuples(st.just(r), letters(2 * r, 40))))
def test_reduce_matches_oracle(case):
    rank, seq = case
    w = Word.from_indices(InverseAlphabet("abc"[:rank]), seq)
    assert list(reduce(w).indices) == free_reduce_bruteforce(seq)


@st.composite
def basis_maps_and_words(draw):
    rank = draw(st.sampled_from([2, 3]))
    alph = InverseAlphabet("abc"[:rank])
    images = {
        x: Word.from_indices(alph, draw(letters(2 * rank, 5))) for x in alph.positive_letters
    }
    return BasisMap(alph, images), Word.from_indices(alph, draw(letters(2 * rank, 20)))


@settings(max_examples=200, deadline=None)
@given(basis_maps_and_words())
def test_basis_map_apply_matches_oracle(case):
    f, w = case
    table = [f.letter_image(i) for i in range(len(f.alphabet.letters))]
    raw = concat(table[i] for i in w.indices)
    assert list(f.apply(w).indices) == free_reduce_bruteforce(raw)
    assert _image_length(table, w.indices) == len(raw)
    # the cap check inside apply reads the same length
    uncapped = f.apply(w)
    with mock.patch.dict(os.environ, {"BURNTRACK_MAX_LETTERS": str(max(len(raw), 1))}):
        assert f.apply(w) == uncapped
    if len(raw) > 1:
        with mock.patch.dict(os.environ, {"BURNTRACK_MAX_LETTERS": str(len(raw) - 1)}):
            try:
                f.apply(w)
            except GrowthCapExceeded as err:
                assert err.needed == len(raw)
            else:
                raise AssertionError("apply did not check the letter cap")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(GRAPH_MAPS)), st.integers(0, 1), choices)
def test_apply_raw_matches_oracle(name, vertex, picks):
    f = GRAPH_MAPS[name]
    g = f.graph
    start = g.vertices[vertex % len(g.vertices)]
    p = path(g, start, walk(g, start, picks))
    table = [f.edge_image(i).indices for i in range(len(g.edge_alphabet.letters))]
    raw = concat(table[i] for i in p.indices)
    assert f.apply_raw(p) == free_reduce_bruteforce(raw)
    assert f.image_length_bound(p) == _image_length(table, p.indices) == len(raw)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(GRAPH_MAPS)), choices, st.integers(0, 30), choices)
def test_edge_path_product_matches_oracle(name, first, back, rest):
    g = GRAPH_MAPS[name].graph
    start = g.vertices[0]
    p = path(g, start, walk(g, start, first))
    # q retraces the last k letters of p, then walks on, so p * q cancels
    k = min(back, len(p))
    head = list(p.reverse().indices[:k])
    tail = walk(g, p.vertex_at(len(p) - k), rest, after=head[-1] if head else None)
    q = path(g, p.terminus, head + tail)
    prod = p * q
    assert list(prod.indices) == free_reduce_bruteforce(p.indices + q.indices)
    assert prod.origin == p.origin and prod.terminus == q.terminus
