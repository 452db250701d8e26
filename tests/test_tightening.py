"""The one tightening stack and the trusted results, checked against oracles.

Every free reduction in the package runs on ``words._tighten`` and every
length before cancellation on ``words._image_length``.  Each caller is
compared here with ``free_reduce_bruteforce`` applied to the plain
concatenation of the letter images.  Results built with ``Word._trusted``
skip validation, so each is also rebuilt through the validating
constructors (``from_indices``, and ``EdgePath`` for paths), which must
accept it unchanged.  Red projections are compared with
``red_projection_bruteforce``.
"""

import os
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burntrack.automorphisms import BasisMap
from burntrack.burnside import _rewrite
from burntrack.graphmap import (
    EdgePath,
    Graph,
    StratifiedGraphMap,
    f_sharp,
    red_alphabet,
    red_projection,
)
from burntrack.limits import GrowthCapExceeded
from burntrack.substitutions import Substitution
from burntrack.words import (
    Alphabet,
    GroupWord,
    InverseAlphabet,
    Word,
    _image_length,
    find_power_runs,
    reduce,
)

from .oracles import free_reduce_bruteforce, red_projection_bruteforce


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


def revalidated(w):
    """The same word rebuilt through the validating constructor of its class."""
    return type(w).from_indices(w.alphabet, w.indices)


def repathed(p):
    """The same path rebuilt with every check: range, composability, no backtracking."""
    return EdgePath(p.graph, revalidated(p.word), at=p.origin)


def heights(graph):
    return [graph.height(2 * q) for q in range(len(graph.positive_edges))]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda r: st.tuples(st.just(r), letters(2 * r, 40))))
def test_reduce_matches_oracle(case):
    rank, seq = case
    w = Word.from_indices(InverseAlphabet("abc"[:rank]), seq)
    got = reduce(w)
    assert list(got.indices) == free_reduce_bruteforce(seq)
    assert type(got) is GroupWord and revalidated(got) == got


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
    got = f.apply(w)
    assert list(got.indices) == free_reduce_bruteforce(raw)
    assert type(got) is GroupWord and revalidated(got) == got
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
    assert repathed(prod) == prod
    # slices of a tight path are tight paths too
    cut = back % (len(prod) + 1)
    assert repathed(prod[:cut]) == prod[:cut] and repathed(prod[cut:]) == prod[cut:]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(GRAPH_MAPS)), st.integers(0, 1), choices, st.integers(1, 3))
def test_f_sharp_matches_oracle(name, vertex, picks, power):
    f = GRAPH_MAPS[name]
    g = f.graph
    start = g.vertices[vertex % len(g.vertices)]
    p = path(g, start, walk(g, start, picks))
    table = [f.edge_image(i).indices for i in range(len(g.edge_alphabet.letters))]
    expected = list(p.indices)
    for _ in range(power):
        expected = free_reduce_bruteforce(concat(table[i] for i in expected))
    got = f_sharp(f, p, power)
    assert list(got.indices) == expected
    assert repathed(got) == got


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(GRAPH_MAPS)), st.integers(0, 1), choices, st.integers(0, 3))
def test_red_projection_matches_oracle(name, vertex, picks, k):
    g = GRAPH_MAPS[name].graph
    start = g.vertices[vertex % len(g.vertices)]
    p = path(g, start, walk(g, start, picks))
    k = 1 + k % g.max_height
    got = red_projection(p, k)
    assert list(got.indices) == red_projection_bruteforce(heights(g), p.indices, k)
    assert got.alphabet is red_alphabet(g, k) and revalidated(got) == got


@pytest.mark.parametrize("name", sorted(GRAPH_MAPS))
def test_red_tables_are_cached_per_graph_and_height(name):
    g = GRAPH_MAPS[name].graph
    alphabets = [red_alphabet(g, k) for k in range(1, g.max_height + 1)]
    assert len(set(alphabets)) == len(alphabets)
    for k, red in enumerate(alphabets, start=1):
        assert red_alphabet(g, k) is red
        assert red == InverseAlphabet(g.edges_of_height(k))
    assert red_alphabet(g) is alphabets[-1]
    for k in (0, g.max_height + 1):
        with pytest.raises(ValueError, match="no edges"):
            red_alphabet(g, k)
    # one path projected at every height: no height reads another's table
    p = path(g, g.vertices[0], walk(g, g.vertices[0], range(12)))
    for k, red in enumerate(alphabets, start=1):
        proj = red_projection(p, k)
        assert proj.alphabet is red
        assert list(proj.indices) == red_projection_bruteforce(heights(g), p.indices, k)
    # an equal graph has its own cache, which is not part of its value
    twin = Graph(g.vertices, [
        (e, g.origin(2 * q), g.terminus(2 * q), g.height(2 * q))
        for q, e in enumerate(g.positive_edges)
    ])
    before = hash(twin)
    assert red_projection(path(twin, p.origin, p.indices)) == red_projection(p)
    assert twin == g and hash(twin) == before == hash(g)
    assert red_alphabet(twin) == red_alphabet(g) and red_alphabet(twin) is not red_alphabet(g)


@st.composite
def substitutions_and_words(draw):
    alph = draw(st.sampled_from([Alphabet("abc"), InverseAlphabet("ab")]))
    names = alph.positive_letters if alph.has_inverses else alph.letters
    width = len(alph.letters)
    nonempty = st.lists(st.integers(0, width - 1), min_size=1, max_size=4)
    images = {x: Word.from_indices(alph, draw(nonempty)) for x in names}
    return Substitution(alph, images), Word.from_indices(alph, draw(letters(width, 20)))


@settings(max_examples=200, deadline=None)
@given(substitutions_and_words())
def test_substitution_apply_matches_concatenation(case):
    sigma, w = case
    got = sigma.apply(w)
    table = [sigma.letter_image(i) for i in range(len(sigma.alphabet.letters))]
    assert list(got.indices) == concat(table[i] for i in w.indices)
    assert type(got) is Word and revalidated(got) == got


@settings(max_examples=200, deadline=None)
@given(letters(4, 6), st.lists(st.integers(0, 3), min_size=1, max_size=3),
       st.integers(2, 5), letters(4, 6), st.integers(1, 7))
def test_rewrite_matches_oracle(prefix, period, m, suffix, n):
    alph = InverseAlphabet("ab")
    word = GroupWord.from_indices(alph, free_reduce_bruteforce(prefix + period * m + suffix))
    seq = list(word.indices)
    for run in find_power_runs(word, 2):
        u = list(run.period.indices)
        e = run.exponent - n
        middle = u * e if e >= 0 else [i ^ 1 for i in reversed(u)] * -e
        got = _rewrite(word, run, n)
        expected = free_reduce_bruteforce(seq[: run.start] + middle + seq[run.end :])
        assert list(got.indices) == expected
        assert type(got) is GroupWord and revalidated(got) == got
