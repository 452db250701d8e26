"""The one tightening stack and the trusted results, checked against oracles.

Every free reduction in the package runs on ``words._tighten`` and every
length before cancellation on ``words._image_length``.  Each caller is
compared here with ``free_reduce_bruteforce`` applied to the plain
concatenation of the letter images.  Results built with ``Word._trusted``
skip validation, so each is also rebuilt through the validating
constructors (``from_indices``, and ``EdgePath`` for paths), which must
accept it unchanged.  Red projections are compared with
``red_projection_bruteforce``.

Letter tables over at most 256 letters join their images with
``words._join_images``, and graphs that small project to red with
``bytes.translate``; larger ones take the letter-by-letter code.  The maps
below cover both: ``wide`` has 260 oriented edges, ``WIDE`` basis maps 258
letters, and in ``swallow`` and ``wide`` whole edge images cancel where two
pieces meet.  ``_join_images`` is also checked on its own:
it must hand a sequence to ``_tighten`` exactly when two adjacent letters
of the joined images cancel.
"""

import os
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burntrack import words
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
    _join_images,
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


def _swallow():
    # the image of b cancels whole against the end of a's, and c's then cancels into a's
    g = Graph.rose(["a", "b", "c"], {"a": 2, "b": 1, "c": 1})
    return StratifiedGraphMap(g, {"*": "*"}, {"a": "a b c", "b": "c^-1", "c": "b^-1 c"})


def _wide():
    # conjugation by e0 on a rose of 130 edges: indices reach 259, and at every
    # junction e0^-1 e0 cancels, so the image of e0 itself cancels whole
    names = [f"e{q}" for q in range(130)]
    g = Graph.rose(names, {e: 1 if e == "e0" else 2 for e in names})
    return StratifiedGraphMap(
        g, {"*": "*"}, {e: "e0" if e == "e0" else f"e0 {e} e0^-1" for e in names}
    )


GRAPH_MAPS = {"psi": _psi(), "cover": _cover(), "swallow": _swallow(), "wide": _wide()}

# rank 129: 258 letters, past the one-byte codes of _join_images
WIDE = InverseAlphabet([f"x{q}" for q in range(129)])

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
    alph = draw(st.sampled_from([InverseAlphabet("ab"), InverseAlphabet("abc"), WIDE]))
    width = len(alph.letters)
    # WIDE draws three images; the others conjugate by x0, which cancels at every junction
    images = {x: f"x0 {x} x0^-1" for x in alph.positive_letters[3:]}
    for x in alph.positive_letters[:3]:
        images[x] = Word.from_indices(alph, draw(letters(width, 5)))
    return BasisMap(alph, images), Word.from_indices(alph, draw(letters(width, 20)))


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
    # the cap check inside apply_raw reads the same length
    uncapped = f.apply_raw(p)
    with mock.patch.dict(os.environ, {"BURNTRACK_MAX_LETTERS": str(max(len(raw), 1))}):
        assert f.apply_raw(p) == uncapped
    if len(raw) > 1:
        with mock.patch.dict(os.environ, {"BURNTRACK_MAX_LETTERS": str(len(raw) - 1)}):
            try:
                f.apply_raw(p)
            except GrowthCapExceeded as err:
                assert err.needed == len(raw)
            else:
                raise AssertionError("apply_raw did not check the letter cap")


def test_both_kernel_branches_are_covered():
    assert len(GRAPH_MAPS["wide"].graph.edge_alphabet.letters) == 260
    assert all(len(f.graph.edge_alphabet.letters) <= 256 for n, f in GRAPH_MAPS.items() if n != "wide")
    # byte images exactly up to 256 letters, for both kinds of letter map
    assert GRAPH_MAPS["wide"]._codes is None
    assert all(f._codes is not None for n, f in GRAPH_MAPS.items() if n != "wide")
    for rank, wide in ((128, False), (129, True)):
        names = [f"x{q}" for q in range(rank)]
        rose = Graph.rose(names, {x: 1 for x in names})
        graph_map = StratifiedGraphMap(rose, {"*": "*"}, {x: x for x in names})
        for f in (BasisMap.identity(InverseAlphabet(names)), graph_map):
            assert (f._codes is None) == wide
    for name, start, seq, image in [
        ("swallow", "*", [0, 2, 4], [0, 4]),  # a b c -> a b c . c^-1 . b^-1 c = a c
        ("wide", "*", [2, 0, 4], [0, 2, 0, 4, 1]),  # e1 e0 e2 -> e0 e1 e0 e2 e0^-1
    ]:
        f = GRAPH_MAPS[name]
        assert f.apply_raw(path(f.graph, start, seq)) == image


# letters 0 and 1 start joins whose first byte of the XOR is zero; 254 and
# 255 are the last one-byte letters
JOIN_LETTERS = st.sampled_from([0, 1, 2, 3, 254, 255])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(JOIN_LETTERS, max_size=4), min_size=1, max_size=6),
    st.lists(st.integers(0, 5), max_size=12),
)
def test_join_images_tightens_exactly_where_letters_cancel(images, picks):
    table = [tuple(free_reduce_bruteforce(img)) for img in images]
    seq = [k % len(table) for k in picks]
    raw = concat(table[i] for i in seq)
    cancels = any(x == y ^ 1 for x, y in zip(raw, raw[1:]))
    with mock.patch.object(words, "_tighten", wraps=words._tighten) as spy:
        got = _join_images(tuple(map(bytes, table)), table, seq)
    assert got == free_reduce_bruteforce(raw)
    assert type(got) is list
    assert spy.called == cancels


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
def test_trusted_paths_are_what_the_checked_constructor_builds(name):
    # a path holds a tuple of indices; its word is built over the graph's own alphabet
    f = GRAPH_MAPS[name]
    g = f.graph
    images = [f.edge_image(i) for i in range(len(g.edge_alphabet.letters))]
    made = []
    for p in images:
        made += [p, p.reverse(), f_sharp(f, p), f_sharp(f, p, 2), p * p.reverse()]
        made += [p * q for q in images[:8] if q.origin == p.terminus]
        for q in (p, f_sharp(f, p)):
            made += [q[a:b] for a in range(len(q) + 1) for b in range(a, len(q) + 1)]
    for p in made:
        assert p == EdgePath(g, Word.from_indices(g.edge_alphabet, p.indices), at=p.origin)
        assert type(p.indices) is tuple
        assert p.word.indices == p.indices and p.word.alphabet == g.edge_alphabet


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
    names = alph.positive_letters
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
