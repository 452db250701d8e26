import math
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burntrack import matrices
from burntrack.automorphisms import BasisMap, Growth, abelianization
from burntrack.cli import main
from burntrack.graphmap import (
    AuditReport,
    EdgePath,
    Graph,
    RefinementNeeded,
    StratifiedGraphMap,
    StratumKind,
    build_turn_table,
    check_rtt,
    classify_strata,
    f_sharp,
    growth_classify,
    induced_substitution,
    path_is_k_legal,
    pf_length,
    red_alphabet,
    red_projection,
    red_commutation_check,
    yellow_loop_audit,
    yellow_red_split,
)
from burntrack.limits import GrowthCapExceeded
from burntrack.words import InverseAlphabet, Word, reduce

from .oracles import turn_legal_bruteforce
from .test_tightening import GRAPH_MAPS


def psi_rose():
    g = Graph.rose(["a", "b", "c", "d"], {"a": 1, "b": 2, "c": 3, "d": 3})
    f = StratifiedGraphMap(g, {"*": "*"}, {"a": "a", "b": "b a", "c": "c b c d", "d": "c"})
    return g, f


def fib_rose():
    g = Graph.rose(["a", "b"])
    f = StratifiedGraphMap(g, {"*": "*"}, {"a": "a b", "b": "a"})
    return g, f


def twist_rose():
    g = Graph.rose(["a", "b"], {"a": 1, "b": 2})
    f = StratifiedGraphMap(g, {"*": "*"}, {"a": "a", "b": "b a"})
    return g, f


def cover2():
    # two-sheeted shape: the homology determinant is 5, so construction warns
    g = Graph(["u", "v"], [("y", "u", "v", 1), ("c", "u", "v", 2), ("d", "v", "u", 2)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        f = StratifiedGraphMap(
            g, {"u": "u", "v": "v"}, {"y": "y", "c": "c d c y^-1 c", "d": "d c d"}
        )
    return g, f


def tight(graph, indices):
    out = []
    for i in indices:
        if out and out[-1] == i ^ 1:
            out.pop()
        else:
            out.append(i)
    return EdgePath(graph, Word.from_indices(graph.edge_alphabet, out), at="*")


class TestGraph:
    def test_rose(self):
        g = Graph.rose(["a", "b"])
        assert g.vertices == ("*",)
        assert g.positive_edges == ("a", "b")
        assert g.max_height == 1
        assert g.origin(0) == g.terminus(0) == "*"
        assert g.is_connected()

    def test_heights(self):
        g, _ = psi_rose()
        assert g.height(0) == 1  # a
        assert g.height(1) == 1  # a^-1
        assert g.height(4) == g.height(7) == 3
        assert g.edges_of_height(3) == ("c", "d")
        assert g.edges_of_height(2) == ("b",)

    def test_two_vertices(self):
        g, _ = cover2()
        y = g.edge_alphabet.index("y")
        assert g.origin(y) == "u" and g.terminus(y) == "v"
        assert g.origin(y ^ 1) == "v" and g.terminus(y ^ 1) == "u"
        assert g.is_connected()

    def test_disconnected(self):
        g = Graph(["u", "v"], [("y", "u", "u", 1), ("z", "v", "v", 1)])
        assert not g.is_connected()

    def test_construction_guards(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            Graph([], [])
        with pytest.raises(ValueError, match="at least one edge"):
            Graph(["u"], [])
        with pytest.raises(ValueError, match="unknown vertex"):
            Graph(["u"], [("e", "u", "w", 1)])
        with pytest.raises(ValueError, match="height must be >= 1"):
            Graph(["u"], [("e", "u", "u", 0)])
        with pytest.raises(ValueError, match="without gaps"):
            Graph(["u"], [("e", "u", "u", 1), ("f", "u", "u", 3)])
        with pytest.raises(ValueError, match="duplicate"):
            Graph(["u"], [("e", "u", "u", 1), ("e", "u", "u", 1)])

    def test_duplicate_vertex(self):
        # a repeated vertex name is an error, like a repeated edge name
        with pytest.raises(ValueError, match="^duplicate vertex 'u'$"):
            Graph(["u", "v", "u"], [("e", "u", "v", 1)])

    def test_equality(self):
        assert psi_rose()[0] == psi_rose()[0]
        assert psi_rose()[0] != fib_rose()[0]
        assert hash(psi_rose()[0]) == hash(psi_rose()[0])

    def test_distinct_equal_graphs_compare_by_value(self):
        # __eq__ answers True for the same object at once; other objects are still compared
        g, h = psi_rose()[0], psi_rose()[0]
        assert g is not h and g == h and h == g and g == g
        assert hash(g) == hash(h) == hash((("*",), g.edge_alphabet, (("*",) * 8), (1, 2, 3, 3)))
        assert g != Graph.rose(["a", "b", "c", "d"], {"a": 1, "b": 2, "c": 3, "d": 2})
        assert g != Graph(["*", "v"], [("a", "*", "*", 1), ("b", "*", "*", 2), ("c", "*", "*", 3),
                                       ("d", "*", "*", 3)])
        assert g.__eq__("psi") is NotImplemented and g != "psi"


class TestEdgePath:
    def test_parse_and_render(self):
        g, _ = psi_rose()
        p = EdgePath(g, "c b a^-1")
        assert p.compact() == "cbA"
        assert str(p) == "c b a^-1"
        assert len(p) == 3
        assert p.origin == p.terminus == "*"
        assert p.is_loop and not p.is_trivial

    def test_trivial_needs_basepoint(self):
        g, _ = cover2()
        with pytest.raises(ValueError, match="basepoint"):
            EdgePath(g, "")
        p = EdgePath(g, "", at="v")
        assert p.is_trivial and p.origin == p.terminus == "v"
        with pytest.raises(ValueError, match="unknown vertex"):
            EdgePath(g, "", at="w")

    def test_basepoint_must_match(self):
        g, _ = cover2()
        assert EdgePath(g, "c", at="u").origin == "u"
        with pytest.raises(ValueError, match="starts at"):
            EdgePath(g, "c", at="v")

    def test_composability(self):
        g, _ = cover2()
        p = EdgePath(g, "c d c y^-1")
        assert p.origin == "u" and p.terminus == "u"
        assert p.vertex_at(0) == "u" and p.vertex_at(1) == "v" and p.vertex_at(2) == "u"
        for n in (-1, 5):
            with pytest.raises(IndexError):
                p.vertex_at(n)
        with pytest.raises(ValueError, match="do not compose"):
            EdgePath(g, "c c")

    def test_backtracking_rejected(self):
        g, _ = psi_rose()
        with pytest.raises(ValueError, match="backtracks"):
            EdgePath(g, "c c^-1")
        # an inverse pair apart is fine
        EdgePath(g, "c a c^-1")

    def test_wrong_alphabet(self):
        g, _ = psi_rose()
        other = InverseAlphabet(["x"])
        with pytest.raises(ValueError, match="edge alphabet"):
            EdgePath(g, Word.from_indices(other, (0,)))

    def test_slice_and_reverse(self):
        g, _ = cover2()
        p = EdgePath(g, "c d c y^-1")
        assert p[1:3].compact() == "dc"
        assert p[1:3].origin == "v"
        assert p[2:2].is_trivial and p[2:2].origin == "u"
        with pytest.raises(ValueError, match="with a step"):
            p[::2]
        r = p.reverse()
        assert r.compact() == "yCDC"
        assert r.origin == "u" and r.terminus == "u"
        assert r.reverse() == p

    def test_product_tightens(self):
        g, _ = psi_rose()
        left = EdgePath(g, "c b")
        right = EdgePath(g, "b^-1 d")
        assert (left * right).compact() == "cd"
        c = EdgePath(g, "c")
        assert (c * c.reverse()).is_trivial
        assert (c * c.reverse()).origin == "*"

    def test_product_needs_matching_ends(self):
        g, _ = cover2()
        c = EdgePath(g, "c")
        with pytest.raises(ValueError, match="do not compose"):
            c * c
        f, _ = fib_rose()
        h, _ = twist_rose()
        with pytest.raises(ValueError, match="different graphs"):
            EdgePath(f, "a") * EdgePath(h, "a")


class TestMapConstruction:
    def test_getters(self):
        g, f = psi_rose()
        assert f.vertex_image("*") == "*"
        assert f.edge_image("c").compact() == "cbcd"
        assert f.edge_image("d").compact() == "c"
        alph = g.edge_alphabet
        assert f.edge_image(alph.index("c") ^ 1).compact() == "DCBC"

    def test_derivative(self):
        g, f = psi_rose()
        alph = g.edge_alphabet
        c, d = alph.index("c"), alph.index("d")
        assert f.derivative(c) == c
        assert f.derivative(c ^ 1) == d ^ 1
        assert f.derivative(d) == c
        assert f.derivative(d ^ 1) == c ^ 1

    def test_missing_pieces(self):
        g, _ = psi_rose()
        with pytest.raises(ValueError, match="missing images"):
            StratifiedGraphMap(g, {"*": "*"}, {"a": "a", "b": "b a", "c": "c"})
        with pytest.raises(ValueError, match="positive edge names"):
            StratifiedGraphMap(
                g, {"*": "*"}, {"a": "a", "b": "b a", "c": "c", "d": "c", "e": "a"}
            )
        with pytest.raises(ValueError, match="vertex_map is missing"):
            StratifiedGraphMap(g, {}, {"a": "a", "b": "b a", "c": "c b c d", "d": "c"})
        with pytest.raises(ValueError, match="'w' -> '\\*' uses unknown vertices"):
            StratifiedGraphMap(
                g, {"*": "*", "w": "*"}, {"a": "a", "b": "b a", "c": "c b c d", "d": "c"}
            )

    def test_no_collapsing(self):
        g, _ = fib_rose()
        with pytest.raises(ValueError, match="may not collapse"):
            StratifiedGraphMap(g, {"*": "*"}, {"a": "a b", "b": ""})
        with pytest.raises(ValueError, match="may not collapse"):
            StratifiedGraphMap(g, {"*": "*"}, {"a": "a b", "b": EdgePath(g, "", at="*")})

    def test_image_on_another_graph(self):
        g, _ = fib_rose()
        h, _ = twist_rose()
        with pytest.raises(ValueError, match="image of 'b' lives on a different graph"):
            StratifiedGraphMap(g, {"*": "*"}, {"a": "a b", "b": EdgePath(h, "a")})

    def test_filtration_enforced(self):
        g, _ = twist_rose()
        with pytest.raises(ValueError, match="filtration violated"):
            StratifiedGraphMap(g, {"*": "*"}, {"a": "b", "b": "b a"})

    def test_endpoints_enforced(self):
        g, _ = cover2()
        with pytest.raises(ValueError, match="expected"):
            # image of c runs v -> u but c runs u -> v
            StratifiedGraphMap(
                g, {"u": "u", "v": "v"}, {"y": "y", "c": "d", "d": "d c d"}
            )

    def test_homology_warning(self):
        g = Graph(["u", "v"], [("y", "u", "v", 1), ("c", "u", "v", 2), ("d", "v", "u", 2)])
        with pytest.warns(UserWarning, match="determinant is 5"):
            StratifiedGraphMap(
                g, {"u": "u", "v": "v"}, {"y": "y", "c": "c d c y^-1 c", "d": "d c d"}
            )

    def test_no_warning_for_psi(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi_rose()

    def test_h1_on_rose_is_letter_count(self):
        # on a rose, collapsing a (trivial) spanning tree changes nothing
        _, f = psi_rose()
        h1 = f.h1_matrix()
        assert h1.rows == ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 2, 1), (0, 0, 1, 0))
        assert h1.det == -1

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([InverseAlphabet("ab"), InverseAlphabet("abc")]).flatmap(
        lambda alph: st.tuples(st.just(alph), st.lists(
            st.lists(st.integers(0, len(alph.letters) - 1), max_size=8)
            .map(lambda seq: reduce(Word.from_indices(alph, seq)))
            .filter(len),
            min_size=alph.rank, max_size=alph.rank,
        ))
    ))
    def test_h1_on_rose_equals_abelianization(self, case):
        alph, images = case
        named = dict(zip(alph.positive_letters, images))
        g = Graph.rose(alph.positive_letters)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            h1 = StratifiedGraphMap(g, {"*": "*"}, {x: EdgePath(g, w) for x, w in named.items()}).h1_matrix()
            ab = abelianization(BasisMap(alph, named))
        assert h1.rows == ab.rows and h1.det == ab.det

    def test_h1_through_spanning_tree(self):
        _, f = cover2()
        h1 = f.h1_matrix()
        assert h1.rows == ((3, 1), (1, 2))
        assert h1.det == 5

    def test_h1_disconnected(self):
        g = Graph(["u", "v"], [("y", "u", "u", 1), ("z", "v", "v", 1)])
        f = StratifiedGraphMap(g, {"u": "u", "v": "v"}, {"y": "y", "z": "z"})
        with pytest.raises(ValueError, match="connected"):
            f.h1_matrix()

    def test_signed_counts_warn_on_zero_det(self):
        g = Graph.rose(["a", "b"], {"a": 1, "b": 2})
        with pytest.warns(UserWarning, match="determinant is 0"):
            StratifiedGraphMap(g, {"*": "*"}, {"a": "a", "b": "a"})


class TestFSharp:
    def test_frozen_orbit(self):
        g, f = psi_rose()
        d = EdgePath(g, "d")
        assert f_sharp(f, d, 3).compact() == "cbcdbacbcdc"
        assert f_sharp(f, d, 4).compact() == "cbcdbacbcdcbaacbcdbacbcdccbcd"

    def test_power_zero(self):
        g, f = psi_rose()
        p = EdgePath(g, "c b")
        assert f_sharp(f, p, 0) == p
        with pytest.raises(ValueError, match="power must be >= 0"):
            f_sharp(f, p, -1)

    def test_trivial_path(self):
        g, f = cover2()
        p = EdgePath(g, "", at="v")
        q = f_sharp(f, p, 5)
        assert q.is_trivial and q.origin == "v"

    def test_tightening(self):
        g, f = fib_rose()
        # f(a^-1 b) = (b^-1 a^-1)(a) collapses to b^-1
        assert f_sharp(f, EdgePath(g, "a^-1 b")).compact() == "B"

    def test_iterate_composes(self):
        g, f = psi_rose()
        p = EdgePath(g, "d c")
        assert f_sharp(f, f_sharp(f, p, 2), 3) == f_sharp(f, p, 5)

    def test_cap(self, monkeypatch):
        g, f = psi_rose()
        monkeypatch.setenv("BURNTRACK_MAX_LETTERS", "1000")
        with pytest.raises(GrowthCapExceeded):
            f_sharp(f, EdgePath(g, "d"), 30)

    @pytest.mark.parametrize(
        "entry",
        [
            f_sharp,
            lambda f, p: red_commutation_check(f, p, 1),
            lambda f, p: path_is_k_legal(f, p, 3),
            yellow_red_split,
            pf_length,
            StratifiedGraphMap.apply_raw,
            StratifiedGraphMap.image_length_bound,
        ],
        ids=["f_sharp", "red_commutation_check", "path_is_k_legal", "yellow_red_split",
             "pf_length", "apply_raw", "image_length_bound"],
    )
    def test_wrong_graph(self, entry):
        g, f = psi_rose()
        h, _ = fib_rose()
        with pytest.raises(ValueError, match="^path lives on a different graph$"):
            entry(f, EdgePath(h, "a"))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_additive_on_tight_products(self, data):
        g, f = psi_rose()
        n = len(g.edge_alphabet.letters)
        seq = data.draw(st.lists(st.integers(0, n - 1), max_size=12))
        cut = data.draw(st.integers(0, len(seq)))
        left, right = tight(g, seq[:cut]), tight(g, seq[cut:])
        assert f_sharp(f, left * right) == f_sharp(f, left) * f_sharp(f, right)


class TestStrata:
    def test_psi_layers(self):
        _, f = psi_rose()
        low, mid, top = classify_strata(f)
        assert low.kind is StratumKind.NON_EXPONENTIAL
        assert low.single_edge and low.loop_word.is_trivial
        assert mid.kind is StratumKind.NON_EXPONENTIAL
        assert mid.loop_word.compact() == "a"
        assert top.kind is StratumKind.EXPONENTIAL
        assert top.edges == ("c", "d")
        assert top.matrix.rows == ((2, 1), (1, 0))
        assert top.aperiodic is True
        assert abs(top.eigenvalue - (1 + math.sqrt(2))) < 1e-9
        assert top.residual < 1e-9
        assert all(x > 0 for x in top.eigenvector)

    def test_cached(self):
        _, f = psi_rose()
        assert classify_strata(f) is classify_strata(f)

    def test_fib(self):
        _, f = fib_rose()
        (top,) = classify_strata(f)
        assert top.kind is StratumKind.EXPONENTIAL
        assert abs(top.eigenvalue - (1 + math.sqrt(5)) / 2) < 1e-9

    def test_twist_is_polynomial(self):
        _, f = twist_rose()
        low, top = classify_strata(f)
        assert low.kind is top.kind is StratumKind.NON_EXPONENTIAL
        assert top.loop_word.compact() == "a"
        assert growth_classify(f) is Growth.POLYNOMIAL

    def test_zero_stratum(self):
        g = Graph.rose(["a", "b"], {"a": 1, "b": 2})
        with pytest.warns(UserWarning):
            f = StratifiedGraphMap(g, {"*": "*"}, {"a": "a", "b": "a"})
        low, top = classify_strata(f)
        assert top.kind is StratumKind.ZERO
        assert top.aperiodic is None and top.eigenvalue is None
        assert growth_classify(f) is Growth.POLYNOMIAL

    def test_reducible_needs_refinement(self):
        g = Graph.rose(["a", "b"])
        f = StratifiedGraphMap(g, {"*": "*"}, {"a": "a", "b": "b"})
        (only,) = classify_strata(f)
        assert only.kind is StratumKind.REQUIRES_REFINEMENT
        with pytest.raises(RefinementNeeded) as err:
            growth_classify(f)
        assert err.value.heights == (1,)

    def test_imprimitive_top_uses_shift(self):
        g = Graph.rose(["c", "d"])
        with pytest.warns(UserWarning):  # determinant -2
            f = StratifiedGraphMap(g, {"*": "*"}, {"c": "d d", "d": "c"})
        (top,) = classify_strata(f)
        assert top.kind is StratumKind.EXPONENTIAL
        assert top.aperiodic is False
        assert abs(top.eigenvalue - math.sqrt(2)) < 1e-9
        assert top.residual < 1e-8

    def test_cover2(self):
        _, f = cover2()
        low, top = classify_strata(f)
        assert low.kind is StratumKind.NON_EXPONENTIAL
        assert top.matrix.rows == ((3, 1), (1, 2))
        assert abs(top.eigenvalue - (5 + math.sqrt(5)) / 2) < 1e-9
        assert growth_classify(f) is Growth.EXPONENTIAL

    def test_one_closure_per_structure_test(self, monkeypatch, capsys):
        # psi: one closure for each permutation stratum, and for the
        # exponential one the irreducibility test plus pf_eigenvalue's own
        calls = []
        reach = matrices._reach
        monkeypatch.setattr(matrices, "_reach", lambda m: calls.append(m.size) or reach(m))
        _, f = psi_rose()
        classify_strata(f)
        assert calls == [1, 1, 2, 2]
        # a substitution's pf: the CLI's irreducibility test, then pf_eigenvalue's
        calls.clear()
        monkeypatch.chdir(Path(__file__).resolve().parent.parent)
        assert main(["-s", "demos/session.bt", "pf", "remark3"]) == 0
        assert capsys.readouterr().out.startswith("lambda ")
        assert len(calls) == 2


class TestTurns:
    def test_psi_table(self):
        _, f = psi_rose()
        table = build_turn_table(f)
        assert table.legal("c", "d") is False
        assert table.legal("d", "c") is False  # order does not matter
        assert table.legal("c^-1", "d") is True
        assert table.legal("c", "d^-1") is True
        assert table.legal("c^-1", "d^-1") is True
        assert table.legal("c", "c^-1") is True
        with pytest.raises(KeyError):
            table.legal("c", "x")

    def test_degenerate_turn(self):
        g, f = psi_rose()
        c = g.edge_alphabet.index("c")
        assert f.turn_is_legal(c, c) is False

    def test_turn_needs_common_vertex(self):
        g, f = cover2()
        alph = g.edge_alphabet
        with pytest.raises(ValueError, match="same vertex"):
            f.turn_is_legal(alph.index("y"), alph.index("d"))

    def test_path_legality(self):
        g, f = psi_rose()
        assert path_is_k_legal(f, EdgePath(g, "c d"), 3)
        assert path_is_k_legal(f, EdgePath(g, "d c"), 3)
        assert not path_is_k_legal(f, EdgePath(g, "c^-1 d"), 3)
        # a lower letter between the same red edges hides the turn from k=3
        assert path_is_k_legal(f, EdgePath(g, "c^-1 a d"), 3)

    def test_legality_only_sees_height_k(self):
        g, f = psi_rose()
        assert path_is_k_legal(f, EdgePath(g, "a c"), 3)

    @pytest.mark.parametrize("name", sorted(GRAPH_MAPS))
    def test_every_turn_matches_oracle(self, name):
        assert_turns_match_oracle(GRAPH_MAPS[name])

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda k: st.lists(
                st.lists(st.integers(0, 2 * k - 1), min_size=1, max_size=4), min_size=k, max_size=k
            )
        )
    )
    def test_rose_maps_match_oracle(self, images):
        names = [f"e{q}" for q in range(len(images))]
        g = Graph.rose(names)
        tight_images = {}
        for name, img in zip(names, images):
            path = tight(g, img)
            if path.is_trivial:
                path = EdgePath(g, name)
            tight_images[name] = path
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # most of these are not homotopy equivalences
            f = StratifiedGraphMap(g, {"*": "*"}, tight_images)
        assert_turns_match_oracle(f)


def assert_turns_match_oracle(f):
    g = f.graph
    n = len(g.edge_alphabet.letters)
    df = [f.edge_image(i).indices[0] for i in range(n)]
    for a in range(n):
        for b in range(n):
            if g.origin(a) == g.origin(b):
                assert f.turn_is_legal(a, b) == turn_legal_bruteforce(df, a, b)


class TestRTT:
    def test_psi_passes(self):
        _, f = psi_rose()
        report = check_rtt(f)
        assert report.passed
        assert report.derivative_failures == ()
        assert report.lower_path_failures == ()
        assert report.image_legality_failures == ()
        assert report.checked_depth == 3
        assert report.turn_table.legal("c", "d") is False

    def test_fib_passes(self):
        _, f = fib_rose()
        assert check_rtt(f).passed

    def test_cover2_passes(self):
        _, f = cover2()
        assert check_rtt(f, depth=5).passed

    def test_derivative_failure(self):
        g = Graph.rose(["a", "c", "d"], {"a": 1, "c": 2, "d": 2})
        with pytest.warns(UserWarning):
            f = StratifiedGraphMap(g, {"*": "*"}, {"a": "a", "c": "a c d", "d": "c d"})
        report = check_rtt(f)
        assert not report.passed
        assert (2, "c") in report.derivative_failures

    def test_image_legality_failure(self):
        g, _ = psi_rose()
        f = StratifiedGraphMap(g, {"*": "*"}, {"a": "a", "b": "b a", "c": "c b c d", "d": "c^-1"})
        report = check_rtt(f)
        assert report.image_legality_failures == ((3, "c"),)
        assert not report.passed

    def test_lower_collapse_failure(self):
        g = Graph.rose(["e", "g", "c", "d"], {"e": 1, "g": 1, "c": 2, "d": 2})
        with pytest.warns(UserWarning):
            f = StratifiedGraphMap(
                g, {"*": "*"}, {"e": "e g", "g": "g^-1 e^-1", "c": "c d", "d": "c"}
            )
        report = check_rtt(f, depth=4)
        assert (2, "e", 2) in report.lower_path_failures
        assert (2, "g", 2) in report.lower_path_failures
        assert not report.passed

    def test_depth_guard(self):
        _, f = psi_rose()
        with pytest.raises(ValueError, match="depth"):
            check_rtt(f, depth=0)


class TestYellowRed:
    def test_split_golden(self):
        g, f = psi_rose()
        pieces = yellow_red_split(f, f_sharp(f, EdgePath(g, "d"), 3))
        assert [(c, p.compact()) for c, p in pieces] == [
            ("red", "c"),
            ("yellow", "b"),
            ("red", "cd"),
            ("yellow", "ba"),
            ("red", "c"),
            ("yellow", "b"),
            ("red", "cdc"),
        ]

    def test_split_alternates_and_reassembles(self):
        g, f = psi_rose()
        for p in range(1, 6):
            path = f_sharp(f, EdgePath(g, "d"), p)
            pieces = yellow_red_split(f, path)
            for (c1, _), (c2, _) in zip(pieces, pieces[1:]):
                assert c1 != c2
            whole = pieces[0][1]
            for _, piece in pieces[1:]:
                whole = whole * piece
            assert whole == path

    def test_split_edge_cases(self):
        g, f = psi_rose()
        assert yellow_red_split(f, EdgePath(g, "", at="*")) == []
        [(color, piece)] = yellow_red_split(f, EdgePath(g, "c d"))
        assert color == "red" and piece.compact() == "cd"
        [(color, piece)] = yellow_red_split(f, EdgePath(g, "a b"))
        assert color == "yellow"

    def test_split_requires_legal(self):
        g, f = psi_rose()
        with pytest.raises(ValueError, match="legal"):
            yellow_red_split(f, EdgePath(g, "c^-1 d"))

    def test_red_alphabet(self):
        g, _ = psi_rose()
        red = red_alphabet(g)
        assert red.positive_letters == ("c", "d")
        with pytest.raises(ValueError, match="no edges"):
            red_alphabet(g, 4)

    def test_projection_golden(self):
        g, f = psi_rose()
        word = red_projection(f_sharp(f, EdgePath(g, "d"), 4))
        assert word.compact() == "ccdccdcccdccdcccd"
        assert word.alphabet == red_alphabet(g)

    def test_projection_can_be_unreduced(self):
        g, f = psi_rose()
        word = red_projection(EdgePath(g, "c a c^-1"))
        assert word.compact() == "cC"

    def test_projection_of_yellow_is_empty(self):
        g, f = psi_rose()
        assert red_projection(EdgePath(g, "a b")).is_trivial

    def test_induced_substitution(self):
        g, f = psi_rose()
        sigma = induced_substitution(f)
        assert sigma.image("c").compact() == "ccd"
        assert sigma.image("d").compact() == "c"
        assert sigma.transition_matrix() == classify_strata(f)[-1].matrix

    def test_induced_needs_one_exponential(self):
        _, f = twist_rose()
        with pytest.raises(ValueError, match="exactly one exponential"):
            induced_substitution(f)

    def test_induced_needs_exponential_on_top(self):
        g = Graph.rose(["c", "d", "e"], {"c": 1, "d": 1, "e": 2})
        f = StratifiedGraphMap(g, {"*": "*"}, {"c": "c d", "d": "c", "e": "e"})
        with pytest.raises(ValueError, match="top"):
            induced_substitution(f)

    @pytest.mark.parametrize("start", ["c", "d", "c d", "d c", "c d c"])
    @pytest.mark.parametrize("power", [0, 1, 2, 3, 5])
    def test_commutation(self, start, power):
        g, f = psi_rose()
        assert red_commutation_check(f, EdgePath(g, start), power)

    def test_commutation_on_cover(self):
        g, f = cover2()
        for power in range(5):
            assert red_commutation_check(f, EdgePath(g, "c d"), power)

    def test_commutation_rejects_illegal(self):
        g, f = psi_rose()
        with pytest.raises(ValueError, match="legal"):
            red_commutation_check(f, EdgePath(g, "c^-1 d"), 2)

    def test_commutation_power_guard(self):
        g, f = psi_rose()
        with pytest.raises(ValueError, match="power must be >= 0"):
            red_commutation_check(f, EdgePath(g, "c"), -1)


class TestAudit:
    def test_rose_audit_fails(self):
        # every yellow piece on a one-vertex graph closes up
        _, f = psi_rose()
        report = yellow_loop_audit(f, "d", 4)
        assert isinstance(report, AuditReport)
        assert not report.passed
        assert report.edge == "d" and report.depth == 4
        assert all(piece.is_loop for piece in report.pieces)
        witness = {(p.power, p.path.compact()) for p in report.pieces}
        assert (2, "b") in witness
        assert (3, "ba") in witness

    def test_cover_audit_passes(self):
        _, f = cover2()
        report = yellow_loop_audit(f, "c", 4)
        assert report.passed
        assert report.pieces  # yellow letters do occur
        assert all(p.path.compact() in ("y", "Y") for p in report.pieces)
        assert all(not p.is_loop for p in report.pieces)

    def test_audit_guards(self):
        _, f = psi_rose()
        with pytest.raises(ValueError, match="top stratum"):
            yellow_loop_audit(f, "a", 3)
        with pytest.raises(ValueError, match="depth"):
            yellow_loop_audit(f, "d", 0)
        _, t = twist_rose()
        with pytest.raises(ValueError, match="exactly one exponential"):
            yellow_loop_audit(t, "b", 3)


class TestPFLength:
    def test_yellow_weighs_nothing(self):
        g, f = psi_rose()
        assert pf_length(f, EdgePath(g, "a b")) == 0.0
        weights = dict(zip(("c", "d"), classify_strata(f)[-1].eigenvector))
        got = pf_length(f, EdgePath(g, "c a c^-1"))
        assert got == pytest.approx(2 * weights["c"])

    def test_orientation_blind(self):
        g, f = psi_rose()
        p = EdgePath(g, "c d")
        assert pf_length(f, p) == pytest.approx(pf_length(f, p.reverse()))

    @pytest.mark.parametrize("start", ["d", "c", "c d"])
    def test_scales_by_eigenvalue(self, start):
        g, f = psi_rose()
        lam = classify_strata(f)[-1].eigenvalue
        path = EdgePath(g, start)
        base = pf_length(f, path)
        for p in range(1, 9):
            expect = base * lam**p
            got = pf_length(f, f_sharp(f, path, p))
            assert abs(got - expect) <= 1e-6 * expect

    def test_scales_on_cover(self):
        g, f = cover2()
        lam = classify_strata(f)[-1].eigenvalue
        path = EdgePath(g, "c")
        base = pf_length(f, path)
        for p in range(1, 7):
            got = pf_length(f, f_sharp(f, path, p))
            assert abs(got - base * lam**p) <= 1e-6 * base * lam**p
