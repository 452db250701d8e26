"""Session-file parsing, the subcommands, exit codes, and text/JSON agreement."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from burntrack.automorphisms import BasisMap, decide_growth
from burntrack.cli import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_UNDECIDED,
    SessionError,
    _progress_printer,
    dump_session,
    main,
    parse_session,
)
from burntrack.graphmap import StratifiedGraphMap
from burntrack.substitutions import Substitution
from burntrack.words import InverseAlphabet

SESSION = """\
alphabet F2 inverse a b

alphabet ABC plain a b c

alphabet AB plain a b

subst fibw over AB
  a -> a b
  b -> a
end

autom fib over F2
  a -> a b
  b -> a
end

autom dehn over F2
  a -> a
  b -> b a
end

subst remark3 over ABC
  a -> a b
  b -> c
  c -> a b c
end

graphmap psi
  vertices: *
  edge a * * height 1
  edge b * * height 2
  edge c * * height 3
  edge d * * height 3
  vmap * -> *
  map a -> a
  map b -> b a
  map c -> c b c d
  map d -> c
end

graphmap cover
  vertices: u v
  edge y u v height 1
  edge c u v height 2
  edge d v u height 2
  vmap u -> u
  vmap v -> v
  map y -> y
  map c -> c d c y^-1 c
  map d -> d c d
end
"""


@pytest.fixture(scope="module")
def session_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "session.bt"
    path.write_text(SESSION)
    return str(path)


ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, **env):
    """Run the CLI in a fresh interpreter, so a traceback would show on stderr."""
    proc = subprocess.run(
        [sys.executable, "-m", "burntrack.cli", *argv],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env),
        capture_output=True,
        text=True,
        timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestSessionParse:
    def test_object_kinds(self, session_path):
        s = parse_session(session_path)
        kinds = {name: kind for name, (kind, _) in s.objects.items()}
        assert isinstance(s.objects["fib"][1], BasisMap) and kinds["fib"] == "autom"
        assert isinstance(s.objects["remark3"][1], Substitution) and kinds["remark3"] == "subst"
        assert isinstance(s.objects["psi"][1], StratifiedGraphMap) and kinds["psi"] == "graphmap"
        assert s.objects["F2"] == ("alphabet", InverseAlphabet(["a", "b"]))
        assert str(s.objects["fib"][1].image("a")) == "a b"
        assert list(kinds.values())[:3] == ["alphabet", "alphabet", "alphabet"]

    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "c.bt"
        p.write_text("# header\n\nalphabet A plain x y  # trailing\n")
        s = parse_session(str(p))
        assert s.objects["A"][1].letters == ("x", "y")

    def test_inv_tokens_in_map_lines(self, tmp_path):
        p = tmp_path / "g.bt"
        p.write_text(
            "graphmap m\n"
            "  vertices: *\n"
            "  edge e * * height 1\n"
            "  edge f * * height 2\n"
            "  vmap * -> *\n"
            "  map e -> e\n"
            "  map f -> f e inv(f)\n"
            "end\n"
        )
        f = parse_session(str(p)).objects["m"][1]
        assert f.edge_image("f").word.compact() == "feF"

    def test_duplicate_name(self, tmp_path):
        p = tmp_path / "d.bt"
        p.write_text("alphabet A plain x\nalphabet A plain y\n")
        with pytest.raises(SessionError, match=r"d\.bt:2.*duplicate name 'A'"):
            parse_session(str(p))

    def test_undefined_alphabet_with_column(self, tmp_path):
        p = tmp_path / "u.bt"
        p.write_text("subst s over nowhere\n  a -> a\nend\n")
        with pytest.raises(SessionError, match=r"u\.bt:1:14: undefined alphabet"):
            parse_session(str(p))

    def test_unterminated_block(self, tmp_path):
        p = tmp_path / "t.bt"
        p.write_text("alphabet A plain a\nsubst s over A\n  a -> a\n")
        with pytest.raises(SessionError, match=r"t\.bt:2.*unterminated"):
            parse_session(str(p))

    def test_bad_image_line(self, tmp_path):
        p = tmp_path / "b.bt"
        p.write_text("alphabet A plain a\nsubst s over A\n  a a\nend\n")
        with pytest.raises(SessionError, match=r"b\.bt:3.*expected"):
            parse_session(str(p))

    def test_unknown_letter_in_image(self, tmp_path):
        p = tmp_path / "l.bt"
        p.write_text("alphabet A plain a\nsubst s over A\n  a -> a z\nend\n")
        with pytest.raises(SessionError, match=r"l\.bt:3.*'z'"):
            parse_session(str(p))

    def test_duplicate_image(self, tmp_path):
        p = tmp_path / "i.bt"
        p.write_text("alphabet A plain a\nsubst s over A\n  a -> a\n  a -> a a\nend\n")
        with pytest.raises(SessionError, match=r"i\.bt:4:3: duplicate image"):
            parse_session(str(p))

    @pytest.mark.parametrize("vertex", ["u", "v"])
    def test_duplicate_vertex_image(self, tmp_path, vertex):
        # a second vmap line for a vertex used to replace the first silently;
        # the column is the vertex's, not a letter of "vmap"
        other = "v" if vertex == "u" else "u"
        p = tmp_path / "v.bt"
        p.write_text(
            "graphmap m\n"
            "  vertices: u v\n"
            "  edge e u v height 1\n"
            f"  vmap {vertex} -> {other}\n"
            f"  vmap {other} -> {vertex}\n"
            f"  vmap {vertex} -> {vertex}\n"
            f"  vmap {other} -> {other}\n"
            "  map e -> e\n"
            "end\n"
        )
        with pytest.raises(SessionError, match=rf"v\.bt:6:8: duplicate image for vertex '{vertex}'$"):
            parse_session(str(p))

    def test_duplicate_edge_image_column(self, tmp_path):
        p = tmp_path / "e.bt"
        p.write_text(
            "graphmap m\n  vertices: *\n  edge a * * height 1\n  vmap * -> *\n"
            "  map a -> a\n  map a -> a\nend\n"
        )
        with pytest.raises(SessionError, match=r"e\.bt:6:7: duplicate image for edge 'a'$"):
            parse_session(str(p))

    def test_autom_needs_inverse_alphabet(self, tmp_path):
        p = tmp_path / "a.bt"
        p.write_text("alphabet A plain a\nautom f over A\n  a -> a\nend\n")
        with pytest.raises(SessionError, match="inverse alphabet"):
            parse_session(str(p))

    def test_unknown_directive(self, tmp_path):
        p = tmp_path / "x.bt"
        p.write_text("frobnicate yes\n")
        with pytest.raises(SessionError, match=r"x\.bt:1:1: unexpected directive"):
            parse_session(str(p))

    def test_bad_edge_line(self, tmp_path):
        p = tmp_path / "e.bt"
        p.write_text("graphmap g\n  vertices: *\n  edge e * *\nend\n")
        with pytest.raises(SessionError, match=r"e\.bt:3.*height"):
            parse_session(str(p))

    def test_autom_image_reduced_with_warning(self, tmp_path, capsys):
        p = tmp_path / "w.bt"
        p.write_text(
            "alphabet A inverse a b\nautom f over A\n  a -> a b b^-1\n  b -> b\nend\n"
        )
        s = parse_session(str(p))
        err = capsys.readouterr().err
        assert "w.bt:3" in err and "reduced on load" in err
        assert str(s.objects["f"][1].image("a")) == "a"

    def test_autom_determinant_warning_carries_location(self, tmp_path, capsys):
        p = tmp_path / "n.bt"
        p.write_text("alphabet A inverse a b\nautom dbl over A\n  a -> a a\n  b -> b\nend\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["-s", str(p), "classify", "dbl"]) == EXIT_UNDECIDED
        out, err = capsys.readouterr()
        assert out == "abelianized determinant 2\ngrowth undecided\n"
        assert err == f"{p}:2: warning: abelianized determinant is 2, so this map is not invertible\n"

    def test_graphmap_warning_carries_location(self, tmp_path, capsys):
        p = tmp_path / "h.bt"
        p.write_text(
            "graphmap g\n"
            "  vertices: *\n"
            "  edge e * * height 1\n"
            "  vmap * -> *\n"
            "  map e -> e e\n"
            "end\n"
        )
        parse_session(str(p))
        err = capsys.readouterr().err
        assert "h.bt:1: warning:" in err and "determinant" in err


class TestDump:
    def test_roundtrip_byte_identical(self, session_path, capsys):
        code, out, _ = run(capsys, "-s", session_path, "dump")
        assert code == EXIT_OK
        assert out == SESSION

    def test_idempotent(self, session_path, tmp_path, capsys):
        first = dump_session(parse_session(session_path))
        again = tmp_path / "again.bt"
        again.write_text(first)
        assert dump_session(parse_session(str(again))) == first

    def test_comments_dropped_rest_identical(self, tmp_path):
        src = "# top\nalphabet A plain x\n\n# middle\nsubst s over A\n  x -> x x\nend\n"
        p = tmp_path / "c.bt"
        p.write_text(src)
        out = dump_session(parse_session(str(p)))
        assert out == "alphabet A plain x\n\nsubst s over A\n  x -> x x\nend\n"

    def test_repo_demo_session_roundtrips(self, capsys):
        demo = Path(__file__).resolve().parent.parent / "demos" / "session.bt"
        code, out, _ = run(capsys, "-s", str(demo), "dump")
        assert code == EXIT_OK
        assert out == demo.read_text()


class TestOrbit:
    def test_fib_orbit_matches_table(self, session_path, capsys):
        code, out, err = run(capsys, "-s", session_path, "orbit", "fib", "b", "--depth", "7")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "1 a",
            "2 ab",
            "3 aba",
            "4 abaab",
            "5 abaababa",
            "6 abaababaabaab",
            "7 abaababaabaababaababa",
        ]

    def test_graphmap_orbit(self, session_path, capsys):
        code, out, _ = run(capsys, "-s", session_path, "orbit", "psi", "d", "--depth", "4")
        assert out.splitlines()[2:] == ["3 cbcdbacbcdc", "4 cbcdbacbcdcbaacbcdbacbcdccbcd"]

    def test_subst_orbit(self, session_path, capsys):
        code, out, _ = run(capsys, "-s", session_path, "orbit", "remark3", "b", "--depth", "3")
        assert out.splitlines() == ["1 c", "2 abc", "3 abcabc"]

    def test_json_mirror(self, session_path, capsys):
        _, out, _ = run(capsys, "-s", session_path, "orbit", "fib", "b", "--depth", "3", "--json")
        data = json.loads(out)
        assert data["words"] == ["a", "ab", "aba"]
        assert data["depth"] == 3

    def test_inverse_prints_apart_from_an_uppercase_letter(self, tmp_path, capsys):
        p = tmp_path / "upper.bt"
        p.write_text("alphabet X inverse a A\n\nautom f over X\n  a -> a^-1\n  A -> A\nend\n")
        _, out_a, _ = run(capsys, "-s", str(p), "orbit", "f", "a", "--depth", "2")
        _, out_upper, _ = run(capsys, "-s", str(p), "orbit", "f", "A", "--depth", "2")
        assert out_a.splitlines() == ["1 a^-1", "2 a"]
        assert out_upper.splitlines() == ["1 A", "2 A"]

    def test_unknown_name(self, session_path, capsys):
        code, out, err = run(capsys, "-s", session_path, "orbit", "nope", "b")
        assert code == EXIT_ERROR
        assert out == ""
        assert "no object named 'nope'" in err

    def test_alphabet_is_not_a_map(self, session_path, capsys):
        code, _, err = run(capsys, "-s", session_path, "orbit", "F2", "b")
        assert code == EXIT_ERROR
        assert "wants a map" in err

    def test_basis_map_orbit_respects_letter_cap(self, monkeypatch, capsys):
        demo = Path(__file__).resolve().parent.parent / "demos" / "session.bt"
        monkeypatch.setenv("BURNTRACK_MAX_LETTERS", "1000")
        code, out, err = run(capsys, "-s", str(demo), "orbit", "fib", "b", "--depth", "20")
        assert code == EXIT_ERROR
        assert out == ""
        assert "but the cap is 1000" in err


class TestPowerIndex:
    def test_fib_orbit_stays_below_four(self, session_path, capsys):
        code, out, _ = run(
            capsys, "-s", session_path, "power-index", "fib", "b", "--depth", "12"
        )
        assert code == EXIT_OK
        rows = [line.split() for line in out.splitlines()]
        assert [int(p) for p, _ in rows] == list(range(1, 13))
        assert all(int(k) < 4 for _, k in rows)

    def test_json_fields(self, session_path, capsys):
        _, out, _ = run(
            capsys, "-s", session_path, "power-index", "fib", "b", "--depth", "4", "--json"
        )
        data = json.loads(out)
        assert data["indices"][3] == {"power": 4, "index": 2}


class TestPf:
    def test_remark3_doubling(self, session_path, capsys):
        code, out, _ = run(capsys, "-s", session_path, "pf", "remark3")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "lambda 2.000000000"
        assert float(lines[1].split()[1]) < 1e-9
        assert "a=" in lines[2] and "c=" in lines[2]

    def test_psi_silver_mean(self, session_path, capsys):
        code, out, _ = run(capsys, "-s", session_path, "pf", "psi")
        lam = float(out.splitlines()[0].split()[1])
        assert abs(lam - (1 + math.sqrt(2))) < 1e-8

    def test_json_numbers_equal_text(self, session_path, capsys):
        _, text, _ = run(capsys, "-s", session_path, "pf", "psi")
        _, blob, _ = run(capsys, "-s", session_path, "pf", "psi", "--json")
        data = json.loads(blob)
        lines = text.splitlines()
        assert data["lambda"] == float(lines[0].split()[1])
        assert data["residual"] == float(lines[1].split()[1])
        for part in lines[2].split()[1:]:
            name, value = part.split("=")
            assert data["eigenvector"][name] == float(value)

    def test_reducible_is_an_error(self, tmp_path, capsys):
        p = tmp_path / "r.bt"
        p.write_text("alphabet A plain a b\nsubst s over A\n  a -> a b\n  b -> b\nend\n")
        code, _, err = run(capsys, "-s", str(p), "pf", "s")
        assert code == EXIT_ERROR
        assert "reducible" in err

    def test_deterministic_output(self, session_path, capsys):
        _, first, _ = run(capsys, "-s", session_path, "pf", "psi")
        _, second, _ = run(capsys, "-s", session_path, "pf", "psi")
        assert first == second


class TestClassify:
    def test_dehn_polynomial(self, session_path, capsys):
        code, out, _ = run(capsys, "-s", session_path, "classify", "dehn")
        assert code == EXIT_OK
        assert "growth polynomial (trace criterion)" in out
        assert "abelianized determinant 1" in out

    def test_fib_exponential(self, session_path, capsys):
        _, out, _ = run(capsys, "-s", session_path, "classify", "fib")
        assert "growth exponential (trace criterion)" in out
        assert "abelianized determinant -1" in out

    def test_psi_strata_table(self, session_path, capsys):
        code, out, _ = run(capsys, "-s", session_path, "classify", "psi")
        lines = out.splitlines()
        assert lines[0] == "stratum 1: edges=a kind=non-exponential"
        assert lines[1] == "stratum 2: edges=b kind=non-exponential"
        assert lines[2].startswith("stratum 3: edges=c,d kind=exponential lambda=2.414213562")
        assert "aperiodic=yes" in lines[2]
        assert lines[3] == "growth exponential"

    def test_rank3_without_certificate_is_undecided(self, tmp_path, capsys):
        # exponential, but neither certificate applies; the length ratio is no proof
        p = tmp_path / "r3.bt"
        p.write_text(
            "alphabet F3 inverse a b c\n"
            "autom g over F3\n  a -> a b\n  b -> a\n  c -> c\nend\n"
        )
        code, out, _ = run(capsys, "-s", str(p), "classify", "g")
        assert code == EXIT_UNDECIDED
        assert out.splitlines() == ["abelianized determinant -1", "growth undecided"]
        code, out, _ = run(capsys, "-s", str(p), "classify", "g", "--json")
        assert code == EXIT_UNDECIDED
        assert json.loads(out) == {
            "command": "classify", "name": "g", "kind": "autom", "determinant": -1,
            "result": "undecided",
        }

    def test_one_outer_class_never_gets_two_growths(self, capsys):
        # iu is u followed by conjugation by b c, so both grow polynomially;
        # without a certificate for iu, classify must not call it anything
        verdicts = "tests/golden/inputs/verdicts.bt"
        code, out, _ = run(capsys, "-s", str(ROOT / verdicts), "classify", "u")
        assert code == EXIT_OK
        assert out.splitlines()[1:] == ["growth polynomial", "method letter-count blocks"]
        code, out, _ = run(capsys, "-s", str(ROOT / verdicts), "classify", "iu")
        assert code == EXIT_UNDECIDED
        assert out.splitlines()[1:] == ["growth undecided"]

    @pytest.mark.parametrize(
        "session", ["demos/session.bt", "bench/session.bt", "tests/golden/inputs/verdicts.bt"]
    )
    def test_reports_what_decide_growth_returns(self, session, capsys):
        path = str(ROOT / session)
        automs = [(name, obj) for name, (kind, obj) in parse_session(path).objects.items() if kind == "autom"]
        assert automs
        for name, obj in automs:
            code, out, _ = run(capsys, "-s", path, "classify", name, "--json")
            data = json.loads(out)
            answer = decide_growth(obj)
            if answer is None:
                assert (code, data["result"]) == (EXIT_UNDECIDED, "undecided")
                assert "growth" not in data and "method" not in data
            else:
                assert (code, data["growth"], data["method"]) == (EXIT_OK, str(answer[0]), answer[1])

    def test_rank3_triangular_is_certified_polynomial(self, tmp_path, capsys):
        # the estimate reads 1.16 here; the letter-count blocks are all 1x1 ones
        p = tmp_path / "tri.bt"
        p.write_text(
            "alphabet F3 inverse a b c\n"
            "autom tri over F3\n  a -> a\n  b -> b a\n  c -> c b\nend\n"
        )
        code, out, _ = run(capsys, "-s", str(p), "classify", "tri")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "abelianized determinant 1", "growth polynomial", "method letter-count blocks",
        ]
        code, out, _ = run(capsys, "-s", str(p), "classify", "tri", "--json")
        assert code == EXIT_OK
        assert json.loads(out) == {
            "command": "classify", "name": "tri", "kind": "autom", "determinant": 1,
            "growth": "polynomial", "method": "letter-count blocks",
        }

    def test_json_mirror(self, session_path, capsys):
        _, out, _ = run(capsys, "-s", session_path, "classify", "psi", "--json")
        data = json.loads(out)
        assert data["growth"] == "exponential"
        assert data["strata"][2]["eigenvalue"] == 2.414213562


class TestPeriod:
    def test_periodic_fixed_point(self, session_path, capsys):
        code, out, _ = run(capsys, "-s", session_path, "period", "remark3", "a", "--bound", "20")
        assert code == EXIT_OK
        assert out == "periodic block=abc power=2\n"

    def test_no_period_is_undecided(self, session_path, capsys):
        code, out, _ = run(capsys, "-s", session_path, "period", "fibw", "a", "--bound", "20")
        assert code == EXIT_UNDECIDED
        assert out == "no period up to 20\n"

    def test_json_mirror(self, session_path, capsys):
        _, out, _ = run(capsys, "-s", session_path, "period", "remark3", "a", "--json")
        data = json.loads(out)
        assert data == {
            "command": "period", "name": "remark3", "letter": "a",
            "result": "periodic", "block": "abc", "power": 2,
        }

    def test_non_expansive_letter_is_an_error(self, session_path, capsys):
        code, _, err = run(capsys, "-s", session_path, "period", "remark3", "b")
        assert code == EXIT_ERROR
        assert "image" in err


class TestRed:
    def test_projection_orbit(self, session_path, capsys):
        code, out, _ = run(capsys, "-s", session_path, "red", "psi", "d", "--depth", "4")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "0 d",
            "1 c",
            "2 ccd",
            "3 ccdccdc",
            "4 ccdccdcccdccdcccd",
        ]

    def test_yellow_word_projects_to_empty(self, session_path, capsys):
        _, out, _ = run(capsys, "-s", session_path, "red", "psi", "b", "--depth", "0")
        assert out == "0 -\n"

    def test_letter_cap_error_prints_nothing(self, session_path, monkeypatch, capsys):
        # psi^3(d) has 29 letters; the step to psi^4(d) needs 73
        monkeypatch.setenv("BURNTRACK_MAX_LETTERS", "50")
        code, out, err = run(capsys, "-s", session_path, "red", "psi", "d", "--depth", "8")
        assert code == EXIT_ERROR
        assert out == ""
        assert "needs at least 73 letters but the cap is 50" in err


class TestAuditYellow:
    def test_psi_fails_with_loop_witness(self, session_path, capsys):
        code, out, _ = run(capsys, "-s", session_path, "audit-yellow", "psi", "d", "--depth", "3")
        assert code == EXIT_OK
        assert "piece power=3 path=ba loop=yes" in out.splitlines()
        assert out.splitlines()[-1].startswith("FAIL")

    def test_cover_passes(self, session_path, capsys):
        code, out, _ = run(capsys, "-s", session_path, "audit-yellow", "cover", "c", "--depth", "3")
        assert code == EXIT_OK
        assert out.splitlines()[-1] == "PASS"
        assert "loop=yes" not in out

    def test_wrong_edge_is_an_error(self, session_path, capsys):
        code, _, err = run(capsys, "-s", session_path, "audit-yellow", "psi", "a")
        assert code == EXIT_ERROR
        assert "top stratum" in err


class TestMoves:
    def test_single_run_rewrite(self, capsys):
        code, out, _ = run(capsys, "moves", "aaaaaaab", "--n", "5", "--xi", "1")
        assert code == EXIT_OK
        assert out == "pos=0 period=a m=7 -> len=3\n"

    def test_no_moves(self, capsys):
        code, out, _ = run(capsys, "moves", "ab", "--n", "3")
        assert code == EXIT_OK
        assert out == "no moves\n"

    def test_threshold_override(self, capsys):
        # m_min drops from 3 to 2 with the lower threshold 5/2 - 5/4
        code, out, _ = run(capsys, "moves", "aab", "--n", "5", "--xi", "5/4")
        assert code == EXIT_OK
        assert out == "pos=0 period=a m=2 -> len=4\n"

    def test_fraction_xi(self, capsys):
        code, out, _ = run(capsys, "moves", "aaab", "--n", "5", "--xi", "3/2")
        assert code == EXIT_OK
        assert out.startswith("pos=0 period=a m=3")

    def test_join_found(self, capsys):
        code, out, _ = run(capsys, "moves", "aaaab", "--n", "3", "--join", "bbbab")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "joined ab"
        assert lines[1].startswith("left pos=") and lines[2].startswith("right pos=")

    def test_join_undecided_exit_two(self, capsys):
        code, out, _ = run(capsys, "moves", "ab", "--n", "3", "--join", "ba")
        assert code == EXIT_UNDECIDED
        assert out.startswith("undecided ")
        assert "exhausted=yes" in out

    def test_unreduced_input_noted_on_stderr(self, capsys):
        code, out, err = run(capsys, "moves", "aBbaab", "--n", "3")
        assert code == EXIT_OK
        assert "reduced to" in err

    def test_json_mirror(self, capsys):
        _, out, _ = run(capsys, "moves", "aaaaaaab", "--n", "5", "--xi", "1", "--json")
        data = json.loads(out)
        assert data["m_min"] == 2
        assert data["moves"] == [{"pos": 0, "period": "a", "m": 7, "result": "aab"}]

    def test_bad_rank(self, capsys):
        code, _, err = run(capsys, "moves", "ab", "--n", "3", "--rank", "0")
        assert code == EXIT_ERROR


class TestBurnsideOrder:
    def test_dehn_twist_order_three(self, session_path, capsys):
        code, out, _ = run(
            capsys, "-s", session_path, "burnside-order", "dehn", "--rank", "2", "--exp", "3"
        )
        assert code == EXIT_OK
        assert out == "3\n"

    def test_exceeds_bound_exit_two(self, session_path, capsys):
        code, out, _ = run(
            capsys, "-s", session_path, "burnside-order", "fib",
            "--rank", "2", "--exp", "3", "--max-k", "1",
        )
        assert code == EXIT_UNDECIDED
        assert out == "exceeds bound 1\n"

    def test_json_mirror(self, session_path, capsys):
        _, out, _ = run(
            capsys, "-s", session_path, "burnside-order", "dehn",
            "--rank", "2", "--exp", "3", "--json",
        )
        assert json.loads(out)["order"] == 3

    def test_rank_mismatch_is_an_error(self, session_path, capsys):
        code, _, err = run(
            capsys, "-s", session_path, "burnside-order", "dehn", "--rank", "3", "--exp", "3"
        )
        assert code == EXIT_ERROR


class TestTc:
    def relators(self, tmp_path, text):
        p = tmp_path / "rel.txt"
        p.write_text(text)
        return str(p)

    def test_exponent_three_order(self, tmp_path, capsys):
        rel = self.relators(tmp_path, "# cubes\naaa\nbbb\nababab\naBaBaB\n")
        code, out, _ = run(capsys, "tc", "--rank", "2", "--relators", rel)
        assert code == EXIT_OK
        assert out == "order 27\n"

    def test_csv_export(self, tmp_path, capsys):
        rel = self.relators(tmp_path, "aa\nbb\nabab\n")
        csv = tmp_path / "table.csv"
        code, out, _ = run(capsys, "tc", "--rank", "2", "--relators", rel, "--csv", str(csv))
        assert code == EXIT_OK
        text = csv.read_text()
        assert text.splitlines()[0] == "coset,a,a^-1,b,b^-1"
        assert len(text.splitlines()) == 5

    def test_token_form_relators(self, tmp_path, capsys):
        rel = self.relators(tmp_path, "a a a\n")
        code, out, _ = run(capsys, "tc", "--rank", "1", "--relators", rel)
        assert out == "order 3\n"

    def test_unreduced_relator_is_an_error(self, tmp_path, capsys):
        rel = self.relators(tmp_path, "a a^-1 a\n")
        code, _, err = run(capsys, "tc", "--rank", "1", "--relators", rel)
        assert code == EXIT_ERROR
        assert "rel.txt:1" in err

    def test_budget_exhaustion_is_undecided(self, tmp_path, capsys):
        # an infinite group (Z3 * Z3) cannot close under any coset limit
        rel = self.relators(tmp_path, "aaa\nbbb\n")
        code, out, err = run_process("tc", "--rank", "2", "--relators", rel, "--max-cosets", "40")
        assert code == EXIT_UNDECIDED
        assert out == ""
        assert "limit of 40" in err and "Traceback" not in err

    @pytest.mark.parametrize("limit", ["0", "-5"])
    def test_nonpositive_limit_is_an_error(self, tmp_path, capsys, limit):
        rel = self.relators(tmp_path, "aaa\n")
        code, out, err = run(capsys, "tc", "--rank", "1", "--relators", rel, "--max-cosets", limit)
        assert code == EXIT_ERROR
        assert out == ""
        assert err == f"error: the coset limit must be positive, got {limit}\n"

    def test_incomplete_enumeration_json(self, tmp_path, capsys):
        rel = self.relators(tmp_path, "a b a\n")  # b = a^-2: the group is Z
        code, out, err = run(
            capsys, "tc", "--rank", "2", "--relators", rel, "--max-cosets", "2000", "--json"
        )
        assert code == EXIT_UNDECIDED
        got = json.loads(out)
        assert got["result"] == "incomplete" and got["max_cosets"] == 2000
        assert got["cosets_allocated"] == 2000 and "order" not in got
        assert err.count("\n") == 1 and "limit of 2000" in err

    def test_json_mirror(self, tmp_path, capsys):
        rel = self.relators(tmp_path, "aaa\n")
        _, out, _ = run(capsys, "tc", "--rank", "1", "--relators", rel, "--json")
        assert json.loads(out)["order"] == 3

    def test_progress_lines_on_a_long_run(self, tmp_path, capsys):
        rel = self.relators(tmp_path, "aa\n")  # Z2 * Z: never closes
        code, out, err = run(capsys, "tc", "--rank", "2", "--relators", rel,
                             "--max-cosets", "140000", "--json")
        assert code == EXIT_UNDECIDED
        assert json.loads(out)["result"] == "incomplete"
        progress = [line for line in err.splitlines() if line.startswith("progress:")]
        # the first report comes at 65 536 cosets; the next one is rate-limited
        assert 1 <= len(progress) <= 2
        assert progress[0].startswith("progress: 65536 cosets allocated, 65536 live, ")
        assert progress[0].endswith(" cosets/s")

    def test_progress_at_most_once_a_second(self, capsys):
        now = [100.0]
        report = _progress_printer(clock=lambda: now[0])
        for step in (0.0, 0.25, 0.5, 0.25, 0.5, 0.25):
            now[0] += step
            report(65_536, 65_536)
        # reports at 100.0 and 101.0; the calls at 100.25, 100.75, 101.5 and
        # 101.75 fall within a second of the report before them
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        # 65 536 cosets in the first fake second
        assert lines[1] == "progress: 65536 cosets allocated, 65536 live, 65536 cosets/s"


class TestTopLevel:
    def test_missing_session_is_an_error(self, capsys):
        code, _, err = run(capsys, "classify", "psi")
        assert code == EXIT_ERROR
        assert "--session" in err

    def test_unknown_flag_exits_one(self, capsys):
        code, _, err = run(capsys, "moves", "ab", "--n", "3", "--frob")
        assert code == EXIT_ERROR

    @pytest.mark.parametrize("argv, message", [
        (["classify", "F2"], "'F2' is an alphabet; classify wants an autom or a graphmap"),
        (["period", "fib", "a"], "'fib' is an autom; period wants a subst"),
    ])
    def test_kind_mismatch_message(self, session_path, capsys, argv, message):
        code, out, err = run(capsys, "-s", session_path, *argv)
        assert (code, out) == (EXIT_ERROR, "")
        assert err.splitlines()[-1] == f"error: {message}"

    def test_results_on_stdout_only(self, session_path, capsys):
        _, out, err = run(capsys, "-s", session_path, "pf", "remark3")
        assert "lambda" in out
        assert "lambda" not in err


class TestErrorExits:
    """Bad input anywhere below the handlers is one error line, never a traceback."""

    def assert_one_error_line(self, code, out, err, message):
        assert code == EXIT_ERROR
        assert out == ""
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: {message}"
        ]

    def test_bad_letter_cap_value(self):
        result = run_process(
            "-s", "demos/session.bt", "orbit", "fib", "a", BURNTRACK_MAX_LETTERS="abc"
        )
        self.assert_one_error_line(
            *result, "BURNTRACK_MAX_LETTERS must be an integer, got 'abc'"
        )

    def test_letter_cap_set_at_start_stops_f_sharp(self):
        # the variable is in the environment before the interpreter starts
        result = run_process(
            "-s", "demos/session.bt", "red", "psi", "c d", "--depth", "12",
            BURNTRACK_MAX_LETTERS="1000",
        )
        self.assert_one_error_line(
            *result,
            "expansion needs at least 1504 letters but the cap is 1000; "
            "set BURNTRACK_MAX_LETTERS to raise it",
        )

    @pytest.mark.parametrize("flag", ["--budget", "--max-depth"])
    def test_zero_search_budget(self, flag):
        result = run_process("moves", "ab", "--n", "3", "--join", "ba", flag, "0")
        self.assert_one_error_line(*result, "budget bounds must be positive")

    def test_relator_not_cyclically_reduced(self, tmp_path):
        rel = tmp_path / "rel.txt"
        rel.write_text("a b A\n")
        result = run_process("tc", "--rank", "2", "--relators", str(rel))
        self.assert_one_error_line(*result, "relator 'abA' is not cyclically reduced")

    @pytest.mark.parametrize("xi", ["1/0", "abc"])
    def test_bad_xi_names_the_flag(self, xi):
        result = run_process("moves", "ab", "--n", "3", "--xi", xi)
        self.assert_one_error_line(*result, f"argument --xi: not a finite fraction: {xi!r}")


@pytest.mark.parametrize(
    "argv, code, out_start",
    [
        (["-s", "demos/session.bt", "burnside-order", "dehn", "--rank", "2", "--exp", "3"],
         EXIT_OK, "3\n"),
        (["-s", "demos/session.bt", "burnside-order", "dehn", "--rank", "2", "--exp", "3",
          "--max-k", "2"], EXIT_UNDECIDED, "exceeds bound 2\n"),
        (["moves", "aaab", "--n", "3", "--join", "bbba", "--budget", "5"],
         EXIT_UNDECIDED, "undecided"),
    ],
    ids=["order", "exceeds-bound", "undecided"],
)
def test_answer_exits_from_a_process(argv, code, out_start):
    """A certified answer exits 0 and an undecided one 2, in a fresh interpreter too."""
    got, out, err = run_process(*argv)
    assert got == code
    assert out.startswith(out_start)
    assert "Traceback" not in err
