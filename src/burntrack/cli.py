"""Command-line front end: session files of named objects, one query per run.

A session file defines alphabets, substitutions, basis maps, and graph maps
in a line-oriented grammar (``#`` starts a comment, blocks end with ``end``)::

    alphabet F2 inverse a b
    alphabet ABC plain a b c

    subst remark3 over ABC
      a -> a b
      b -> c
      c -> a b c
    end

    autom fib over F2
      a -> a b
      b -> a
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

Subcommands read one session file and answer one question each.  Results go
to stdout and are byte-deterministic; diagnostics go to stderr.  Exit code
0 means a definite answer, 2 an honest "could not decide within the given
bounds" (search budget exhausted, bound exceeded, no period found up to the
bound), 1 an error.  ``--json`` replaces the textual report with one JSON
object carrying the same values; every number in the JSON equals the number
printed in text mode.

Words on the command line may be written as whitespace-separated tokens
(``a b^-1``, with ``inv(a)`` accepted) or, when unambiguous, packed as one
string with uppercase meaning inverse (``abA``).
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from .automorphisms import (
    BasisMap,
    Growth,
    abelianization,
    growth_rank2,
    growth_rate_estimate,
)
from .burnside import (
    EnumerationIncomplete,
    ExceedsBound,
    Joined,
    MoveParams,
    Order,
    SearchBudget,
    Undecided,
    burnside_oracle,
    common_descendant_search,
    find_elementary_moves,
    induced_order,
    move_log,
    todd_coxeter,
)
from .graphmap import (
    EdgePath,
    Graph,
    StratifiedGraphMap,
    StratumKind,
    classify_strata,
    f_sharp,
    growth_classify,
    red_projection,
    yellow_loop_audit,
)
from .matrices import (
    is_irreducible,
    is_primitive,
    pf_eigenvalue,
    pf_eigenvalue_via_shift,
)
from .substitutions import (
    NoPeriodUpTo,
    Periodic,
    Substitution,
    detect_shift_period,
)
from .words import Alphabet, GroupWord, InverseAlphabet, Word, max_power_index, reduce

__all__ = ["main", "parse_session", "dump_session", "SessionFile", "SessionError"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDECIDED = 2

_GENERATOR_NAMES = "abcdefghijklmnopqrstuvwxyz"


class SessionError(Exception):
    """Parse or lookup failure, with file location when known."""


class _CliError(Exception):
    pass


@dataclass
class SessionFile:
    """Named objects defined by one session file, in definition order."""

    alphabets: dict[str, Alphabet] = field(default_factory=dict)
    substitutions: dict[str, Substitution] = field(default_factory=dict)
    basis_maps: dict[str, BasisMap] = field(default_factory=dict)
    graph_maps: dict[str, StratifiedGraphMap] = field(default_factory=dict)
    order: list[tuple[str, str]] = field(default_factory=list)

    def names(self) -> set[str]:
        return (
            set(self.alphabets)
            | set(self.substitutions)
            | set(self.basis_maps)
            | set(self.graph_maps)
        )

    def lookup(self, name: str):
        for kind, table in (
            ("alphabet", self.alphabets),
            ("subst", self.substitutions),
            ("autom", self.basis_maps),
            ("graphmap", self.graph_maps),
        ):
            if name in table:
                return kind, table[name]
        raise SessionError(f"no object named {name!r} in the session")


def _fail(path: str, lineno: int, message: str, line: str = "", token: str = "") -> SessionError:
    where = f"{path}:{lineno}"
    if token and token in line:
        where += f":{line.index(token) + 1}"
    return SessionError(f"{where}: {message}")


def _strip(raw: str) -> str:
    return raw.split("#", 1)[0].rstrip()


def _parse_image_line(path, lineno, line, alphabet, warn_reduce):
    tokens = line.split()
    if len(tokens) < 3 or tokens[1] != "->":
        raise _fail(path, lineno, "expected '<letter> -> <tokens...>'", line)
    name = tokens[0]
    try:
        word = Word(alphabet, tokens[2:])
    except ValueError as err:
        raise _fail(path, lineno, str(err), line) from None
    if warn_reduce and alphabet.has_inverses:
        reduced = reduce(word)
        if len(reduced) != len(word):
            print(
                f"{path}:{lineno}: image of {name!r} was not freely reduced; "
                f"reduced on load",
                file=sys.stderr,
            )
            word = reduced
    return name, word


def parse_session(path: str) -> SessionFile:
    """Parse a session file; the first problem raises with its location."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw_lines = fh.read().splitlines()
    except OSError as err:
        raise SessionError(f"cannot read {path}: {err}") from None

    session = SessionFile()

    def check_fresh(name: str, lineno: int, line: str) -> None:
        if name in session.names():
            raise _fail(path, lineno, f"duplicate name {name!r}", line, name)

    n = 0
    total = len(raw_lines)
    while n < total:
        lineno = n + 1
        line = _strip(raw_lines[n])
        n += 1
        if not line.strip():
            continue
        tokens = line.split()
        head = tokens[0]

        if head == "alphabet":
            if len(tokens) < 4 or tokens[2] not in ("inverse", "plain"):
                raise _fail(path, lineno, "expected 'alphabet <name> inverse|plain <letters...>'", line)
            name = tokens[1]
            check_fresh(name, lineno, line)
            try:
                cls = InverseAlphabet if tokens[2] == "inverse" else Alphabet
                session.alphabets[name] = cls(tokens[3:])
            except ValueError as err:
                raise _fail(path, lineno, str(err), line) from None
            session.order.append(("alphabet", name))
            continue

        if head in ("subst", "autom"):
            if len(tokens) != 4 or tokens[2] != "over":
                raise _fail(path, lineno, f"expected '{head} <name> over <alphabet>'", line)
            name, alph_name = tokens[1], tokens[3]
            check_fresh(name, lineno, line)
            if alph_name not in session.alphabets:
                raise _fail(path, lineno, f"undefined alphabet {alph_name!r}", line, alph_name)
            alphabet = session.alphabets[alph_name]
            if head == "autom" and not alphabet.has_inverses:
                raise _fail(path, lineno, "autom needs an inverse alphabet", line)
            images: dict[str, Word] = {}
            closed = False
            while n < total:
                body_no = n + 1
                body = _strip(raw_lines[n])
                n += 1
                if not body.strip():
                    continue
                if body.split() == ["end"]:
                    closed = True
                    break
                key, word = _parse_image_line(
                    path, body_no, body, alphabet, warn_reduce=(head == "autom")
                )
                if key in images:
                    raise _fail(path, body_no, f"duplicate image for {key!r}", body, key)
                images[key] = word
            if not closed:
                raise _fail(path, lineno, f"unterminated {head} block (missing 'end')", line)
            try:
                if head == "subst":
                    session.substitutions[name] = Substitution(alphabet, images)
                else:
                    session.basis_maps[name] = BasisMap(alphabet, images)
            except ValueError as err:
                raise _fail(path, lineno, str(err), line) from None
            session.order.append((head, name))
            continue

        if head == "graphmap":
            if len(tokens) != 2:
                raise _fail(path, lineno, "expected 'graphmap <name>'", line)
            name = tokens[1]
            check_fresh(name, lineno, line)
            vertices: list[str] = []
            edges: list[tuple[str, str, str, int]] = []
            vmap: dict[str, str] = {}
            emap: dict[str, str] = {}
            closed = False
            while n < total:
                body_no = n + 1
                body = _strip(raw_lines[n])
                n += 1
                if not body.strip():
                    continue
                parts = body.split()
                if parts == ["end"]:
                    closed = True
                    break
                if parts[0] == "vertices:":
                    vertices.extend(parts[1:])
                elif parts[0] == "edge":
                    if len(parts) != 6 or parts[4] != "height":
                        raise _fail(path, body_no, "expected 'edge <name> <from> <to> height <h>'", body)
                    try:
                        h = int(parts[5])
                    except ValueError:
                        raise _fail(path, body_no, f"bad height {parts[5]!r}", body, parts[5]) from None
                    edges.append((parts[1], parts[2], parts[3], h))
                elif parts[0] == "vmap":
                    if len(parts) != 4 or parts[2] != "->":
                        raise _fail(path, body_no, "expected 'vmap <vertex> -> <vertex>'", body)
                    vmap[parts[1]] = parts[3]
                elif parts[0] == "map":
                    if len(parts) < 4 or parts[2] != "->":
                        raise _fail(path, body_no, "expected 'map <edge> -> <tokens...>'", body)
                    if parts[1] in emap:
                        raise _fail(path, body_no, f"duplicate image for edge {parts[1]!r}", body, parts[1])
                    emap[parts[1]] = " ".join(parts[3:])
                else:
                    raise _fail(path, body_no, f"unexpected directive {parts[0]!r} in graphmap block", body, parts[0])
            if not closed:
                raise _fail(path, lineno, "unterminated graphmap block (missing 'end')", line)
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    graph = Graph(vertices, edges)
                    session.graph_maps[name] = StratifiedGraphMap(graph, vmap, emap)
            except ValueError as err:
                raise _fail(path, lineno, str(err), line) from None
            for w in caught:
                print(f"{path}:{lineno}: warning: {w.message}", file=sys.stderr)
            session.order.append(("graphmap", name))
            continue

        raise _fail(path, lineno, f"unexpected directive {head!r}", line, head)

    return session


def dump_session(session: SessionFile) -> str:
    """Canonical text for a session; parsing it back gives equal objects."""
    chunks: list[str] = []
    alphabet_names = {id(a): n for n, a in session.alphabets.items()}
    for kind, name in session.order:
        if kind == "alphabet":
            a = session.alphabets[name]
            which = "inverse" if a.has_inverses else "plain"
            letters = a.positive_letters if a.has_inverses else a.letters
            chunks.append(f"alphabet {name} {which} " + " ".join(letters))
        elif kind in ("subst", "autom"):
            obj = session.substitutions[name] if kind == "subst" else session.basis_maps[name]
            alph = obj.alphabet
            aname = alphabet_names.get(id(alph))
            if aname is None:
                # parsed sessions always share instances; fall back by value
                aname = next(n for n, a in session.alphabets.items() if a == alph)
            lines = [f"{kind} {name} over {aname}"]
            keys = alph.positive_letters if alph.has_inverses else alph.letters
            for x in keys:
                lines.append(f"  {x} -> {obj.image(x)}")
            lines.append("end")
            chunks.append("\n".join(lines))
        else:
            f = session.graph_maps[name]
            g = f.graph
            lines = [f"graphmap {name}"]
            lines.append("  vertices: " + " ".join(g.vertices))
            for p, e in enumerate(g.positive_edges):
                i = 2 * p
                lines.append(f"  edge {e} {g.origin(i)} {g.terminus(i)} height {g.height(i)}")
            for v in g.vertices:
                lines.append(f"  vmap {v} -> {f.vertex_image(v)}")
            for e in g.positive_edges:
                lines.append(f"  map {e} -> {f.edge_image(e).word}")
            lines.append("end")
            chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


def _parse_word(alphabet: Alphabet, text: str) -> Word:
    """Tokens first; a single unbroken string falls back to one letter per
    character (uppercase = inverse)."""
    tokens = text.split()
    try:
        return Word(alphabet, tokens)
    except ValueError as err:
        if len(tokens) == 1 and len(tokens[0]) > 1:
            try:
                return Word(alphabet, tuple(tokens[0]))
            except ValueError:
                pass
        raise _CliError(str(err)) from None


def _render_word(word: Word) -> str:
    return word.compact() if len(word) else "-"


def _fmt(value: float, spec: str) -> tuple[str, float]:
    text = format(value, spec)
    return text, float(text)


class _Parser(argparse.ArgumentParser):
    # exit code 1 on usage errors, per the CLI contract
    def error(self, message):
        raise _CliError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="burntrack", description=__doc__.splitlines()[0])
    parser.add_argument("--session", "-s", metavar="FILE", help="session file defining named objects")
    parser.add_argument("--json", action="store_true", help="emit one JSON object instead of text")

    # the same flags are accepted after the subcommand; SUPPRESS keeps an
    # unset subcommand flag from clobbering a value given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--session", "-s", metavar="FILE", default=argparse.SUPPRESS)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)

    sub = parser.add_subparsers(
        dest="command", required=True, metavar="COMMAND", parser_class=_Parser
    )

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("classify", help="growth verdict (and strata for a graph map)")
    p.add_argument("name")

    p = add_parser("orbit", help="iterated images of a seed word")
    p.add_argument("name")
    p.add_argument("seed")
    p.add_argument("--depth", type=int, default=7)

    p = add_parser("power-index", help="largest power of a subword along an orbit")
    p.add_argument("name")
    p.add_argument("seed")
    p.add_argument("--depth", type=int, default=10)

    p = add_parser("pf", help="leading eigenvalue, eigenvector and residual")
    p.add_argument("name")

    p = add_parser("period", help="shift-periodicity of a fixed point")
    p.add_argument("name")
    p.add_argument("letter")
    p.add_argument("--bound", type=int, default=20)

    p = add_parser("red", help="top-stratum projection of iterated images")
    p.add_argument("name")
    p.add_argument("word")
    p.add_argument("--depth", type=int, default=4)

    p = add_parser("audit-yellow", help="census of low-height pieces that close up")
    p.add_argument("name")
    p.add_argument("edge")
    p.add_argument("--depth", type=int, default=3)

    p = add_parser("moves", help="power rewrites of a word, or a join search")
    p.add_argument("word")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--xi", default="0")
    p.add_argument("--threshold", help="override the multiplicity threshold (a fraction)")
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--join", metavar="WORD2")
    p.add_argument("--budget", type=int, default=20_000)
    p.add_argument("--max-depth", type=int, default=12)

    p = add_parser("burnside-order", help="order induced on a finite exponent quotient")
    p.add_argument("name")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--exp", type=int, required=True)
    p.add_argument("--max-k", type=int, default=10_000)

    p = add_parser("tc", help="coset enumeration for a relator file")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--relators", required=True, metavar="FILE")
    p.add_argument("--max-cosets", type=int, default=1_000_000)
    p.add_argument("--csv", metavar="FILE", help="also write the coset table as CSV")

    add_parser("dump", help="re-emit the session file canonically")
    return parser


def _need_session(args) -> SessionFile:
    if not args.session:
        raise _CliError(f"'{args.command}' needs --session FILE")
    return parse_session(args.session)


def _seed_for(obj, text: str):
    if isinstance(obj, StratifiedGraphMap):
        return EdgePath(obj.graph, _parse_word(obj.graph.edge_alphabet, text))
    return _parse_word(obj.alphabet, text)


def _advance(obj, state):
    if isinstance(obj, StratifiedGraphMap):
        return f_sharp(obj, state)
    if isinstance(obj, BasisMap):
        return obj.apply(state)
    return obj.iterate(state, 1)


def _cmd_classify(args):
    session = _need_session(args)
    kind, obj = session.lookup(args.name)
    if kind == "autom":
        det = abelianization(obj).det
        if obj.alphabet.rank == 2:
            verdict = growth_rank2(obj)
            method = "trace criterion"
            payload = {}
        else:
            est = growth_rate_estimate(obj)
            verdict = Growth.EXPONENTIAL if est.estimate > 1.01 else Growth.POLYNOMIAL
            method = "growth estimate"
            text, num = _fmt(est.estimate, ".6f")
            payload = {"estimate": num}
        lines = [
            f"abelianized determinant {det}",
            f"growth {verdict} ({method})",
        ]
        if payload:
            lines.insert(1, f"estimate {text}")
        return (
            {"command": "classify", "name": args.name, "kind": kind, "determinant": det,
             "growth": str(verdict), "method": method, **payload},
            lines,
            EXIT_OK,
        )
    if kind == "graphmap":
        reports = classify_strata(obj)
        lines = []
        strata_payload = []
        for r in reports:
            entry = {"height": r.height, "edges": list(r.edges), "kind": str(r.kind)}
            line = f"stratum {r.height}: edges={','.join(r.edges)} kind={r.kind}"
            if r.kind is StratumKind.EXPONENTIAL:
                lam_text, lam = _fmt(r.eigenvalue, ".9f")
                res_text, res = _fmt(r.residual, ".3e")
                line += (
                    f" lambda={lam_text} residual={res_text}"
                    f" aperiodic={'yes' if r.aperiodic else 'no'}"
                )
                entry.update(eigenvalue=lam, residual=res, aperiodic=r.aperiodic)
            lines.append(line)
            strata_payload.append(entry)
        verdict = growth_classify(obj)  # may raise RefinementNeeded -> error exit
        lines.append(f"growth {verdict}")
        return (
            {"command": "classify", "name": args.name, "kind": kind,
             "strata": strata_payload, "growth": str(verdict)},
            lines,
            EXIT_OK,
        )
    raise _CliError(f"{args.name!r} is a {kind}; classify wants an autom or a graphmap")


def _cmd_orbit(args):
    session = _need_session(args)
    kind, obj = session.lookup(args.name)
    if kind == "alphabet":
        raise _CliError(f"{args.name!r} is an alphabet; orbit wants a map")
    if args.depth < 1:
        raise _CliError("--depth must be positive")
    state = _seed_for(obj, args.seed)
    words = []
    for _ in range(args.depth):
        state = _advance(obj, state)
        words.append((state.word if isinstance(state, EdgePath) else state).compact())
    lines = [f"{p} {w if w else '-'}" for p, w in enumerate(words, start=1)]
    return (
        {"command": "orbit", "name": args.name, "seed": args.seed,
         "depth": args.depth, "words": words},
        lines,
        EXIT_OK,
    )


def _cmd_power_index(args):
    session = _need_session(args)
    kind, obj = session.lookup(args.name)
    if kind == "alphabet":
        raise _CliError(f"{args.name!r} is an alphabet; power-index wants a map")
    if args.depth < 1:
        raise _CliError("--depth must be positive")
    state = _seed_for(obj, args.seed)
    rows = []
    for p in range(1, args.depth + 1):
        state = _advance(obj, state)
        word = state.word if isinstance(state, EdgePath) else state
        rows.append((p, max_power_index(word)))
    lines = [f"{p} {k}" for p, k in rows]
    return (
        {"command": "power-index", "name": args.name, "seed": args.seed,
         "indices": [{"power": p, "index": k} for p, k in rows]},
        lines,
        EXIT_OK,
    )


def _pf_data(obj):
    if isinstance(obj, StratifiedGraphMap):
        exponential = [r for r in classify_strata(obj) if r.kind is StratumKind.EXPONENTIAL]
        if len(exponential) != 1:
            raise _CliError(
                f"need exactly one exponential stratum, found {len(exponential)}"
            )
        top = exponential[0]
        return top.eigenvalue, top.eigenvector, top.residual, list(top.edges)
    matrix = obj.transition_matrix()
    if not is_irreducible(matrix):
        raise _CliError("transition matrix is reducible; no leading eigenvalue")
    pf = pf_eigenvalue(matrix) if is_primitive(matrix) else pf_eigenvalue_via_shift(matrix)
    alph = obj.alphabet
    names = alph.positive_letters if alph.has_inverses else alph.letters
    return pf.eigenvalue, pf.eigenvector, pf.residual, list(names)


def _cmd_pf(args):
    session = _need_session(args)
    kind, obj = session.lookup(args.name)
    if kind not in ("subst", "graphmap"):
        raise _CliError(f"{args.name!r} is a {kind}; pf wants a subst or a graphmap")
    lam, vec, residual, names = _pf_data(obj)
    lam_text, lam_num = _fmt(lam, ".9f")
    res_text, res_num = _fmt(residual, ".3e")
    comps = [_fmt(x, ".9f") for x in vec]
    lines = [
        f"lambda {lam_text}",
        f"residual {res_text}",
        "eigenvector " + " ".join(f"{n}={t}" for n, (t, _) in zip(names, comps)),
    ]
    return (
        {"command": "pf", "name": args.name, "lambda": lam_num, "residual": res_num,
         "eigenvector": {n: v for n, (_, v) in zip(names, comps)}},
        lines,
        EXIT_OK,
    )


def _cmd_period(args):
    session = _need_session(args)
    kind, obj = session.lookup(args.name)
    if kind != "subst":
        raise _CliError(f"{args.name!r} is a {kind}; period wants a subst")
    result = detect_shift_period(obj, args.letter, args.bound)
    if isinstance(result, Periodic):
        block = result.block.compact()
        return (
            {"command": "period", "name": args.name, "letter": args.letter,
             "result": "periodic", "block": block, "power": result.power},
            [f"periodic block={block} power={result.power}"],
            EXIT_OK,
        )
    return (
        {"command": "period", "name": args.name, "letter": args.letter,
         "result": "no-period", "bound": result.bound},
        [f"no period up to {result.bound}"],
        EXIT_UNDECIDED,
    )


def _cmd_red(args):
    session = _need_session(args)
    kind, obj = session.lookup(args.name)
    if kind != "graphmap":
        raise _CliError(f"{args.name!r} is a {kind}; red wants a graphmap")
    if args.depth < 0:
        raise _CliError("--depth must be >= 0")
    path = _seed_for(obj, args.word)
    rows = [red_projection(path).compact()]
    for _ in range(args.depth):
        path = f_sharp(obj, path)
        rows.append(red_projection(path).compact())
    lines = [f"{p} {w if w else '-'}" for p, w in enumerate(rows)]
    return (
        {"command": "red", "name": args.name, "word": args.word,
         "projections": rows},
        lines,
        EXIT_OK,
    )


def _cmd_audit_yellow(args):
    session = _need_session(args)
    kind, obj = session.lookup(args.name)
    if kind != "graphmap":
        raise _CliError(f"{args.name!r} is a {kind}; audit-yellow wants a graphmap")
    report = yellow_loop_audit(obj, args.edge, args.depth)
    lines = [
        f"piece power={p.power} path={_render_word(p.path.word)} loop={'yes' if p.is_loop else 'no'}"
        for p in report.pieces
    ]
    loops = sum(1 for p in report.pieces if p.is_loop)
    lines.append("PASS" if report.passed else f"FAIL: {loops} yellow loops")
    return (
        {"command": "audit-yellow", "name": args.name, "edge": args.edge,
         "depth": args.depth, "passed": report.passed,
         "pieces": [
             {"power": p.power, "path": p.path.word.compact(), "loop": p.is_loop}
             for p in report.pieces
         ]},
        lines,
        EXIT_OK,
    )


def _moves_alphabet(rank: int) -> InverseAlphabet:
    if not 1 <= rank <= len(_GENERATOR_NAMES):
        raise _CliError(f"--rank must be between 1 and {len(_GENERATOR_NAMES)}")
    return InverseAlphabet(_GENERATOR_NAMES[:rank])


def _reduced_input(alphabet, text: str) -> GroupWord:
    word = _parse_word(alphabet, text)
    got = reduce(word)
    if len(got) != len(word):
        print(f"input word {text!r} reduced to {got.compact()!r}", file=sys.stderr)
    return got


def _cmd_moves(args):
    alphabet = _moves_alphabet(args.rank)
    threshold = Fraction(args.threshold) if args.threshold is not None else None
    params = MoveParams(args.n, Fraction(args.xi), threshold=threshold)
    word = _reduced_input(alphabet, args.word)
    if args.join is None:
        moves = find_elementary_moves(word, params)
        lines = move_log(moves).splitlines() or ["no moves"]
        return (
            {"command": "moves", "word": word.compact(), "n": args.n,
             "xi": str(params.xi), "m_min": params.m_min,
             "moves": [
                 {"pos": m.run.start, "period": m.run.period.compact(),
                  "m": m.run.exponent, "result": m.result.compact()}
                 for m in moves
             ]},
            lines,
            EXIT_OK,
        )
    other = _reduced_input(alphabet, args.join)
    budget = SearchBudget(max_states=args.budget, max_depth=args.max_depth)
    result = common_descendant_search(word, other, params, budget)
    if isinstance(result, Joined):
        left = move_log(result.left_moves).splitlines()
        right = move_log(result.right_moves).splitlines()
        lines = [f"joined {_render_word(result.witness)}"]
        lines += [f"left {line}" for line in left]
        lines += [f"right {line}" for line in right]
        return (
            {"command": "moves", "result": "joined",
             "witness": result.witness.compact(),
             "left": left,
             "right": right,
             "explored": list(result.explored)},
            lines,
            EXIT_OK,
        )
    lines = [
        "undecided "
        f"explored={result.explored[0]}+{result.explored[1]} "
        f"depth={result.depth_reached[0]},{result.depth_reached[1]} "
        f"exhausted={'yes' if result.frontier_exhausted else 'no'}"
    ]
    return (
        {"command": "moves", "result": "undecided",
         "explored": list(result.explored),
         "depth_reached": list(result.depth_reached),
         "frontier_exhausted": result.frontier_exhausted},
        lines,
        EXIT_UNDECIDED,
    )


def _cmd_burnside_order(args):
    session = _need_session(args)
    kind, obj = session.lookup(args.name)
    if kind != "autom":
        raise _CliError(f"{args.name!r} is a {kind}; burnside-order wants an autom")
    quotient = burnside_oracle(args.rank, args.exp)
    result = induced_order(obj, quotient, max_k=args.max_k)
    if isinstance(result, Order):
        return (
            {"command": "burnside-order", "name": args.name, "rank": args.rank,
             "exp": args.exp, "order": result.value},
            [str(result.value)],
            EXIT_OK,
        )
    return (
        {"command": "burnside-order", "name": args.name, "rank": args.rank,
         "exp": args.exp, "result": "exceeds-bound", "bound": result.bound},
        [f"exceeds bound {result.bound}"],
        EXIT_UNDECIDED,
    )


def _cmd_tc(args):
    alphabet = _moves_alphabet(args.rank)
    relators = []
    try:
        with open(args.relators, encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except OSError as err:
        raise _CliError(f"cannot read {args.relators}: {err}") from None
    for lineno, rawline in enumerate(raw, start=1):
        text = _strip(rawline)
        if not text.strip():
            continue
        word = _parse_word(alphabet, text)
        reduced = reduce(word)
        if len(reduced) != len(word):
            raise _CliError(f"{args.relators}:{lineno}: relator is not freely reduced")
        relators.append(reduced)
    try:
        table = todd_coxeter(args.rank, relators, max_cosets=args.max_cosets)
    except EnumerationIncomplete as err:
        print(f"undecided: {err}", file=sys.stderr)
        payload = {"command": "tc", "rank": args.rank, "result": "incomplete", "live": err.live,
                   "cosets_allocated": err.allocated, "max_cosets": err.max_cosets}
        return payload, [], EXIT_UNDECIDED
    lines = [f"order {table.size}"]
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(table.to_csv())
        lines.append(f"csv written to {args.csv}")
    return (
        {"command": "tc", "rank": args.rank, "order": table.size,
         "cosets_allocated": table.cosets_allocated},
        lines,
        EXIT_OK,
    )


def _cmd_dump(args):
    session = _need_session(args)
    text = dump_session(session)
    return (
        {"command": "dump", "text": text},
        [text.rstrip("\n")],
        EXIT_OK,
    )


_HANDLERS = {
    "classify": _cmd_classify,
    "orbit": _cmd_orbit,
    "power-index": _cmd_power_index,
    "pf": _cmd_pf,
    "period": _cmd_period,
    "red": _cmd_red,
    "audit-yellow": _cmd_audit_yellow,
    "moves": _cmd_moves,
    "burnside-order": _cmd_burnside_order,
    "tc": _cmd_tc,
    "dump": _cmd_dump,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        payload, lines, code = _HANDLERS[args.command](args)
    except (_CliError, SessionError, RuntimeError, OSError, ValueError, ZeroDivisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    if args.json:
        print(json.dumps(payload))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
