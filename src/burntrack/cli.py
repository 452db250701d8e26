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
bounds", 1 an error.  An answer exits 2 exactly when its JSON ``result`` is
``no-period`` (``period``), ``undecided`` (``classify`` on an ``autom`` that
no certificate decides, or a ``moves --join`` search out of budget),
``exceeds-bound`` (``burnside-order`` past ``--max-k``) or ``incomplete``
(``tc`` past ``--max-cosets``).  ``--json`` replaces the
textual report with one JSON object carrying the same values; every number
in the JSON equals the number printed in text mode.  Each object starts with
``command``, then ``name`` for the eight subcommands that take one.

Words on the command line may be written as whitespace-separated tokens
(``a b^-1``, with ``inv(a)`` accepted) or, when unambiguous, packed as one
string with uppercase meaning inverse (``abA``).

A subcommand loads only the modules its answer needs.  Importing this
module loads ``words``, ``limits`` and ``_records`` of the package.  A
session file adds ``_maps`` (substitutions, basis maps and their matrices)
for its ``subst`` and ``autom`` blocks, and ``_graph`` (graphs, edge paths
and graph maps) from its first ``graphmap`` block on; every object is
built and checked at load.  ``dump``, and ``orbit`` and ``power-index``
on an ``autom`` or a ``graphmap``, need nothing more.  An analysis adds
its public module: ``classify`` on an ``autom`` adds ``automorphisms``,
``pf`` on a ``subst`` ``matrices``, ``period`` and an orbit of a ``subst``
``substitutions``, and ``classify``, ``pf``, ``red`` and ``audit-yellow``
on a ``graphmap`` add ``graphmap``.  ``burnside`` loads only for
``moves``, ``tc`` and ``burnside-order``, and ``json`` only for
``--json``.
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings

from .words import Alphabet, GroupWord, InverseAlphabet, Word, max_power_index, reduce

__all__ = ["main", "parse_session", "dump_session", "SessionFile", "SessionError"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDECIDED = 2
# the ``result`` of each answer that was not decided within the given bounds
_UNDECIDED_RESULTS = frozenset({"no-period", "undecided", "exceeds-bound", "incomplete"})


class SessionError(Exception):
    """Parse or lookup failure, with file location when known."""


class _CliError(Exception):
    pass


class SessionFile:
    """Named objects of one session file: ``objects`` maps name -> (kind, object), in definition order."""

    def __init__(self) -> None:
        self.objects: dict[str, tuple[str, object]] = {}

    def lookup(self, name: str):
        try:
            return self.objects[name]
        except KeyError:
            raise SessionError(f"no object named {name!r} in the session") from None


def _fail(path: str, lineno: int, message: str, line: str = "", token: int | None = None) -> SessionError:
    """The error at ``path:lineno``, with the column of token number ``token`` of ``line.split()``.

    A position, not a text, so that a token repeated on the line is
    reported where it repeats and vertex ``v`` is not found inside ``vmap``.
    """
    where = f"{path}:{lineno}"
    if token is not None:
        start = 0
        for k, word in enumerate(line.split()):
            start = line.index(word, start)
            if k == token:
                where += f":{start + 1}"
                break
            start += len(word)
    return SessionError(f"{where}: {message}")


def _numbered_lines(path: str):
    """(line number, text) of each line that is not blank once its comment is cut."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw_lines = fh.read().splitlines()
    except OSError as err:
        raise SessionError(f"cannot read {path}: {err}") from None
    stripped = ((n, raw.split("#", 1)[0].rstrip()) for n, raw in enumerate(raw_lines, start=1))
    return ((n, text) for n, text in stripped if text)


def _block_body(lines, path: str, lineno: int, line: str, head: str):
    """The lines of the block opened at ``lineno``, up to its ``end``."""
    for body_no, body in lines:
        if body.split() == ["end"]:
            return
        yield body_no, body
    raise _fail(path, lineno, f"unterminated {head} block (missing 'end')", line)


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


def _load(path: str, lineno: int, line: str, make):
    """``make()``; its ValueError fails at the block's line, and each warning prints there."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            obj = make()
    except ValueError as err:
        raise _fail(path, lineno, str(err), line) from None
    for w in caught:
        print(f"{path}:{lineno}: warning: {w.message}", file=sys.stderr)
    return obj


def _checked_autom(alphabet: InverseAlphabet, images):
    from ._maps import BasisMap, abelianization

    f = BasisMap(alphabet, images)
    abelianization(f)  # warns when the determinant is not +-1
    return f


def parse_session(path: str) -> SessionFile:
    """Parse a session file; the first problem raises with its location."""
    lines = _numbered_lines(path)
    session = SessionFile()
    objects = session.objects

    def check_fresh(name: str, lineno: int, line: str) -> None:
        if name in objects:
            raise _fail(path, lineno, f"duplicate name {name!r}", line, 1)

    for lineno, line in lines:
        tokens = line.split()
        head = tokens[0]

        if head == "alphabet":
            if len(tokens) < 4 or tokens[2] not in ("inverse", "plain"):
                raise _fail(path, lineno, "expected 'alphabet <name> inverse|plain <letters...>'", line)
            name = tokens[1]
            check_fresh(name, lineno, line)
            cls = InverseAlphabet if tokens[2] == "inverse" else Alphabet
            objects[name] = head, _load(path, lineno, line, lambda: cls(tokens[3:]))
            continue

        if head in ("subst", "autom"):
            if len(tokens) != 4 or tokens[2] != "over":
                raise _fail(path, lineno, f"expected '{head} <name> over <alphabet>'", line)
            name, alph_name = tokens[1], tokens[3]
            check_fresh(name, lineno, line)
            kind, alphabet = objects.get(alph_name, (None, None))
            if kind != "alphabet":
                raise _fail(path, lineno, f"undefined alphabet {alph_name!r}", line, 3)
            if head == "autom" and not alphabet.has_inverses:
                raise _fail(path, lineno, "autom needs an inverse alphabet", line)
            images: dict[str, Word] = {}
            for body_no, body in _block_body(lines, path, lineno, line, head):
                key, word = _parse_image_line(
                    path, body_no, body, alphabet, warn_reduce=(head == "autom")
                )
                if key in images:
                    raise _fail(path, body_no, f"duplicate image for {key!r}", body, 0)
                images[key] = word
            from ._maps import Substitution

            make = Substitution if head == "subst" else _checked_autom
            objects[name] = head, _load(path, lineno, line, lambda: make(alphabet, images))
            continue

        if head == "graphmap":
            if len(tokens) != 2:
                raise _fail(path, lineno, "expected 'graphmap <name>'", line)
            from ._graph import Graph, StratifiedGraphMap

            name = tokens[1]
            check_fresh(name, lineno, line)
            vertices: list[str] = []
            edges: list[tuple[str, str, str, int]] = []
            vmap: dict[str, str] = {}
            emap: dict[str, str] = {}
            for body_no, body in _block_body(lines, path, lineno, line, head):
                parts = body.split()
                if parts[0] == "vertices:":
                    for k, v in enumerate(parts[1:], start=1):
                        if v in vertices:
                            raise _fail(path, body_no, f"duplicate vertex {v!r}", body, k)
                        vertices.append(v)
                elif parts[0] == "edge":
                    if len(parts) != 6 or parts[4] != "height":
                        raise _fail(path, body_no, "expected 'edge <name> <from> <to> height <h>'", body)
                    try:
                        h = int(parts[5])
                    except ValueError:
                        raise _fail(path, body_no, f"bad height {parts[5]!r}", body, 5) from None
                    if any(e[0] == parts[1] for e in edges):
                        raise _fail(path, body_no, f"duplicate edge {parts[1]!r}", body, 1)
                    edges.append((parts[1], parts[2], parts[3], h))
                elif parts[0] == "vmap":
                    if len(parts) != 4 or parts[2] != "->":
                        raise _fail(path, body_no, "expected 'vmap <vertex> -> <vertex>'", body)
                    if parts[1] in vmap:
                        raise _fail(path, body_no, f"duplicate image for vertex {parts[1]!r}", body, 1)
                    vmap[parts[1]] = parts[3]
                elif parts[0] == "map":
                    if len(parts) < 4 or parts[2] != "->":
                        raise _fail(path, body_no, "expected 'map <edge> -> <tokens...>'", body)
                    if parts[1] in emap:
                        raise _fail(path, body_no, f"duplicate image for edge {parts[1]!r}", body, 1)
                    emap[parts[1]] = " ".join(parts[3:])
                else:
                    raise _fail(path, body_no, f"unexpected directive {parts[0]!r} in graphmap block", body, 0)
            objects[name] = head, _load(
                path, lineno, line, lambda: StratifiedGraphMap(Graph(vertices, edges), vmap, emap)
            )
            continue

        raise _fail(path, lineno, f"unexpected directive {head!r}", line, 0)

    return session


def dump_session(session: SessionFile) -> str:
    """Canonical text for a session; parsing it back gives equal objects."""
    chunks: list[str] = []
    alphabets = {n: a for n, (kind, a) in session.objects.items() if kind == "alphabet"}
    alphabet_names = {id(a): n for n, a in alphabets.items()}
    for name, (kind, obj) in session.objects.items():
        if kind == "alphabet":
            which = "inverse" if obj.has_inverses else "plain"
            chunks.append(f"alphabet {name} {which} " + " ".join(obj.positive_letters))
        elif kind in ("subst", "autom"):
            alph = obj.alphabet
            aname = alphabet_names.get(id(alph))
            if aname is None:
                # parsed sessions always share instances; fall back by value
                aname = next(n for n, a in alphabets.items() if a == alph)
            lines = [f"{kind} {name} over {aname}"]
            for x in alph.positive_letters:
                lines.append(f"  {x} -> {obj.image(x)}")
            lines.append("end")
            chunks.append("\n".join(lines))
        else:
            g = obj.graph
            lines = [f"graphmap {name}"]
            lines.append("  vertices: " + " ".join(g.vertices))
            for p, e in enumerate(g.positive_edges):
                i = 2 * p
                lines.append(f"  edge {e} {g.origin(i)} {g.terminus(i)} height {g.height(i)}")
            for v in g.vertices:
                lines.append(f"  vmap {v} -> {obj.vertex_image(v)}")
            for e in g.positive_edges:
                lines.append(f"  map {e} -> {obj.edge_image(e).word}")
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


def _shown(word: str) -> str:
    """A compact word as text output prints it: the empty word is ``-``."""
    return word or "-"


def _fmt(value: float, spec: str) -> tuple[str, float]:
    text = format(value, spec)
    return text, float(text)


def _fraction(text: str):
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a finite fraction: {text!r}") from None


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

    def add_parser(name, handler, **kw):
        p = sub.add_parser(name, parents=[common], **kw)
        p.set_defaults(handler=handler)
        return p

    p = add_parser("classify", _cmd_classify, help="growth verdict (and strata for a graph map)")
    p.add_argument("name")

    p = add_parser("orbit", _cmd_orbit, help="iterated images of a seed word")
    p.add_argument("name")
    p.add_argument("seed")
    p.add_argument("--depth", type=int, default=7)

    p = add_parser("power-index", _cmd_power_index, help="largest power of a subword along an orbit")
    p.add_argument("name")
    p.add_argument("seed")
    p.add_argument("--depth", type=int, default=10)

    p = add_parser("pf", _cmd_pf, help="leading eigenvalue, eigenvector and residual")
    p.add_argument("name")

    p = add_parser("period", _cmd_period, help="shift-periodicity of a fixed point")
    p.add_argument("name")
    p.add_argument("letter")
    p.add_argument("--bound", type=int, default=20)

    p = add_parser("red", _cmd_red, help="top-stratum projection of iterated images")
    p.add_argument("name")
    p.add_argument("word")
    p.add_argument("--depth", type=int, default=4)

    p = add_parser("audit-yellow", _cmd_audit_yellow, help="census of low-height pieces that close up")
    p.add_argument("name")
    p.add_argument("edge")
    p.add_argument("--depth", type=int, default=3)

    p = add_parser("moves", _cmd_moves, help="power rewrites of a word, or a join search")
    p.add_argument("word")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--xi", type=_fraction, default="0")
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--join", metavar="WORD2")
    p.add_argument("--budget", type=int, default=20_000)
    p.add_argument("--max-depth", type=int, default=12)

    p = add_parser("burnside-order", _cmd_burnside_order, help="order induced on a finite exponent quotient")
    p.add_argument("name")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--exp", type=int, required=True)
    p.add_argument("--max-k", type=int, default=10_000)

    p = add_parser("tc", _cmd_tc, help="coset enumeration for a relator file")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--relators", required=True, metavar="FILE")
    p.add_argument("--max-cosets", type=int, default=1_000_000)
    p.add_argument("--csv", metavar="FILE", help="also write the coset table as CSV")

    add_parser("dump", _cmd_dump, help="re-emit the session file canonically")
    return parser


def _need_session(args) -> SessionFile:
    if not args.session:
        raise _CliError(f"'{args.command}' needs --session FILE")
    return parse_session(args.session)


def _lookup(args, kinds: tuple[str, ...], want: str):
    """Kind and object of ``args.name``; an error unless the kind is one of ``kinds``."""
    kind, obj = _need_session(args).lookup(args.name)
    if kind not in kinds:
        article = "an" if kind[0] in "aeiou" else "a"
        raise _CliError(f"{args.name!r} is {article} {kind}; {args.command} wants {want}")
    return kind, obj


def _seed_for(kind: str, obj, text: str):
    """The seed ``text`` as a word, or as an edge path of a ``graphmap``."""
    if kind != "graphmap":
        return _parse_word(obj.alphabet, text)
    from ._graph import EdgePath

    word = _parse_word(obj.graph.edge_alphabet, text)
    if not word:
        raise _CliError("an edge-path seed needs at least one edge")
    return EdgePath(obj.graph, word)


def _iterates(args):
    """The words f^p(seed) for p = 1 .. --depth, f the map ``args.name``."""
    kind, obj = _lookup(args, ("subst", "autom", "graphmap"), "a map")
    if args.depth < 1:
        raise _CliError("--depth must be positive")
    state = _seed_for(kind, obj, args.seed)
    if kind == "graphmap":
        from ._graph import f_sharp

        for _ in range(args.depth):
            state = f_sharp(obj, state)
            yield state.word
    else:
        step = obj.apply if kind == "autom" else lambda w: obj.iterate(w, 1)
        for _ in range(args.depth):
            state = step(state)
            yield state


def _cmd_classify(args):
    kind, obj = _lookup(args, ("autom", "graphmap"), "an autom or a graphmap")
    if kind == "autom":
        from .automorphisms import abelianization, decide_growth

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # parse_session reported a bad determinant
            det = abelianization(obj).det
        answer = decide_growth(obj)
        if answer is None:
            payload, lines = {"result": "undecided"}, ["growth undecided"]
        else:
            verdict, method = answer
            payload = {"growth": str(verdict), "method": method}
            if method == "trace criterion":
                lines = [f"growth {verdict} ({method})"]
            else:
                lines = [f"growth {verdict}", f"method {method}"]
        return (
            {"kind": kind, "determinant": det, **payload},
            [f"abelianized determinant {det}", *lines],
        )
    from .graphmap import StratumKind, classify_strata, growth_classify

    lines = []
    strata_payload = []
    for r in classify_strata(obj):
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
        {"kind": kind, "strata": strata_payload, "growth": str(verdict)},
        lines,
    )


def _cmd_orbit(args):
    words = [word.compact() for word in _iterates(args)]
    lines = [f"{p} {_shown(w)}" for p, w in enumerate(words, start=1)]
    return (
        {"seed": args.seed, "depth": args.depth, "words": words},
        lines,
    )


def _cmd_power_index(args):
    rows = [(p, max_power_index(word)) for p, word in enumerate(_iterates(args), start=1)]
    lines = [f"{p} {k}" for p, k in rows]
    return (
        {"seed": args.seed, "indices": [{"power": p, "index": k} for p, k in rows]},
        lines,
    )


def _pf_data(kind: str, obj):
    if kind == "graphmap":
        from .graphmap import _exponential_stratum

        top = _exponential_stratum(obj)
        return top.eigenvalue, top.eigenvector, top.residual, list(top.edges)
    from .matrices import _perron, is_irreducible

    matrix = obj.transition_matrix()
    if not is_irreducible(matrix):
        raise _CliError("transition matrix is reducible; no leading eigenvalue")
    pf = _perron(matrix)
    return pf.eigenvalue, pf.eigenvector, pf.residual, list(obj.alphabet.positive_letters)


def _cmd_pf(args):
    kind, obj = _lookup(args, ("subst", "graphmap"), "a subst or a graphmap")
    lam, vec, residual, names = _pf_data(kind, obj)
    lam_text, lam_num = _fmt(lam, ".9f")
    res_text, res_num = _fmt(residual, ".3e")
    comps = [_fmt(x, ".9f") for x in vec]
    lines = [
        f"lambda {lam_text}",
        f"residual {res_text}",
        "eigenvector " + " ".join(f"{n}={t}" for n, (t, _) in zip(names, comps)),
    ]
    return (
        {"lambda": lam_num, "residual": res_num,
         "eigenvector": {n: v for n, (_, v) in zip(names, comps)}},
        lines,
    )


def _cmd_period(args):
    from .substitutions import Periodic, detect_shift_period

    _, obj = _lookup(args, ("subst",), "a subst")
    result = detect_shift_period(obj, args.letter, args.bound)
    if isinstance(result, Periodic):
        block = result.block.compact()
        return (
            {"letter": args.letter, "result": "periodic", "block": block, "power": result.power},
            [f"periodic block={block} power={result.power}"],
        )
    return (
        {"letter": args.letter, "result": "no-period", "bound": result.bound},
        [f"no period up to {result.bound}"],
    )


def _cmd_red(args):
    from .graphmap import f_sharp, red_projection

    kind, obj = _lookup(args, ("graphmap",), "a graphmap")
    if args.depth < 0:
        raise _CliError("--depth must be >= 0")
    path = _seed_for(kind, obj, args.word)
    rows = [red_projection(path).compact()]
    for _ in range(args.depth):
        path = f_sharp(obj, path)
        rows.append(red_projection(path).compact())
    lines = [f"{p} {_shown(w)}" for p, w in enumerate(rows)]
    return (
        {"word": args.word, "projections": rows},
        lines,
    )


def _cmd_audit_yellow(args):
    from .graphmap import yellow_loop_audit

    _, obj = _lookup(args, ("graphmap",), "a graphmap")
    report = yellow_loop_audit(obj, args.edge, args.depth)
    lines = [
        f"piece power={p.power} path={_shown(p.path.compact())} loop={'yes' if p.is_loop else 'no'}"
        for p in report.pieces
    ]
    loops = sum(1 for p in report.pieces if p.is_loop)
    lines.append("PASS" if report.passed else f"FAIL: {loops} yellow loops")
    return (
        {"edge": args.edge, "depth": args.depth, "passed": report.passed,
         "pieces": [
             {"power": p.power, "path": p.path.word.compact(), "loop": p.is_loop}
             for p in report.pieces
         ]},
        lines,
    )


def _moves_alphabet(rank: int) -> InverseAlphabet:
    from .burnside import _GENERATOR_NAMES

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
    from .burnside import (
        Joined,
        MoveParams,
        SearchBudget,
        common_descendant_search,
        find_elementary_moves,
        move_log,
    )

    alphabet = _moves_alphabet(args.rank)
    params = MoveParams(args.n, args.xi)
    word = _reduced_input(alphabet, args.word)
    if args.join is None:
        moves = find_elementary_moves(word, params)
        lines = move_log(moves).splitlines() or ["no moves"]
        return (
            {"word": word.compact(), "n": args.n,
             "xi": str(params.xi), "m_min": params.m_min,
             "moves": [
                 {"pos": m.run.start, "period": m.run.period.compact(),
                  "m": m.run.exponent, "result": m.result.compact()}
                 for m in moves
             ]},
            lines,
        )
    other = _reduced_input(alphabet, args.join)
    budget = SearchBudget(max_states=args.budget, max_depth=args.max_depth)
    result = common_descendant_search(word, other, params, budget)
    if isinstance(result, Joined):
        left = move_log(result.left_moves).splitlines()
        right = move_log(result.right_moves).splitlines()
        lines = [f"joined {_shown(result.witness.compact())}"]
        lines += [f"left {line}" for line in left]
        lines += [f"right {line}" for line in right]
        return (
            {"result": "joined", "witness": result.witness.compact(), "left": left, "right": right,
             "explored": list(result.explored)},
            lines,
        )
    lines = [
        "undecided "
        f"explored={result.explored[0]}+{result.explored[1]} "
        f"depth={result.depth_reached[0]},{result.depth_reached[1]} "
        f"exhausted={'yes' if result.frontier_exhausted else 'no'}"
    ]
    return (
        {"result": "undecided", "explored": list(result.explored),
         "depth_reached": list(result.depth_reached),
         "frontier_exhausted": result.frontier_exhausted},
        lines,
    )


def _cmd_burnside_order(args):
    from .burnside import Order, burnside_oracle, induced_order

    _, obj = _lookup(args, ("autom",), "an autom")
    quotient = burnside_oracle(args.rank, args.exp)
    result = induced_order(obj, quotient, max_k=args.max_k)
    if isinstance(result, Order):
        return (
            {"rank": args.rank, "exp": args.exp, "order": result.value},
            [str(result.value)],
        )
    return (
        {"rank": args.rank, "exp": args.exp, "result": "exceeds-bound", "bound": result.bound},
        [f"exceeds bound {result.bound}"],
    )


def _progress_printer(clock=time.monotonic):
    """A todd_coxeter progress callback writing at most one stderr line a second."""
    start = clock()
    last = start - 1.0  # the first call prints

    def report(allocated: int, live: int) -> None:
        nonlocal last
        now = clock()
        if now - last < 1.0:
            return
        last = now
        rate = allocated / max(now - start, 1e-9)
        print(f"progress: {allocated} cosets allocated, {live} live, {rate:.0f} cosets/s",
              file=sys.stderr, flush=True)

    return report


def _cmd_tc(args):
    from .burnside import EnumerationIncomplete, todd_coxeter

    alphabet = _moves_alphabet(args.rank)
    relators = []
    for lineno, text in _numbered_lines(args.relators):
        word = _parse_word(alphabet, text)
        reduced = reduce(word)
        if len(reduced) != len(word):
            raise _CliError(f"{args.relators}:{lineno}: relator is not freely reduced")
        relators.append(reduced)
    try:
        table = todd_coxeter(args.rank, relators, max_cosets=args.max_cosets,
                             progress=_progress_printer())
    except EnumerationIncomplete as err:
        print(f"undecided: {err}", file=sys.stderr)
        payload = {"rank": args.rank, "result": "incomplete", "live": err.live,
                   "cosets_allocated": err.allocated, "max_cosets": err.max_cosets}
        return payload, []
    lines = [f"order {table.size}"]
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(table.to_csv())
        lines.append(f"csv written to {args.csv}")
    return (
        {"rank": args.rank, "order": table.size,
         "cosets_allocated": table.cosets_allocated},
        lines,
    )


def _cmd_dump(args):
    session = _need_session(args)
    text = dump_session(session)
    return (
        {"text": text},
        [text.rstrip("\n")],
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        payload, lines = args.handler(args)
    except (_CliError, SessionError, RuntimeError, OSError, ValueError, ZeroDivisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    if args.json:
        import json

        head = {"command": args.command}
        if "name" in vars(args):
            head["name"] = args.name
        print(json.dumps({**head, **payload}))
    else:
        for line in lines:
            print(line)
    return EXIT_UNDECIDED if payload.get("result") in _UNDECIDED_RESULTS else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
