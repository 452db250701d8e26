"""cli_session: one ``burntrack`` process per question, one after another.

A round runs 14 invocations on bench/session.bt: every subcommand once,
with ``classify`` three times (a rank-2 automorphism, a graph map, and the
rank-3 map ``tri``) and ``moves`` twice (a listing and a join).  The seed
picks the object and arguments of most of them.  Process start, import,
session parsing and output are the work; each invocation's own
computation is kept small beside them.

``classify tri`` is the one known wrong answer: ``tri`` is a -> a,
b -> b a, c -> c b, which is triangular and so grows polynomially, but the
command prints ``growth exponential`` with exit 0, because the verdict for
rank >= 3 comes from a float threshold on a growth estimate.  Its check
accepts ``growth polynomial`` with exit 0, or exit 2, and it is counted
as a failed operation in every round.
"""

from __future__ import annotations

import math
import os
import random
import statistics
import sys
from fractions import Fraction

import reference as ref
from workloads import Base
from workloads.group_orders import square_free, with_cubes

CLI_MAIN = "import sys; from burntrack.cli import main; sys.exit(main())"
SESSION = os.path.join("bench", "session.bt")
RELATORS = {
    "s4": (3, ref.coxeter_symmetric_relators(4), math.factorial(4)),
    "s5": (4, ref.coxeter_symmetric_relators(5), math.factorial(5)),
    "psl27": (2, ref.PSL27_RELATORS, ref.PSL27_ORDER),
}


class Workload(Base):
    PER_QUESTION = False  # 14 distinct questions: too few for a tail of their own
    TAIL_PERCENTILE = 75
    CHILD_PROCESSES = True

    def __init__(self, seed: int, root: str):
        from run import child_env, out_dir, run_child

        self.root = root
        self.env = child_env(root)
        self.run_child = run_child
        self.out = out_dir(root)
        with open(os.path.join(root, SESSION), encoding="utf-8") as fh:
            self.session_text = fh.read()
        self.objects = ref.parse_session_text(self.session_text)
        for name, (rank, rels, _) in RELATORS.items():
            with open(os.path.join(self.out, f"{name}.rel"), "w", encoding="utf-8") as fh:
                fh.write("".join(r + "\n" for r in rels))
        rng = random.Random(seed)
        self.questions = self._questions(rng)
        self.peak_child_rss_mb = 0.0
        self.walls: dict[str, list[float]] = {}
        self.span_files: list[tuple[str, int]] = []
        self._calls = 0
        self.ask(("dump", ["-s", SESSION, "dump"]))  # warm-up

    # ------------------------------------------------------------ questions

    def _questions(self, rng) -> list[tuple[str, list[str]]]:
        s = ["-s", SESSION]
        orbit = rng.choice([
            ("fib", rng.choice(["a", "b", "ab"]), rng.randrange(5, 9)),
            ("dehn", "b", rng.randrange(5, 10)),
            ("cancel", "ab", rng.randrange(4, 8)),
            ("fibw", "a", rng.randrange(5, 9)),
            ("remark3", "a", rng.randrange(4, 7)),
            ("psi", "d", rng.randrange(2, 4)),
        ])
        pindex = rng.choice([("fibw", "a"), ("fib", "b"), ("dehn", "b")])
        period = rng.choice([("remark3", "a", rng.randrange(6, 21)), ("fibw", "a", rng.randrange(10, 21))])
        audit = rng.choice([("psi", "d"), ("cover", "c"), ("cover", "d")])
        psi = ref.GraphMapRef(*self._graph("psi"))
        legal = [p for p in psi.tight_paths(4) if len(p) >= 2 and psi.top_legal(p)]
        red_word = ref.render_compact(rng.choice(legal), psi.names)
        moves_word = _random_reduced(rng, 14)
        base = square_free(rng, 12)
        joined = with_cubes(rng, base, 1)
        tc = rng.choice(sorted(RELATORS))
        return [
            ("classify", s + ["classify", rng.choice(["fib", "dehn", "twist2", "cancel"])]),
            ("classify", s + ["classify", rng.choice(["psi", "cover"])]),
            ("classify", s + ["classify", "tri"]),
            ("orbit", s + ["orbit", orbit[0], orbit[1], "--depth", str(orbit[2])]),
            ("power-index", s + ["power-index", *pindex, "--depth", str(rng.randrange(6, 10))]),
            ("pf", s + ["pf", rng.choice(["remark3", "fibw", "psi", "cover"])]),
            ("period", s + ["period", period[0], period[1], "--bound", str(period[2])]),
            ("red", s + ["red", "psi", red_word, "--depth", str(rng.randrange(2, 4))]),
            ("audit-yellow", s + ["audit-yellow", *audit, "--depth", str(rng.randrange(2, 4))]),
            ("moves", ["moves", ref.render_compact(moves_word, "ab"), "--n", "3"]),
            ("moves", ["moves", ref.render_compact(base, "ab"), "--n", "3",
                       "--join", ref.render_compact(joined, "ab")]),
            ("burnside-order", s + ["burnside-order", rng.choice(["fib", "dehn", "twist2", "cancel"]),
                                    "--rank", "2", "--exp", "3"]),
            ("tc", ["tc", "--rank", str(RELATORS[tc][0]), "--relators",
                    os.path.relpath(os.path.join(self.out, f"{tc}.rel"), self.root)]),
            ("dump", s + ["dump"]),
        ]

    def ask(self, q):
        sub, argv = q
        if self.tracer is None:
            cmd = [sys.executable, "-c", CLI_MAIN, *argv]
        else:
            spans = os.path.join(self.out, f"cli-spans-{self._calls}.jsonl")
            self.span_files.append((spans, self._calls))
            cmd = [sys.executable, os.path.join(self.root, "bench", "clitrace.py"), spans, *argv]
        self._calls += 1
        code, out, wall, rss = self.run_child(cmd, self.env, self.root)
        self.peak_child_rss_mb = max(self.peak_child_rss_mb, rss)
        if self.tracer is None:
            self.walls.setdefault(sub, []).append(wall * 1e3)
        return code, out

    def digest(self, q, result):
        return result

    def describe(self, q):
        return "burntrack " + " ".join(q[1])

    def child_spans(self):
        from tracing import load_spans

        spans = []
        for path, tag in self.span_files:
            spans += load_spans(path, tag)
            os.remove(path)
        self.span_files = []
        return spans

    def cli_wall_ms(self):
        return {sub: statistics.median(w) for sub, w in self.walls.items()}

    # --------------------------------------------------------------- checks

    def _graph(self, name):
        data = self.objects[name][1]
        return data["edges"], data["vmap"], data["images"]

    def _map(self, name):
        """(letters, group?, positive images as letter numbers) of a subst or autom."""
        kind, data = self.objects[name]
        alph = self.objects[data["alphabet"]][1]
        letters, group = alph["letters"], alph["inverse"]
        if group:
            images = [ref.parse_compact(data["images"][x], letters) for x in letters]
        else:
            images = [tuple(letters.index(ch) for ch in data["images"][x]) for x in letters]
        return letters, group, images

    def _orbit_words(self, name, seed_word, depth):
        if self.objects[name][0] == "graphmap":
            g = ref.GraphMapRef(*self._graph(name))
            w = ref.parse_compact(seed_word, g.names)
            out = []
            for _ in range(depth):
                w = g.tight_image(w)
                out.append(ref.render_compact(w, g.names))
            return out
        letters, group, images = self._map(name)
        out = []
        if group:
            table = ref.group_table(images)
            w = ref.parse_compact(seed_word, letters)
            for _ in range(depth):
                w = ref.map_reduced(w, table)
                out.append((w, ref.render_compact(w, letters)))
        else:
            w = tuple(letters.index(ch) for ch in seed_word)
            for _ in range(depth):
                w = ref.substitute(w, images)
                out.append((w, "".join(letters[i] for i in w)))
        return out

    def check(self, q, digest):
        sub, argv = q
        code, out = digest
        lines = out.splitlines()
        args = argv[2:] if argv[0] == "-s" else argv
        if sub == "classify" and args[1] == "tri":
            ok = (code == 0 and "growth polynomial" in lines) or code == 2
            return None if ok else self.KNOWN_FAULT
        expected_code = 0
        try:
            expected = getattr(self, "_expect_" + sub.replace("-", "_"))(args)
        except _Undecided as u:
            expected_code, expected = 2, u.lines
        if code != expected_code:
            return f"exit code {code}, expected {expected_code}"
        if callable(expected):
            return expected(lines)
        if lines != expected:
            return f"stdout {lines[:4]!r}..., expected {expected[:4]!r}..."
        return None

    def _expect_classify(self, args):
        name = args[1]
        if self.objects[name][0] == "autom":
            _, _, images = self._map(name)
            m = ref.abelianization(images)
            det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
            t = sum(m[i][j] * m[j][i] for i in range(2) for j in range(2))
            verdict = "exponential" if abs(t) > 2 else "polynomial"
            return [f"abelianized determinant {det}", f"growth {verdict} (trace criterion)"]
        edges, vmap, images = self._graph(name)
        g = ref.GraphMapRef(edges, vmap, images)
        heights = sorted({e[3] for e in edges})
        expected = []
        any_exponential = False
        for h in heights:
            names = [e[0] for e in edges if e[3] == h]
            m = [[sum(1 for i in g.table[2 * g.names.index(col)] if g.names[i >> 1] == row)
                  for col in names] for row in names]
            line = f"stratum {h}: edges={','.join(names)} kind="
            if all(v == 0 for row in m for v in row):
                expected.append((line + "zero", None))
            elif all(sum(row) == 1 for row in m) and all(sum(col) == 1 for col in zip(*m)):
                expected.append((line + "non-exponential", None))
            else:
                any_exponential = True
                expected.append((line + "exponential", (ref.perron(m)[0], _primitive(m))))
        expected.append((f"growth {'exponential' if any_exponential else 'polynomial'}", None))

        def compare(lines):
            if len(lines) != len(expected):
                return f"{len(lines)} lines, expected {len(expected)}"
            for line, (head, eig) in zip(lines, expected):
                if eig is None:
                    if line != head:
                        return f"{line!r}, expected {head!r}"
                    continue
                fields = dict(f.split("=", 1) for f in line[len(head):].split())
                if not line.startswith(head + " "):
                    return f"{line!r}, expected it to start {head!r}"
                if abs(float(fields["lambda"]) - eig[0]) > 1e-8 or float(fields["residual"]) >= 1e-9:
                    return f"{line!r}: lambda should be {eig[0]:.9f} with a small residual"
                if fields["aperiodic"] != ("yes" if eig[1] else "no"):
                    return f"{line!r}: aperiodic should be {'yes' if eig[1] else 'no'}"
            return None

        return compare

    def _expect_orbit(self, args):
        words = self._orbit_words(args[1], args[2], int(args[4]))
        rendered = [w if isinstance(w, str) else w[1] for w in words]
        return [f"{p} {w or '-'}" for p, w in enumerate(rendered, start=1)]

    def _expect_power_index(self, args):
        words = self._orbit_words(args[1], args[2], int(args[4]))
        return [f"{p} {ref.power_index_bruteforce(w[0])}" for p, w in enumerate(words, start=1)]

    def _expect_pf(self, args):
        name = args[1]
        kind = self.objects[name][0]
        if kind == "graphmap":
            edges, vmap, images = self._graph(name)
            g = ref.GraphMapRef(edges, vmap, images)
            names = [e[0] for e in edges if e[3] == g.top]
            m = [[sum(1 for i in g.table[2 * g.names.index(col)] if g.names[i >> 1] == row)
                  for col in names] for row in names]
        else:
            letters, _, images = self._map(name)
            names = list(letters)
            m = ref.transition_counts(images, len(letters), group=False)
        lam, vec = ref.perron(m)

        def compare(lines):
            if len(lines) != 3:
                return f"{len(lines)} lines, expected 3"
            if abs(float(lines[0].split()[1]) - lam) > 1e-8:
                return f"{lines[0]!r}, expected lambda {lam:.9f}"
            if not lines[1].startswith("residual ") or float(lines[1].split()[1]) >= 1e-9:
                return f"{lines[1]!r}: residual should be below 1e-9"
            comps = dict(f.split("=") for f in lines[2].split()[1:])
            if sorted(comps) != sorted(names) or any(
                abs(float(comps[n]) - v) > 1e-8 for n, v in zip(names, vec)
            ):
                return f"{lines[2]!r}: eigenvector should be {vec}"
            return None

        return compare

    def _expect_period(self, args):
        name, letter, bound = args[1], args[2], int(args[4])
        letters, _, images = self._map(name)
        prefix = (letters.index(letter),)
        while len(prefix) < bound:
            prefix = ref.substitute(prefix, images)
        for n in range(1, bound + 1):
            u = prefix[:n]
            img = ref.substitute(u, images)
            q, rem = divmod(len(img), n)
            if rem == 0 and q >= 2 and img == u * q:
                block = "".join(letters[i] for i in u)
                return [f"periodic block={block} power={q}"]
        raise _Undecided([f"no period up to {bound}"])

    def _expect_red(self, args):
        g = ref.GraphMapRef(*self._graph(args[1]))
        w = ref.parse_compact(args[2], g.names)
        out = []
        for p in range(int(args[4]) + 1):
            out.append(f"{p} {ref.render_compact(g.red(w), g.red_names) or '-'}")
            w = g.tight_image(w)
        return out

    def _expect_audit_yellow(self, args):
        g = ref.GraphMapRef(*self._graph(args[1]))
        edge, depth = args[2], int(args[4])
        path = g.table[2 * g.names.index(edge)]
        lines = []
        loops = 0
        for p in range(1, depth + 1):
            if p > 1:
                path = g.tight_image(path)
            for piece, loop in g.yellow_pieces(path):
                loops += loop
                lines.append(
                    f"piece power={p} path={ref.render_compact(piece, g.names)} loop={'yes' if loop else 'no'}"
                )
        lines.append("PASS" if loops == 0 else f"FAIL: {loops} yellow loops")
        return lines

    def _expect_moves(self, args):
        word = ref.parse_compact(args[1], "ab")
        n = int(args[3])
        m_min = max(2, math.floor(Fraction(n, 2)) + 1)
        if "--join" not in args:
            lines = []
            for start, p, m in ref.maximal_runs_bruteforce(word, m_min):
                u = word[start : start + p]
                result = ref.rewrite(word, start, u, m, n)
                lines.append(
                    f"pos={start} period={ref.render_compact(u, 'ab')} m={m} -> len={len(result)}"
                )
            return lines or ["no moves"]
        other = ref.parse_compact(args[args.index("--join") + 1], "ab")

        def compare(lines):
            if not lines or not lines[0].startswith("joined "):
                return "no join reported"
            witness = ref.parse_compact(lines[0].split()[1], "ab") if lines[0] != "joined -" else ()
            ends = {"left": word, "right": other}
            for line in lines[1:]:
                side, rest = line.split(" ", 1)
                fields = dict(f.split("=") for f in rest.replace(" -> ", " ").split())
                u = ref.parse_compact(fields["period"], "ab")
                try:
                    ends[side] = ref.rewrite(ends[side], int(fields["pos"]), u, int(fields["m"]), n)
                except ValueError as err:
                    return f"{line!r}: {err}"
                if len(ends[side]) != int(fields["len"]):
                    return f"{line!r}: the rewrite has length {len(ends[side])}"
            if ends["left"] != witness or ends["right"] != witness:
                return "the moves do not end at the witness"
            if len({ref.heis_eval(x) for x in (word, other, witness)}) != 1:
                return "the words are not one element of the Heisenberg group"
            return None

        return compare

    def _expect_burnside_order(self, args):
        _, _, images = self._map(args[1])
        gens = [ref.heis_eval((0,)), ref.heis_eval((2,))]
        k = ref.generator_return_order(images, ref.heis_mul, ref.heis_inverse, gens.__getitem__, 10_000)
        return [str(k)]

    def _expect_tc(self, args):
        name = os.path.basename(args[args.index("--relators") + 1])[: -len(".rel")]
        return [f"order {RELATORS[name][2]}"]

    def _expect_dump(self, args):
        return self.session_text.rstrip("\n").split("\n")


class _Undecided(Exception):
    """The reference says the command should exit 2 with these lines."""

    def __init__(self, lines):
        super().__init__(lines)
        self.lines = lines


def _primitive(m) -> bool:
    n = len(m)
    power = [row[:] for row in m]
    for _ in range(n * n):
        if all(v > 0 for row in power for v in row):
            return True
        power = [[sum(power[i][k] * m[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return False


def _random_reduced(rng, n):
    out = []
    while len(out) < n:
        x = rng.randrange(4)
        if not out or x != out[-1] ^ 1:
            out.append(x)
    return out

