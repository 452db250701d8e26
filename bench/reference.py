"""Reference computations that check burntrack's answers.

Nothing here imports burntrack or its tests.  Words are tuples of letter
numbers: over a group alphabet with positive letters x0, x1, ... the letter
xk is 2k and its inverse 2k + 1, so inversion is ``i ^ 1``; over a plain
alphabet the letters are numbered in order.  That is the order in which
burntrack lists the letters of an alphabet, so a word computed here and a
word returned by the library can be compared by their letter numbers.  On
the command line's side, words are compact strings (``abA``: uppercase is
the inverse letter).
"""

from __future__ import annotations

import math

# ---------------------------------------------------------------- words


def parse_compact(text: str, positive: str) -> tuple[int, ...]:
    """Compact group word (uppercase = inverse) to letter numbers."""
    out = []
    for ch in text:
        k = positive.index(ch.lower())
        out.append(2 * k + (1 if ch.isupper() else 0))
    return tuple(out)


def token_string(compact: str) -> str:
    """Compact word in burntrack's token syntax: ``aB`` -> ``a b^-1``."""
    return " ".join(ch.lower() + "^-1" if ch.isupper() else ch for ch in compact)


def render_compact(seq, positive: str) -> str:
    return "".join(
        positive[i >> 1].upper() if i & 1 else positive[i >> 1] for i in seq
    )


def free_reduce(seq) -> tuple[int, ...]:
    out: list[int] = []
    for i in seq:
        if out and out[-1] == i ^ 1:
            out.pop()
        else:
            out.append(i)
    return tuple(out)


def group_inverse(seq) -> tuple[int, ...]:
    return tuple(i ^ 1 for i in reversed(seq))


def group_table(images: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Letter table of a map given on positive letters, inverses by flip."""
    table: list[tuple[int, ...]] = []
    for img in images:
        table.append(tuple(img))
        table.append(group_inverse(img))
    return table


def substitute(seq, table) -> tuple[int, ...]:
    """Letterwise image, no cancellation."""
    out: list[int] = []
    for i in seq:
        out.extend(table[i])
    return tuple(out)


def map_reduced(seq, table) -> tuple[int, ...]:
    """Letterwise image, then tightened."""
    return free_reduce(substitute(seq, table))


def compose_tables(outer, inner) -> list[tuple[int, ...]]:
    """Table of outer(inner(x)), reduced."""
    return [map_reduced(img, outer) for img in inner]


def is_primitive_word(seq) -> bool:
    n = len(seq)
    return not any(n % d == 0 and tuple(seq) == tuple(seq[:d]) * (n // d) for d in range(1, n))


def power_index_bruteforce(seq) -> int:
    """Largest m with some u^m a factor; tries every start and period."""
    n = len(seq)
    if n == 0:
        return 0
    best = 1
    for i in range(n):
        for p in range(1, (n - i) // 2 + 1):
            m = 1
            while i + (m + 1) * p <= n and seq[i + m * p : i + (m + 1) * p] == seq[i : i + p]:
                m += 1
            best = max(best, m)
    return best


def maximal_runs_bruteforce(seq, min_exponent: int) -> list[tuple[int, int, int]]:
    """Maximal stretches with a primitive period, as (start, period, exponent).

    A stretch starting at i with period p is maximal when it cannot be
    extended to the left; its length runs as far right as the period holds.
    Sorted by start, then period.
    """
    n = len(seq)
    out = []
    for i in range(n):
        for p in range(1, (n - i) // 2 + 1):
            if i > 0 and seq[i - 1] == seq[i - 1 + p]:
                continue
            j = i
            while j + p < n and seq[j] == seq[j + p]:
                j += 1
            length = j + p - i
            if length >= 2 * p and is_primitive_word(seq[i : i + p]):
                m = length // p
                if m >= min_exponent:
                    out.append((i, p, m))
    out.sort()
    return out


def rewrite(seq, start: int, period, exponent: int, n: int) -> tuple[int, ...]:
    """Replace u^m at ``start`` by u^(m-n) and tighten."""
    u = tuple(period)
    end = start + exponent * len(u)
    if tuple(seq[start:end]) != u * exponent:
        raise ValueError("the claimed power is not a factor at that position")
    k = exponent - n
    middle = u * k if k >= 0 else group_inverse(u) * (-k)
    return free_reduce(tuple(seq[:start]) + middle + tuple(seq[end:]))


# ------------------------------------------------- B(2,3) as matrices

# B(2,3) is the Heisenberg group: 3x3 upper unitriangular matrices over
# Z/3, an element [[1, x, z], [0, 1, y], [0, 0, 1]] kept as (x, y, z).
# Letters of F2: a = 0, a^-1 = 1, b = 2, b^-1 = 3.
HEIS_ONE = (0, 0, 0)
_HEIS_GEN = ((1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 2, 0))


def heis_mul(g, h):
    return ((g[0] + h[0]) % 3, (g[1] + h[1]) % 3, (g[2] + h[2] + g[0] * h[1]) % 3)


def heis_eval(seq):
    e = HEIS_ONE
    for i in seq:
        e = heis_mul(e, _HEIS_GEN[i])
    return e


def heis_all():
    return [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]


def heis_inverse(g):
    for h in heis_all():
        if heis_mul(g, h) == HEIS_ONE:
            return h
    raise AssertionError("no inverse")


# ------------------------------------------------------- group orders


def burnside_order(rank: int, exponent: int) -> int:
    """|B(r,2)| = 2^r and |B(r,3)| = 3^(r + C(r,2) + C(r,3))."""
    if exponent == 2:
        return 2**rank
    if exponent == 3:
        return 3 ** (rank + math.comb(rank, 2) + math.comb(rank, 3))
    raise ValueError("only exponents 2 and 3 have closed forms here")


def coxeter_symmetric_relators(n: int) -> list[str]:
    """Coxeter presentation of S_n on n - 1 generators, compact syntax."""
    gens = "abcdefghijklmnopqrstuvwxyz"[: n - 1]
    rels = [g + g for g in gens]
    for i in range(len(gens) - 1):
        rels.append((gens[i] + gens[i + 1]) * 3)
    for i in range(len(gens)):
        for j in range(i + 2, len(gens)):
            rels.append((gens[i] + gens[j]) * 2)
    return rels


PSL27_RELATORS = ["aa", "bbb", "ab" * 7, "abAB" * 4]
PSL27_ORDER = 168


def polynomial_order_bound(rank: int, exponent: int) -> int:
    """n^(2(2^(r-1)-1)): orders induced by unipotent maps divide this."""
    return exponent ** (2 * (2 ** (rank - 1) - 1))


def generator_return_order(images, mul, inv, gen, max_k: int) -> int | None:
    """Least k >= 1 with f^k(x) = x in the group for every generator x.

    ``images[x]`` is the word f(x) of positive generator x; ``gen(x)`` is
    the element of positive generator x; ``mul``/``inv`` are the group
    operations.  The images of the generators under f^k are tracked as
    group elements, so words never grow.  None when k would exceed max_k.
    """
    targets = [gen(x) for x in range(len(images))]
    one = mul(targets[0], inv(targets[0]))
    current = list(targets)
    for k in range(1, max_k + 1):
        # f^k(x) = f^(k-1)(f(x)): substitute the current images into f(x)
        elem = []
        for img in images:
            e = one
            for i in img:
                e = mul(e, inv(current[i >> 1]) if i & 1 else current[i >> 1])
            elem.append(e)
        current = elem
        if current == targets:
            return k
    return None


class TableGroup:
    """A finite group given by a closed coset table of the trivial subgroup.

    Rows are elements, columns letters (x0, x0^-1, x1, ...).  Every element
    gets a word by breadth-first search from 0, so products are traced
    along words.  Only the table's rows are used, not its code.
    """

    def __init__(self, rows):
        self.rows = [tuple(r) for r in rows]
        width = len(self.rows[0])
        words: list[tuple[int, ...] | None] = [None] * len(self.rows)
        words[0] = ()
        queue = [0]
        for c in queue:
            for x in range(width):
                d = self.rows[c][x]
                if words[d] is None:
                    words[d] = words[c] + (x,)
                    queue.append(d)
        if any(w is None for w in words):
            raise ValueError("coset table is not connected")
        self.words = words

    def trace(self, c: int, seq) -> int:
        rows = self.rows
        for i in seq:
            c = rows[c][i]
        return c

    def mul(self, g: int, h: int) -> int:
        return self.trace(g, self.words[h])

    def inv(self, g: int) -> int:
        return self.trace(0, group_inverse(self.words[g]))

    def gen(self, x: int) -> int:
        return self.rows[0][2 * x]

    def has_exponent(self, n: int) -> bool:
        for w in self.words:
            if self.trace(0, w * n) != 0:
                return False
        return True


def abelianization(images) -> list[list[int]]:
    """Signed letter counts: entry [i][j] counts x_i in f(x_j)."""
    rank = len(images)
    m = [[0] * rank for _ in range(rank)]
    for j in range(rank):
        for i in images[j]:
            m[i >> 1][j] += -1 if i & 1 else 1
    return m


def is_unipotent_triangular(images) -> bool:
    """Abelianization upper unitriangular: then the map is unipotent."""
    rank = len(images)
    m = abelianization(images)
    return all(m[i][i] == 1 for i in range(rank)) and all(
        m[i][j] == 0 for i in range(rank) for j in range(i)
    )


# --------------------------------------------------------- graph maps


class GraphMapRef:
    """A graph self-map from plain data: edges, heights, vertex and edge images.

    ``edges`` is a list of (name, origin, terminus, height); ``images`` maps
    each edge name to a compact word over the edge names.
    """

    def __init__(self, edges, vmap, images):
        self.names = "".join(e[0] for e in edges)
        self.origin = []
        self.height = []
        for _name, o, t, h in edges:
            self.origin += [o, t]
            self.height += [h, h]
        self.vmap = dict(vmap)
        self.table = group_table([parse_compact(images[e[0]], self.names) for e in edges])
        self.top = max(self.height)
        self.red_names = "".join(e[0] for e in edges if e[3] == self.top)
        self.sigma = group_table(
            [self.red(self.table[2 * k]) for k, e in enumerate(edges) if e[3] == self.top]
        )

    def terminus(self, i: int) -> str:
        return self.origin[i ^ 1]

    def tight_paths(self, max_length: int) -> list[tuple[int, ...]]:
        """Every tight edge path of length 1..max_length, in a fixed order."""
        out = []
        layer = [(i,) for i in range(len(self.table))]
        for _ in range(max_length):
            out += layer
            layer = [
                p + (j,)
                for p in layer
                for j in range(len(self.table))
                if j != p[-1] ^ 1 and self.origin[j] == self.terminus(p[-1])
            ]
        return out

    def tight_image(self, seq) -> tuple[int, ...]:
        return map_reduced(seq, self.table)

    def red(self, seq) -> tuple[int, ...]:
        """Top-height letters only, renumbered over the red edges."""
        out = []
        for i in seq:
            if self.height[i] == self.top:
                k = self.red_names.index(self.names[i >> 1])
                out.append(2 * k + (i & 1))
        return tuple(out)

    def turn_legal(self, a: int, b: int) -> bool:
        """A turn is illegal when some iterate of the derivative closes it."""
        seen = set()
        while (a, b) not in seen:
            if a == b:
                return False
            seen.add((a, b))
            a, b = self.table[a][0], self.table[b][0]
        return True

    def top_legal(self, seq) -> bool:
        for n in range(len(seq) - 1):
            a, b = seq[n] ^ 1, seq[n + 1]
            if self.height[a] == self.top == self.height[b] and not self.turn_legal(a, b):
                return False
        return True

    def yellow_pieces(self, seq) -> list[tuple[tuple[int, ...], bool]]:
        """Maximal lower-height stretches, each with whether it closes up."""
        out = []
        n = 0
        while n < len(seq):
            if self.height[seq[n]] == self.top:
                n += 1
                continue
            m = n
            while m < len(seq) and self.height[seq[m]] < self.top:
                m += 1
            piece = tuple(seq[n:m])
            out.append((piece, self.origin[piece[0]] == self.terminus(piece[-1])))
            n = m
        return out


# ----------------------------------------------------------- matrices


def perron(matrix, iterations: int = 2000) -> tuple[float, list[float]]:
    """Leading eigenvalue of a nonnegative irreducible matrix, via I + M.

    The shift makes the iteration converge for imprimitive matrices too;
    the eigenvector is normalized to coordinate sum one.
    """
    n = len(matrix)
    v = [1.0 / n] * n
    mu = 0.0
    for _ in range(iterations):
        u = [v[i] + sum(matrix[i][j] * v[j] for j in range(n)) for i in range(n)]
        mu = sum(u)
        v = [x / mu for x in u]
    return mu - 1.0, v


def transition_counts(images: list[tuple[int, ...]], size: int, group: bool) -> list[list[int]]:
    """Entry [i][j] counts letter i in the image of letter j (pairs merged for groups)."""
    m = [[0] * size for _ in range(size)]
    for j, img in enumerate(images):
        for i in img:
            m[(i >> 1) if group else i][j] += 1
    return m


# ------------------------------------------------------- session files


def parse_session_text(text: str) -> dict[str, tuple[str, dict]]:
    """The objects of a session file, as plain data keyed by name.

    alphabet -> {"letters": str, "inverse": bool}; subst/autom ->
    {"alphabet": name, "images": {letter: compact}}; graphmap -> {"edges":
    [(name, origin, terminus, height)], "vmap": {...}, "images": {edge: compact}}.
    Letters are single characters in the files this benchmark uses.
    """

    def compact(tokens: list[str]) -> str:
        return "".join(t[0].upper() if t.endswith("^-1") else t for t in tokens)

    objects: dict[str, tuple[str, dict]] = {}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        if current is None:
            if words[0] == "alphabet":
                objects[words[1]] = ("alphabet", {"letters": "".join(words[3:]),
                                                  "inverse": words[2] == "inverse"})
            elif words[0] in ("subst", "autom"):
                current = (words[0], words[1], {"alphabet": words[3], "images": {}})
            elif words[0] == "graphmap":
                current = ("graphmap", words[1], {"edges": [], "vmap": {}, "images": {}})
            continue
        kind, name, data = current
        if words[0] == "end":
            objects[name] = (kind, data)
            current = None
        elif kind != "graphmap":
            data["images"][words[0]] = compact(words[2:])
        elif words[0] == "edge":
            data["edges"].append((words[1], words[2], words[3], int(words[5])))
        elif words[0] == "vmap":
            data["vmap"][words[1]] = words[3]
        elif words[0] == "map":
            data["images"][words[1]] = compact(words[3:])
    return objects
