"""group_orders: induced orders on B(3,3) and B(2,3), and join searches in B(2,3).

Set-up builds B(2,3) (cached); B(3,3) is built cold before the questions
and that build is what ``quotient_s`` times.  One round asks, in seeded
order:

- 90 ``induced_order`` questions on B(3,3), for seeded products of four
  Nielsen moves on F3 whose images total 7 letters (20 of them
  unipotent: only moves x_j <- x_j x_i^(+-1) or x_i^(+-1) x_j with i < j);
- 10 ``induced_order`` questions on B(2,3), for products of four Nielsen
  moves on F2 with images totalling 4 letters (4 unipotent);
- 20 ``common_descendant_search`` joins in B(2,3), with n = 3, between a
  square-free reduced word of 36 letters and the same word with two cubes
  u^3 (|u| <= 3) inserted where nothing cancels, so each pair is equal in
  B(2,3) by construction and the right side rewrites back in two moves.

The joins run run detection on about 140 short words per round.
The B(3,3) questions are three quarters of the list, so the median
question is one of them.
"""

from __future__ import annotations

import random

import reference as ref
from workloads import Base

F3_MAPS, F3_UNIPOTENT, F3_LETTERS = 90, 20, 7
F2_MAPS, F2_UNIPOTENT, F2_LETTERS = 10, 4, 4
JOINS, JOIN_LENGTH, JOIN_CUBES = 20, 36, 2
MOVES = 4
MAX_ORDER = 10_000


def random_move(rng, rank: int, unipotent: bool):
    """One Nielsen move, as the images of the positive letters."""
    table = [(2 * k,) for k in range(rank)]
    if unipotent:
        j = rng.randrange(1, rank)
        i = rng.randrange(j)
        kind = rng.choice(("right", "left"))
    else:
        i, j = rng.sample(range(rank), 2)
        kind = rng.choice(("right", "left", "right", "left", "invert", "swap"))
    x = 2 * i + rng.randrange(2)
    if kind == "right":
        table[j] = (2 * j, x)
    elif kind == "left":
        table[j] = (x, 2 * j)
    elif kind == "invert":
        table[j] = (2 * j + 1,)
    else:
        table[i], table[j] = table[j], table[i]
    return table


def random_map(rng, rank: int, unipotent: bool, letters: int):
    """A product of MOVES Nielsen moves whose reduced images total ``letters``.

    Draws are repeated until the total fits, so every seed gives maps of the
    same size; the draws themselves come from the seeded generator.
    """
    while True:
        table = [(2 * k,) for k in range(rank)]
        for _ in range(MOVES):
            table = ref.compose_tables(ref.group_table(table), random_move(rng, rank, unipotent))
        if sum(len(img) for img in table) == letters:
            return table


def square_free(rng, length: int) -> list[int]:
    """A reduced word over F2 with no factor uu, grown with backtracking."""
    out: list[int] = []
    while len(out) < length:
        options = [x for x in range(4) if not out or x != out[-1] ^ 1]
        rng.shuffle(options)
        for x in options:
            out.append(x)
            n = len(out)
            if not any(out[n - p :] == out[n - 2 * p : n - p] for p in range(1, n // 2 + 1)):
                break
            out.pop()
        else:
            del out[-3:]
    return out


def with_cubes(rng, word: list[int], cubes: int) -> list[int]:
    out = list(word)
    for pos in sorted(rng.sample(range(1, len(word)), cubes), reverse=True):
        while True:
            u = [rng.randrange(4)]
            for _ in range(rng.randrange(3)):
                u.append(rng.choice([x for x in range(4) if x != u[-1] ^ 1]))
            if len(u) > 1 and u[-1] == u[0] ^ 1:
                continue  # u^3 would not be reduced
            if word[pos - 1] == u[0] ^ 1 or u[-1] == word[pos] ^ 1:
                continue  # it would cancel into its neighbours
            break
        out[pos:pos] = u * 3
    return out


class Workload(Base):
    NEEDS_QUOTIENT = True

    def __init__(self, seed: int, root: str):
        import burntrack

        self.bt = burntrack
        rng = random.Random(seed)
        self.f3 = burntrack.InverseAlphabet("abc")
        self.f2 = burntrack.InverseAlphabet("ab")
        self.b23 = burntrack.burnside_oracle(2, 3)
        self.b33 = None
        self.params = burntrack.MoveParams(3)
        questions = []
        for n in range(F3_MAPS):
            table = random_map(rng, 3, n < F3_UNIPOTENT, F3_LETTERS)
            questions.append(("b33", table, self._basis_map(self.f3, table)))
        for n in range(F2_MAPS):
            table = random_map(rng, 2, n < F2_UNIPOTENT, F2_LETTERS)
            questions.append(("b23", table, self._basis_map(self.f2, table)))
        for _ in range(JOINS):
            w = square_free(rng, JOIN_LENGTH)
            w2 = with_cubes(rng, w, JOIN_CUBES)
            pair = tuple(burntrack.GroupWord.from_indices(self.f2, s) for s in (w, w2))
            questions.append(("join", (tuple(w), tuple(w2)), pair))
        rng.shuffle(questions)
        self.questions = questions
        for q in questions:
            if q[0] != "b33":
                self.ask(q)
        self._table_group = None

    def _basis_map(self, alphabet, table):
        names = alphabet.positive_letters
        images = {
            x: self.bt.GroupWord.from_indices(alphabet, table[k]) for k, x in enumerate(names)
        }
        return self.bt.BasisMap(alphabet, images)

    def use_quotient(self, quotient) -> None:
        self.b33 = quotient

    def ask(self, q):
        kind, _, obj = q
        b = self.bt.burnside
        if kind == "b33":
            return b.induced_order(obj, self.b33)
        if kind == "b23":
            return b.induced_order(obj, self.b23)
        return b.common_descendant_search(obj[0], obj[1], self.params)

    def digest(self, q, result):
        if q[0] != "join":
            return (type(result).__name__, getattr(result, "value", None))
        if not isinstance(result, self.bt.Joined):
            return ("undecided", result.explored)

        def moves(ms):
            return tuple(
                (m.source.indices, m.run.start, m.run.period.indices, m.run.exponent,
                 m.exponent_drop, m.result.indices)
                for m in ms
            )

        return ("joined", result.witness.indices, moves(result.left_moves), moves(result.right_moves))

    def describe(self, q):
        kind, data, _ = q
        if kind == "join":
            return "join " + " / ".join(ref.render_compact(w, "ab") for w in data)
        rank = 3 if kind == "b33" else 2
        letters = "abc"[:rank]
        images = ", ".join(
            f"{letters[k]}->{ref.render_compact(data[k], letters)}" for k in range(rank)
        )
        return f"{kind} order of {images}"

    def check(self, q, digest):
        kind, data, _ = q
        if kind == "join":
            return self._check_join(data, digest)
        if digest[0] != "Order":
            return f"no order: {digest[0]}"
        value = digest[1]
        if kind == "b33":
            if self._table_group is None:
                t = self.b33.table
                self._table_group = ref.TableGroup(
                    [[t.step(c, x) for x in range(6)] for c in range(t.size)]
                )
            g = self._table_group
            expected = ref.generator_return_order(data, g.mul, g.inv, g.gen, MAX_ORDER)
        else:
            gens = [ref.heis_eval((0,)), ref.heis_eval((2,))]
            expected = ref.generator_return_order(
                data, ref.heis_mul, ref.heis_inverse, gens.__getitem__, MAX_ORDER
            )
        if value != expected:
            return f"induced order {value}, generator-return route gives {expected}"
        if ref.is_unipotent_triangular(data):
            bound = ref.polynomial_order_bound(len(data), 3)
            if bound % value:
                return f"unipotent map has order {value}, which does not divide {bound}"
        return None

    def _check_join(self, data, digest):
        w, w2 = data
        if digest[0] != "joined":
            return f"pair did not join within the default budget (explored {digest[1]})"
        witness = digest[1]
        for side, start, moves in (("left", w, digest[2]), ("right", w2, digest[3])):
            cur = start
            for source, pos, period, exponent, drop, result in moves:
                if source != cur or drop != 3:
                    return f"{side} move does not apply to the word it claims"
                try:
                    cur = ref.rewrite(cur, pos, period, exponent, 3)
                except ValueError as err:
                    return f"{side} move: {err}"
                if exponent < 2 or cur != result:
                    return f"{side} move result differs from the reference rewrite"
            if cur != witness:
                return f"{side} moves do not end at the witness"
        elements = {ref.heis_eval(x) for x in (w, w2, witness)}
        if len(elements) != 1:
            return "the pair and its witness are not one element of the Heisenberg group"
        return None
