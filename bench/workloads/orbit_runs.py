"""orbit_runs: power indices along orbits of substitutions and automorphisms.

One question is one orbit step: the next word of the orbit, its largest
power index (``max_power_index``) and the maximal runs that reach that
index (``find_power_runs``), which serve as witnesses.  Run detection does
nearly all the work; morphism application very little.

Orbits, in question order:

- Fibonacci a->ab, b->a from ``a``, 16 steps (2 584 letters);
- Thue-Morse a->ab, b->ba from ``a``, 11 steps (2 048 letters);
- the Dehn twist a->a, b->ba of F2 from ``b``, 48 steps (``b a^48``);
- a cancelling automorphism a->b a^-1, b->a of F2 from ``a b``, 16 steps
  (987 letters);
- two seeded positive substitutions whose letter counts are fixed, so the
  word lengths do not depend on the seed: a->{a,b}, b->{a,c}, c->a from
  ``a``, 12 steps (1 705 letters), and a->{a,a,b}, b->{a,b} from ``a``,
  7 steps (987 letters); the seed orders the letters in each image;
- two seeded positive automorphisms, products of three Nielsen moves
  x_i -> x_i x_j or x_j x_i with the side drawn from the seed: on F2
  (a <- ab, b <- ba, a <- ab) from ``a``, 6 steps (3 691 letters), and on
  F3 (a <- ab, b <- bc, c <- ca) from ``a``, 9 steps (1 432 letters).
"""

from __future__ import annotations

import random

import reference as ref
from workloads import Base

BRUTE_FORCE_LIMIT = 48


class Orbit:
    def __init__(self, label, alphabet, group, images, seed_word, depth, theorem=None):
        self.label = label
        self.alphabet = alphabet  # positive letters, in order
        self.group = group
        self.images = images  # compact image per positive letter
        self.seed_word = seed_word
        self.depth = depth
        self.theorem = theorem  # (p, index) -> message or None
        if group:
            self.table = ref.group_table([ref.parse_compact(images[x], alphabet) for x in alphabet])
            self.start = ref.parse_compact(seed_word, alphabet)
        else:
            self.table = [tuple(alphabet.index(ch) for ch in images[x]) for x in alphabet]
            self.start = tuple(alphabet.index(ch) for ch in seed_word)
        self._words = None

    def reference_words(self) -> list[tuple[int, ...]]:
        if self._words is None:
            words = [self.start]
            for _ in range(self.depth):
                w = words[-1]
                words.append(ref.map_reduced(w, self.table) if self.group else ref.substitute(w, self.table))
            self._words = words
        return self._words


def thue_morse(p, index):
    if p >= 2 and index != 2:
        return f"Thue-Morse word has index {index}, not 2"
    return None


def fibonacci(p, index):
    if index >= 4:
        return f"Fibonacci word has index {index}, not below 4"
    return None


def dehn_twist(p, index):
    if index != p:
        return f"b a^{p} has index {index}, not {p}"
    return None


def shuffled(rng, letters: str) -> str:
    chars = list(letters)
    rng.shuffle(chars)
    return "".join(chars)


def nielsen_product(rng, alphabet: str, moves) -> dict[str, str]:
    """Positive images of x_i <- x_i x_j (or x_j x_i), applied in order."""
    table = [(2 * k,) for k in range(len(alphabet))]
    for i, j in moves:
        inner = [(2 * k,) for k in range(len(alphabet))]
        inner[i] = (2 * i, 2 * j) if rng.random() < 0.5 else (2 * j, 2 * i)
        # the move acts first, the product so far after it
        table = ref.compose_tables(ref.group_table(table), inner)
    return {x: ref.render_compact(table[k], alphabet) for k, x in enumerate(alphabet)}


def make_orbits(seed: int) -> list[Orbit]:
    rng = random.Random(seed)
    return [
        Orbit("fibonacci", "ab", False, {"a": "ab", "b": "a"}, "a", 16, fibonacci),
        Orbit("thue-morse", "ab", False, {"a": "ab", "b": "ba"}, "a", 11, thue_morse),
        Orbit("dehn-twist", "ab", True, {"a": "a", "b": "ba"}, "b", 48, dehn_twist),
        Orbit("cancelling", "ab", True, {"a": "bA", "b": "a"}, "ab", 16),
        Orbit("subst3", "abc", False,
              {"a": shuffled(rng, "ab"), "b": shuffled(rng, "ac"), "c": "a"}, "a", 12),
        Orbit("subst2", "ab", False, {"a": shuffled(rng, "aab"), "b": shuffled(rng, "ab")}, "a", 7),
        Orbit("autom-f2", "ab", True, nielsen_product(rng, "ab", [(0, 1), (1, 0), (0, 1)]), "a", 6),
        Orbit("autom-f3", "abc", True, nielsen_product(rng, "abc", [(0, 1), (1, 2), (2, 0)]), "a", 9),
    ]


class Workload(Base):
    def __init__(self, seed: int, root: str):
        import burntrack

        self.bt = burntrack
        self.orbits = make_orbits(seed)
        self.maps = []
        for o in self.orbits:
            if o.group:
                alph = burntrack.InverseAlphabet(o.alphabet)
                f = burntrack.BasisMap(alph, {x: ref.token_string(o.images[x]) for x in o.alphabet})
                w = burntrack.Word.parse(alph, ref.token_string(o.seed_word))
            else:
                alph = burntrack.Alphabet(o.alphabet)
                f = burntrack.Substitution(alph, {x: " ".join(o.images[x]) for x in o.alphabet})
                w = burntrack.Word.parse(alph, " ".join(o.seed_word))
            self.maps.append((f, w))
        self.questions = [(k, p) for k, o in enumerate(self.orbits) for p in range(1, o.depth + 1)]
        self.state: list = [None] * len(self.orbits)
        # warm-up: the first three steps of every orbit
        for q in self.questions:
            if q[1] <= 3:
                self.ask(q)

    def ask(self, q):
        k, p = q
        bt = self.bt
        f, seed_word = self.maps[k]
        if self.orbits[k].group:
            prev = seed_word if p == 1 else self.state[k]
            word = f.apply(prev)
            self.state[k] = word
        else:
            if p == 1:
                self.state[k] = bt.substitutions.orbit(f, seed_word, self.orbits[k].depth)
            _, word = next(self.state[k])
        index = bt.words.max_power_index(word)
        runs = bt.words.find_power_runs(word, index) if index >= 2 else []
        return word, index, runs

    def digest(self, q, result):
        word, index, runs = result
        seq = word.indices
        return (
            len(seq),
            hash(seq),
            index,
            tuple((r.start, r.period.indices, r.exponent, r.remainder) for r in runs),
        )

    def describe(self, q):
        return f"{self.orbits[q[0]].label} step {q[1]}"

    def check(self, q, digest):
        k, p = q
        orbit = self.orbits[k]
        length, seq_hash, index, runs = digest
        word = orbit.reference_words()[p]
        if length != len(word) or seq_hash != hash(word):
            return "orbit word differs from the reference letter-table image"
        if len(word) <= BRUTE_FORCE_LIMIT and index != ref.power_index_bruteforce(word):
            return f"index {index}, brute force says {ref.power_index_bruteforce(word)}"
        if orbit.theorem:
            problem = orbit.theorem(p, index)
            if problem:
                return problem
        if index < 1 or index > len(word):
            return f"index {index} impossible for a word of length {len(word)}"
        if index >= 2 and not any(r[2] == index for r in runs):
            return f"no witness run reaches index {index}"
        for start, period, exponent, remainder in runs:
            n = len(period)
            end = start + exponent * n + remainder
            if not (index >= exponent >= 2 and 0 <= remainder < n and end <= len(word)):
                return f"malformed run at {start}"
            if word[start : start + n] != period or not ref.is_primitive_word(period):
                return f"run at {start}: period is not a primitive factor there"
            if any(word[i] != word[i + n] for i in range(start, end - n)):
                return f"run at {start} is not periodic over its stretch"
            if (start > 0 and word[start - 1] == word[start - 1 + n]) or (
                end < len(word) and word[end] == word[end - n]
            ):
                return f"run at {start} is not maximal"
        return None
