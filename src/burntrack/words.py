"""Exact words over finite alphabets, with formal inverses and repetition search.

Letters live in an :class:`Alphabet` (plain, for monoid substitutions) or an
:class:`InverseAlphabet` (closed under a fixed-point-free involution, for
group words and edge paths).  A :class:`Word` is an immutable sequence of
letters; a :class:`GroupWord` is additionally freely reduced.  All values
here are immutable and every function is pure, so they are safe to share
between threads.

Free reduction is one stack, ``_tighten``, fed in pieces (letter images,
path factors, the parts of a rewritten power): ``BasisMap.apply``,
``StratifiedGraphMap.apply_raw``, edge-path products and the Burnside
rewriting moves all run on it.  Every piece must be freely reduced, so
letters cancel only where two pieces meet; ``reduce`` feeds one-letter
pieces, which are reduced trivially.  ``_image_length`` is
the one sum of letter-image lengths before cancellation, which the
letter-cap checks read.

``_LetterMap`` is the letter table behind ``Substitution``, ``BasisMap`` and
``StratifiedGraphMap``: images keyed by the positive letters, the image of
x^-1 the flip of the image of x, and the longest image.  Its
``_check_growth`` is the letter-cap guard for one map applied to one word,
which ``orbit``, ``BasisMap.apply`` and ``f_sharp`` call before each step;
``FixedPointStream``, ``compose`` of basis maps and ``growth_rate_estimate``
check their totals over several words with ``limits.check_letters``.

``_join_images`` sits in front of ``_tighten`` for alphabets of at most 256
letters, where every letter image is also kept as bytes: it joins the byte
images in one step and looks for an adjacent inverse pair with one scan at
C speed (the joined bytes, read as an integer and shifted one letter, XORed
with their inverted copy are zero exactly where two letters cancel).  Most
images of a legal path cancel nowhere, and those come back as joined; the
rest go through ``_tighten``.

``Word.from_indices`` checks its input; ``Word._trusted`` skips the checks
for results valid by construction (tightened or substituted images, red
projections and slices).

Repetition search is exact.  ``find_power_runs`` reports each maximal
periodic stretch once, keyed by its primitive period, and
``max_power_index`` gives the largest integer power.  Both encode the word
as bytes (one per letter, or a fixed 2 or 4 for alphabets past 256 letters)
and scan once per candidate period p: the XOR of the word with its shift by
p is zero exactly where the two agree, and ``bytes.find`` locates the zero
blocks long enough to matter, which are at least p letters long.
``find_power_runs`` takes every such block, since each is a run.
``max_power_index`` takes only blocks that raise its best index b: the
needle of zeros is b * p letters long and grows as soon as a block raises b,
so ``bytes.find`` skips the shorter blocks at C speed.  With one-byte
letters a block comes back to Python once per rise of b over the whole word,
not once per block: on the Fibonacci word of 2 584 letters, p = 1 alone has
about 600 blocks ``aa``, and only the first counts.  Every p
below 32 is a candidate; above, ``_candidate_periods`` keeps p in [2B, 4B)
only if some aligned block [mB, mB + B) occurs again p letters on, since an
equality block of at least p >= 2B letters contains one.  Finding those
recurrences takes about n / 8 block finds over all octaves, at C speed
each, and morphic words have squares at only O(log n) periods, so there
the scan is O(n log n) instead of one O(n) pass for every period.  A word
whose blocks recur at most offsets, such as a^n, keeps whole octaves and
costs about what the full scan did.  The cubic brute-force scan lives in
the test suite as an independent oracle.
"""

from __future__ import annotations

import re
from array import array
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Mapping, Sequence

from ._records import frozen
from .limits import check_letters, letter_cap

__all__ = [
    "Alphabet",
    "InverseAlphabet",
    "Word",
    "GroupWord",
    "PowerRun",
    "reduce",
    "flip",
    "cyclic_reduce",
    "primitive_root",
    "max_power_index",
    "find_power_runs",
]

_INV_SUFFIX = "^-1"

# A nonzero byte of a shifted XOR marks where a periodic stretch ends.
_NONZERO = re.compile(rb"[^\x00]")

# Aligned block length, in letters, of the smallest period octave that
# _candidate_periods filters: periods below twice this are all scanned.
_ANCHOR = 16

# bytes.translate table of the involution on one-byte letter indices.
_INVERT = bytes(i ^ 1 for i in range(256))


def _check_letter_name(name: str) -> str:
    if not isinstance(name, str) or not name:
        raise ValueError(f"letter names must be nonempty strings, got {name!r}")
    if any(ch.isspace() for ch in name) or any(ch in "^()" for ch in name):
        raise ValueError(f"letter name {name!r} may not contain whitespace, '^', '(' or ')'")
    return name


class Alphabet:
    """Ordered finite set of letters, without inverses."""

    __slots__ = ("_letters", "_index")

    has_inverses = False

    def __init__(self, letters: Iterable[str]):
        if isinstance(letters, str):
            letters = tuple(letters)
        lst = tuple(_check_letter_name(x) for x in letters)
        if not lst:
            raise ValueError("an alphabet needs at least one letter")
        index: dict[str, int] = {}
        for i, name in enumerate(lst):
            if name in index:
                raise ValueError(f"duplicate letter {name!r}")
            index[name] = i
        self._letters = lst
        self._index = index

    @property
    def letters(self) -> tuple[str, ...]:
        return self._letters

    @property
    def positive_letters(self) -> tuple[str, ...]:
        """The letters that carry images: all of them, since none has an inverse."""
        return self._letters

    def __len__(self) -> int:
        return len(self._letters)

    def __iter__(self) -> Iterator[str]:
        return iter(self._letters)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown letter {name!r} for {self!r}") from None

    def name(self, i: int) -> str:
        return self._letters[i]

    # Token <-> index translation used by the word syntax.  A plain alphabet
    # accepts exact letter names only.
    def parse_token(self, tok: str) -> int:
        return self.index(tok)

    def token(self, i: int) -> str:
        return self._letters[i]

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self.has_inverses == other.has_inverses and self._letters == other._letters

    def __hash__(self) -> int:
        return hash((self.has_inverses, self._letters))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self._letters)!r})"


class InverseAlphabet(Alphabet):
    """Alphabet closed under a fixed-point-free involution.

    Built from positive letter names; the inverse of letter ``x`` is the
    letter named ``x^-1``.  Letters are stored interleaved, so the involution
    on indices is ``i ^ 1``.  Tokens for inverse letters may be written
    ``x^-1``, ``inv(x)``, or (for single lowercase names) uppercase ``X``;
    output always uses the ``x^-1`` form.
    """

    __slots__ = ("_positive",)

    has_inverses = True

    def __init__(self, positive: Iterable[str]):
        if isinstance(positive, str):
            positive = tuple(positive)
        pos = tuple(_check_letter_name(x) for x in positive)
        interleaved: list[str] = []
        for name in pos:
            interleaved.append(name)
            interleaved.append(name + _INV_SUFFIX)
        # Alphabet.__init__ rejects '^' in names, so build the tables by hand.
        if not pos:
            raise ValueError("an alphabet needs at least one letter")
        index: dict[str, int] = {}
        for i, name in enumerate(interleaved):
            if name in index:
                raise ValueError(f"duplicate letter {name!r}")
            index[name] = i
        self._letters = tuple(interleaved)
        self._index = index
        self._positive = pos

    @property
    def positive_letters(self) -> tuple[str, ...]:
        return self._positive

    @property
    def rank(self) -> int:
        return len(self._positive)

    def inv(self, i: int) -> int:
        return i ^ 1

    def is_positive(self, i: int) -> bool:
        return (i & 1) == 0

    def positive_index(self, i: int) -> int:
        """Index of the positive representative of letter i among positives."""
        return i >> 1

    def parse_token(self, tok: str) -> int:
        got = self._index.get(tok)
        if got is not None:
            return got
        if tok.startswith("inv(") and tok.endswith(")"):
            inner = tok[4:-1]
            got = self._index.get(inner)
            if got is not None:
                return got ^ 1
        if len(tok) == 1 and tok.isupper():
            got = self._index.get(tok.lower())
            if got is not None:
                return got ^ 1
        raise ValueError(f"unknown letter token {tok!r} for {self!r}")

    def __repr__(self) -> str:
        return f"InverseAlphabet({list(self._positive)!r})"


class Word:
    """Immutable word over an :class:`Alphabet`.

    Equal words have equal alphabets (same letters, same inverse structure)
    and equal letter sequences.  Concatenation with ``*`` requires equal
    alphabets.
    """

    __slots__ = ("_alphabet", "_seq")

    def __init__(self, alphabet: Alphabet, letters: Iterable[str] = ()):
        seq = tuple(alphabet.parse_token(x) for x in letters)
        self._alphabet = alphabet
        self._seq = seq
        self._validate()

    def _validate(self) -> None:
        pass

    @classmethod
    def from_indices(cls, alphabet: Alphabet, indices: Iterable[int]) -> "Word":
        self = cls._trusted(alphabet, indices)
        n = len(alphabet.letters)
        for i in self._seq:
            if not 0 <= i < n:
                raise ValueError(f"letter index {i} out of range for {alphabet!r}")
        self._validate()
        return self

    @classmethod
    def _trusted(cls, alphabet: Alphabet, indices: Iterable[int]) -> "Word":
        # trusted constructor: caller guarantees indices in range (and reduced, for GroupWord)
        self = object.__new__(cls)
        self._alphabet = alphabet
        self._seq = tuple(indices)
        return self

    @classmethod
    def parse(cls, alphabet: Alphabet, text: str) -> "Word":
        """Parse the whitespace-separated token syntax."""
        return cls(alphabet, text.split())

    @property
    def alphabet(self) -> Alphabet:
        return self._alphabet

    @property
    def indices(self) -> tuple[int, ...]:
        return self._seq

    @property
    def letters(self) -> tuple[str, ...]:
        alph = self._alphabet
        return tuple(alph.token(i) for i in self._seq)

    @property
    def is_trivial(self) -> bool:
        return not self._seq

    def __len__(self) -> int:
        return len(self._seq)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return Word._trusted(self._alphabet, self._seq[key])
        return self._alphabet.token(self._seq[key])

    def __iter__(self) -> Iterator[str]:
        alph = self._alphabet
        return (alph.token(i) for i in self._seq)

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if self._alphabet != other._alphabet:
            raise ValueError("cannot concatenate words over different alphabets")
        return Word.from_indices(self._alphabet, self._seq + other._seq)

    def __pow__(self, m: int) -> "Word":
        if m < 0:
            raise ValueError("use flip() for inverses; exponents must be >= 0")
        return Word.from_indices(self._alphabet, self._seq * m)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self._seq == other._seq and self._alphabet == other._alphabet

    def __hash__(self) -> int:
        return hash((self._alphabet, self._seq))

    def __str__(self) -> str:
        return " ".join(self._alphabet.token(i) for i in self._seq)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"

    def compact(self) -> str:
        """Single-string rendering: ``abA`` style when unambiguous.

        Positive letters must be single lowercase characters; inverses print
        uppercase.  Falls back to the token syntax otherwise.
        """
        alph = self._alphabet
        out = []
        for i in self._seq:
            tok = alph.token(i)
            if len(tok) == 1 and not tok.isupper():
                out.append(tok)
            elif (
                alph.has_inverses
                and tok.endswith(_INV_SUFFIX)
                and len(tok) == 1 + len(_INV_SUFFIX)
                and tok[0].islower()
            ):
                out.append(tok[0].upper())
            else:
                return str(self)
        return "".join(out)


class GroupWord(Word):
    """Freely reduced word over an :class:`InverseAlphabet`."""

    __slots__ = ()

    def _validate(self) -> None:
        if not self._alphabet.has_inverses:
            raise ValueError("GroupWord needs an InverseAlphabet")
        seq = self._seq
        for k in range(len(seq) - 1):
            if seq[k] == seq[k + 1] ^ 1:
                raise ValueError(
                    f"word is not freely reduced at position {k}: "
                    f"{self._alphabet.token(seq[k])} {self._alphabet.token(seq[k + 1])}"
                )

    @property
    def is_cyclically_reduced(self) -> bool:
        seq = self._seq
        return len(seq) < 2 or seq[0] != seq[-1] ^ 1


def _tighten(pieces: Iterable[Sequence[int]]) -> list[int]:
    """Concatenate freely reduced index sequences and freely reduce the result.

    Each piece must be freely reduced, so the stack stays reduced and a
    piece can only cancel from its front against the top: pop while they
    are inverse, then push the rest in one step.  Letter-table callers pass
    a list of images, one piece per letter: on CPython 3.11 that feeds this
    loop faster than ``map`` or a generator.
    """
    out: list[int] = []
    for piece in pieces:
        k = 0
        while out and k < len(piece) and out[-1] == piece[k] ^ 1:
            out.pop()
            k += 1
        out.extend(piece[k:])
    return out


def _join_images(
    codes: Sequence[bytes], table: Sequence[Sequence[int]], seq: Sequence[int]
) -> list[int]:
    """``_tighten`` of the letter images of ``seq``, joined at C speed when nothing cancels.

    ``codes[i]`` is ``table[i]`` as bytes, so every index must be below 256.
    Read the joined images as one big-endian integer x and their inverted
    copy as y: byte n >= 1 of ``(x >> 8) ^ y`` is zero exactly when letter
    n - 1 and letter n are inverse.  Byte 0 compares letter 0 with nothing,
    so the search starts at 1.
    """
    joined = b"".join(map(codes.__getitem__, bytes(seq)))
    x = int.from_bytes(joined, "big")
    y = int.from_bytes(joined.translate(_INVERT), "big")
    if ((x >> 8) ^ y).to_bytes(len(joined), "big").find(0, 1) < 0:
        return list(joined)
    return _tighten([table[i] for i in seq])


def _image_length(table: Sequence[Sequence[int]], seq: Iterable[int]) -> int:
    """Length of the concatenated letter images of ``seq``, before any cancellation."""
    return sum(len(table[i]) for i in seq)


class _LetterMap:
    """Letter table of a map that sends each letter to a sequence of letters.

    ``images`` is keyed by exactly the positive letters of the alphabet (every
    letter of a plain one); over an :class:`InverseAlphabet` the image of
    x^-1 is the flip of the image of x.  A subclass reads each given image
    into letter indices with its own check, in ``_image_indices``.  Equal
    maps have the same class, alphabet and table.
    """

    __slots__ = ("_alphabet", "_table", "_longest")

    _keys = "positive letters"  # what the images are keyed by, for error messages

    def __init__(self, alphabet: Alphabet, images: Mapping[str, object]):
        needed = alphabet.positive_letters
        extra = set(images) - set(needed)
        if extra:
            raise ValueError(
                f"images must be keyed by {self._keys}; unexpected keys {sorted(extra)!r}"
            )
        missing = set(needed) - set(images)
        if missing:
            raise ValueError(f"missing images for {self._keys} {sorted(missing)!r}")
        self._alphabet = alphabet
        table: list[tuple[int, ...]] = [()] * len(alphabet.letters)
        for name in needed:
            seq = self._image_indices(name, images[name])
            i = alphabet.index(name)
            table[i] = seq
            if alphabet.has_inverses:
                table[i ^ 1] = tuple(k ^ 1 for k in reversed(seq))
        self._table = tuple(table)
        self._longest = max(map(len, table))

    def _image_indices(self, name: str, image) -> tuple[int, ...]:
        raise NotImplementedError

    def _word(self, name: str, image: Word | str) -> Word:
        """A given image as a word over this map's alphabet; a string is parsed."""
        if isinstance(image, str):
            image = Word.parse(self._alphabet, image)
        if image.alphabet != self._alphabet:
            raise ValueError(f"image of {name!r} lives over a different alphabet")
        return image

    @property
    def alphabet(self) -> Alphabet:
        return self._alphabet

    def letter_image(self, i: int) -> tuple[int, ...]:
        """Image of letter index i, as letter indices."""
        return self._table[i]

    def _check_growth(self, seq: Sequence[int]) -> None:
        """Raise :class:`GrowthCapExceeded` when the images of ``seq`` pass the letter cap.

        The exact length before cancellation is summed only when the
        longest letter image times the length of ``seq`` could pass it.
        """
        if len(seq) * self._longest > letter_cap():
            check_letters(_image_length(self._table, seq))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._alphabet == other._alphabet and self._table == other._table

    def __hash__(self) -> int:
        return hash((self._alphabet, self._table))

    def __repr__(self) -> str:
        alph = self._alphabet
        parts = ", ".join(
            f"{x} -> {Word._trusted(alph, self._table[alph.index(x)])}"
            for x in alph.positive_letters
        )
        return f"{type(self).__name__}({parts})"


def reduce(word: Word) -> GroupWord:
    """Freely reduce, cancelling adjacent inverse pairs until none remain."""
    if not word.alphabet.has_inverses:
        raise ValueError("reduce needs a word over an InverseAlphabet")
    return GroupWord._trusted(word.alphabet, _tighten(zip(word.indices)))


def flip(word: Word) -> Word:
    """Reverse the word and invert each letter.

    For a freely reduced word this is the group inverse; the result keeps
    the input's class (flipping preserves reducedness).
    """
    if not word.alphabet.has_inverses:
        raise ValueError("flip needs a word over an InverseAlphabet")
    cls = GroupWord if isinstance(word, GroupWord) else Word
    return cls.from_indices(word.alphabet, tuple(i ^ 1 for i in reversed(word.indices)))


def cyclic_reduce(word: Word) -> tuple[GroupWord, GroupWord]:
    """Split into conjugator and cyclically reduced core.

    Returns (core, c) with word = c core c^-1 as group elements and core
    cyclically reduced.  The input is freely reduced first if needed.
    """
    w = word if isinstance(word, GroupWord) else reduce(word)
    seq = w.indices
    i, j = 0, len(seq)
    while j - i >= 2 and seq[i] == seq[j - 1] ^ 1:
        i += 1
        j -= 1
    alph = w.alphabet
    return (
        GroupWord.from_indices(alph, seq[i:j]),
        GroupWord.from_indices(alph, seq[:i]),
    )


def _encode(seq: Sequence[int]) -> tuple[bytes, int]:
    """Encode letters at a fixed width: one byte each below 256, else 2 or 4."""
    try:
        return bytes(seq), 1
    except ValueError:  # an index past 255
        codes = array("H" if max(seq) < 65536 else "I", seq)
        return codes.tobytes(), codes.itemsize


def _root_length(code: bytes, width: int) -> int:
    """Letter length of the primitive root: the least whole-letter rotation fixing the word."""
    doubled = code + code
    shift = doubled.find(code, 1)
    while shift % width:
        shift = doubled.find(code, shift + 1)
    return shift // width


def _equal_blocks(
    number: int, size: int, width: int, p: int, need: int, rising: bool = False
) -> Iterator[tuple[int, int]]:
    """Maximal letter intervals [k, j), j - k >= need >= 1, with seq[i] == seq[i + p] on them.

    ``number`` is the encoded word of ``size`` bytes, read as one big-endian
    integer.  Its XOR with itself shifted p letters right has, from byte
    p*width on, a zero letter exactly where seq[i] == seq[i - p].  A zero
    byte run may start or end inside a letter when letters are wider than a
    byte, so only the whole letters it covers count.  With ``rising``, each
    block yielded raises ``need`` to the next multiple of p past its length,
    so every later find looks only for a block with one more whole period.
    """
    shift = p * width
    diff = (number ^ (number >> 8 * shift)).to_bytes(size, "big")
    zeros = bytes(need * width)
    pos = shift
    while True:
        a = diff.find(zeros, pos)
        if a < 0:
            return
        hit = _NONZERO.search(diff, a + len(zeros))
        b = hit.start() if hit else size
        pos = b + 1
        k, j = -(-a // width) - p, b // width - p
        if j - k >= need:
            yield k, j
            if rising:
                need = (j - k) // p * p + p
                zeros = bytes(need * width)


def primitive_root(word: Word) -> tuple[Word, int]:
    """Largest m with word = u^m, returning (u, m); u is primitive.

    The root keeps the input's class: a factor of a reduced word is reduced.
    """
    n = len(word)
    if n == 0:
        raise ValueError("the empty word has no primitive root")
    p = _root_length(*_encode(word.indices))
    if p < n:
        return type(word).from_indices(word.alphabet, word.indices[:p]), n // p
    return word, 1


def _octave_periods(code: bytes, width: int, block: int, top: int) -> Sequence[int]:
    """The p in [2B, 4B), p <= top, at which some aligned block of B = ``block`` letters recurs.

    For each aligned block [mB, mB + B), ``bytes.find`` looks for
    seq[mB : mB + B] at byte offsets (mB + p) * width, p in the octave, and
    keeps the p of the hits at whole-letter offsets.  The whole octave is
    returned instead once the finds, projected over all blocks, cost more
    than the passes over the periods not yet kept (so also when the hits
    cover the octave), or once one block recurs at more than a quarter of
    the octave's periods: the word is then periodic at this scale, and most
    of the octave would be kept anyway.
    """
    n = len(code) // width
    lo, hi = 2 * block, min(4 * block, top + 1)
    blocks = range(0, (n - lo - block) * width + 1, block * width)
    # A shifted-XOR pass costs about (800 + size) / 128 finds of a short
    # needle, and a find of this needle about (256 + needle) / 256 of them.
    pass_cost, find_cost = 2 * (800 + len(code)), 256 + block * width
    found: set[int] = set()
    finds = 0
    for done, a in enumerate(blocks, 1):
        needle, end = code[a : a + block * width], a + (hi - 1 + block) * width
        h = code.find(needle, a + lo * width, end)
        finds += 1
        hits = 0
        while h >= 0:
            if (h - a) % width == 0:
                found.add((h - a) // width)
                hits += 1
            left = hi - lo - len(found)
            if 4 * hits > hi - lo or finds * len(blocks) * find_cost > left * done * pass_cost:
                return range(lo, hi)
            h = code.find(needle, h + 1, end)
            finds += 1
    return sorted(found)


def _candidate_periods(code: bytes, width: int, top: int) -> Iterable[int]:
    """Every period p <= ``top`` that an equality block of p letters may have, ascending.

    Every p below ``2 * _ANCHOR`` is kept; above come the octaves [2B, 4B)
    for B = _ANCHOR, 2 * _ANCHOR, ..., each from ``_octave_periods``.  An
    equality block [k, j) of at least p >= 2B letters, p < 4B, contains an
    aligned block [mB, mB + B), so seq[mB : mB + B] occurs again exactly p
    letters later, and the octave keeps p.  That costs about n / B finds
    when blocks rarely recur, so n / 8 over all octaves, against one O(n)
    pass for every period.  Octaves are made one at a time, so a caller
    that stops early pays for no more.
    """
    if top < 2 * _ANCHOR:  # no octave: the short words of rewriting moves pay one call
        return range(1, top + 1)
    octaves = range((top // _ANCHOR).bit_length() - 1)  # those with 2B <= top
    later = (_octave_periods(code, width, _ANCHOR << i, top) for i in octaves)
    return chain(range(1, 2 * _ANCHOR), chain.from_iterable(later))


def _runs(seq: Sequence[int], min_exponent: int) -> list[tuple[int, int, int]]:
    """Maximal periodic stretches with at least ``min_exponent`` full periods.

    Sorted (start, period_length, stretch_length) triples; a stretch is
    reported for its primitive period only.  A stretch of period p has an
    equality block of (min_exponent - 1) * p >= p letters, so one O(n) pass
    per period that ``_candidate_periods`` yields finds them all: 57 passes
    for squares in the Fibonacci word of 2 584 letters, against 1 292.
    """
    code, width = _encode(seq)
    number = int.from_bytes(code, "big")
    out = []
    for p in _candidate_periods(code, width, len(seq) // min_exponent):
        for k, j in _equal_blocks(number, len(code), width, p, (min_exponent - 1) * p):
            if _root_length(code[k * width : (k + p) * width], width) == p:
                out.append((k, p, j + p - k))
    out.sort()
    return out


@frozen
class PowerRun:
    """One maximal periodic stretch.

    The stretch occupies ``[start, start + exponent*|period| + remainder)``;
    the period is primitive and ``exponent`` is the integer power used when
    the run feeds a rewriting move.  ``multiplicity`` is the exact rational
    stretch length over the period length.
    """

    start: int
    period: Word
    exponent: int
    remainder: int

    def __post_init__(self):
        if len(self.period) == 0:
            raise ValueError("a run needs a nonempty period")
        if self.exponent < 1 or not 0 <= self.remainder < len(self.period):
            raise ValueError("malformed run")

    @property
    def multiplicity(self) -> Fraction:
        p = len(self.period)
        return Fraction(self.exponent * p + self.remainder, p)

    @property
    def end(self) -> int:
        """End of the integer-power part consumed by moves."""
        return self.start + self.exponent * len(self.period)

    @property
    def stretch_end(self) -> int:
        return self.start + self.exponent * len(self.period) + self.remainder


def find_power_runs(word: Word, min_exponent: int) -> list[PowerRun]:
    """All maximal runs u^m with u primitive and integer exponent m >= min_exponent.

    Each maximal periodic stretch is reported once; conjugate shifts of the
    period inside the same stretch are not repeated.  Sorted by start index,
    then period length.  The scanner's runs pass ``PowerRun``'s check by
    construction, so each record and its period, a plain ``Word`` over the
    input's alphabet, are filled in directly, without the checks and
    argument handling of their constructors.
    """
    if min_exponent < 2:
        raise ValueError(f"min_exponent must be >= 2, got {min_exponent}")
    alphabet, seq = word.alphabet, word.indices
    new = object.__new__
    runs = []
    for k, p, length in _runs(seq, min_exponent):
        period = new(Word)
        period._alphabet, period._seq = alphabet, seq[k : k + p]
        run = new(PowerRun)
        fields = run.__dict__  # key by key, as the _records docstring says
        fields["start"], fields["period"] = k, period
        fields["exponent"], fields["remainder"] = length // p, length % p
        runs.append(run)
    return runs


def max_power_index(word: Word) -> int:
    """Largest m such that u^m is a factor of the word for some nonempty u.

    The empty word has index 0; any nonempty word has index at least 1.
    A power u^m, |u| = p, has an equality block of (m - 1) * p >= p letters,
    so one pass per period that ``_candidate_periods`` yields finds it; the
    passes stop at the first p with (best + 1) * p > n, and each pass looks
    only for blocks that raise ``best``.  On the Fibonacci word of 196 418
    letters that takes 0.09-0.13 s on a shared 2-core x86 box (Python
    3.11), where a pass at every period took about 20 s.
    """
    n = len(word)
    if n == 0:
        return 0
    code, width = _encode(word.indices)
    number = int.from_bytes(code, "big")
    best = 1
    # A stretch of period p beats ``best`` only when its equality block has
    # at least best*p letters, which needs (best + 1) * p <= n.  The loop
    # stops once p + 1 fails that, before it makes an octave it would not
    # use; a later candidate that fails it finds no block.  Non-primitive
    # periods need no test: each never beats its primitive root.
    for p in _candidate_periods(code, width, n // 2):
        for k, j in _equal_blocks(number, len(code), width, p, best * p, rising=True):
            best = (j - k) // p + 1
        if (best + 1) * (p + 1) > n:
            break
    return best
