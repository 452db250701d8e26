"""Brute-force reference implementations used to pin down expected values.

Everything in this module is deliberately slow and obvious: plain nested
loops over slices, no shared code with the library.  Test modules compare
library output against these on small inputs and freeze the results on the
larger named examples.
"""

from __future__ import annotations

from typing import Sequence


def is_primitive_seq(u: Sequence) -> bool:
    """True when u is not a proper power x^k, k >= 2, of a shorter block."""
    p = len(u)
    for d in range(1, p):
        if p % d == 0 and tuple(u) == tuple(u[:d]) * (p // d):
            return False
    return True


def power_index_bruteforce(seq: Sequence) -> int:
    """Largest m such that some block repeats m times consecutively.

    Cubic scan over every (start, block length) pair that could beat the
    best count so far: m copies of a block of length p need m * p letters.
    Empty input gives 0, any nonempty input gives at least 1.
    """
    n = len(seq)
    if n == 0:
        return 0
    best = 1
    for start in range(n):
        for p in range(1, (n - start) // (best + 1) + 1):
            u = seq[start : start + p]
            count = 1
            while tuple(seq[start + count * p : start + (count + 1) * p]) == tuple(u):
                count += 1
            if count > best:
                best = count
    return best


def maximal_runs_bruteforce(seq: Sequence, min_exponent: int = 2):
    """All maximal periodic runs with primitive period, as bare tuples.

    Returns sorted (start, period_length, exponent, remainder) tuples.  A
    run is an interval where seq[k] == seq[k + p] keeps holding; it must
    span at least two full periods, be extendable in neither direction, and
    have a primitive period block.
    """
    n = len(seq)
    found = set()
    for p in range(1, n // 2 + 1):
        for start in range(0, n - 2 * p + 1):
            if start > 0 and seq[start - 1] == seq[start - 1 + p]:
                continue  # extendable to the left: not the maximal start
            end = start + p
            while end < n and seq[end] == seq[end - p]:
                end += 1
            length = end - start
            if length < 2 * p or not is_primitive_seq(seq[start : start + p]):
                continue
            exponent = length // p
            if exponent >= min_exponent:
                found.add((start, p, exponent, length % p))
    return sorted(found)


def free_reduce_bruteforce(seq: Sequence[int]) -> list[int]:
    """Delete the leftmost adjacent pair i, i^1 until none is left.

    Letters are interleaved indices, so the inverse of letter i is i ^ 1.
    Quadratic rescans from the left; no stack.
    """
    out = list(seq)
    while True:
        for k in range(len(out) - 1):
            if out[k] == out[k + 1] ^ 1:
                del out[k : k + 2]
                break
        else:
            return out


def red_projection_bruteforce(heights: Sequence[int], seq: Sequence[int], k: int) -> list[int]:
    """Keep the letters of height k, renumbered over the height-k edges alone.

    ``heights[p]`` is the height of positive edge p, whose oriented letters
    are 2p and 2p + 1.  The height-k edges keep their order, so edge p
    becomes red edge number "how many height-k edges come before p".
    """
    out = []
    for i in seq:
        p = i // 2
        if heights[p] == k:
            before = len([q for q in range(p) if heights[q] == k])
            out.append(2 * before + i % 2)
    return out


def spectral_radius_above_one_bruteforce(rows: Sequence[Sequence[int]]) -> bool:
    """Does a nonnegative integer matrix of size <= 3, entries <= 2, have spectral radius > 1?

    Reads the entry sum of M^256, from eight exact squarings.  Radius at
    most 1: every strongly connected block is a permutation or zero, so a
    walk of length 256 is fixed by the at most two steps where it changes
    block (257^2 places, 6 weighted choices each), and the sum stays below
    9 * 257^2 * 6^2 < 10^9.  Radius r above 1: r is an algebraic integer
    whose conjugates are eigenvalues too, so r^3 bounds a Mahler measure
    above 1, which is at least 1.3247 in degree <= 3 (Smyth), and the sum
    is at least r^256 >= 1.3247^(256/3) > 10^10.
    """
    n = len(rows)
    assert n <= 3 and all(0 <= x <= 2 for row in rows for x in row)
    power = [list(row) for row in rows]
    for _ in range(8):
        power = [[sum(power[i][k] * power[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    total = sum(map(sum, power))
    assert total < 10**9 or total > 10**10
    return total > 10**10


def _boolean_product(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if a[i][k] and b[k][j]:
                    out[i][j] = 1
    return out


def irreducible_bruteforce(rows: Sequence[Sequence[int]]) -> bool:
    """Is M + M^2 + ... + M^n entrywise positive?

    Walks only need their positive pattern, so entries are read as 0 or 1.
    """
    n = len(rows)
    power = [[1 if x > 0 else 0 for x in row] for row in rows]
    total = [list(row) for row in power]
    for _ in range(n - 1):
        power = _boolean_product(power, rows)
        for i in range(n):
            for j in range(n):
                if power[i][j]:
                    total[i][j] = 1
    return all(x for row in total for x in row)


def primitive_bruteforce(rows: Sequence[Sequence[int]]) -> bool:
    """Is M^(n^2 - 2n + 2) entrywise positive?  (Wielandt's exponent.)"""
    n = len(rows)
    power = [[1 if x > 0 else 0 for x in row] for row in rows]
    for _ in range(n * n - 2 * n + 1):
        power = _boolean_product(power, rows)
    return all(x for row in power for x in row)


def transitive_permutation_bruteforce(rows: Sequence[Sequence[int]]) -> bool:
    """A permutation matrix whose walk from index 0 first returns after n steps?"""
    n = len(rows)
    for i in range(n):
        if sorted(rows[i]) != [0] * (n - 1) + [1]:
            return False
        if sorted(rows[k][i] for k in range(n)) != [0] * (n - 1) + [1]:
            return False
    v = rows[0].index(1)
    steps = 1
    while v != 0:
        v = rows[v].index(1)
        steps += 1
    return steps == n


def turn_legal_bruteforce(df: Sequence[int], e1: int, e2: int) -> bool:
    """Step both edges under the derivative table df until they meet or repeat.

    Meeting makes the turn illegal; a repeated pair, before any meeting,
    means the two orbits never meet, so the turn is legal.
    """
    seen = []
    a, b = e1, e2
    while (a, b) not in seen:
        if a == b:
            return False
        seen.append((a, b))
        a, b = df[a], df[b]
    return True


def orientability_bruteforce(images: Sequence[Sequence[int]]):
    """First direction choice closed under a flip-equivariant substitution.

    ``images[p]`` is the image of pair p's positive letter, with letter
    2q + e standing for pair q in direction e; the image of 2p + 1 is the
    flip of ``images[p]``.  Every tuple of directions is tried in
    lexicographic order, pair 0 most significant.  Returns the first tuple
    whose chosen letters have images made only of chosen letters, with the
    pair indices of those images, or None when there is none.
    """
    r = len(images)
    for number in range(2**r):
        dirs = []
        for p in range(r):
            dirs.append((number >> (r - 1 - p)) & 1)
        induced = []
        closed = True
        for p in range(r):
            if dirs[p] == 0:
                image = list(images[p])
            else:
                image = [i ^ 1 for i in reversed(images[p])]
            for i in image:
                if i % 2 != dirs[i // 2]:
                    closed = False
            induced.append(tuple(i // 2 for i in image))
        if closed:
            return tuple(dirs), tuple(induced)
    return None


def base_words_bruteforce(width: int, length: int) -> list[tuple[int, ...]]:
    """Representatives of the cyclically reduced primitive words, in lexicographic order.

    Letters are 0 .. width - 1 with 2p + 1 the inverse of 2p.  A word is
    kept when no cyclically adjacent letters cancel, it is not a proper
    power, and it is least among the rotations of itself and of its flip.
    """
    words = [()]
    for _ in range(length):
        longer = []
        for w in words:
            for x in range(width):
                longer.append(w + (x,))
        words = longer
    out = []
    for w in words:
        reduced = True
        for k in range(length):
            if w[k] ^ 1 == w[(k + 1) % length]:
                reduced = False
        if not reduced or not is_primitive_seq(w):
            continue
        flipped = tuple(x ^ 1 for x in reversed(w))
        least = True
        for s in (w, flipped):
            for r in range(length):
                if s[r:] + s[:r] < w:
                    least = False
        if least:
            out.append(w)
    return out


def generates_free_group_bruteforce(u: Sequence[int], v: Sequence[int]) -> bool:
    """True when the reduced words u and v generate the free group of rank two.

    Letters are 0 .. 3 with 2p + 1 the inverse of 2p.  Stallings folding:
    glue one loop per word at the base vertex 0, one edge per letter, then
    merge the far ends of any two edges with the same label that leave one
    vertex or enter one vertex, until no such pair is left.  The subgroup
    is the whole group exactly when the folded graph is the rose: the one
    vertex 0 with one loop for each of the letters 0 and 2.
    """
    edges = set()  # (tail, positive letter, head)
    fresh = 1
    for word in (u, v):
        here = 0
        for k, x in enumerate(word):
            if k == len(word) - 1:
                there = 0
            else:
                there = fresh
                fresh += 1
            if x & 1:
                edges.add((there, x - 1, here))
            else:
                edges.add((here, x, there))
            here = there
    folded = False
    while not folded:
        folded = True
        for e in edges:
            for g in edges:
                if e != g and e[1] == g[1] and (e[0] == g[0] or e[2] == g[2]):
                    ends = (e[2], g[2]) if e[0] == g[0] else (e[0], g[0])
                    keep, gone = min(ends), max(ends)
                    folded = False
                    break
            if not folded:
                break
        if not folded:
            edges = {
                (keep if t == gone else t, x, keep if h == gone else h) for t, x, h in edges
            }
    return edges == {(0, 0, 0), (0, 2, 0)}
