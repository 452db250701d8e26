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

    Cubic scan over every (start, block length) pair.  Empty input gives 0,
    any nonempty input gives at least 1.
    """
    n = len(seq)
    if n == 0:
        return 0
    best = 1
    for start in range(n):
        for p in range(1, n - start + 1):
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
            if not is_primitive_seq(seq[start : start + p]):
                continue
            if start > 0 and seq[start - 1] == seq[start - 1 + p]:
                continue  # extendable to the left: not the maximal start
            end = start + p
            while end < n and seq[end] == seq[end - p]:
                end += 1
            length = end - start
            if length < 2 * p:
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
