"""Power rewriting and finite exponent quotients.

An (n, xi)-elementary move replaces u^m by u^(m-n) whenever m clears the
threshold n/2 - xi, so both words map to the same element modulo n-th
powers.  Chains of moves are searched bidirectionally; coset enumeration
closes finite presentations; the Burnside quotients B(r, 2) and B(r, 3) are
written from the collected normal form of their elements and certified by
raising every element to the n-th power.
"""

from burntrack import (
    BasisMap,
    GroupWord,
    InverseAlphabet,
    Joined,
    MoveParams,
    Order,
    SearchBudget,
    Word,
    burnside_oracle,
    common_descendant_search,
    find_elementary_moves,
    induced_order,
    move_log,
    reduce,
    todd_coxeter,
)

F2 = InverseAlphabet(["a", "b"])


def gw(text):
    return reduce(Word(F2, tuple(text)))


# --- elementary moves -------------------------------------------------------
params = MoveParams(5, 1)  # n=5, xi=1: any run with m >= 2 qualifies
word = gw("aaaaaaab")
for m in find_elementary_moves(word, params):
    print(move_log([m]), "  result:", m.result.compact())

# a run can drop below zero exponent; the replacement flips the period
print("a^3 b with n=5:", find_elementary_moves(gw("aaab"), params)[0].result.compact())

# --- join search ------------------------------------------------------------
# a^4 b and b^3 a b both rewrite to ab modulo cubes
left, right = gw("aaaab"), gw("bbbab")
outcome = common_descendant_search(left, right, MoveParams(3), SearchBudget(5000, 8))
assert isinstance(outcome, Joined)
print("witness:", outcome.witness.compact())
print("left: ", move_log(outcome.left_moves))
print("right:", move_log(outcome.right_moves))

# --- coset enumeration ------------------------------------------------------
relators = [gw("aaa"), gw("bbb"), gw("ababab"), gw("aBaBaB")]
table = todd_coxeter(2, relators)
print("exponent-3 presentation closes at", table.size, "cosets")
print(table.to_csv().splitlines()[0])

# --- certified quotients ----------------------------------------------------
# The oracle writes the multiplication table from the collected normal form
# and certifies that every element raised to n is trivial; with the order of
# B(r, n), that pins the group exactly.
for rank, exp in [(2, 2), (3, 2), (2, 3)]:
    q = burnside_oracle(rank, exp)
    print(f"B({rank},{exp}) has order {q.order}, certified: {q.exponent_certified}")

q = burnside_oracle(2, 3)
x = q.eval_word(gw("ab"))
print("(ab)^3 evaluates to identity:", q.multiply(q.multiply(x, x), x) == 0)

# --- induced permutations ---------------------------------------------------
twist = BasisMap(F2, {"a": "a", "b": "b a"})
print("twist induces order", induced_order(twist, q))

phi3 = BasisMap(F2, {"a": "a b a a a b a a a b a a a", "b": "b a a a"})
print("a -> a(ba^3)^3, b -> ba^3 induces order", induced_order(phi3, q))
