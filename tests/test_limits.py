"""The letter cap: one environment variable, checked on every growing path."""

import pytest

from burntrack import substitutions
from burntrack.automorphisms import BasisMap, compose, growth_rate_estimate
from burntrack.graphmap import (
    EdgePath,
    Graph,
    StratifiedGraphMap,
    f_sharp,
    red_commutation_check,
    yellow_loop_audit,
)
from burntrack.limits import (
    DEFAULT_MAX_LETTERS,
    GrowthCapExceeded,
    check_letters,
    letter_cap,
)
from burntrack.substitutions import (
    FixedPointStream,
    Substitution,
    detect_shift_period,
    fixed_point_prefix,
    orbit,
    orbit_power_index,
)
from burntrack.words import Alphabet, InverseAlphabet, Word

CAP = 50

AB = Alphabet(["a", "b"])
FIB = Substitution(AB, {"a": "a b", "b": "a"})
F2 = InverseAlphabet(["a", "b"])
FIB_AUT = BasisMap(F2, {"a": "a b", "b": "a"})
SIXFOLD = BasisMap(F2, {"a": " ".join(["a"] * 6), "b": " ".join(["b"] * 6)})
TRIPLE = BasisMap(F2, {"a": "a a a", "b": "b b b"})
SIX = Substitution(AB, {"a": "a a a a a a", "b": "b b b b b b"})
ROSE = Graph.rose(["a", "b", "c", "d"], {"a": 1, "b": 2, "c": 3, "d": 3})
PSI = StratifiedGraphMap(ROSE, {"*": "*"}, {"a": "a", "b": "b a", "c": "c b c d", "d": "c"})

# Each operation with the length its own check reports under a cap of 50.
# The depths stay small so that a missing check shows as a wrong or missing
# error, not as a runaway computation.
GROWING = {
    "Substitution.iterate": (lambda: FIB.iterate(Word(AB, "a"), 12), 55),
    "FixedPointStream": (lambda: FixedPointStream(FIB, "a").prefix(100), 55),
    "fixed_point_prefix": (lambda: fixed_point_prefix(FIB, "a", 100), 55),
    "orbit": (lambda: list(orbit(FIB, Word(AB, "a"), 12)), 55),
    "orbit_power_index": (lambda: orbit_power_index(FIB, Word(AB, "a"), 12), 55),
    "detect_shift_period": (lambda: detect_shift_period(FIB, "a", 100), 55),
    "BasisMap.apply": (lambda: FIB_AUT.apply(Word(F2, ["a"] * 30)), 60),
    "BasisMap.power": (lambda: FIB_AUT.power(12), 55),
    # each image alone is 36 letters; only the running total passes the cap
    "compose": (lambda: compose(SIXFOLD, SIXFOLD), 72),
    "compose of substitutions": (lambda: substitutions.compose(SIX, SIX), 72),
    # each word alone stays under the cap one step longer than the total
    "growth_rate_estimate": (lambda: growth_rate_estimate(TRIPLE, depth=5), 54),
    "f_sharp": (lambda: f_sharp(PSI, EdgePath(ROSE, "d"), 8), 73),
    "red_commutation_check": (lambda: red_commutation_check(PSI, EdgePath(ROSE, "d"), 8), 73),
    "yellow_loop_audit": (lambda: yellow_loop_audit(PSI, "d", 8), 73),
}


@pytest.mark.parametrize("name", sorted(GROWING))
def test_every_growing_operation_stops_at_the_cap(name, monkeypatch):
    run, needed = GROWING[name]
    monkeypatch.setenv("BURNTRACK_MAX_LETTERS", str(CAP))
    with pytest.raises(GrowthCapExceeded) as exc:
        run()
    assert exc.value.cap == CAP
    assert exc.value.needed > CAP
    assert exc.value.needed == needed


def test_letter_cap_reads_the_environment(monkeypatch):
    monkeypatch.delenv("BURNTRACK_MAX_LETTERS", raising=False)
    assert letter_cap() == DEFAULT_MAX_LETTERS
    monkeypatch.setenv("BURNTRACK_MAX_LETTERS", " ")
    assert letter_cap() == DEFAULT_MAX_LETTERS
    monkeypatch.setenv("BURNTRACK_MAX_LETTERS", "123")
    assert letter_cap() == 123
    # nothing is cached: each read sees the environment as it is now
    monkeypatch.delenv("BURNTRACK_MAX_LETTERS")
    assert letter_cap() == DEFAULT_MAX_LETTERS
    monkeypatch.setenv("BURNTRACK_MAX_LETTERS", "123")
    assert letter_cap() == 123
    for bad in ("abc", "0", "-5"):
        monkeypatch.setenv("BURNTRACK_MAX_LETTERS", bad)
        with pytest.raises(ValueError, match="BURNTRACK_MAX_LETTERS"):
            letter_cap()


def test_check_letters_allows_exactly_the_cap(monkeypatch):
    monkeypatch.setenv("BURNTRACK_MAX_LETTERS", str(CAP))
    check_letters(CAP)
    with pytest.raises(GrowthCapExceeded) as exc:
        check_letters(CAP + 1)
    assert (exc.value.needed, exc.value.cap) == (CAP + 1, CAP)
    assert "max_letters" not in str(exc.value)
