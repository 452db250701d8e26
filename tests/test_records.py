"""``_records.frozen`` against ``@dataclass(frozen=True)`` on the same class body."""

import dataclasses
import os
import subprocess
import sys
import textwrap

import pytest

from burntrack._records import frozen


def point_class(decorate):
    @decorate
    class Point:
        x: int
        y: str = "o"

        def __post_init__(self):
            if self.x < 0:
                raise ValueError("x must be >= 0")

        @property
        def pair(self):
            return (self.x, self.y)

    return Point


OURS = point_class(frozen)
THEIRS = point_class(dataclasses.dataclass(frozen=True))

GOOD_CALLS = [((1,), {}), ((1, "p"), {}), ((), {"x": 2}), ((), {"y": "q", "x": 3}), ((4,), {"y": "r"})]
BAD_CALLS = [((), {}), ((1, "p", 3), {}), ((1,), {"x": 1}), ((), {"z": 1}), ((1,), {"z": 1}), ((), {"y": "q"})]


@pytest.mark.parametrize("args, kwargs", GOOD_CALLS)
def test_same_values_as_a_dataclass(args, kwargs):
    ours, theirs = OURS(*args, **kwargs), THEIRS(*args, **kwargs)
    assert repr(ours) == repr(theirs)
    assert hash(ours) == hash(theirs)
    assert ours.pair == theirs.pair
    assert ours == OURS(*args, **kwargs) and ours is not OURS(*args, **kwargs)
    assert ours != OURS(ours.x + 1, ours.y) and ours != OURS(ours.x, ours.y + "!")


@pytest.mark.parametrize("args, kwargs", BAD_CALLS)
def test_same_rejected_calls_as_a_dataclass(args, kwargs):
    with pytest.raises(TypeError):
        THEIRS(*args, **kwargs)
    with pytest.raises(TypeError):
        OURS(*args, **kwargs)


def test_post_init_runs():
    with pytest.raises(ValueError, match="x must be"):
        OURS(-1)


def test_fields_are_frozen():
    p = OURS(1)
    with pytest.raises(AttributeError):
        p.x = 2
    with pytest.raises(AttributeError):
        p.z = 2
    with pytest.raises(AttributeError):
        del p.x
    assert p == OURS(1)


def test_equality_needs_the_same_class():
    assert OURS(1) != THEIRS(1)
    assert OURS(1).__eq__((1, "o")) is NotImplemented
    assert OURS.__match_args__ == THEIRS.__match_args__ == ("x", "y")


def test_package_does_not_load_dataclasses():
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    code = "import sys, burntrack, burntrack.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_filled_dict_skips_the_check_and_equals_a_checked_record():
    # the fields live in __dict__, which is how find_power_runs builds its
    # records without the check
    unchecked = object.__new__(OURS)
    unchecked.__dict__["x"], unchecked.__dict__["y"] = 1, "p"
    assert unchecked == OURS(1, "p") and hash(unchecked) == hash(OURS(1, "p"))
    assert repr(unchecked) == repr(OURS(1, "p"))
    assert vars(OURS(1, "p")) == {"x": 1, "y": "p"}
    with pytest.raises(AttributeError):
        unchecked.x = 2


RECORD_COST = textwrap.dedent("""
    import sys, tracemalloc
    from burntrack.words import Alphabet, PowerRun, Word

    period = Word(Alphabet("ab"), "ab")

    def built():
        return PowerRun(start=1, period=period, exponent=2, remainder=0)

    def filled():
        run = object.__new__(PowerRun)
        fields = run.__dict__
        fields["start"], fields["period"], fields["exponent"], fields["remainder"] = 1, period, 2, 0
        return run

    make = built if sys.argv[1] == "built" else filled
    tracemalloc.start()
    runs = [make() for _ in range(10_000)]
    print(tracemalloc.get_traced_memory()[0] / len(runs))
""")


def test_constructor_records_cost_no_more_than_filled_ones():
    # A record's __dict__ shares the class's key table only while its
    # fields go in key by key in field order; dict.update(kwargs) gave each
    # constructor-built PowerRun a table of its own, about 71 B more on
    # CPython 3.11.  Each way runs in a fresh process, since a process that
    # builds records both ways can spoil the sharing for the second way.
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    cost = {
        how: float(
            subprocess.run(
                [sys.executable, "-c", RECORD_COST, how], env=env, capture_output=True, text=True, check=True
            ).stdout
        )
        for how in ("built", "filled")
    }
    assert cost["built"] <= cost["filled"] + 8, cost
