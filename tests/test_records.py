"""``_records.frozen`` against ``@dataclass(frozen=True)`` on the same class body."""

import dataclasses
import os
import subprocess
import sys

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


def test_trusted_skips_the_check_and_equals_a_checked_record():
    assert OURS._trusted(1, "p") == OURS(1, "p")
    assert repr(OURS._trusted(1, "p")) == repr(OURS(1, "p"))
    assert OURS._trusted(-1, "o").x == -1  # no __post_init__
    with pytest.raises(AttributeError):
        OURS._trusted(1, "p").x = 2
