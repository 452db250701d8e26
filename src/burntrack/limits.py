"""Global guard for operations that materialize very long words.

Iterating a substitution or a graph map grows words geometrically, so the
operations that iterate check the projected size against a cap before each
expansion.  A step that applies one map to one word calls the map's
``_check_growth`` (see ``words._LetterMap``): ``orbit`` and so
``Substitution.iterate``, and every tightened image, so ``BasisMap.apply``
(and ``BasisMap.power``), ``StratifiedGraphMap.apply_raw`` (and each step of
``f_sharp``) and ``decide_growth``.  Three sites check a total over several
words themselves: ``FixedPointStream``, ``compose`` and
``growth_rate_estimate``.  A single ``Substitution.apply`` is the one
unchecked step; it grows its input by at most the longest letter image.
There is one setting: the ``BURNTRACK_MAX_LETTERS`` environment variable,
default ten million letters.  It is read at each growth step, and
:func:`check_letters` is the one place that compares against it.

Most runs leave the variable unset, and a hot loop such as ``f_sharp``
reads the cap on every step.  ``os.environ.get`` pays for a raised and
caught ``KeyError`` on a missing key (about 0.6 us), so :func:`letter_cap`
first tests the key in the mapping ``os.environ`` keeps its items in
(``_data``, keyed by ``os.environ.encodekey``), a plain dict lookup of
about 0.02 us.  Every write through ``os.environ`` (``setenv``, ``delenv``,
``mock.patch.dict``) updates that mapping, so nothing is cached.
"""

from __future__ import annotations

import os

__all__ = ["DEFAULT_MAX_LETTERS", "ENV_MAX_LETTERS", "GrowthCapExceeded", "check_letters", "letter_cap"]

DEFAULT_MAX_LETTERS = 10_000_000
ENV_MAX_LETTERS = "BURNTRACK_MAX_LETTERS"
# the variable's key in os.environ._data, the mapping os.environ reads and writes
_ENV_KEY = os.environ.encodekey(ENV_MAX_LETTERS)


class GrowthCapExceeded(RuntimeError):
    """An expansion would exceed the configured letter cap."""

    def __init__(self, needed: int, cap: int):
        super().__init__(
            f"expansion needs at least {needed} letters but the cap is {cap}; "
            f"set {ENV_MAX_LETTERS} to raise it"
        )
        self.needed = needed
        self.cap = cap


def letter_cap() -> int:
    """The letter cap: the environment variable if set, else the default.

    A bad environment value is an error rather than a silent fallback.
    The unset case is one dict lookup, without the ``KeyError`` that
    ``os.environ.get`` raises and catches for a missing key; the value is
    parsed only when the variable is present.
    """
    if _ENV_KEY not in os.environ._data:
        return DEFAULT_MAX_LETTERS
    env = os.environ[ENV_MAX_LETTERS]
    if not env.strip():
        return DEFAULT_MAX_LETTERS
    try:
        cap = int(env)
    except ValueError:
        raise ValueError(f"{ENV_MAX_LETTERS} must be an integer, got {env!r}") from None
    if cap <= 0:
        raise ValueError(f"{ENV_MAX_LETTERS} must be positive, got {env!r}")
    return cap


def check_letters(needed: int) -> None:
    """Raise :class:`GrowthCapExceeded` when ``needed`` letters pass the cap."""
    cap = letter_cap()
    if needed > cap:
        raise GrowthCapExceeded(needed, cap)
