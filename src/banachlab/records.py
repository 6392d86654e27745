"""The shared base of banachlab's small value classes.

These classes were `@dataclass`es, and must not become dataclasses
again.  At import the decorator writes each class's methods as source
text and `exec`s it, and `dataclasses` imports `inspect` (and with it
`ast`, `dis` and `tokenize`).  For these 18 classes the decorator took
about two thirds of the time banachlab's own modules took to import, on
top of importing `dataclasses`, paid by every process, every CLI run
among them, whatever its input.

Here a class lists its fields in `_fields` and writes its own
`__init__`, which validates what it is given.  The rest it inherits,
built from plain getters on the field names, with no code generated:

- `Record`, what `@dataclass` gives: the repr `Name(field=value, ...)`
  over `_fields`, byte for byte the dataclass one; `__eq__` only between
  instances of one class, on the fields in `_compared` (all of them
  unless a class names fewer); no hash; and `__match_args__`.
- `Frozen`, what `@dataclass(frozen=True)` adds: assigning or deleting
  an attribute raises `AttributeError`, so an `__init__` sets fields
  with `object.__setattr__`, and `__hash__` hashes the fields in
  `_hashed` (the compared ones unless a class names fewer).

A record of one field compares and hashes that field's value, where a
dataclass used the 1-tuple of it: equality is the same, as each such
field equals itself, but hash values differ; no output depends on them.
"""

from operator import attrgetter


def _getter(names: tuple):
    """A function of a record: the value of its one field in `names`,
    else the tuple of its fields in `names`, () for none (a staticmethod,
    since it is stored on the class)."""
    return attrgetter(*names) if names else staticmethod(lambda record: ())


class Record:
    _fields: tuple[str, ...] = ()
    _compared = None
    _hashed = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        compared = cls._fields if cls._compared is None else cls._compared
        cls._eq_key = _getter(compared)
        cls._hash_key = _getter(compared if cls._hashed is None else cls._hashed)
        cls.__match_args__ = cls._fields

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._eq_key
            return key(self) == key(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Record):
    def __hash__(self) -> int:
        return hash(self._hash_key(self))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
