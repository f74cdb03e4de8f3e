"""Immutable records: tuple subclasses with named fields.

A record class writes its own `__new__`, whose parameters, with their
defaults, are its fields, and which returns `_tuple_new(cls, (field, ...))`.
That is the method `collections.namedtuple` writes, but compiled with its
module, where namedtuple compiles it from source with `eval` on every start.
`Record` derives the rest once, when the class is made: `_fields` from that
signature, a getter per field (the C accessor namedtuple installs), `_make`,
`_replace`, `_asdict`, namedtuple's repr and what `copy` and `pickle` need.
`_make` and `_replace` go through the constructor, so a record that checks
its fields in `__new__` checks every copy too.
"""

from collections import _tuplegetter

_tuple_new = tuple.__new__


class Record(tuple):
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__new__.__code__
        cls._fields = fields = code.co_varnames[1:code.co_argcount]
        for i, name in enumerate(fields):
            setattr(cls, name, _tuplegetter(i, f"Alias for field number {i}"))
        cls._repr_fmt = "(" + ", ".join(f"{name}=%r" for name in fields) + ")"

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, /, **changes):
        record = self._make(map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return record

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))

    def __repr__(self):
        return type(self).__name__ + self._repr_fmt % self

    def __getnewargs__(self):
        return tuple(self)
