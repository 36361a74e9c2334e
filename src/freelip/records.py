"""Immutable records, built without `dataclasses`.

`dataclasses` imports `inspect` and compiles each generated method with
`exec`, a cost that a command-line process pays on every command.
"""

from operator import attrgetter

_set = object.__setattr__


def record(cls):
    """Make `cls` an immutable record of the fields its annotations name, in order.

    Instances are built positionally or by keyword, then `__post_init__`
    runs if the class has one; `functions._Function` reduces and checks
    its integers there, setting them with `object.__setattr__`.  A record
    equals only a record of its own class with equal fields, hashes as the
    tuple of its fields, and refuses assignment and deletion.  Its repr
    shows `__match_args__`: the fields, unless a subclass names its own.  A
    `cached_property` still works, outside equality and hashing: it writes
    the instance dictionary directly.
    """
    fields = tuple(cls.__dict__.get("__annotations__", {}))
    names, key = frozenset(fields), attrgetter(*fields)
    post_init = getattr(cls, "__post_init__", None)
    signature = f"{cls.__name__}() takes exactly the fields {', '.join(fields)}"

    def __init__(self, *args, **kwargs):
        if len(args) + len(kwargs) != len(fields):
            raise TypeError(signature)
        if kwargs:
            if args:
                kwargs.update(zip(fields, args))
            if kwargs.keys() != names:
                raise TypeError(signature)
        # set one at a time, fields stay in the instance's compact value
        # storage, which reads faster than a dictionary filled by one update
        for name, value in kwargs.items() if kwargs else zip(fields, args):
            _set(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({shown})"

    def frozen(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    cls.__hash__ = lambda self: hash(key(self))
    cls.__setattr__ = cls.__delattr__ = frozen
    cls.__match_args__ = fields
    return cls
