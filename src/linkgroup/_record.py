"""The shared base of the package's immutable value classes.

A value class names its fields in ``__slots__`` and writes its own
``__init__``, setting each field with ``object.__setattr__``.  The base reads
``__slots__`` for equality, hashing, the repr and pickling, and refuses
assignment and deletion.  The frozen dataclass it replaces cost more import
and class-creation time than the rest of the package.  The ``__init__``s stay
hand-written: generating one from ``__slots__`` would compile a function on
each class's first construction in every process, 50-170 µs apiece.
"""


class Record:
    __slots__ = ()

    def _values(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def _asdict(self):
        """The fields by name, in declaration order (a new dict, values shared)."""
        return dict(zip(self.__slots__, self._values()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        # rebuild through the constructor: slots and the refused __setattr__
        # rule out the default copy of instance state
        return type(self), self._values()
