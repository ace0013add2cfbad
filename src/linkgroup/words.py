"""Words over named free-group generators."""

from ._record import Record


class Word(Record):
    """A word in a free group, stored as a tuple of (generator, exponent) letters.

    Letter exponents are restricted to +1 and -1; powers are expanded on
    construction via from_syllables.
    """

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        object.__setattr__(self, "letters", letters)
        self.__post_init__()

    @classmethod
    def _of(cls, letters):
        """A word from letters known to be valid, built without checking them."""
        word = object.__new__(cls)
        object.__setattr__(word, "letters", letters)
        return word

    def __post_init__(self):
        for letter in self.letters:
            name, exp = letter
            if not isinstance(name, str) or not name:
                raise ValueError("letter names must be nonempty strings")
            if exp not in (1, -1):
                raise ValueError("letter exponent must be +1 or -1, got %s^%r" % (name, exp))

    @classmethod
    def from_syllables(cls, syllables):
        """Build a word from (name, exponent) pairs; exponents may be any nonzero int."""
        letters = []
        for name, exp in syllables:
            if exp == 0:
                raise ValueError("zero exponent on generator %r" % name)
            sign = 1 if exp > 0 else -1
            letters.extend((name, sign) for _ in range(abs(exp)))
        return cls(tuple(letters))

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __mul__(self, other):
        return Word._of(self.letters + other.letters)

    def inverse(self):
        return Word._of(tuple((name, -exp) for name, exp in reversed(self.letters)))

    def free_reduce(self):
        """Cancel adjacent inverse pairs until none remain."""
        out = []
        for name, exp in self.letters:
            if out and out[-1][0] == name and out[-1][1] == -exp:
                out.pop()
            else:
                out.append((name, exp))
        return Word._of(tuple(out))

    def generators(self):
        return {name for name, _ in self.letters}
