"""Words over named free-group generators: a `Word` is its letters and their
check.  The package's word operations run on the encoded form in
presentations.py; the reference's word helpers live in tests/oracles.py.
"""

from ._record import Record


class Word(Record):
    """A word in a free group: a tuple of (generator, +1 or -1) letters."""

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
        # a list word, or a list letter, compares unequal to its tuple twin and
        # cannot be hashed
        letters = self.letters
        if not isinstance(letters, tuple):
            raise ValueError("word letters must be a tuple, not %s" % type(letters).__name__)
        for letter in letters:
            if not isinstance(letter, tuple):
                raise ValueError("each word letter must be a tuple, not %s" % type(letter).__name__)
            name, exp = letter
            if not isinstance(name, str) or not name:
                raise ValueError("letter names must be nonempty strings")
            if exp not in (1, -1):
                raise ValueError("letter exponent must be +1 or -1, got %s^%r" % (name, exp))

    def __len__(self):  # the traced benchmark run counts relator letters with len(r.lhs)
        return len(self.letters)
