"""Group presentations, their derivation from framed link diagrams, and Tietze
simplification.

A closed orientable 3-manifold given by surgery on a blackboard framed link has
fundamental group generated by one generator per arc together with one
transition generator per crossing; the transition generator equals the
overstrand (sign +1) or its inverse (sign -1), the product of the transition
generators along each component is a relator, and each crossing contributes a
Wirtinger relation conjugating the incoming understrand arc to the outgoing
one.
"""

import re
from collections import Counter

from ._record import Record
from .diagrams import under_walks
from .words import Word

GEN_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
# parse_presentation rejects relators whose powers expand past this many letters
MAX_LETTERS = 10 ** 6


class PresentationSyntaxError(ValueError):
    """Unparseable presentation text, with line and column of the failure."""


class Relator(Record):
    """A relator, kept as the two sides of an equation lhs = rhs.

    The group-theoretic content is the word lhs * rhs^-1; relators entered as
    bare words have an empty right-hand side.
    """

    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs=Word()):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    @property
    def word(self):
        return self.lhs * self.rhs.inverse()

    def generators(self):
        return self.lhs.generators() | self.rhs.generators()


class GroupPresentation(Record):
    __slots__ = ("generators", "relators")

    def __init__(self, generators, relators):
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relators", relators)
        self.__post_init__()

    def __post_init__(self):
        seen = set()
        for g in self.generators:
            if not GEN_NAME.match(g):
                raise ValueError("bad generator name %r" % g)
            if g in seen:
                raise ValueError("duplicate generator %r" % g)
            seen.add(g)
        for r in self.relators:
            for name in r.generators():
                if name not in seen:
                    raise ValueError("relator uses unknown generator %r" % name)


def transition_name(under_in, under_out):
    if len(under_in) == 1 and len(under_out) == 1:
        return "t_%s%s" % (under_in, under_out)
    return "t_%s_%s" % (under_in, under_out)


def wirtinger(diagram):
    """The Wirtinger presentation: arc generators, one conjugation per crossing."""
    generators = tuple(arc for comp in diagram.components for arc in comp)
    relators = []
    for c in diagram.crossings:
        if c.sign == 1:
            lhs = Word(((c.under_in, 1), (c.over, 1)))
            rhs = Word(((c.over, 1), (c.under_out, 1)))
        else:
            lhs = Word(((c.under_out, 1), (c.over, 1)))
            rhs = Word(((c.over, 1), (c.under_in, 1)))
        relators.append(Relator(lhs, rhs))
    return GroupPresentation(generators, tuple(relators))


def fundamental_group(diagram):
    """Presentation of the fundamental group of the surgered manifold.

    Generators are the transition generators then the arc generators; relators
    are the transition definitions, the per-component filling products, and the
    Wirtinger conjugations, in that order.  Walking each component's crossings
    in order names its transition generators: at a crossing with overstrand o
    the transition generator is o for sign +1 and o^-1 for sign -1, and
    conjugation by it carries the incoming understrand arc to the outgoing one.
    The filling relator is their product; a component that never passes under
    a crossing contributes none.
    """
    names, definitions, fillings = [], [], []
    for crossings in under_walks(diagram):
        walk = [(transition_name(c.under_in, c.under_out), c) for c in crossings]
        for t, c in walk:
            names.append(t)
            definitions.append(Relator(Word(((t, 1),)), Word(((c.over, c.sign),))))
        if walk:
            fillings.append(Relator(Word(tuple((t, 1) for t, _ in walk))))
    w = wirtinger(diagram)
    return GroupPresentation(tuple(names) + w.generators,
                             tuple(definitions) + tuple(fillings) + w.relators)


# --- Tietze rewriting on encoded words ----------------------------------------
#
# Rewriting runs on one str per word, one character per letter: generator i
# of the input is chr(2 * i) and its inverse chr(2 * i + 1), so two letters
# cancel when their code points differ in the lowest bit only.  A word's
# inverse is s[::-1].translate(table), matching is str.find and substitution
# is str.replace; words are decoded into Words once, at the return.

def _encoder(generators):
    """(encode, decode, table) for words over generators; table inverts letters."""
    index = {g: 2 * i for i, g in enumerate(generators)}
    letters = [(g, e) for g in generators for e in (1, -1)]
    return (lambda word: "".join([chr(index[g] + (e < 0)) for g, e in word.letters]),
            lambda s: Word._of(tuple([letters[ord(c)] for c in s])),
            "".join(chr(c ^ 1) for c in range(len(letters))))


def _reduce(s, cyclic=False):
    """Cancel adjacent inverse letters, then, if cyclic, those at the two ends."""
    out = []
    for c in s:
        if out and ord(out[-1]) ^ ord(c) == 1:
            out.pop()
        else:
            out.append(c)
    while cyclic and len(out) >= 2 and ord(out[0]) ^ ord(out[-1]) == 1:
        out = out[1:-1]
    return "".join(out)


def _substitute_relator(relator, letter, replacement, table):
    """Each side with letter replaced by replacement and its inverse letter by
    the inverse, freely reduced; replacement holds neither letter."""
    other, inverse = chr(ord(letter) ^ 1), replacement[::-1].translate(table)
    return tuple(_reduce(side.replace(letter, replacement).replace(other, inverse))
                 for side in relator)


def _cyclic_match(target, source, table):
    """Find the longest overlap of source (or its inverse) with cyclic target.

    Returns the target with that overlap replaced by the inverse of the source
    remainder, cyclically reduced, or None when no overlap is longer than half
    the source.  Such a replacement always shortens the target.  Of equally
    long overlaps the first wins: source before inverse, then by rotation,
    then by start.  The prefixes of a rotation that occur in the doubled
    target are closed under shortening, so a rotation is skipped when its
    shortest useful prefix does not occur, and otherwise the prefix grows
    while it occurs; str.find's first start always lies in the first copy.
    """
    n = len(target)
    if n < 2:
        return None
    doubled = target + target
    m, best = len(source), None
    top, floor = min(m, n), m // 2
    for s in (source, source[::-1].translate(table)):
        ss = s + s
        for rot in range(m):
            if floor >= top:
                break
            length = floor + 1
            start = doubled.find(ss[rot:rot + length])
            while start >= 0 and length < top:
                longer = doubled.find(ss[rot:rot + length + 1], start)
                if longer < 0:
                    break
                length, start = length + 1, longer
            if start >= 0:
                best, floor = (start, ss[rot + length:rot + m]), length
    if best is not None:
        start, remainder = best
        return _reduce(remainder[::-1].translate(table) + doubled[start + floor:start + n], True)


def _pairs(w):
    """The cyclic two-letter subwords of w."""
    return {a + b for a, b in zip(w, w[1:] + w[:1])}


def _shortening(rels, cyclic, matches, table):
    """The first phase-3 rewrite: (target index, shortened word), or None.

    Sources are tried shortest first (ties by index), and for each source the
    targets in the same order, skipping targets shorter than the source.
    cyclic maps a relator to its cyclically reduced word, that word's cyclic
    two-letter subwords, and those together with its inverse's.  A match
    overlaps more than half the source, so a source of two or more letters
    shares a cyclic two-letter subword, in itself or its inverse, with the
    target: a pair that shares none cannot match and is skipped.  matches
    maps each other (target, source) pair of words to its _cyclic_match
    result, so each is computed once per tietze_simplify call.
    """
    entries = []
    for r in rels:
        if r not in cyclic:
            w = _reduce(r[0] + r[1][::-1].translate(table), True)
            pairs = _pairs(w)
            cyclic[r] = w, pairs, pairs | _pairs(w[::-1].translate(table))
        entries.append(cyclic[r])
    order = sorted(range(len(rels)), key=lambda i: (len(rels[i][0]) + len(rels[i][1]), i))
    for si in order:
        source, _, both = entries[si]
        m = len(source)
        for ti in order:
            target, pairs, _ = entries[ti]
            if ti == si or len(target) < m or m > 1 and both.isdisjoint(pairs):
                continue
            key = (target, source)
            if key not in matches:
                matches[key] = _cyclic_match(target, source, table)
            if matches[key] is not None:
                return ti, matches[key]
    return None


def tietze_simplify(presentation, budget=10000):
    """Simplify a presentation without changing the group it defines.

    Phase 1 eliminates generators with defining relators g = w (shortest
    definition first, ties by generator name), substituting w for g everywhere.
    Phase 2 freely reduces both sides of every relator, cyclically reduces bare
    relators, and drops relators that become trivial.  Phase 3 greedily
    replaces a cyclic subword of one relator by the shorter complement from
    another relator whenever that shortens it.  Each step applies one rewrite,
    from the first of these phases that changes the presentation, and costs
    one unit of budget; the result is returned as-is when the budget runs out
    or no phase changes anything.

    Each side of a relator is an encoded word, and the work is incremental:
    an elimination rewrites only the relators that contain the eliminated
    generator, phase 2 reduces only relators it has not yet found fixed, and
    phase 3 matches each (target, source) pair at most once per call, and
    never a pair that shares no cyclic two-letter subword (see _shortening).
    A budget that is not a non-negative integer raises ValueError.
    """
    if type(budget) is not int or budget < 0:
        raise ValueError("simplify budget must be a non-negative integer, not %r" % (budget,))
    names = presentation.generators
    encode, decode, table = _encoder(names)
    gens = list(names)
    rels = [(encode(r.lhs), encode(r.rhs)) for r in presentation.relators]
    # The first elimination freely reduces every relator (parsed ones may be
    # unreduced); every later rewrite leaves them reduced, so from then on a
    # relator without the eliminated generator is kept as it is.
    all_reduced = False
    fixed, cyclic, matches = set(), {}, {}
    for _ in range(budget):
        definitions = [(1 + len(rhs), names[ord(lhs) >> 1], idx)
                       for idx, (lhs, rhs) in enumerate(rels)
                       if len(lhs) == 1 and not ord(lhs) & 1
                       and lhs not in rhs and chr(ord(lhs) ^ 1) not in rhs]
        if definitions:
            _, g, idx = min(definitions)
            letter, w = rels.pop(idx)
            other = chr(ord(letter) ^ 1)
            gens.remove(g)
            rels = [_substitute_relator(r, letter, w, table)
                    if not all_reduced or letter in r[0] or other in r[0]
                    or letter in r[1] or other in r[1] else r for r in rels]
            all_reduced = True
            continue
        kept = [r if r in fixed else (_reduce(r[0], not r[1]), _reduce(r[1])) for r in rels]
        kept = [r for r in kept if r[0] != r[1]]
        if kept != rels:
            rels = kept
            continue
        fixed.update(rels)
        shortening = _shortening(rels, cyclic, matches, table)
        if shortening is None:
            break
        rels[shortening[0]] = (shortening[1], "")
    return GroupPresentation(tuple(gens), tuple(Relator(decode(lhs), decode(rhs))
                                                for lhs, rhs in rels))


def _reduce_generators(presentation):
    """Eliminate generators that occur exactly once in some relator.

    This is the classical Tietze elimination: rotate the relator so the single
    occurrence leads, solve for the generator, and substitute everywhere.  The
    presented group is unchanged; the candidate with the least total-length
    growth is eliminated first (ties by relator length, then generator name).
    It stops after 1000 eliminations, or when the best one would take the
    total relator length past 4 times the original (counted as at least 50).
    Used internally to compile presentations for search; the result has bare
    cyclically reduced relators.  Relators are encoded words, each kept with
    the generators it holds exactly once; an elimination rewrites and recounts
    only the relators that contain the eliminated generator.
    """
    names = presentation.generators
    encode, decode, table = _encoder(names)
    fold = "".join(chr(c & ~1) for c in range(len(table)))
    def single(w):
        return [c for c, k in Counter(w.translate(fold)).items() if k == 1]
    gens = list(names)
    rels = [_reduce(encode(r.word), True) for r in presentation.relators]
    rels = [w for w in rels if w]
    singles = [single(w) for w in rels]
    original = max(sum(map(len, rels)), 50)
    for _ in range(1000):
        totals = Counter("".join(rels).translate(fold))
        best = min((((totals[c] - 1) * (n - 2) - n, n, names[ord(c) >> 1], ri, c)
                    for ri, n in enumerate(map(len, rels)) for c in singles[ri]), default=None)
        if best is None or sum(map(len, rels)) + best[0] > 4 * original:
            break
        _, _, g, ri, letter = best
        gens.remove(g)
        w = rels.pop(ri)
        del singles[ri]
        other = chr(ord(letter) ^ 1)
        pos = max(w.find(letter), w.find(other))
        rest = w[pos + 1:] + w[:pos]
        replacement = rest[::-1].translate(table) if w[pos] == letter else rest
        inverse = replacement[::-1].translate(table)
        for i, v in enumerate(rels):
            if letter in v or other in v:
                rels[i] = _reduce(v.replace(letter, replacement).replace(other, inverse), True)
                singles[i] = single(rels[i])
        singles = [x for v, x in zip(rels, singles) if v]
        rels = [v for v in rels if v]
    return GroupPresentation(tuple(gens), tuple(Relator(decode(w)) for w in rels))


# --- text grammar -----------------------------------------------------------

# A token, or (group 2) a character that starts none.  finditer steps over
# whitespace in one pass; a leading \s* would rescan trailing whitespace
# from each of its positions.
_TOKEN = re.compile(r"([A-Za-z][A-Za-z0-9_]*|-?\d+|[\^*=;:,])|(\S)")


def _error(tokens, i, message):
    """The syntax error at token i, or after the last token when i is past the end."""
    after = i >= len(tokens)
    _, lineno, col = tokens[-1 if after else i]
    return PresentationSyntaxError("line %d, column %d: %s%s" % (
        lineno, col, message, " after this" if after else ""))


def _tokenize(line, lineno):
    tokens = []
    for m in _TOKEN.finditer(line):
        tokens.append((m.group(), lineno, m.start() + 1))
        if m.group(2):
            raise _error(tokens, len(tokens) - 1, "unexpected character %r" % m.group())
    return tokens


def _relator(tokens, known, letters):
    """The relator spelled by one ;-separated token group, lhs [= rhs] with
    each side 1 or name[^int]*name[^int]..., and letters plus the number of
    letters its powers expand to."""
    def peek(i):
        return tokens[i][0] if i < len(tokens) else None

    sides, syllables, i = [], [], 0
    while True:
        if not syllables and peek(i) == "1":
            i += 1
        else:
            name = peek(i)
            if name is None or not GEN_NAME.match(name):
                raise _error(tokens, i, "expected a generator name")
            if name not in known:
                raise _error(tokens, i, "unknown generator %r" % name)
            at, exp, i = i, 1, i + 1
            if peek(i) == "^":
                at, tok, i = i + 1, peek(i + 1), i + 2
                if tok is None or not re.fullmatch(r"-?\d+", tok):
                    raise _error(tokens, at, "expected an integer exponent")
                # int() reads at most one digit more than MAX_LETTERS has: enough to pass it
                digits = tok.lstrip("-").lstrip("0")[:len(str(MAX_LETTERS)) + 1] or "0"
                exp = -int(digits) if tok[0] == "-" else int(digits)
                if exp == 0:
                    raise _error(tokens, at, "zero exponent")
            letters += abs(exp)
            if letters > MAX_LETTERS:
                raise _error(tokens, at, "the relators expand to more than %d letters"
                             % MAX_LETTERS)
            syllables.append((name, exp))
            if peek(i) == "*":
                i += 1
                continue
        sides.append(Word.from_syllables(syllables))
        syllables = []
        if len(sides) == 2 or peek(i) != "=":
            break
        i += 1
    if i < len(tokens):
        raise _error(tokens, i, "unexpected token")
    return Relator(*sides), letters


def parse_presentation(text):
    """Parse presentation text: a gens: line plus rels: lines of ;-separated
    relators, whose powers may expand to at most MAX_LETTERS letters in all."""
    gens = None
    groups = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        tokens = _tokenize(line, lineno)
        head = tokens[0][0]
        if head not in ("gens", "rels"):
            raise PresentationSyntaxError(
                "line %d: expected a 'gens:' or 'rels:' line" % lineno)
        if len(tokens) < 2 or tokens[1][0] != ":":
            raise PresentationSyntaxError("line %d: expected '%s:'" % (lineno, head))
        if head == "gens":
            if gens is not None:
                raise PresentationSyntaxError("line %d: duplicate gens: line" % lineno)
            for k, (tok, _, _) in enumerate(tokens[2:], start=2):
                if k % 2 == 0 and not GEN_NAME.match(tok):
                    raise _error(tokens, k, "bad generator name %r" % tok)
                if k % 2 and tok != ",":
                    raise _error(tokens, k, "expected ',' between generator names")
            if len(tokens) > 2 and len(tokens) % 2 == 0:
                raise PresentationSyntaxError("line %d: trailing comma in gens: line" % lineno)
            gens = [tok for tok, _, _ in tokens[2::2]]
        else:
            groups.append([])
            for tok in tokens[2:]:
                if tok[0] == ";":
                    groups.append([])
                else:
                    groups[-1].append(tok)
    if gens is None:
        raise PresentationSyntaxError("missing gens: line")

    known, relators, letters = set(gens), [], 0
    for group in groups:
        if group:
            relator, letters = _relator(group, known, letters)
            relators.append(relator)
    return GroupPresentation(tuple(gens), tuple(relators))


def _word_text(word):
    return "*".join(name if exp == 1 else "%s^-1" % name for name, exp in word.letters) or "1"


def _relator_text(r):
    if r.rhs.letters:
        return "%s = %s" % (_word_text(r.lhs), _word_text(r.rhs))
    return _word_text(r.lhs)


def serialize_presentation(presentation, dialect="native"):
    """Render a presentation in the native grammar, or for export as gap or plain.

    The gap snippet writes each relator over F.1, F.2, ..., so any generator
    name (F, E, end, ...) is safe; the names only label FreeGroup's generators.
    """
    if dialect == "native":
        lines = ["gens: " + ", ".join(presentation.generators)]
        if presentation.relators:
            lines.append("rels: " + "; ".join(_relator_text(r) for r in presentation.relators))
        return "\n".join(lines) + "\n"
    if dialect == "plain":
        inner = "; ".join(_relator_text(r) for r in presentation.relators)
        return "< %s | %s >\n" % (", ".join(presentation.generators), inner)
    if dialect == "gap":
        gens = presentation.generators
        index = {g: "F.%d" % i for i, g in enumerate(gens, start=1)}
        words = [Word(tuple((index[g], e) for g, e in r.word.letters))
                 for r in presentation.relators]
        return "\n".join([
            "F := FreeGroup( %s );;" % (", ".join('"%s"' % g for g in gens) or "0"),
            "rels := [ %s ];;" % ", ".join(_word_text(w) if w.letters else "One( F )"
                                           for w in words),
            "G := F / rels;;",
            'Print( AbelianInvariants( G ), "\\n" );']) + "\n"
    raise ValueError("unknown dialect %r" % dialect)
