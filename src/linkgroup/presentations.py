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


class GroupPresentation(Record):
    __slots__ = ("generators", "relators")

    def __init__(self, generators, relators):
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relators", relators)
        self.__post_init__()

    @classmethod
    def _of(cls, generators, relators):
        """A presentation from parts known to be valid, built without checking them:
        generators from a checked presentation, relators over those generators."""
        presentation = object.__new__(cls)
        object.__setattr__(presentation, "generators", generators)
        object.__setattr__(presentation, "relators", relators)
        return presentation

    def __post_init__(self):
        seen = set()
        for g in self.generators:
            if not GEN_NAME.match(g):
                raise ValueError("bad generator name %r" % g)
            if g in seen:
                raise ValueError("duplicate generator %r" % g)
            seen.add(g)
        used = {name for r in self.relators for name, _ in r.lhs.letters + r.rhs.letters}
        if not used <= seen:
            # the first unknown name in the relators' letter order
            name = next(name for r in self.relators for name, _ in r.lhs.letters + r.rhs.letters
                        if name not in seen)
            raise ValueError("relator uses unknown generator %r" % name)


def transition_name(under_in, under_out):
    if len(under_in) == 1 and len(under_out) == 1:
        return "t_%s%s" % (under_in, under_out)
    return "t_%s_%s" % (under_in, under_out)


def _conjugations(crossings):
    """One Wirtinger relator per crossing: under_in * over = over * under_out at
    sign +1, under_out * over = over * under_in at sign -1.  A sign other than
    +1 or -1, or an arc that is not a nonempty string, raises ValueError."""
    relators = []
    for c in crossings:
        over, sign = c.over, c.sign
        if sign == 1:
            a, b = c.under_in, c.under_out
        elif sign == -1:
            a, b = c.under_out, c.under_in
        else:
            raise ValueError("crossing sign must be +1 or -1, got %r" % (sign,))
        for name in (a, over, b):
            if not isinstance(name, str) or not name:
                raise ValueError("letter names must be nonempty strings")
        relators.append(Relator(Word._of(((a, 1), (over, 1))), Word._of(((over, 1), (b, 1)))))
    return relators


def wirtinger(diagram):
    """The Wirtinger presentation: arc generators, one conjugation per crossing."""
    generators = tuple(arc for comp in diagram.components for arc in comp)
    return GroupPresentation(generators, tuple(_conjugations(diagram.crossings)))


def fundamental_group(diagram):
    """Presentation of the fundamental group of the surgered manifold.

    Generators are the transition generators then the arc generators; relators
    are the transition definitions, the per-component filling products, and the
    Wirtinger conjugations, in that order.  Walking each component's crossings
    in order names its transition generators: at a crossing with overstrand o
    the transition generator is o for sign +1 and o^-1 for sign -1, and
    conjugation by it carries the incoming understrand arc to the outgoing one.
    The filling relator is their product; a component that never passes under
    a crossing contributes none.  The words are built unchecked: a transition
    letter is a formatted name with exponent 1, each letter o^sign is checked
    as Word checks it, _conjugations checks the rest, and the presentation's
    own check runs once.
    """
    names, definitions, fillings = [], [], []
    for crossings in under_walks(diagram):
        walk = [(transition_name(c.under_in, c.under_out), c) for c in crossings]
        for t, c in walk:
            letter = (c.over, c.sign)
            if c.sign not in (1, -1) or not isinstance(c.over, str) or not c.over:
                Word((letter,))   # the checked constructor raises for this letter
            names.append(t)
            definitions.append(Relator(Word._of(((t, 1),)), Word._of((letter,))))
        if walk:
            fillings.append(Relator(Word._of(tuple([(t, 1) for t, _ in walk]))))
    arcs = tuple(arc for comp in diagram.components for arc in comp)
    return GroupPresentation(tuple(names) + arcs, tuple(definitions) + tuple(fillings)
                             + tuple(_conjugations(diagram.crossings)))


# --- Tietze rewriting on encoded words ----------------------------------------
#
# An encoded presentation is (names, gens, rels): the input's generators, the
# ones kept, and each relator's (lhs, rhs), one str per side and one character
# per letter: names[i] is chr(2 * i), its inverse chr(2 * i + 1), so letters
# cancel when their code points differ in the lowest bit only.  A word's inverse
# is s[::-1].translate(table), matching is str.find, substitution str.replace.

def _table(names):
    """The str.translate table that inverts each letter of words over names."""
    return "".join(chr(c ^ 1) for c in range(2 * len(names)))


def _encoded(presentation):
    """The presentation in encoded form, every generator kept."""
    names = presentation.generators
    code = {(g, e): chr(2 * i + (e < 0)) for i, g in enumerate(names) for e in (1, -1)}.__getitem__
    rels = [("".join(map(code, r.lhs.letters)), "".join(map(code, r.rhs.letters)))
            for r in presentation.relators]
    return names, list(names), rels


def _decoded(names, gens, rels):
    """The presentation an encoded one stands for, built unchecked."""
    letter = [(g, e) for g in names for e in (1, -1)].__getitem__
    return GroupPresentation._of(tuple(gens), tuple([
        Relator(*[Word._of(tuple(map(letter, map(ord, s)))) for s in r]) for r in rels]))


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
    result, so each is computed once per _tietze call.
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

    The rewriting (_tietze) runs on the encoded form and is incremental:
    an elimination rewrites only the relators that contain the eliminated
    generator, phase 2 reduces only relators it has not yet found fixed, and
    phase 3 matches each (target, source) pair at most once per call, and
    never a pair that shares no cyclic two-letter subword (see _shortening).
    A budget that is not a non-negative integer raises ValueError.
    """
    return _decoded(*_tietze(presentation, budget))


def _tietze(presentation, budget):
    """tietze_simplify's result in encoded form."""
    if type(budget) is not int or budget < 0:
        raise ValueError("simplify budget must be a non-negative integer, not %r" % (budget,))
    names, gens, rels = _encoded(presentation)
    table = _table(names)
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
    return names, tuple(gens), rels


def _reduce_generators(presentation):
    """Eliminate generators that occur exactly once in some relator.

    This is the classical Tietze elimination: rotate the relator so the single
    occurrence leads, solve for the generator, and substitute everywhere.  The
    presented group is unchanged; the candidate with the least total-length
    growth is eliminated first (ties by relator length, then generator name).
    It stops after 1000 eliminations, or when the best one would take the
    total relator length past 4 times the original (counted as at least 50).
    The result has bare cyclically reduced relators.  Its core, _eliminate,
    which the search compiler runs on _tietze's output, keeps each relator as
    an encoded word with the generators it holds exactly once, and rewrites
    and recounts only the relators an elimination changes.
    """
    return _decoded(*_eliminate(*_encoded(presentation)))


def _eliminate(names, gens, rels):
    """_reduce_generators from and to the encoded form."""
    table = _table(names)
    fold = "".join(chr(c & ~1) for c in range(len(table)))
    def single(w):
        return [c for c, k in Counter(w.translate(fold)).items() if k == 1]
    gens = list(gens)
    rels = [_reduce(lhs + rhs[::-1].translate(table), True) for lhs, rhs in rels]
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
    return names, tuple(gens), [(w, "") for w in rels]


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
    letters its powers expand to.  Every name is checked against known and
    every exponent is a nonzero int, so the sides are built unchecked."""
    def peek(i):
        return tokens[i][0] if i < len(tokens) else None

    sides, side, i = [], [], 0
    while True:
        if not side and peek(i) == "1":
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
            side += [(name, 1)] * exp if exp > 0 else [(name, -1)] * -exp
            if peek(i) == "*":
                i += 1
                continue
        sides.append(Word._of(tuple(side)))
        side = []
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


def serialize_presentation(presentation, dialect="native"):
    """Render a presentation in the native grammar, or for export as gap or plain.

    The gap snippet writes each relator over F.1, F.2, ..., so any generator
    name (F, E, end, ...) is safe; the names only label FreeGroup's generators.
    """
    return _serialize(_encoded(presentation), dialect)


def _serialize(encoded, dialect="native"):
    """serialize_presentation's text of an encoded presentation: a relator is
    lhs, or lhs = rhs, a side its letters joined by *, or 1 when empty."""
    names, gens, rels = encoded
    if dialect == "gap":
        index = {g: "F.%d" % i for i, g in enumerate(gens, start=1)}
        rels = [(lhs + rhs[::-1].translate(_table(names)), "") for lhs, rhs in rels]
        names = [index.get(g, g) for g in names]
    tokens = ["*" + g + inverse for g in names for inverse in ("", "^-1")]
    texts = [(lhs.translate(tokens)[1:] or "1") + (rhs and " = " + rhs.translate(tokens)[1:])
             for lhs, rhs in rels]
    if dialect == "native":
        return "gens: %s\n" % ", ".join(gens) + ("rels: %s\n" % "; ".join(texts) if texts else "")
    if dialect == "plain":
        return "< %s | %s >\n" % (", ".join(gens), "; ".join(texts))
    if dialect == "gap":
        return "\n".join([
            "F := FreeGroup( %s );;" % (", ".join('"%s"' % g for g in gens) or "0"),
            "rels := [ %s ];;" % ", ".join("One( F )" if t == "1" else t for t in texts),
            "G := F / rels;;",
            'Print( AbelianInvariants( G ), "\\n" );']) + "\n"
    raise ValueError("unknown dialect %r" % dialect)
