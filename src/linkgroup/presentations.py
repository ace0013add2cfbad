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

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .diagrams import under_walk
from .words import Word

GEN_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class PresentationSyntaxError(ValueError):
    """Unparseable presentation text, with line and column of the failure."""


@dataclass(frozen=True)
class Relator:
    """A relator, kept as the two sides of an equation lhs = rhs.

    The group-theoretic content is the word lhs * rhs^-1; relators entered as
    bare words have an empty right-hand side.
    """

    lhs: Word
    rhs: Word = Word()

    @property
    def word(self):
        return self.lhs * self.rhs.inverse()

    def generators(self):
        return self.lhs.generators() | self.rhs.generators()


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple
    relators: tuple
    provenance: str = field(default="constructed", compare=False)

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


def transition_generators(diagram):
    """Transition generator names and their defining equations, in walk order.

    At a crossing with overstrand o, the transition generator is o for sign +1
    and o^-1 for sign -1; conjugation by it carries the incoming understrand
    arc to the outgoing one.
    """
    names, definitions = [], []
    for i in range(len(diagram.components)):
        for c in under_walk(diagram, i):
            t = transition_name(c.under_in, c.under_out)
            names.append(t)
            definitions.append(Relator(Word(((t, 1),)), Word(((c.over, c.sign),))))
    return names, definitions


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
    return GroupPresentation(generators, tuple(relators), provenance="derived")


def filling_relators(diagram):
    """One relator per component: the product of its transition generators.

    Components that never pass under a crossing contribute no relator.
    """
    out = []
    for i in range(len(diagram.components)):
        walk = under_walk(diagram, i)
        if not walk:
            continue
        letters = tuple((transition_name(c.under_in, c.under_out), 1) for c in walk)
        out.append(Relator(Word(letters)))
    return out


def fundamental_group(diagram):
    """Presentation of the fundamental group of the surgered manifold.

    Generators are the transition generators then the arc generators; relators
    are the transition definitions, the per-component filling products, and the
    Wirtinger conjugations, in that order.
    """
    t_names, t_defs = transition_generators(diagram)
    w = wirtinger(diagram)
    generators = tuple(t_names) + w.generators
    relators = tuple(t_defs) + tuple(filling_relators(diagram)) + w.relators
    return GroupPresentation(generators, relators, provenance="derived")


def _definition_candidates(relators):
    """Relators of the form g = w with g a generator not occurring in w."""
    out = []
    for idx, r in enumerate(relators):
        if len(r.lhs) == 1 and r.lhs.letters[0][1] == 1:
            g = r.lhs.letters[0][0]
            if g not in r.rhs.generators():
                out.append((len(r.lhs) + len(r.rhs), g, idx))
    return out


def _substitute_relator(r, name, replacement):
    return Relator(r.lhs.substitute(name, replacement).free_reduce(),
                   r.rhs.substitute(name, replacement).free_reduce())


def _reduce_relator(r):
    if not r.rhs.letters:
        return Relator(r.lhs.cyclic_reduce())
    return Relator(r.lhs.free_reduce(), r.rhs.free_reduce())


def _cyclic_match(target, source):
    """Find the longest overlap of source (or its inverse) with cyclic target.

    Returns the target with that overlap replaced by the inverse of the source
    remainder, cyclically reduced, or None when no overlap is longer than half
    the source.  Such a replacement always shortens the target.
    """
    t = target.letters
    if len(t) < 2:
        return None
    doubled = t + t
    best = None
    for s in (source.letters, source.inverse().letters):
        m = len(s)
        top = min(m, len(t))
        for rot in range(m):
            srot = s[rot:] + s[:rot]
            for length in range(top, m // 2, -1):
                if best is not None and length <= best[0]:
                    break
                pattern = srot[:length]
                for start in range(len(t)):
                    if doubled[start:start + length] == pattern:
                        remainder = Word(srot[length:])
                        rest = Word(doubled[start + length:start + len(t)])
                        best = (length, (remainder.inverse() * rest).cyclic_reduce())
                        break
    return None if best is None else best[1]


def _shortening(rels, matches):
    """The first phase-3 rewrite: (target index, shortened word), or None.

    Sources are tried shortest first (ties by index), and for each source the
    targets in the same order, skipping targets shorter than the source.
    matches maps a (target, source) pair of cyclic letter tuples to its
    _cyclic_match result, so a pair is matched once per tietze_simplify call.
    """
    words = [r.word for r in rels]
    cyclic = [w.cyclic_reduce() for w in words]
    letters = [w.letters for w in cyclic]
    order = sorted(range(len(rels)), key=lambda i: (len(words[i]), i))
    for si in order:
        source = letters[si]
        if not source:
            continue
        for ti in order:
            if ti != si and len(letters[ti]) >= len(source):
                key = (letters[ti], source)
                if key not in matches:
                    matches[key] = _cyclic_match(cyclic[ti], cyclic[si])
                if matches[key] is not None:
                    return ti, matches[key]
    return None


def tietze_simplify(presentation, budget=10000, phases=(1, 2, 3)):
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

    The work is incremental: an elimination rewrites only the relators that
    contain the eliminated generator, and phase 3 matches each (target,
    source) relator pair at most once per call, so after a rewrite only the
    pairs involving the changed relator are matched again.
    """
    gens = list(presentation.generators)
    rels = list(presentation.relators)
    # The first elimination freely reduces every relator (parsed ones may be
    # unreduced); every later rewrite leaves them reduced, so from then on a
    # relator without the eliminated generator is kept as it is.
    all_reduced = False
    matches = {}
    for _ in range(budget):
        candidates = _definition_candidates(rels) if 1 in phases else []
        if candidates:
            _, g, idx = min(candidates)
            w = rels.pop(idx).rhs
            gens.remove(g)
            rels = [_substitute_relator(r, g, w) if not all_reduced or g in r.generators() else r
                    for r in rels]
            all_reduced = True
            continue
        if 2 in phases:
            reduced = [_reduce_relator(r) for r in rels]
            kept = [r for r in reduced if r.word.free_reduce().letters]
            if kept != rels:
                rels = kept
                continue
        shortening = _shortening(rels, matches) if 3 in phases else None
        if shortening is None:
            break
        ti, word = shortening
        rels[ti] = Relator(word)
    return GroupPresentation(tuple(gens), tuple(rels), provenance="simplified")


def _reduce_generators(presentation, length_cap=4, budget=1000):
    """Eliminate generators that occur exactly once in some relator.

    This is the classical Tietze elimination: rotate the relator so the single
    occurrence leads, solve for the generator, and substitute everywhere.  The
    presented group is unchanged; the candidate with the least total-length
    growth is eliminated first (ties by relator length, then generator name).
    Used internally to compile presentations for search; the result has bare
    cyclically reduced relators.  Each elimination rewrites only the relators
    that contain the eliminated generator; the others are already cyclically
    reduced and stay as they are.
    """
    gens = list(presentation.generators)
    rels = [r.word.cyclic_reduce() for r in presentation.relators]
    rels = [w for w in rels if w.letters]
    original = max(sum(len(w) for w in rels), 50)
    for _ in range(budget):
        counts = {g: [] for g in gens}
        for ri, w in enumerate(rels):
            per = {}
            for name, _ in w.letters:
                per[name] = per.get(name, 0) + 1
            for name, cnt in per.items():
                counts[name].append((ri, cnt))
        best = None
        for g in gens:
            total = sum(cnt for _, cnt in counts[g])
            for ri, cnt in counts[g]:
                if cnt != 1:
                    continue
                growth = (total - 1) * (len(rels[ri]) - 2) - len(rels[ri])
                key = (growth, len(rels[ri]), g, ri)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        growth, _, g, ri = best
        current = sum(len(w) for w in rels)
        if current + growth > length_cap * original:
            break
        w = rels[ri]
        pos = next(i for i, (name, _) in enumerate(w.letters) if name == g)
        exp = w.letters[pos][1]
        rest = Word(w.letters[pos + 1:] + w.letters[:pos])
        replacement = rest.inverse() if exp == 1 else rest
        touched = {i for i, _ in counts[g]}
        gens.remove(g)
        rels = [v.substitute(g, replacement).cyclic_reduce() if i in touched else v
                for i, v in enumerate(rels) if i != ri]
        rels = [v for v in rels if v.letters]
    return GroupPresentation(tuple(gens), tuple(Relator(w) for w in rels),
                             provenance="simplified")


# --- text grammar -----------------------------------------------------------

_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_]*|-?\d+|[\^*=;:,]")


def _tokenize(line, lineno):
    tokens = []
    pos = 0
    while pos < len(line):
        if line[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(line, pos)
        if not m:
            raise PresentationSyntaxError(
                "line %d, column %d: unexpected character %r" % (lineno, pos + 1, line[pos]))
        tokens.append((m.group(), lineno, pos + 1))
        pos = m.end()
    return tokens


class _WordParser:
    def __init__(self, tokens, known):
        self.tokens = tokens
        self.i = 0
        self.known = known

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def fail(self, message):
        if self.i < len(self.tokens):
            _, lineno, col = self.tokens[self.i]
            raise PresentationSyntaxError("line %d, column %d: %s" % (lineno, col, message))
        _, lineno, col = self.tokens[-1]
        raise PresentationSyntaxError("line %d, column %d: %s after this" % (lineno, col, message))

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def word(self):
        if self.peek() == "1":
            self.take()
            return Word()
        syllables = [self.term()]
        while self.peek() == "*":
            self.take()
            syllables.append(self.term())
        return Word.from_syllables(syllables)

    def term(self):
        tok = self.peek()
        if tok is None or not GEN_NAME.match(tok):
            self.fail("expected a generator name")
        name, lineno, col = self.take()
        if name not in self.known:
            raise PresentationSyntaxError(
                "line %d, column %d: unknown generator %r" % (lineno, col, name))
        exp = 1
        if self.peek() == "^":
            self.take()
            tok = self.peek()
            if tok is None or not re.fullmatch(r"-?\d+", tok):
                self.fail("expected an integer exponent")
            exp = int(self.take()[0])
            if exp == 0:
                self.fail("zero exponent")
        return (name, exp)


def parse_presentation(text):
    """Parse presentation text: a gens: line plus rels: lines of ;-separated relators."""
    gens = None
    relator_token_groups = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        tokens = _tokenize(line, lineno)
        head = tokens[0][0] if tokens else ""
        if head == "gens":
            if len(tokens) < 2 or tokens[1][0] != ":":
                raise PresentationSyntaxError("line %d: expected 'gens:'" % lineno)
            if gens is not None:
                raise PresentationSyntaxError("line %d: duplicate gens: line" % lineno)
            gens = []
            rest = tokens[2:]
            while rest:
                name, ln, col = rest[0]
                if not GEN_NAME.match(name):
                    raise PresentationSyntaxError(
                        "line %d, column %d: bad generator name %r" % (ln, col, name))
                gens.append(name)
                rest = rest[1:]
                if rest:
                    if rest[0][0] != ",":
                        raise PresentationSyntaxError(
                            "line %d, column %d: expected ',' between generator names"
                            % (rest[0][1], rest[0][2]))
                    rest = rest[1:]
                    if not rest:
                        raise PresentationSyntaxError(
                            "line %d: trailing comma in gens: line" % lineno)
        elif head == "rels":
            if len(tokens) < 2 or tokens[1][0] != ":":
                raise PresentationSyntaxError("line %d: expected 'rels:'" % lineno)
            group = []
            for tok in tokens[2:]:
                if tok[0] == ";":
                    relator_token_groups.append(group)
                    group = []
                else:
                    group.append(tok)
            relator_token_groups.append(group)
        else:
            raise PresentationSyntaxError(
                "line %d: expected a 'gens:' or 'rels:' line" % lineno)
    if gens is None:
        raise PresentationSyntaxError("missing gens: line")

    known = set(gens)
    relators = []
    for group in relator_token_groups:
        if not group:
            continue
        parser = _WordParser(group, known)
        lhs = parser.word()
        rhs = Word()
        if parser.peek() == "=":
            parser.take()
            rhs = parser.word()
        if parser.peek() is not None:
            parser.fail("unexpected token")
        relators.append(Relator(lhs, rhs))
    return GroupPresentation(tuple(gens), tuple(relators), provenance="parsed")


def _word_text(word, sep="*"):
    if not word.letters:
        return "1"
    return sep.join(name if exp == 1 else "%s^-1" % name for name, exp in word.letters)


def _relator_text(r):
    if r.rhs.letters:
        return "%s = %s" % (_word_text(r.lhs), _word_text(r.rhs))
    return _word_text(r.lhs)


def serialize_presentation(presentation, dialect="native"):
    """Render a presentation in the native grammar, or for export as gap or plain."""
    if dialect == "native":
        lines = ["gens: " + ", ".join(presentation.generators)]
        if presentation.relators:
            lines.append("rels: " + "; ".join(_relator_text(r) for r in presentation.relators))
        return "\n".join(lines) + "\n"
    if dialect == "plain":
        inner = "; ".join(_relator_text(r) for r in presentation.relators)
        return "< %s | %s >\n" % (", ".join(presentation.generators), inner)
    if dialect == "gap":
        names = ", ".join('"%s"' % g for g in presentation.generators)
        lines = ["F := FreeGroup( %s );;" % names if presentation.generators
                 else "F := FreeGroup( 0 );;"]
        if presentation.generators:
            lines.append("AssignGeneratorVariables( F );;")
        rel_words = []
        for r in presentation.relators:
            w = r.word
            rel_words.append(_word_text(w) if w.letters else "One( F )")
        lines.append("rels := [ %s ];;" % ", ".join(rel_words))
        lines.append("G := F / rels;;")
        lines.append('Print( AbelianInvariants( G ), "\\n" );')
        return "\n".join(lines) + "\n"
    raise ValueError("unknown dialect %r" % dialect)
