"""Counting homomorphisms to finite groups and low-index subgroups, and the
invariant profiles built from them.

One search engine serves both: a presentation is compiled once into a search
program, which runs into each catalog group for the hom counts and into S_k
for the low-index counts, an index-k subgroup being the point stabiliser of a
transitive action on k points.  Each search runs in the deepest term of the
target's derived series that the presented group's first homology forces
every homomorphism into, so a perfect group searches the trivial group in
place of each solvable target.  The program's search is generated as
Python source, one nested loop per enumeration segment and one expression per
relator word, and compiled once per program, so no interpreter loop runs per
letter.  A word is evaluated right to left through the table rows of the
slots it reads, one subscript per letter, and a loop charges its whole
candidate list to the node budget when it opens.  The program keeps each
search's tally, so a permutation group met twice (the catalog's A5 and S5's
derived subgroup) is searched once.
Every search is exact, serial and deterministic, and one that would exceed
its node budget reports an explicit flag instead of a count.
"""

import itertools
import json
import math

try:
    # hashlib loads OpenSSL's libcrypto, about 3.6 MB of RSS for one digest per
    # profile; CPython's own module computes the same SHA-256
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from ._record import Record
from .homology import first_homology
from .permgroups import MAX_ORDER, _orbit_tree, load_catalog, symmetric_group
from .presentations import _reduce_generators, serialize_presentation, tietze_simplify


class BudgetExceeded(Exception):
    pass


class HomCount(Record):
    __slots__ = ("total", "surjective", "budget_exceeded")

    def __init__(self, total, surjective, budget_exceeded=False):
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "surjective", surjective)
        object.__setattr__(self, "budget_exceeded", budget_exceeded)
        self.__post_init__()

    def __post_init__(self):
        if not self.budget_exceeded and not 0 <= self.surjective <= self.total:
            raise ValueError("surjective count out of range")

    def value(self):
        return {"total": self.total, "surjective": self.surjective}


class SubgroupCount(Record):
    __slots__ = ("classes", "total", "budget_exceeded")

    def __init__(self, classes, total, budget_exceeded=False):
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "budget_exceeded", budget_exceeded)
        self.__post_init__()

    def __post_init__(self):
        if not self.budget_exceeded and not 0 <= self.classes <= self.total:
            raise ValueError("class count out of range")

    def value(self):
        return {"classes": self.classes, "total": self.total}


def json_text(doc):
    """JSON text with sorted keys, two-space indents and a final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# --- homomorphism counting ---------------------------------------------------

def _relator_sequences(presentation):
    """Each relator lhs * rhs^-1 as (generator index, exponent) letters, freely
    reduced; a relator that reduces to the empty word is left out."""
    code = {}
    for i, g in enumerate(presentation.generators):
        code[g, 1], code[g, -1] = (i, 1), (i, -1)
    seqs = []
    for r in presentation.relators:
        lhs = map(code.__getitem__, r.lhs.letters)
        rhs = [(i, -e) for i, e in map(code.__getitem__, reversed(r.rhs.letters))]
        seq = []
        for i, e in itertools.chain(lhs, rhs):
            if seq and seq[-1][0] == i and seq[-1][1] == -e:
                seq.pop()
            else:
                seq.append((i, e))
        if seq:
            seqs.append(tuple(seq))
    return seqs


def _closure_schedule(seqs, seeds):
    """The program (head, segments) for a seed order and the generators it covers.

    Each (kind, gen, data, post) segment opens with an assign (loop over the
    whole group) or a branch (loop over the solutions of a conjugation
    equation) and carries the ops that follow it.  A relator with every
    generator assigned becomes a check; a relator in which exactly one
    occurrence of exactly one unassigned generator remains forces that
    generator's image and needs no separate check.  A relator whose only
    unassigned generator occurs exactly twice with opposite exponents is a
    conjugation equation in that generator; its solutions come from a
    precomputed table, which is far cheaper than a full assignment loop.
    """
    known = set()
    handled = [False] * len(seqs)
    head = []
    segments = []

    def saturate(ops):
        progress = True
        while progress:
            progress = False
            for ri, seq in enumerate(seqs):
                if handled[ri]:
                    continue
                unknown = [(pos, g, e) for pos, (g, e) in enumerate(seq) if g not in known]
                if not unknown:
                    ops.append(("check", seq))
                    handled[ri] = True
                    progress = True
                elif len(unknown) == 1:
                    pos, g, e = unknown[0]
                    ops.append(("deduce", g, seq[:pos], seq[pos + 1:], e))
                    known.add(g)
                    handled[ri] = True
                    progress = True

    def conjugation():
        for ri, seq in enumerate(seqs):
            if handled[ri]:
                continue
            unknown = [(pos, g, e) for pos, (g, e) in enumerate(seq) if g not in known]
            if len(unknown) != 2:
                continue
            (p1, g1, e1), (p2, g2, e2) = unknown
            if g1 == g2 and e1 == -e2:
                handled[ri] = True
                return g1, (seq[:p1], seq[p1 + 1:p2], seq[p2 + 1:], e1)
        return None

    def close(ops):
        saturate(ops)
        while (found := conjugation()) is not None:
            g, data = found
            known.add(g)
            segments.append(("branch", g, data, []))
            saturate(segments[-1][3])

    close(head)
    for s in seeds:
        if s not in known:
            known.add(s)
            segments.append(("assign", s, None, []))
            close(segments[-1][3])
    program = (tuple(head),
               tuple((kind, g, data, tuple(post)) for kind, g, data, post in segments))
    return program, known


def compile_hom_search(presentation):
    """The deterministic search program: leading ops plus enumeration segments.

    Seeds are tried in order of decreasing relator occurrence count (index
    order on ties).  The first seed set of size up to 4 from which every
    generator image can be deduced gives the program; failing that, seeds are
    added greedily, each time the one that covers the most generators.  The
    program is a pure function of the presentation.

    A generator becomes known without being a seed only by a deduce (it
    occurs exactly once in a relator) or a branch (exactly twice, with
    opposite exponents).  One that can do neither is forced: it is in every
    covering seed set, so a set that lacks one is skipped unscheduled.
    """
    seqs = _relator_sequences(presentation)
    n_gens = len(presentation.generators)
    occurrences = [0] * n_gens
    deducible = set()
    for seq in seqs:
        exponents = {}
        for g, e in seq:
            occurrences[g] += 1
            exponents.setdefault(g, []).append(e)
        deducible.update(g for g, es in exponents.items()
                         if len(es) == 1 or (len(es) == 2 and es[0] == -es[1]))
    candidates = sorted(range(n_gens), key=lambda g: (-occurrences[g], g))
    forced = set(range(n_gens)) - deducible
    for k in range(len(forced), min(n_gens, 4) + 1):
        for seeds in itertools.combinations(candidates, k):
            if forced.issubset(seeds):
                program, known = _closure_schedule(seqs, seeds)
                if len(known) == n_gens:
                    return program + (n_gens,)
    seeds = ()
    while True:
        (program, known), seeds = max(
            ((_closure_schedule(seqs, seeds + (g,)), seeds + (g,))
             for g in candidates if g not in seeds),
            key=lambda found: len(found[0][1]))
        if len(known) == n_gens:
            return program + (n_gens,)


def _subgroup_order(images, mul, e, order):
    """The order of the subgroup that the elements images generate.

    The closure stops once it holds more than half the group: a subgroup
    that large is the whole group, since its order divides the group's.
    It runs once per tallied image tuple, so it keeps a loop of its own:
    _orbit_tree's callback per product made a corpus profile 9% slower.
    """
    seen = {e}
    frontier = [e]
    while frontier:
        nxt = []
        for x in frontier:
            row = mul[x]
            for g in images:
                y = row[g]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
            if 2 * len(seen) > order:
                return order
        frontier = nxt
    return len(seen)


def _lower(program):
    """The search program in slot form: the form _emit writes as Python.

    Every value lives in a numbered slot, a local of the generated search.
    For n generators, slot 2g holds generator g's image and slot 2g + 1 its
    inverse, both written when g is assigned or deduced, so a letter is one
    slot read.  The head is not lowered: its ops run before any generator is
    assigned, so each deduce gives the identity and each check holds, and
    the letters of the generators it deduces are dropped.  The slots from 2n
    on hold constant runs: maximal runs of two or more letters left in a
    segment's ops whose generators were all known before the segment
    opened, so that a run's value is fixed for the segment's whole candidate
    loop.  So every slot a word names is one the search writes.

    A word is the tuple of slots it multiplies, () for the identity.  An op
    is (runs needed, target, word).  A check has target -1 and passes when
    its word is the identity.  A deduce of g from the relator pre g^eps suf
    evaluates suf + pre, the inverse of g^eps, into its target slot and the
    inverse into the paired one.  Deduces keep their order, each check moves
    up to just after the last deduce it reads, and checks at the same point
    run shortest first; a segment's runs are numbered in the order its ops
    first read them.

    Returns (segments, n).  A segment is (kind, image slot, branch, ops,
    runs): branch is (mid, suf + pre, eps), with words, for a branch and
    None for an assign, and each run is (slot, word).
    """
    head, segments, n_gens = program
    trivial = {op[1] for op in head if op[0] == "deduce"}
    slot_count = 2 * n_gens

    def letters(seq):
        return tuple(2 * g + (s < 0) for g, s in seq if g not in trivial)

    def lower_ops(ops, fixed):
        nonlocal slot_count

        # a word split into slots and runs, a run being the word it stands for
        def split(seq):
            items = []
            for constant, run in itertools.groupby(seq, lambda letter: letter[0] in fixed):
                run = letters(run)
                if constant and len(run) > 1:
                    items.append(run)
                else:
                    items.extend(run)
            return items

        # sort keys: (i, 0) for the i-th deduce, (i, length) for a check whose
        # last deduced generator is the i-th deduce's, -1 when it reads none
        placed = []
        deduced_at = {}
        for op in ops:
            if op[0] == "deduce":
                _, g, pre, suf, eps = op
                deduced_at[g] = len(deduced_at)
                placed.append(((deduced_at[g], 0), 2 * g + (eps > 0), split(suf + pre)))
            else:
                items = split(op[1])
                after = max((deduced_at.get(g, -1) for g, _ in op[1]), default=-1)
                placed.append(((after, len(items)), -1, items))
        placed.sort(key=lambda entry: entry[0])

        run_slots = {}
        runs = []
        lowered = []
        for _, target, items in placed:
            slots = []
            for item in items:
                if type(item) is tuple:
                    if item not in run_slots:
                        run_slots[item] = slot_count
                        runs.append((slot_count, item))
                        slot_count += 1
                    item = run_slots[item]
                slots.append(item)
            lowered.append((len(runs), target, tuple(slots)))
        return tuple(lowered), tuple(runs)

    known = set(trivial)
    out = []
    for kind, g, data, post in segments:
        branch = None
        if kind == "branch":
            pre, mid, suf, eps = data
            branch = (letters(mid), letters(suf + pre), eps)
        ops, runs = lower_ops(post, frozenset(known))
        out.append((kind, 2 * g, branch, ops, runs))
        known.add(g)
        known.update(op[1] for op in post if op[0] == "deduce")
    return tuple(out), n_gens


# CPython nests at most 20 blocks in one function and 200 brackets in one
# expression, so a generated function holds at most this many segment loops
# and a generated product statement at most this many letters
_LOOPS_PER_FUNCTION = 16
_LETTERS_PER_STATEMENT = 32


def _emit(program):
    """Python source of the search functions of a program in slot form.

    The source defines part0, part1, ..., each taking (mul, inv, e, order,
    solutions, orbits, budget, found, nodes, weight) and then the slots and
    rows it reads from earlier parts, and each returning the node count;
    _search calls part0.  Each segment is one for loop nested in the one
    before, so a parent node is one pass of the enclosing loop's body, and
    past every _LOOPS_PER_FUNCTION segments the next loop opens the next
    part, which each part reaches as its last default argument.  A part
    with a branch segment reads conjugacy_solutions once, as solutions().
    A loop takes its candidates as one list c, or as range(order), and
    charges them all to nodes before it tries the first, with one budget
    test per loop.

    Slot N is the local sN, and the leaf image of a generator the head
    deduces, whose slot nothing writes, is e.  A slot that a word reads
    before its last letter also has its row, the local mN = mul[sN], fetched
    once where sN is written.  A word is then evaluated right to left, one
    subscript per letter: s7 s0 s8 is m7[m0[s8]], by associativity, and the
    empty word is e.  It is split into statements
    x = ... of at most _LETTERS_PER_STATEMENT letters, and a write that no
    word or image tuple reads is left out.  A segment's constant runs are
    evaluated under `if rD < k:`, k the op's runs needed, so once per parent
    and only when the first candidate reaches an op that reads them.  The
    source holds slot and segment numbers and fixed names only, never a
    generator name.
    """
    segments, n_gens = program
    images = range(0, 2 * n_gens, 2)
    # C(r)-orbits at depth d < 2 when the search opens with assigns (see _search)
    orbit_depths = [d for d in range(min(2, len(segments)))
                    if segments[0][0] == segments[d][0] == "assign"]
    parts = [range(start, min(start + _LOOPS_PER_FUNCTION, len(segments)))
             for start in range(0, len(segments), _LOOPS_PER_FUNCTION)] or [range(0)]
    # the slots each part writes, and the locals it reads: (N, "s") for slot
    # N's value, (N, "m") for its row
    writes = [set() for _ in parts]
    reads = [set() for _ in parts]
    reads[-1].update((s, "s") for s in images)
    for k, part in enumerate(parts):
        for d in part:
            _, slot, branch, ops, runs = segments[d]
            writes[k].update((slot, slot + 1), (run for run, _ in runs),
                             (t ^ pair for _, t, _ in ops if t >= 0 for pair in (0, 1)))
            # a word is the last field of a run or an op
            for slots in (branch[:2] if branch else ()) + tuple(item[-1] for item in runs + ops):
                reads[k].update((s, "m") for s in slots[:-1])
                reads[k].update((s, "s") for s in slots[-1:])
    written = set().union(*writes)
    read = set().union(*reads)
    # part k takes the locals that it or a later part reads and an earlier one writes
    takes = [sorted({(s, kind) for w in writes[:k] for s in w for kind in "ms"}
                    & set().union(*reads[k:]))
             for k in range(len(parts))]
    lines = []

    def put(depth, line):
        lines.append("    " * depth + line)

    def word(slots, depth):
        if not slots:
            return "e"
        expr = "s%d" % slots[-1]
        for i, s in enumerate(reversed(slots[:-1]), 1):
            if i % _LETTERS_PER_STATEMENT == 0:
                put(depth, "x = " + expr)
                expr = "x"
            expr = "m%d[%s]" % (s, expr)
        return expr

    def keep(depth, slot, expr, again):
        # slot takes expr's value, as sN and as its row mN where they are
        # read, and as sN also when the caller reads it again; returns the
        # value's expression
        row = (slot, "m") in read
        if expr != "s%d" % slot and ((slot, "s") in read or row and again):
            put(depth, "s%d = %s" % (slot, expr))
            expr = "s%d" % slot
        if row:
            put(depth, "m%d = mul[%s]" % (slot, expr))
        return expr

    def store(depth, slot, expr):
        # slot takes expr's value and its paired slot the inverse; no helper
        # calls itself, so _emit leaves no reference cycle behind
        inverse = (slot ^ 1, "s") in read or (slot ^ 1, "m") in read
        expr = keep(depth, slot, expr, inverse)
        if inverse:
            keep(depth, slot ^ 1, "inv[%s]" % expr, False)

    def local_list(names):
        return "".join(", %s%d" % (kind, s) for s, kind in names)

    common = "mul, inv, e, order, solutions, orbits, budget, found, nodes"
    for k in reversed(range(len(parts))):
        later = ", part%d=part%d" % (k + 1, k + 1) if k + 1 < len(parts) else ""
        put(0, "def part%d(%s, weight%s%s):" % (k, common, local_list(takes[k]), later))
        if any(segments[d][0] == "branch" for d in parts[k]):
            put(1, "solve = solutions()")
        depth = 1
        for d in parts[k]:
            kind, slot, branch, ops, runs = segments[d]
            if runs:
                put(depth, "r%d = 0" % d)
            if kind == "branch":
                mid, sufpre, eps = branch
                put(depth, "q = " + word(mid, depth))
                t = "inv[%s]" % word(sufpre, depth)
                pair = ("q", t) if eps == 1 else (t, "q")
                put(depth, "c = solve(%s, %s)" % pair)
                loop, count = "s%d in c" % slot, "len(c)"
            elif d in orbit_depths:
                # C(r) fixes the root r and every image deduced from it; at
                # the root the C(e) orbits are the conjugacy classes
                put(depth, "c = orbits(%s)" % ("s%d" % segments[0][1] if d else "e"))
                loop, count = "s%d, w%d in c" % (slot, d), "len(c)"
            else:
                loop, count = "s%d in range(order)" % slot, "order"
            put(depth, "nodes += " + count)
            put(depth, "if nodes > budget: raise BudgetExceeded")
            put(depth, "for %s:" % loop)
            depth += 1
            store(depth, slot, "s%d" % slot)
            ready = 0
            for need, target, slots in ops:
                if ready < need:
                    put(depth, "if r%d < %d:" % (d, need))
                    for run, run_word in runs[ready:need]:
                        keep(depth + 1, run, word(run_word, depth + 1), False)
                    put(depth + 1, "r%d = %d" % (d, need))
                    ready = need
                expr = word(slots, depth)
                if target < 0:
                    put(depth, "if %s != e: continue" % expr)
                else:
                    store(depth, target, expr)
        # orbit sizes weigh the leaves below them; part0 is called with weight 1
        weight = " * ".join("w%d" % d for d in orbit_depths) if k == 0 and orbit_depths \
            else "weight"
        if k + 1 < len(parts):
            put(depth, "nodes = part%d(%s, %s%s)"
                % (k + 1, common, weight, local_list(takes[k + 1])))
        else:
            leaf = ["s%d" % s if s in written else "e" for s in images]
            put(depth, "found[(%s%s)] = %s" % (", ".join(leaf), "," * (len(leaf) == 1), weight))
        put(1, "return nodes")
    return "\n".join(lines) + "\n"


def _compile_search(program):
    """The part0 function of a program in slot form (see _emit), compiled.

    It is built for each program anew and kept by the program alone.  It is
    taken out of the namespace its definition ran in, whose globals hold
    BudgetExceeded only, so no reference cycle keeps the code alive.  The
    source text goes to exec as it is: the builtin compile() sets up the ast
    node types on its first call in a process, about 1 ms that exec skips.
    """
    functions = {}
    exec(_emit(program), {"BudgetExceeded": BudgetExceeded}, functions)
    return functions["part0"]


def search_program(presentation):
    """(search, tallies, homology): the presented group's search program.

    count_homs, low_index_subgroups and low_index_single run it, so a caller
    compiles once and passes the program to every search on the presentation.
    search is the compiled search (_lower, then _emit and compile once per
    call, never cached) of the presentation with the generators eliminated
    that occur once in some relator, which presents the same group; it
    assigns images to a seed set of those generators and deduces the rest.
    tallies, empty at first, holds the searches run so far (see _tally).
    homology is the group's first homology, the invariant factors read from
    that reduced presentation, which decides the derived-series term each
    search runs in.
    """
    reduced = _reduce_generators(presentation)
    return (_compile_search(_lower(compile_hom_search(reduced))), {},
            tuple(first_homology(reduced)))


def _search(search, group, node_budget):
    """Run a compiled search into group; return {images: weight}.

    search comes from _compile_search.  images holds the reduced
    presentation's generator images under one homomorphism found, and
    weight counts the homomorphisms it stands for, so a reader may use only
    what conjugation in group leaves unchanged.  When the search opens with
    an assign, its generator takes one representative r per conjugacy
    class, weighted by the class size.  When the second segment is an
    assign as well, its generator takes one representative v per orbit of
    the centraliser C(r) acting by conjugation, weighted by the orbit size:
    conjugating by c in C(r) fixes r and everything deduced from it and
    sends v to c * v * c^-1.  Every other candidate weighs 1.  Every
    candidate at any depth, roots and orbit representatives included, is
    one node.  A loop charges all its candidates to the node count when it
    opens, and the search raises BudgetExceeded before a loop that takes
    the count past node_budget tries its first candidate.  The count only
    grows, so the search raises exactly when its total node count is above
    node_budget, the same total as one node charged per candidate tried.
    Each image tuple is found in the order of the loops that _emit writes,
    so the tally's order is that of the segments' candidates.
    """
    mul, inv, e = group.tables()
    found = {}
    search(mul, inv, e, group.order, group.conjugacy_solutions, group.centraliser_orbits,
           node_budget, found, 0, 1)
    return found


def _tally(program, group, node_budget):
    """(searched group, {images: weight}) for the homomorphisms into group,
    or None past node_budget.

    The search runs in the deepest term D_j of group's derived series
    D_0 = group > D_1 > ... that H1 forces every homomorphism into: one into
    D_j, followed by D_j -> D_j / D_{j+1}, maps into an abelian group, so it
    factors through H1, which has no nontrivial map into an abelian group
    of order prime to |H1| when H1 is finite.  The walk down, term by term
    through derived_subgroup, stops at the first quotient whose order
    shares a factor with |H1|, at once when H1 is infinite, and at the
    perfect term, whose derived_subgroup is itself; a term below is built
    only when the walk reaches its parent.  The searched group has group's
    order exactly when D_j is group.  Each element set is searched once per
    program and budget, into the first group asked for it, whose numbering
    the images use; every numbering of one set visits as many nodes, so
    flags agree.
    """
    h1_order = math.prod(program[2])    # 0 when H1 is infinite
    while (h1_order and (lower := group.derived_subgroup) is not group
           and math.gcd(h1_order, group.order // lower.order) == 1):
        group = lower
    key = (group._element_set, node_budget)
    if key not in program[1]:
        try:
            program[1][key] = group, _search(program[0], group, node_budget)
        except BudgetExceeded:
            program[1][key] = None
    return program[1][key]


def count_homs(program, group, node_budget=10 ** 8):
    """Count all and surjective homomorphisms from the group whose
    search_program is program.

    Whether a homomorphism is onto is unchanged by conjugation in the
    target, so the count reads group's tally (see _tally): the total is its
    summed weight and the surjective count that of the image tuples
    generating the whole group, 0 when the tally is of a term that _tally
    reached through derived_subgroup below group, which holds every image.
    node_budget bounds the whole search: the count is flagged exactly when
    the search's total node count is above it, and each loop's candidates
    are charged before the loop runs (see _search).
    """
    found = _tally(program, group, node_budget)
    if found is None:
        return HomCount(0, 0, True)
    searched, found = found
    total = sum(found.values())
    order = group.order
    if searched.order < order:
        return HomCount(total, 0)
    mul, _, e = searched.tables()
    return HomCount(total, sum(weight for images, weight in found.items()
                               if _subgroup_order(images, mul, e, order) == order))


# --- low-index subgroups ------------------------------------------------------

# the largest k whose S_k, of order k!, is within MAX_ORDER
MAX_INDEX = next(k for k in itertools.count(1) if math.factorial(k + 1) > MAX_ORDER)


def _transitive_centraliser(images, perms):
    """|C_{S_k}(<images>)| when the elements images act transitively, else 0.

    A permutation c commuting with a transitive group is fixed by c(0): it
    sends 0.w to c(0).w for every word w.  So the centraliser order is the
    number of points b for which that rule, applied along a spanning tree of
    the orbit of 0, gives a map commuting with every generator.
    """
    gens = [perms[g] for g in images]
    k = len(perms[0])
    points, parent, via = _orbit_tree(0, gens, lambda x, g: g[x])
    if len(points) < k:
        return 0
    size = 0
    c = [0] * k
    for b in range(k):
        c[0] = b
        for j in range(1, k):
            c[points[j]] = gens[via[j]][c[points[parent[j]]]]
        size += all(c[g[x]] == g[c[x]] for g in gens for x in range(k))
    return size


def low_index_single(program, k, node_budget=10 ** 8):
    """Subgroups of index k, counted as transitive actions on k points; equal
    to low_index_subgroups(...)[k].

    Each subgroup of index k is the stabiliser of point 0 in exactly (k-1)!
    transitive homomorphisms to S_k, and each conjugacy class of subgroups is
    one S_k-orbit of them, of size k! / |C(image)|.  _transitive_centraliser
    is unchanged by conjugation in S_k, so class roots and C(r)-orbit
    representatives stand for their orbits: the transitive count is the
    weight of the image tuples with a nonzero centraliser and the
    centraliser sum is the sum of centraliser times weight.  The tally may
    be that of A_k, V_4 or the trivial group below S_k (see _tally): it
    stands for the same homomorphisms, whose centralisers in S_k do not
    depend on which conjugate was found.
    """
    if not 2 <= k <= MAX_INDEX:
        raise ValueError("subgroup index %d is outside 2..%d" % (k, MAX_INDEX))
    found = _tally(program, symmetric_group(k), node_budget)
    if found is None:
        return SubgroupCount(0, 0, True)
    group, found = found
    perms = group.elements()
    sizes = [(_transitive_centraliser(images, perms), weight)
             for images, weight in found.items()]
    transitive = sum(weight for size, weight in sizes if size)
    centralised = sum(size * weight for size, weight in sizes)
    total, rest = divmod(transitive, math.factorial(k - 1))
    classes, rest_classes = divmod(centralised, math.factorial(k))
    if rest or rest_classes:
        raise RuntimeError("index %d: %d transitive actions and centraliser sum "
                           "%d do not divide into subgroup counts"
                           % (k, transitive, centralised))
    return SubgroupCount(classes, total)


def low_index_subgroups(program, max_index, node_budget=10 ** 8):
    """Subgroup counts by exact index, from 2 up to max_index inclusive.

    Each index k has its own node budget and budget flag, and reads the
    program's tally of S_k, or of the term of its derived series that the
    group's first homology forces (see _tally).  max_index may be at most
    MAX_INDEX.
    """
    if max_index > MAX_INDEX:
        raise ValueError("max_index %d is above %d" % (max_index, MAX_INDEX))
    return {k: low_index_single(program, k, node_budget) for k in range(2, max_index + 1)}


# --- profiles and verdicts ----------------------------------------------------

class ProfileConfig(Record):
    __slots__ = ("max_index", "node_budget", "simplify_budget")

    def __init__(self, max_index=6, node_budget=10 ** 8, simplify_budget=10 ** 4):
        object.__setattr__(self, "max_index", max_index)
        object.__setattr__(self, "node_budget", node_budget)
        object.__setattr__(self, "simplify_budget", simplify_budget)
        self.__post_init__()

    def __post_init__(self):
        for name, value in self._asdict().items():
            if type(value) is not int or value < 0:
                raise ValueError("config %s must be a non-negative integer, not %r"
                                 % (name, value))
        if self.max_index > MAX_INDEX:
            raise ValueError("max_index %d is above %d" % (self.max_index, MAX_INDEX))


def _count_entry(count):
    entry = count.value()
    if count.budget_exceeded:
        entry["budget_exceeded"] = True
    return entry


# The count families in profile order, one row each: field and JSON section,
# recheck kind, key name, the keys a config and catalog give with the phrase
# naming them, and the count of one key from a search program.  Hom counts come
# first, as a tally takes the numbering of the first group to ask (see _tally).
# The counts look their functions up at call time, so module wrappers see each.
_FAMILIES = (
    ("hom_counts", "hom_count", "group",
     lambda config, catalog: (catalog.names, "in the catalog"),
     lambda program, name, config, catalog: count_homs(
         program, catalog.by_name(name), config.node_budget)),
    ("low_index", "low_index", "index",
     lambda config, catalog: (range(2, config.max_index + 1),
                              "an integer in 2..%d" % config.max_index),
     lambda program, k, config, catalog: low_index_single(program, k, config.node_budget)),
)


class InvariantProfile(Record):
    __slots__ = ("homology", "hom_counts", "low_index", "catalog_version", "catalog_names",
                 "config", "presentation_hash", "generator_count", "relator_count")

    def __init__(self, homology, hom_counts, low_index, catalog_version, catalog_names,
                 config, presentation_hash, generator_count, relator_count):
        object.__setattr__(self, "homology", homology)
        # ((group name, HomCount), ...) in catalog order
        object.__setattr__(self, "hom_counts", hom_counts)
        # ((index, SubgroupCount), ...) ascending
        object.__setattr__(self, "low_index", low_index)
        object.__setattr__(self, "catalog_version", catalog_version)
        object.__setattr__(self, "catalog_names", catalog_names)
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "presentation_hash", presentation_hash)
        object.__setattr__(self, "generator_count", generator_count)
        object.__setattr__(self, "relator_count", relator_count)

    def config_dict(self):
        return {
            "catalog": list(self.catalog_names),
            "catalog_version": self.catalog_version,
            **self.config._asdict(),
        }

    def to_dict(self):
        return {
            "schema_version": 1,
            "config": self.config_dict(),
            "homology": list(self.homology),
            **{field: {str(key): _count_entry(count) for key, count in getattr(self, field)}
               for field, *_ in _FAMILIES},
            "presentation": {
                "hash": self.presentation_hash,
                "generators": self.generator_count,
                "relators": self.relator_count,
            },
        }

    def to_json(self):
        return json_text(self.to_dict())

    def entries(self):
        """(recheck, count) for each count entry, family by family (see _FAMILIES)."""
        for field, kind, key_name, _, _ in _FAMILIES:
            for key, count in getattr(self, field):
                yield {"kind": kind, key_name: key}, count

    @property
    def any_budget_exceeded(self):
        return any(count.budget_exceeded for _, count in self.entries())


def presentation_hash(presentation):
    """The SHA-256 hex digest of the presentation's native serialization."""
    return sha256(serialize_presentation(presentation).encode()).hexdigest()


def profile(presentation, config=None, catalog=None, workers=1):
    """Simplify, then compute homology, hom counts, and low-index counts.

    ``workers`` is accepted for existing callers and ignored: the searches run
    serially.
    """
    config = config or ProfileConfig()
    catalog = catalog or load_catalog()
    simplified = tietze_simplify(presentation, budget=config.simplify_budget)
    program = search_program(simplified)
    counts = {field: tuple((key, count(program, key, config, catalog))
                           for key in keys(config, catalog)[0])
              for field, _, _, keys, count in _FAMILIES}
    return InvariantProfile(
        homology=program[2],
        **counts,
        catalog_version=catalog.version,
        catalog_names=tuple(catalog.names),
        config=config,
        presentation_hash=presentation_hash(simplified),
        generator_count=len(simplified.generators),
        relator_count=len(simplified.relators),
    )


class Witness(Record):
    __slots__ = ("invariant", "left", "right", "recheck")

    def __init__(self, invariant, left, right, recheck):
        object.__setattr__(self, "invariant", invariant)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "recheck", recheck)

    def to_dict(self):
        # a copy, so editing the document leaves the witness as it was; its
        # fields hold JSON values, so a round trip through json copies them
        return json.loads(json.dumps(self._asdict()))


class Verdict(Record):
    __slots__ = ("outcome", "witness", "left_profile", "right_profile")

    def __init__(self, outcome, witness, left_profile, right_profile):
        object.__setattr__(self, "outcome", outcome)   # "Distinguished" or "Inconclusive"
        object.__setattr__(self, "witness", witness)   # Witness or None
        object.__setattr__(self, "left_profile", left_profile)
        object.__setattr__(self, "right_profile", right_profile)

    def to_dict(self):
        return {
            "schema_version": 1,
            "outcome": self.outcome,
            "config": self.left_profile.config_dict(),
            "left": self.left_profile.to_dict(),
            "right": self.right_profile.to_dict(),
            "witness": None if self.witness is None else self.witness.to_dict(),
        }

    def to_json(self):
        return json_text(self.to_dict())


def _label(kind, key=None):
    """The witness label of an entry: homology, or kind:key for a count."""
    return kind if key is None else "%s:%s" % (kind, key)


def compare_profiles(left, right):
    """First differing comparable entry, or None; budget-flagged entries are skipped."""
    if left.homology != right.homology:
        return Witness(_label("homology"), list(left.homology), list(right.homology),
                       {"kind": "homology"})
    right_counts = {tuple(recheck.values()): rc for recheck, rc in right.entries()}
    for recheck, lc in left.entries():
        rc = right_counts.get(tuple(recheck.values()))
        if rc is None or lc.budget_exceeded or rc.budget_exceeded:
            continue
        if lc.value() != rc.value():
            return Witness(_label(*recheck.values()), lc.value(), rc.value(), recheck)
    return None


def distinguish(left, right, config=None, catalog=None, workers=1):
    """Compare invariant profiles; Distinguished verdicts carry a replayable witness.

    ``workers`` is accepted for existing callers and ignored.
    """
    lp = profile(left, config, catalog)
    rp = profile(right, config, catalog)
    witness = compare_profiles(lp, rp)
    if witness is not None:
        return Verdict("Distinguished", witness, lp, rp)
    return Verdict("Inconclusive", None, lp, rp)


def _recheck(recheck, config, catalog):
    """(label, recompute): the witness label of the entry a recheck names,
    homology or kind:key, and the map from a presentation to its value.
    Homology, a group invariant, is read from the presentation as given; a
    count flagged past the node budget raises BudgetExceeded, having no
    value.  A recheck that is not an object, or names an unknown kind or a
    key its family does not take (see _FAMILIES), raises ValueError.
    """
    if not isinstance(recheck, dict):
        raise ValueError("witness recheck must be an object")
    kind = recheck.get("kind")
    if kind == "homology":
        return _label(kind), first_homology
    for _, family_kind, key_name, keys, count in _FAMILIES:
        if kind == family_kind:
            key = recheck.get(key_name)
            valid, phrase = keys(config, catalog)
            # the type first: 2.0 is in range(2, 7), and a bool is an int
            if type(key) not in (str, int) or key not in valid:
                raise ValueError("recheck %s %r is not %s" % (key_name, key, phrase))

            def recompute(presentation):
                simplified = tietze_simplify(presentation, budget=config.simplify_budget)
                found = count(search_program(simplified), key, config, catalog)
                if found.budget_exceeded:
                    raise BudgetExceeded
                return found.value()
            return _label(kind, key), recompute
    raise ValueError("unknown recheck kind %r" % (kind,))


def verify_witness(verdict_doc, left, right, catalog=None, workers=1):
    """Replay a stored verdict's witness against the two presentations.

    Returns (ok, message).  The recorded config is honored; the witness entry is
    recomputed on both sides, must equal the recorded values as JSON and still
    differ.  A document of the wrong shape, or a witness whose invariant is
    not the label of its recheck, raises ValueError.  ``workers`` is accepted
    for existing callers and ignored.
    """
    catalog = catalog or load_catalog()
    if not isinstance(verdict_doc, dict):
        raise ValueError("verdict must be a JSON object")
    cfg = verdict_doc.get("config", {})
    if not isinstance(cfg, dict):
        raise ValueError("verdict config must be an object")
    config = ProfileConfig(**{name: cfg[name] for name in ProfileConfig.__slots__
                              if name in cfg})
    witness = verdict_doc.get("witness")
    if verdict_doc.get("outcome") != "Distinguished" or not witness:
        return False, "verdict has no witness to verify"
    if not isinstance(witness, dict):
        raise ValueError("verdict witness must be an object")
    version = json_text(cfg.get("catalog_version", catalog.version))
    if cfg.get("catalog", catalog.names) != catalog.names or version != json_text(catalog.version):
        return False, "catalog does not match the one recorded in the verdict"
    label, recompute = _recheck(witness.get("recheck", {}), config, catalog)
    if witness.get("invariant") != label:
        raise ValueError("witness invariant %r is not %r, the entry its recheck names"
                         % (witness.get("invariant"), label))
    try:
        got_left = recompute(left)
        got_right = recompute(right)
    except BudgetExceeded:
        return False, "node budget exceeded recomputing %s" % label
    for side, got in (("left", got_left), ("right", got_right)):
        if json_text(got) != json_text(witness.get(side)):
            return False, ("%s value mismatch for %s: recomputed %r, recorded %r"
                           % (side, label, got, witness.get(side)))
    if got_left == got_right:
        return False, "witness values do not differ"
    return True, "witness %s verified" % label
