"""Counting homomorphisms to finite groups and low-index subgroups, and the
invariant profiles built from them.

One search engine serves both: a presentation is compiled once into a search
program, which runs into each catalog group for the hom counts and, for the
low-index counts, into S_2 and then into S_3..S_k, or into A_3..A_k when the
group has no subgroup of index 2; an index-k subgroup is the point stabiliser
of a transitive action on k points.  The program keeps each search's tally, so
a permutation group met twice (the catalog's A6 and A_6) is searched once.
Every search is exact, serial and deterministic, and one that would exceed
its node budget reports an explicit flag instead of a count.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import asdict, dataclass, fields

from .homology import first_homology
from .permgroups import (MAX_ORDER, _orbit_tree, alternating_group, load_catalog,
                         symmetric_group)
from .presentations import _reduce_generators, serialize_presentation, tietze_simplify


class BudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class HomCount:
    total: int
    surjective: int
    budget_exceeded: bool = False

    def __post_init__(self):
        if not self.budget_exceeded and not 0 <= self.surjective <= self.total:
            raise ValueError("surjective count out of range")

    def value(self):
        return {"total": self.total, "surjective": self.surjective}


@dataclass(frozen=True)
class SubgroupCount:
    classes: int
    total: int
    budget_exceeded: bool = False

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
    index = {g: i for i, g in enumerate(presentation.generators)}
    seqs = []
    for r in presentation.relators:
        w = r.word.free_reduce()
        if w.letters:
            seqs.append(tuple((index[name], exp) for name, exp in w.letters))
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
    """The search program in slot form: the form _search walks.

    Every value lives in one list of slots.  For n generators, slot 2g
    holds generator g's image and slot 2g + 1 its inverse, both written when
    g is assigned or deduced, so a letter is one slot read.  Slot 2n holds
    the identity.  The slots above hold constant runs: maximal runs of two
    or more letters in a segment's ops whose generators were all known
    before the segment opened, so that a run's value is fixed for the
    segment's whole candidate loop.

    A word is (first slot, rest slots) and its value starts from the first
    slot's.  An op is (runs needed, target, first, rest).  A check has target
    -1 and passes when its word is the identity.  A deduce of g from the
    relator pre g^eps suf evaluates suf + pre, the inverse of g^eps, into its
    target slot and the inverse into the paired one.  Deduces keep their
    order, each check moves up to just after the last deduce it reads, and
    checks at the same point run shortest first; a segment's runs are
    numbered in the order its ops first read them.

    The head is not lowered: its ops run before any generator is assigned,
    so each deduce gives the identity, which every slot starts with, and
    each check holds.  Returns (slot count, segments, n).  A segment is
    (kind, image slot, branch, ops, runs): branch is (mid, suf + pre, eps)
    as words for a branch and None for an assign, and each run is (slot,
    first, rest).
    """
    head, segments, n_gens = program
    identity = 2 * n_gens
    slot_count = identity + 1

    def letters(seq):
        return [2 * g + (s < 0) for g, s in seq] or [identity]

    def word(slots):
        return slots[0], tuple(slots[1:])

    def lower_ops(ops, fixed):
        nonlocal slot_count

        # a lowered word is a list of slots and runs, a run being its letters
        def split(seq):
            items = []
            for constant, run in itertools.groupby(seq, lambda letter: letter[0] in fixed):
                run = tuple(run)
                if constant and len(run) > 1:
                    items.append(run)
                else:
                    items.extend(letters(run))
            return items or [identity]

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
                        runs.append((slot_count,) + word(letters(item)))
                        slot_count += 1
                    item = run_slots[item]
                slots.append(item)
            lowered.append((len(runs), target) + word(slots))
        return tuple(lowered), tuple(runs)

    known = {op[1] for op in head if op[0] == "deduce"}
    out = []
    for kind, g, data, post in segments:
        branch = None
        if kind == "branch":
            pre, mid, suf, eps = data
            branch = (word(letters(mid)), word(letters(suf + pre)), eps)
        ops, runs = lower_ops(post, frozenset(known))
        out.append((kind, 2 * g, branch, ops, runs))
        known.add(g)
        known.update(op[1] for op in post if op[0] == "deduce")
    return slot_count, tuple(out), n_gens


def search_program(presentation):
    """(reduced, slots, tallies): the presented group's search program.

    count_homs, low_index_subgroups and low_index_single run it, so a caller
    compiles once and passes the program to every search on the presentation.
    reduced presents the same group with the generators eliminated that
    occur once in some relator; slots, its compiled search in slot form,
    assigns images to a seed set of its generators and deduces the rest.
    tallies, empty at first, holds the searches run so far (see _tally).
    """
    reduced = _reduce_generators(presentation)
    return reduced, _lower(compile_hom_search(reduced)), {}


def _search(program, group, node_budget):
    """Run a search program in slot form into group; return {images: weight}.

    The program comes from _lower.  images holds the reduced presentation's
    generator images under one homomorphism found, and weight counts the
    homomorphisms it stands for, so a reader may use only what conjugation
    in group leaves unchanged.  When the search opens with an assign, its
    generator takes one representative r per conjugacy class, weighted by
    the class size.  When the second segment is an assign as well, its
    generator takes one representative v per orbit of the centraliser C(r)
    acting by conjugation, weighted by the orbit size: conjugating by c in
    C(r) fixes r and everything deduced from it and sends v to c * v * c^-1.
    Every other candidate weighs 1.  Every candidate tried at any depth,
    roots and orbit representatives included, is one node charged to
    node_budget; the search raises BudgetExceeded past it.

    Each call of walk is one parent node of its segment.  It evaluates the
    segment's constant runs once, and only when the first of its candidates
    reaches an op that reads them, so a parent whose candidates all fail
    earlier, or that has none, pays nothing for them.
    """
    slot_count, segments, n_gens = program
    mul, inv, e = group.tables()
    order = group.order
    vals = [e] * slot_count
    images = 2 * n_gens

    def word(first, rest):
        x = vals[first]
        for s in rest:
            x = mul[x][vals[s]]
        return x

    found = {}      # images -> weight
    solve = None
    if any(kind == "branch" for kind, _, _, _, _ in segments):
        solve = group.conjugacy_solutions()
    depth = len(segments)
    unit = itertools.repeat(1)
    nodes = 0

    def walk(d, weight):
        nonlocal nodes
        kind, slot, branch, ops, runs = segments[d]
        if kind == "branch":
            mid, sufpre, eps = branch
            q = word(*mid)
            t = inv[word(*sufpre)]
            candidates = zip(solve(q, t) if eps == 1 else solve(t, q), unit)
        elif d < 2 and segments[0][0] == "assign":
            # C(r) fixes the root r and every image deduced from it; until
            # segment 0 assigns r its slot holds the identity, whose C(e)
            # orbits are the conjugacy classes
            candidates = group.centraliser_orbits(vals[segments[0][1]])
        else:
            candidates = zip(range(order), unit)
        last = d + 1 == depth
        ready = 0
        for v, size in candidates:
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceeded
            vals[slot] = v
            vals[slot + 1] = inv[v]
            # word is inlined here, where it runs once per candidate and op
            for need, target, first, rest in ops:
                while ready < need:
                    run, run_first, run_rest = runs[ready]
                    vals[run] = word(run_first, run_rest)
                    ready += 1
                x = vals[first]
                for s in rest:
                    x = mul[x][vals[s]]
                if target < 0:
                    if x != e:
                        break
                else:
                    vals[target] = x
                    vals[target ^ 1] = inv[x]
            else:
                if last:
                    found[tuple(vals[:images:2])] = weight * size
                else:
                    walk(d + 1, weight * size)

    if segments:
        walk(0, 1)
    else:
        # every generator deduced from relators: a single candidate to try
        found[tuple(vals[:images:2])] = 1
    return found


def _tally(program, group, node_budget):
    """(searched group, {images: weight}) for group's element set, or None
    past node_budget.  Each element set is searched once per program and
    budget, into the first group asked for it, whose numbering the images
    use; every numbering of one set visits as many nodes, so flags agree.
    """
    key = (group._element_set, node_budget)
    if key not in program[2]:
        try:
            program[2][key] = group, _search(program[1], group, node_budget)
        except BudgetExceeded:
            program[2][key] = None
    return program[2][key]


def count_homs(program, group, node_budget=10 ** 8):
    """Count all and surjective homomorphisms from the group whose
    search_program is program.

    Whether a homomorphism is onto is unchanged by conjugation in the
    target, so the count reads group's tally (see _tally): the total is its
    summed weight and the surjective count that of the image tuples
    generating the whole group.  node_budget bounds the whole search.
    """
    found = _tally(program, group, node_budget)
    if found is None:
        return HomCount(0, 0, True)
    group, found = found
    mul, _, e = group.tables()
    order = group.order
    return HomCount(sum(found.values()),
                    sum(weight for images, weight in found.items()
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


def _low_index(program, k, node_budget):
    """Subgroups of index k, counted as transitive actions on k points.

    Each subgroup of index k is the stabiliser of point 0 in exactly (k-1)!
    transitive homomorphisms to S_k, and each conjugacy class of subgroups is
    one S_k-orbit of them, of size k! / |C(image)|.  _transitive_centraliser
    is unchanged by conjugation in S_k, so class roots and C(r)-orbit
    representatives stand for their orbits: the transitive count is the
    weight of the image tuples with a nonzero centraliser and the
    centraliser sum is the sum of centraliser times weight.

    Above index 2 the index-2 count decides the group.  When it is zero and
    not flagged, the group has no surjection onto S_2, so sign composed with
    any homomorphism to S_k is trivial and every image lies in A_k: the
    search then runs in A_k, whose tally stands for the same homomorphisms,
    with the same centralisers, and gives the same counts.
    """
    in_alternating = k > 2 and _low_index(program, 2, node_budget) == SubgroupCount(0, 0)
    found = _tally(program, alternating_group(k) if in_alternating else symmetric_group(k),
                   node_budget)
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
    program's tally of S_k, or of A_k when the index-2 count is exactly zero
    (see _low_index).  max_index may be at most MAX_INDEX.
    """
    if max_index > MAX_INDEX:
        raise ValueError("max_index %d is above %d" % (max_index, MAX_INDEX))
    return {k: _low_index(program, k, node_budget) for k in range(2, max_index + 1)}


def low_index_single(program, k, node_budget=10 ** 8):
    """The counts at one index k, equal to low_index_subgroups(...)[k]."""
    if not 2 <= k <= MAX_INDEX:
        raise ValueError("subgroup index %d is outside 2..%d" % (k, MAX_INDEX))
    return _low_index(program, k, node_budget)


# --- profiles and verdicts ----------------------------------------------------

@dataclass(frozen=True)
class ProfileConfig:
    max_index: int = 6
    node_budget: int = 10 ** 8
    simplify_budget: int = 10 ** 4

    def __post_init__(self):
        for name, value in asdict(self).items():
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


@dataclass(frozen=True)
class InvariantProfile:
    homology: tuple
    hom_counts: tuple        # ((group name, HomCount), ...) in catalog order
    low_index: tuple         # ((index, SubgroupCount), ...) ascending
    catalog_version: int
    catalog_names: tuple
    config: ProfileConfig
    presentation_hash: str
    generator_count: int
    relator_count: int

    def config_dict(self):
        return {
            "catalog": list(self.catalog_names),
            "catalog_version": self.catalog_version,
            **asdict(self.config),
        }

    def to_dict(self):
        return {
            "schema_version": 1,
            "config": self.config_dict(),
            "homology": list(self.homology),
            "hom_counts": {name: _count_entry(hc) for name, hc in self.hom_counts},
            "low_index": {str(k): _count_entry(sc) for k, sc in self.low_index},
            "presentation": {
                "hash": self.presentation_hash,
                "generators": self.generator_count,
                "relators": self.relator_count,
            },
        }

    def to_json(self):
        return json_text(self.to_dict())

    def comparable_json(self):
        """The profile without presentation identity: the part verdicts compare."""
        d = self.to_dict()
        del d["presentation"]
        return json_text(d)

    def entries(self):
        """(recheck, count) for each hom count, then each low-index count."""
        for name, count in self.hom_counts:
            yield {"kind": "hom_count", "group": name}, count
        for k, count in self.low_index:
            yield {"kind": "low_index", "index": k}, count

    @property
    def any_budget_exceeded(self):
        return any(count.budget_exceeded for _, count in self.entries())


def presentation_hash(presentation):
    return hashlib.sha256(serialize_presentation(presentation).encode()).hexdigest()


def profile(presentation, config=None, catalog=None, workers=1):
    """Simplify, then compute homology, hom counts, and low-index counts.

    ``workers`` is accepted for existing callers and ignored: the searches run
    serially.
    """
    config = config or ProfileConfig()
    catalog = catalog or load_catalog()
    simplified = tietze_simplify(presentation, budget=config.simplify_budget)
    program = search_program(simplified)
    homology = tuple(first_homology(program[0]))
    hom_counts = tuple(
        (g.name, count_homs(program, g, config.node_budget))
        for g in catalog.groups)
    low = low_index_subgroups(program, config.max_index, config.node_budget)
    return InvariantProfile(
        homology=homology,
        hom_counts=hom_counts,
        low_index=tuple(sorted(low.items())),
        catalog_version=catalog.version,
        catalog_names=tuple(catalog.names),
        config=config,
        presentation_hash=presentation_hash(simplified),
        generator_count=len(simplified.generators),
        relator_count=len(simplified.relators),
    )


@dataclass(frozen=True)
class Witness:
    invariant: str
    left: object
    right: object
    recheck: dict

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class Verdict:
    outcome: str             # "Distinguished" or "Inconclusive"
    witness: object          # Witness or None
    left_profile: InvariantProfile
    right_profile: InvariantProfile

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


def compare_profiles(left, right):
    """First differing comparable entry, or None; budget-flagged entries are skipped."""
    if left.homology != right.homology:
        return Witness("homology", list(left.homology), list(right.homology),
                       {"kind": "homology"})
    right_counts = {tuple(recheck.values()): rc for recheck, rc in right.entries()}
    for recheck, lc in left.entries():
        rc = right_counts.get(tuple(recheck.values()))
        if rc is None or lc.budget_exceeded or rc.budget_exceeded:
            continue
        if lc.value() != rc.value():
            return Witness("%s:%s" % tuple(recheck.values()), lc.value(), rc.value(),
                           recheck)
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
    """(label, search) for the entry a recheck names: label is homology,
    hom_count:<group> or low_index:<index>, the witness label, and search
    maps a search program to the entry's count, or is None for homology.  A
    recheck that is not an object, names an unknown kind or a group outside
    the catalog, or an index outside 2..config.max_index raises ValueError.
    """
    if not isinstance(recheck, dict):
        raise ValueError("witness recheck must be an object")
    kind = recheck.get("kind")
    if kind == "hom_count":
        name = recheck.get("group")
        if name not in catalog.names:
            raise ValueError("recheck group %r is not in the catalog" % (name,))
        return "hom_count:%s" % name, lambda program: count_homs(
            program, catalog.by_name(name), config.node_budget)
    if kind == "low_index":
        index = recheck.get("index")
        if type(index) is not int or not 2 <= index <= config.max_index:
            raise ValueError("recheck index %r is not an integer in 2..%d"
                             % (index, config.max_index))
        return "low_index:%d" % index, lambda program: low_index_single(
            program, index, config.node_budget)
    if kind == "homology":
        return kind, None
    raise ValueError("unknown recheck kind %r" % (kind,))


def recompute_entry(presentation, recheck, config, catalog):
    """Recompute the single profile entry a witness points at.

    A malformed recheck (see _recheck) raises ValueError before any work is
    done.  Homology, a group invariant, is read from the presentation as
    given.  A search that exceeds the node budget raises BudgetExceeded,
    since a flagged entry has no value to compare.
    """
    _, search = _recheck(recheck, config, catalog)
    if search is None:
        return first_homology(presentation)
    simplified = tietze_simplify(presentation, budget=config.simplify_budget)
    count = search(search_program(simplified))
    if count.budget_exceeded:
        raise BudgetExceeded
    return count.value()


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
    config = ProfileConfig(**{field.name: cfg[field.name]
                              for field in fields(ProfileConfig)
                              if field.name in cfg})
    witness = verdict_doc.get("witness")
    if verdict_doc.get("outcome") != "Distinguished" or not witness:
        return False, "verdict has no witness to verify"
    if not isinstance(witness, dict):
        raise ValueError("verdict witness must be an object")
    version = json_text(cfg.get("catalog_version", catalog.version))
    if cfg.get("catalog", catalog.names) != catalog.names or version != json_text(catalog.version):
        return False, "catalog does not match the one recorded in the verdict"
    recheck = witness.get("recheck", {})
    label, _ = _recheck(recheck, config, catalog)
    if witness.get("invariant") != label:
        raise ValueError("witness invariant %r is not %r, the entry its recheck names"
                         % (witness.get("invariant"), label))
    try:
        got_left = recompute_entry(left, recheck, config, catalog)
        got_right = recompute_entry(right, recheck, config, catalog)
    except BudgetExceeded:
        return False, "node budget exceeded recomputing %s" % label
    for side, got in (("left", got_left), ("right", got_right)):
        if json_text(got) != json_text(witness.get(side)):
            return False, ("%s value mismatch for %s: recomputed %r, recorded %r"
                           % (side, label, got, witness.get(side)))
    if got_left == got_right:
        return False, "witness values do not differ"
    return True, "witness %s verified" % label
