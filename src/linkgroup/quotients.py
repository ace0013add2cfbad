"""Counting homomorphisms to finite groups and low-index subgroups, and the
invariant profiles built from them.

Both searches are exact, serial and deterministic: identical inputs give
identical counts and byte-identical profile JSON.  A search that would exceed
its node budget reports an explicit flag instead of a count.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass

from .homology import first_homology
from .permgroups import load_catalog
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


@dataclass(frozen=True)
class SubgroupCount:
    classes: int
    total: int
    budget_exceeded: bool = False

    def __post_init__(self):
        if not self.budget_exceeded and not 0 <= self.classes <= self.total:
            raise ValueError("class count out of range")


# --- homomorphism counting ---------------------------------------------------

def _relator_sequences(presentation):
    index = {g: i for i, g in enumerate(presentation.generators)}
    seqs = []
    for r in presentation.relators:
        w = r.word.free_reduce()
        if w.letters:
            seqs.append(tuple((index[name], exp) for name, exp in w.letters))
    return seqs


def _closure_schedule(seqs, n_gens, seeds):
    """Static schedule of assign/branch/deduce/check ops for a given seed order.

    A relator with every generator assigned becomes a check; a relator in which
    exactly one occurrence of exactly one unassigned generator remains forces
    that generator's image and needs no separate check.  A relator whose only
    unassigned generator occurs exactly twice with opposite exponents is a
    conjugation equation in that generator; its solutions come from a
    precomputed table, which is far cheaper than a full assignment loop.
    """
    known = set()
    handled = [False] * len(seqs)
    ops = []

    def saturate():
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

    def branch():
        for ri, seq in enumerate(seqs):
            if handled[ri]:
                continue
            unknown = [(pos, g, e) for pos, (g, e) in enumerate(seq) if g not in known]
            if len(unknown) != 2:
                continue
            (p1, g1, e1), (p2, g2, e2) = unknown
            if g1 != g2 or e1 != -e2:
                continue
            ops.append(("branch", g1, seq[:p1], seq[p1 + 1:p2], seq[p2 + 1:], e1))
            known.add(g1)
            handled[ri] = True
            return True
        return False

    saturate()
    while branch():
        saturate()
    for s in seeds:
        if s in known:
            continue
        ops.append(("assign", s))
        known.add(s)
        saturate()
        while branch():
            saturate()
    return ops, known


def _choose_seeds(seqs, n_gens):
    """A small seed set from which every generator image can be deduced.

    Seeds are tried in order of decreasing relator occurrence count (name order
    on ties); all subsets of size up to 4 are tried before falling back to a
    greedy cover, so the schedule is a pure function of the presentation.
    """
    occurrences = [0] * n_gens
    for seq in seqs:
        for g, _ in seq:
            occurrences[g] += 1
    candidates = sorted(range(n_gens), key=lambda g: (-occurrences[g], g))

    def coverage(seeds):
        _, known = _closure_schedule(seqs, n_gens, seeds)
        return known

    for k in range(0, min(n_gens, 4) + 1):
        for combo in itertools.combinations(candidates, k):
            if len(coverage(combo)) == n_gens:
                return combo
    seeds = []
    while len(coverage(seeds)) < n_gens:
        best = None
        for g in candidates:
            if g in seeds:
                continue
            reach = len(coverage(seeds + [g]))
            if best is None or reach > best[1]:
                best = (g, reach)
        seeds.append(best[0])
    return tuple(seeds)


def compile_hom_search(presentation):
    """The deterministic search program: leading ops plus enumeration segments.

    Each segment opens with an assign (loop over the whole group) or a branch
    (loop over the solutions of a conjugation equation) and carries the ops
    that follow it.
    """
    seqs = _relator_sequences(presentation)
    n_gens = len(presentation.generators)
    seeds = _choose_seeds(seqs, n_gens)
    ops, known = _closure_schedule(seqs, n_gens, seeds)
    if len(known) != n_gens:
        raise RuntimeError("seed selection failed to cover all generators")
    head = []
    segments = []
    current = None
    for op in ops:
        if op[0] == "assign":
            if current is not None:
                segments.append(current)
            current = ["assign", op[1], None, []]
        elif op[0] == "branch":
            if current is not None:
                segments.append(current)
            current = ["branch", op[1], (op[2], op[3], op[4], op[5]), []]
        elif current is None:
            head.append(op)
        else:
            current[3].append(op)
    if current is not None:
        segments.append(current)
    return (tuple(head),
            tuple((k, g, data, tuple(post)) for k, g, data, post in segments),
            n_gens)


def _eval_seq(seq, images, mul, inv, e, order):
    x = e
    for g, s in seq:
        y = images[g]
        if s < 0:
            y = inv[y]
        x = mul[x * order + y]
    return x


def _subgroup_order(images, mul, e, order, memo):
    key = tuple(sorted(set(images)))
    hit = memo.get(key)
    if hit is not None:
        return hit
    seen = {e}
    frontier = [e]
    while frontier:
        nxt = []
        for x in frontier:
            base = x * order
            for g in key:
                y = mul[base + g]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    memo[key] = len(seen)
    return len(seen)


def _run_ops(ops, images, mul, inv, e, order):
    for op in ops:
        if op[0] == "deduce":
            _, g, pre, suf, eps = op
            p = _eval_seq(pre, images, mul, inv, e, order)
            s = _eval_seq(suf, images, mul, inv, e, order)
            v = inv[mul[s * order + p]]
            images[g] = v if eps == 1 else inv[v]
        else:
            if _eval_seq(op[1], images, mul, inv, e, order) != e:
                return False
    return True


def count_homs(presentation, group, node_budget=10 ** 8):
    """Count all and surjective homomorphisms from the presented group.

    Both counts depend only on the presented group, so the presentation is
    first compiled down by eliminating generators with a single occurrence in
    some relator.  The remaining search assigns images only to a seed set of
    generators and deduces the rest by unit propagation.

    Both counts are also invariant under conjugation in the target group, so
    when the search opens with an assign, the first generator takes one
    representative per conjugacy class and its counts are weighted by the
    class size.  Every candidate tried at any depth, roots included, is one
    node charged to the single node budget of the whole search.
    """
    presentation = _reduce_generators(presentation)
    head, segments, n_gens = compile_hom_search(presentation)
    mul, inv, e = group.tables()
    order = group.order
    if n_gens == 0:
        return HomCount(1, 1 if order == 1 else 0)
    images = [e] * n_gens
    memo = {}
    if not _run_ops(head, images, mul, inv, e, order):
        return HomCount(0, 0)
    if not segments:
        # every generator deduced from relators: a single candidate to try
        sub = _subgroup_order(images, mul, e, order, memo)
        return HomCount(1, 1 if sub == order else 0)
    conj = None
    if any(kind == "branch" for kind, _, _, _ in segments):
        conj = group.conjugacy_solutions()
    depth = len(segments)
    nodes = total = surjective = 0

    def walk(d, weight, roots=None):
        nonlocal nodes, total, surjective
        kind, gen, data, post = segments[d]
        if roots is not None:
            candidates = roots
        elif kind == "assign":
            candidates = range(order)
        else:
            pre, mid, suf, eps = data
            q = _eval_seq(mid, images, mul, inv, e, order)
            a = _eval_seq(pre, images, mul, inv, e, order)
            c = _eval_seq(suf, images, mul, inv, e, order)
            t = inv[mul[c * order + a]]
            candidates = conj.get((q, t) if eps == 1 else (t, q), ())
        for v in candidates:
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceeded
            images[gen] = v
            if not _run_ops(post, images, mul, inv, e, order):
                continue
            if d + 1 == depth:
                total += weight
                if _subgroup_order(images, mul, e, order, memo) == order:
                    surjective += weight
            else:
                walk(d + 1, weight)

    try:
        if segments[0][0] == "assign":
            for rep, size in group.conjugacy_classes():
                walk(0, size, (rep,))
        else:
            walk(0, 1)
    except BudgetExceeded:
        return HomCount(0, 0, True)
    return HomCount(total, surjective)


# --- low-index subgroups ------------------------------------------------------

def _relator_columns(presentation):
    """Relators as column sequences: generator i acts via columns 2i and 2i+1."""
    index = {g: i for i, g in enumerate(presentation.generators)}
    cols = []
    for r in presentation.relators:
        w = r.word.cyclic_reduce()
        if w.letters:
            cols.append(tuple(2 * index[n] + (0 if e == 1 else 1) for n, e in w.letters))
    return cols


def _search_up_to(relators, ncols, kmax, node_budget):
    """Count classes and subgroups for every exact index 2..kmax in one search.

    The search builds standardized coset tables rooted at coset 0, growing up
    to kmax cosets; every completed table along the way is a candidate, bucketed
    by its coset count.  A completed table counts only when it is
    lexicographically minimal among the tables rebased at each of its cosets
    (first in class), and then contributes the number of distinct rebasings,
    i.e. the size of its conjugacy class.  Returns ({index: [classes, total]},
    budget_flag).
    """
    counts = {k: [0, 0] for k in range(2, kmax + 1)}
    if ncols == 0 or kmax < 2:
        return counts, False

    table = [-1] * (kmax * ncols)
    anchors = [[] for _ in range(ncols)]
    for w in relators:
        for m in range(len(w)):
            anchors[w[m]].append(w[m:] + w[:m])
    undo = []
    nodes = 0
    nact = 1

    def scan(w, alpha, queue):
        # bidirectional trace of relator w from coset alpha; deduce on gap one
        f = alpha
        i = 0
        n = len(w)
        while i < n:
            nxt = table[f * ncols + w[i]]
            if nxt < 0:
                break
            f = nxt
            i += 1
        if i == n:
            return f == alpha
        b = alpha
        j = n
        while j > i + 1:
            prv = table[b * ncols + (w[j - 1] ^ 1)]
            if prv < 0:
                break
            b = prv
            j -= 1
        if j == i + 1:
            c = w[i]
            fc = f * ncols + c
            bc = b * ncols + (c ^ 1)
            if table[fc] < 0 and table[bc] < 0:
                table[fc] = b
                table[bc] = f
                undo.append(fc)
                undo.append(bc)
                queue.append((f, c))
                queue.append((b, c ^ 1))
            elif table[fc] != b:
                return False
        return True

    def propagate(queue):
        while queue:
            alpha, c = queue.pop()
            if table[alpha * ncols + c] < 0:
                continue
            for rotation in anchors[c]:
                if not scan(rotation, alpha, queue):
                    return False
        return True

    def compare_from(beta):
        """-1 when the table rebased at beta is lexicographically smaller."""
        nu = [-1] * nact
        mu = [beta]
        nu[beta] = 0
        r = 0
        while r < len(mu):
            orig = mu[r] * ncols
            base = r * ncols
            for c in range(ncols):
                tval = table[orig + c]
                bval = table[base + c]
                if tval < 0 or bval < 0:
                    return 0
                nv = nu[tval]
                if nv < 0:
                    nv = len(mu)
                    nu[tval] = nv
                    mu.append(tval)
                if nv != bval:
                    return -1 if nv < bval else 1
            r += 1
        return 0

    def rebased(beta):
        nu = [-1] * nact
        mu = [beta]
        nu[beta] = 0
        flat = []
        r = 0
        while r < len(mu):
            orig = mu[r] * ncols
            for c in range(ncols):
                tval = table[orig + c]
                nv = nu[tval]
                if nv < 0:
                    nv = len(mu)
                    nu[tval] = nv
                    mu.append(tval)
                flat.append(nv)
            r += 1
        return tuple(flat)

    def dfs(start):
        nonlocal nodes, nact
        gap = -1
        for cell in range(start, nact * ncols):
            if table[cell] < 0:
                gap = cell
                break
        if gap < 0:
            if nact >= 2:
                reps = {rebased(beta) for beta in range(nact)}
                if min(reps) == rebased(0):
                    bucket = counts[nact]
                    bucket[0] += 1
                    bucket[1] += len(reps)
            return
        alpha, c = divmod(gap, ncols)
        ic = c ^ 1
        candidates = [tau for tau in range(nact) if table[tau * ncols + ic] < 0]
        if nact < kmax:
            candidates.append(nact)
        for tau in candidates:
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceeded
            mark = len(undo)
            grew = tau == nact
            if grew:
                nact += 1
            table[gap] = tau
            table[tau * ncols + ic] = alpha
            undo.append(gap)
            undo.append(tau * ncols + ic)
            queue = [(alpha, c), (tau, ic)]
            ok = propagate(queue)
            if ok:
                ok = all(compare_from(beta) >= 0 for beta in range(1, nact))
            if ok:
                dfs(gap + 1)
            while len(undo) > mark:
                table[undo.pop()] = -1
            if grew:
                nact -= 1

    try:
        dfs(0)
    except BudgetExceeded:
        return counts, True
    return counts, False


def low_index_subgroups(presentation, max_index, node_budget=10 ** 8):
    """Subgroup counts by exact index, from 2 up to max_index inclusive.

    Counts depend only on the presented group, so the presentation is first
    compiled down by eliminating single-occurrence generators.  A search that
    trips the node budget flags every index, since later indexes share the one
    coset-table tree.
    """
    reduced = _reduce_generators(presentation)
    relators = _relator_columns(reduced)
    ncols = 2 * len(reduced.generators)
    counts, exceeded = _search_up_to(relators, ncols, max_index, node_budget)
    if exceeded:
        return {k: SubgroupCount(0, 0, True) for k in range(2, max_index + 1)}
    return {k: SubgroupCount(c, t) for k, (c, t) in counts.items()}


def low_index_single(presentation, k, node_budget=10 ** 8):
    reduced = _reduce_generators(presentation)
    relators = _relator_columns(reduced)
    counts, exceeded = _search_up_to(relators, 2 * len(reduced.generators), k,
                                     node_budget)
    if exceeded:
        return SubgroupCount(0, 0, True)
    c, t = counts.get(k, (0, 0))
    return SubgroupCount(c, t)


# --- profiles and verdicts ----------------------------------------------------

@dataclass(frozen=True)
class ProfileConfig:
    max_index: int = 6
    node_budget: int = 10 ** 8
    simplify_budget: int = 10 ** 4


@dataclass(frozen=True)
class InvariantProfile:
    homology: tuple
    hom_counts: tuple        # ((group name, HomCount), ...) in catalog order
    low_index: tuple         # ((index, SubgroupCount), ...) ascending
    catalog_version: int
    catalog_names: tuple
    max_index: int
    node_budget: int
    simplify_budget: int
    presentation_hash: str
    generator_count: int
    relator_count: int

    def config_dict(self):
        return {
            "catalog": list(self.catalog_names),
            "catalog_version": self.catalog_version,
            "max_index": self.max_index,
            "node_budget": self.node_budget,
            "simplify_budget": self.simplify_budget,
        }

    def to_dict(self):
        homs = {}
        for name, hc in self.hom_counts:
            entry = {"total": hc.total, "surjective": hc.surjective}
            if hc.budget_exceeded:
                entry["budget_exceeded"] = True
            homs[name] = entry
        low = {}
        for k, sc in self.low_index:
            entry = {"classes": sc.classes, "total": sc.total}
            if sc.budget_exceeded:
                entry["budget_exceeded"] = True
            low[str(k)] = entry
        return {
            "schema_version": 1,
            "config": self.config_dict(),
            "homology": list(self.homology),
            "hom_counts": homs,
            "low_index": low,
            "presentation": {
                "hash": self.presentation_hash,
                "generators": self.generator_count,
                "relators": self.relator_count,
            },
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def comparable_dict(self):
        """The profile without presentation identity: the part verdicts compare."""
        d = self.to_dict()
        del d["presentation"]
        return d

    def comparable_json(self):
        return json.dumps(self.comparable_dict(), indent=2, sort_keys=True) + "\n"

    @property
    def any_budget_exceeded(self):
        return (any(hc.budget_exceeded for _, hc in self.hom_counts)
                or any(sc.budget_exceeded for _, sc in self.low_index))


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
    homology = tuple(first_homology(simplified))
    hom_counts = tuple(
        (g.name, count_homs(simplified, g, config.node_budget))
        for g in catalog.groups)
    low = low_index_subgroups(simplified, config.max_index, config.node_budget)
    return InvariantProfile(
        homology=homology,
        hom_counts=hom_counts,
        low_index=tuple(sorted(low.items())),
        catalog_version=catalog.version,
        catalog_names=tuple(catalog.names),
        max_index=config.max_index,
        node_budget=config.node_budget,
        simplify_budget=config.simplify_budget,
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
        return {
            "invariant": self.invariant,
            "left": self.left,
            "right": self.right,
            "recheck": self.recheck,
        }


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
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _hom_value(hc):
    return {"total": hc.total, "surjective": hc.surjective}


def _sub_value(sc):
    return {"classes": sc.classes, "total": sc.total}


def compare_profiles(left, right):
    """First differing comparable entry, or None; budget-flagged entries are skipped."""
    if left.homology != right.homology:
        return Witness("homology", list(left.homology), list(right.homology),
                       {"kind": "homology"})
    rh = dict(right.hom_counts)
    for name, lc in left.hom_counts:
        rc = rh.get(name)
        if rc is None or lc.budget_exceeded or rc.budget_exceeded:
            continue
        if (lc.total, lc.surjective) != (rc.total, rc.surjective):
            return Witness("hom_count:%s" % name, _hom_value(lc), _hom_value(rc),
                           {"kind": "hom_count", "group": name})
    rl = dict(right.low_index)
    for k, lc in left.low_index:
        rc = rl.get(k)
        if rc is None or lc.budget_exceeded or rc.budget_exceeded:
            continue
        if (lc.classes, lc.total) != (rc.classes, rc.total):
            return Witness("low_index:%d" % k, _sub_value(lc), _sub_value(rc),
                           {"kind": "low_index", "index": k})
    return None


def distinguish(left, right, config=None, catalog=None, workers=1):
    """Compare invariant profiles; Distinguished verdicts carry a replayable witness.

    ``workers`` is accepted for existing callers and ignored.
    """
    config = config or ProfileConfig()
    catalog = catalog or load_catalog()
    lp = profile(left, config, catalog)
    rp = profile(right, config, catalog)
    witness = compare_profiles(lp, rp)
    if witness is not None:
        return Verdict("Distinguished", witness, lp, rp)
    return Verdict("Inconclusive", None, lp, rp)


def _int_field(doc, key, default, where):
    value = doc.get(key, default)
    if type(value) is not int:
        raise ValueError("%s %s must be an integer, not %r" % (where, key, value))
    return value


def recompute_entry(presentation, recheck, config, catalog):
    """Recompute the single profile entry a witness points at.

    A recheck that is not an object, names an unknown kind or a group outside
    the catalog, or an index outside 2..config.max_index raises ValueError
    before any work is done.  A search that exceeds the node budget raises
    BudgetExceeded, since a flagged entry has no value to compare.
    """
    if not isinstance(recheck, dict):
        raise ValueError("witness recheck must be an object")
    kind = recheck.get("kind")
    if kind == "hom_count":
        name = recheck.get("group")
        if name not in catalog.names:
            raise ValueError("recheck group %r is not in the catalog" % (name,))
    elif kind == "low_index":
        index = _int_field(recheck, "index", None, "recheck")
        if not 2 <= index <= config.max_index:
            raise ValueError("recheck index %d is outside 2..%d"
                             % (index, config.max_index))
    elif kind != "homology":
        raise ValueError("unknown recheck kind %r" % (kind,))
    simplified = tietze_simplify(presentation, budget=config.simplify_budget)
    if kind == "homology":
        return first_homology(simplified)
    if kind == "hom_count":
        count = count_homs(simplified, catalog.by_name(name), config.node_budget)
        value = _hom_value(count)
    else:
        count = low_index_single(simplified, index, config.node_budget)
        value = _sub_value(count)
    if count.budget_exceeded:
        raise BudgetExceeded
    return value


def verify_witness(verdict_doc, left, right, catalog=None, workers=1):
    """Replay a stored verdict's witness against the two presentations.

    Returns (ok, message).  The recorded config is honored; the witness entry is
    recomputed on both sides and must reproduce the recorded values and still
    differ.  A document of the wrong shape raises ValueError.  ``workers`` is
    accepted for existing callers and ignored.
    """
    catalog = catalog or load_catalog()
    if not isinstance(verdict_doc, dict):
        raise ValueError("verdict must be a JSON object")
    cfg = verdict_doc.get("config", {})
    if not isinstance(cfg, dict):
        raise ValueError("verdict config must be an object")
    config = ProfileConfig(
        max_index=_int_field(cfg, "max_index", 6, "config"),
        node_budget=_int_field(cfg, "node_budget", 10 ** 8, "config"),
        simplify_budget=_int_field(cfg, "simplify_budget", 10 ** 4, "config"),
    )
    witness = verdict_doc.get("witness")
    if verdict_doc.get("outcome") != "Distinguished" or not witness:
        return False, "verdict has no witness to verify"
    if not isinstance(witness, dict):
        raise ValueError("verdict witness must be an object")
    if cfg.get("catalog", catalog.names) != catalog.names:
        return False, "catalog does not match the one recorded in the verdict"
    recheck = witness.get("recheck", {})
    try:
        got_left = recompute_entry(left, recheck, config, catalog)
        got_right = recompute_entry(right, recheck, config, catalog)
    except BudgetExceeded:
        return False, ("node budget exceeded recomputing %s"
                       % (witness.get("invariant"),))
    if got_left != witness.get("left"):
        return False, ("left value mismatch for %s: recomputed %r, recorded %r"
                       % (witness.get("invariant"), got_left, witness.get("left")))
    if got_right != witness.get("right"):
        return False, ("right value mismatch for %s: recomputed %r, recorded %r"
                       % (witness.get("invariant"), got_right, witness.get("right")))
    if got_left == got_right:
        return False, "witness values do not differ"
    return True, "witness %s verified" % (witness.get("invariant"),)
