"""Seeded inputs for the benchmark: framed closed-braid diagrams as PD-JSON text.

A braid word on n strands is a list of (i, e) with 1 <= i < n and e = +1 or -1,
standing for the generator sigma_i^e.  Strands run upward; sigma_i^{+1} carries
the strand at position i over the one at position i + 1, a positive crossing.
The closure joins the top of every position to its bottom.  An item is the
PD-JSON text of a closure plus one surgery framing per component; the program
applies the framings with ``blackboardize``.

The same seed always gives byte-identical items.  Run as a script to write one
seed's inputs out as files, framed and ready for the command line:

    python3 perfbench/gen.py --workload surgery_pairs --seed 3 --out DIR
    linkgroup distinguish DIR/pair03-left.pd.json DIR/pair03-right.pd.json
"""

import argparse
import itertools
import json
import os
import random
import sys

import checks

SURGERY_PAIRS = 24
LARGE_DIAGRAMS = 9
LARGE_CURLS = 8
LARGE_SIZES = (50, 75, 100)   # crossing counts, each for a third of the diagrams
PAIR_KINDS = ("mirror", "random", "equal_homology")


def braid_closure(n, word):
    """The PD document of the closure of a braid word on n strands.

    Arcs are named a1, a2, ... in order of first appearance along the
    components; components are listed starting from the lowest strand.
    """
    parent = []

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def new_arc():
        parent.append(len(parent))
        return len(parent) - 1

    strand_at = list(range(n))              # strand occupying each position
    arcs = [[new_arc()] for _ in range(n)]  # arcs of each strand, bottom to top
    raw = []                                # (over arc, under in, under out, sign)
    for i, e in word:
        left, right = i - 1, i
        over, under = (left, right) if e == 1 else (right, left)
        so, su = strand_at[over], strand_at[under]
        out = new_arc()
        raw.append((arcs[so][-1], arcs[su][-1], out, e))
        arcs[su].append(out)
        strand_at[left], strand_at[right] = strand_at[right], strand_at[left]
    # the top of each position closes onto the bottom of the same position
    successor = {strand_at[p]: p for p in range(n)}
    for s in range(n):
        parent[find(arcs[s][-1])] = find(arcs[successor[s]][0])

    names = {}
    components = []
    done = set()
    for start in range(n):
        if start in done:
            continue
        roots = []
        s = start
        while s not in done:
            done.add(s)
            roots.extend(find(a) for a in arcs[s][:-1])
            s = successor[s]
        if not roots:  # a component that never passes under: one arc
            roots = [find(arcs[start][0])]
        for r in roots:
            names.setdefault(r, "a%d" % (len(names) + 1))
        components.append([names[r] for r in roots])
    crossings = [{"over": names[find(o)], "under_in": names[find(ui)],
                  "under_out": names[find(uo)], "sign": e}
                 for o, ui, uo, e in raw]
    return {"components": components, "crossings": crossings}


def pd_text(doc):
    return json.dumps(doc, indent=1) + "\n"


def random_word(rng, n, length):
    """A braid word of the given length that uses every generator of B_n."""
    while True:
        word = [(rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length)]
        if {i for i, _ in word} == set(range(1, n)):
            return word


def mirror_word(word):
    return [(i, -e) for i, e in word]


def destabilizable_word(rng, k, length, conj_length, single_sign):
    """A 3-strand word of 10-16 letters for sigma_a^k sigma_b^single_sign.

    Its closure is the (2, k) torus link: a knot for odd k, two components
    for even k.  The core is conjugated by conj_length random letters and
    padded with cancelling pairs at random places up to about `length`
    letters, so the diagram grows while the group stays two-generated.
    """
    single = rng.choice((1, 2))
    other = 3 - single
    core = [(other, 1 if k > 0 else -1)] * abs(k) + [(single, single_sign)]
    conj = [(rng.randint(1, 2), rng.choice((1, -1))) for _ in range(conj_length)]
    word = conj + core + mirror_word(conj[::-1])
    while len(word) < max(10, length - 1):
        pos = rng.randint(0, len(word))
        i, e = rng.randint(1, 2), rng.choice((1, -1))
        word[pos:pos] = [(i, e), (i, -e)]
    return word


def surgery_spec(j):
    """Signed core exponent and framings for slot j, the same for every seed.

    Every seed gets the same groups, so passes of different seeds do
    comparable work; the seed picks the diagrams that present them.
    """
    k = (2 + (3 * j) % 8) * (1 if (j // 2) % 2 == 0 else -1)
    framings = [(1 + (j + c) % 3) * (1 if (j + c) % 2 == 0 else -1)
                for c in range(1 if k % 2 else 2)]
    return k, framings


def _all_specs():
    specs = []
    for k_abs in range(2, 10):
        for k in (k_abs, -k_abs):
            ncomp = 1 if k % 2 else 2
            for framings in itertools.product((1, -1, 2, -2, 3, -3), repeat=ncomp):
                specs.append((k, list(framings)))
    return specs


def _core_homology(k, framings):
    core = [(1, 1 if k > 0 else -1)] * abs(k) + [(2, 1)]
    return checks.expected_homology(pd_text(braid_closure(3, core)), framings)


def equal_homology_spec(j, k, framings):
    """The first spec after a slot-dependent offset whose first homology equals
    that of (k, framings), other than the spec itself and its mirror."""
    target = _core_homology(k, framings)
    specs = _all_specs()
    for t in range(len(specs)):
        k2, f2 = specs[(7 * j + t) % len(specs)]
        if (k2, f2) in ((k, framings), (-k, [-f for f in framings])):
            continue
        if _core_homology(k2, f2) == target:
            return k2, f2
    raise AssertionError("no spec shares the first homology of %r" % ((k, framings),))


def _item(rng, item_id, slot, k, framings):
    """A framed closure whose size and shape are fixed by its slot.

    The slot fixes the crossing count, the conjugator length and the sign of
    the single letter, which together fix how many curls blackboardize adds.
    """
    length, conj_length, single_sign = 10 + (5 * slot) % 7, slot % 4, (1, -1)[slot // 4 % 2]
    word = destabilizable_word(rng, k, length, conj_length, single_sign)
    text = pd_text(braid_closure(3, word))
    if len(framings) == 2 and checks.linking_matrix(text)[0][0] == 0:
        # the two components are interchangeable; the one with the single
        # letter's self-crossing takes framings[0], so the curl count is fixed
        framings = framings[::-1]
    return {"id": item_id, "text": text, "framings": framings, "word": word}


def surgery_pairs(seed, count=SURGERY_PAIRS):
    """Pairs of framed 3-strand closures, cycling through the three pair kinds.

    mirror: the mirror braid with negated framings, an isomorphic group;
    random: a second side with the next slot's group; equal_homology: a second side
    whose first homology, from the linking matrix, equals the first side's.
    """
    rng = random.Random("surgery_pairs:%d" % seed)
    pairs = []
    for j in range(count):
        kind = PAIR_KINDS[j % 3]
        k, framings = surgery_spec(j)
        left = _item(rng, "pair%02d-left" % j, j, k, framings)
        if kind == "mirror":
            right = {"id": "pair%02d-right" % j, "framings": [-f for f in left["framings"]],
                     "text": pd_text(braid_closure(3, mirror_word(left["word"])))}
        elif kind == "random":
            right = _item(rng, "pair%02d-right" % j, j + count, *surgery_spec(j + 1))
        else:
            right = _item(rng, "pair%02d-right" % j, j + count,
                          *equal_homology_spec(j, k, framings))
        pairs.append({"id": "pair%02d" % j, "kind": kind, "left": left, "right": right})
    return pairs


def large_diagrams(seed, count=LARGE_DIAGRAMS):
    """Knot closures of 4-6 strand braids with 50-100 crossings, framings -6..6.

    Strand counts cycle through 4, 5, 6 within each third of the diagrams,
    the thirds have 50, 75 and 100 crossings, so the median item is the
    middle one of three alike, and framings are drawn so that blackboardize
    adds exactly LARGE_CURLS curls.
    Knots only: the filling relator of a knot runs under every crossing, so
    its length, which drives the cost of simplification, is fixed by the size
    too.  Every seed gets the same sizes; the seed picks words and framings.
    """
    rng = random.Random("large_diagrams:%d" % seed)
    items = []
    for j in range(count):
        n = 4 + j % 3
        length = LARGE_SIZES[j * len(LARGE_SIZES) // count]
        if (length - n + 1) % 2:  # an n-cycle is a product of n - 1 mod 2 transpositions
            length += 1 if length < 100 else -1
        framings = None
        while framings is None:
            doc = braid_closure(n, random_word(rng, n, length))
            if len(doc["components"]) != 1:
                continue
            text = pd_text(doc)
            writhes = [row[i] for i, row in enumerate(checks.linking_matrix(text))]
            framings = _framings_adding_curls(rng, writhes, LARGE_CURLS)
        items.append({"id": "diagram%02d" % j, "text": text, "framings": framings})
    return items


def _framings_adding_curls(rng, writhes, curls, tries=200):
    """Framings in -6..6 that differ from the writhes by `curls` in total, or None."""
    for _ in range(tries):
        framings = [rng.randint(-6, 6) for _ in writhes]
        if sum(abs(f - w) for f, w in zip(framings, writhes)) == curls:
            return framings
    return None


def dump(workload, seed, out):
    """Write one seed's items as framed PD-JSON files plus a manifest."""
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    from linkgroup import blackboardize, parse_diagram, serialize_diagram

    if workload == "surgery_pairs":
        pairs = surgery_pairs(seed)
        items = [p[side] for p in pairs for side in ("left", "right")]
        manifest = [{"id": p["id"], "kind": p["kind"]} for p in pairs]
    elif workload == "large_diagrams":
        items = large_diagrams(seed)
        manifest = []
    else:
        raise SystemExit("no generated inputs for workload %r" % workload)
    os.makedirs(out, exist_ok=True)
    for item in items:
        framed = blackboardize(parse_diagram(item["text"]), item["framings"])
        with open(os.path.join(out, item["id"] + ".pd.json"), "w", encoding="utf-8") as f:
            f.write(serialize_diagram(framed))
        with open(os.path.join(out, item["id"] + ".closure.pd.json"), "w", encoding="utf-8") as f:
            f.write(item["text"])
    doc = {"workload": workload, "seed": seed, "pairs": manifest,
           "items": [{"id": i["id"], "framings": i["framings"]} for i in items]}
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as f:
        f.write(json.dumps(doc, indent=1) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("surgery_pairs", "large_diagrams"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write into")
    args = parser.parse_args(argv)
    dump(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
