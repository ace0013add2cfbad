"""Span tracing around the package's public entry points, for the traced run.

Wrappers replace functions at the module attribute their callers look up, so
both the benchmark's own calls and the package's internal calls through that
name are recorded.  Spans live in memory as (name, start, end, parent, item)
and are written out once, at the end of the run.  Nothing here is imported
by an untraced run.
"""

import functools
import json
import re
import time

# (module, attribute, span name); a name wrapped in two modules is one layer
ENTRY_POINTS = (
    ("diagrams", "parse_diagram", "diagrams.parse"),
    ("diagrams", "blackboardize", "diagrams.blackboardize"),
    ("presentations", "fundamental_group", "presentations.fundamental_group"),
    ("presentations", "tietze_simplify", "presentations.tietze_simplify"),
    ("homology", "first_homology", "homology.first_homology"),
    ("quotients", "tietze_simplify", "presentations.tietze_simplify"),
    ("quotients", "first_homology", "homology.first_homology"),
    ("quotients", "count_homs", "quotients.count_homs"),
    ("quotients", "low_index_subgroups", "quotients.low_index"),
    ("quotients", "low_index_single", "quotients.low_index"),
    ("quotients", "profile", "quotients.profile"),
    ("quotients", "verify_witness", "quotients.verify_witness"),
)


def metric_suffix(group_name):
    """A catalog group name as a metric-name part: PSL(2,7) -> PSL2_7."""
    return re.sub(r"[^A-Za-z0-9_.-]", "_", re.sub(r"[()]", "", group_name))


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, item id]
        self.stack = []
        self.item = None
        self.counts = {}
        self.originals = []

    def add(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def install(self, package):
        for module_name, attr, span_name in ENTRY_POINTS:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            self.originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))

    def uninstall(self):
        for module, attr, original in reversed(self.originals):
            setattr(module, attr, original)
        self.originals = []

    def _wrap(self, fn, name):
        count = getattr(self, "_count_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            index = len(self.spans)
            span = [name, time.perf_counter(), None, parent, self.item]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                count(span, args, kwargs, result)
            return result
        return wrapper

    # -- counters recorded at the same boundaries as the spans ---------------

    def _count_diagrams_parse(self, span, args, kwargs, result):
        self.add("diagrams.calls")
        self.add("diagrams.crossings", len(result.crossings))

    def _count_diagrams_blackboardize(self, span, args, kwargs, result):
        self.add("diagrams.calls")

    def _count_presentations_tietze_simplify(self, span, args, kwargs, result):
        self.add("presentations.tietze_simplify_calls")
        self.add("presentations.gens_in", len(args[0].generators))
        self.add("presentations.gens_out", len(result.generators))
        self.add("presentations.relator_letters_out",
                 sum(len(r.lhs) + len(r.rhs) for r in result.relators))

    def _count_homology_first_homology(self, span, args, kwargs, result):
        self.add("homology.first_homology_calls")
        p = args[0]
        self.add("homology.matrix_cells", len(p.relators) * len(p.generators))

    def _count_quotients_count_homs(self, span, args, kwargs, result):
        group = args[1] if len(args) > 1 else kwargs["group"]
        self.add("quotients.count_homs_calls")
        self.add("count_homs_s:" + group.name, span[2] - span[1])
        if result.budget_exceeded:
            self.add("quotients.count_homs_flagged")
        else:
            self.add("quotients.homs_found", result.total)

    def _count_quotients_low_index(self, span, args, kwargs, result):
        self.add("quotients.low_index_calls")
        counts = result.values() if isinstance(result, dict) else [result]
        if any(c.budget_exceeded for c in counts):
            self.add("quotients.low_index_flagged")
        else:
            self.add("quotients.subgroups_found", sum(c.total for c in counts))

    def _count_quotients_verify_witness(self, span, args, kwargs, result):
        self.add("quotients.verify_witness_calls")
        if result[0]:
            self.add("quotients.witness_ok")

    # -- reduction -------------------------------------------------------------

    def self_times(self):
        """Per span name: (summed self time, summed total time)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            s, t = out.get(name, (0.0, 0.0))
            out[name] = (s + (end - start) - child[i], t + (end - start))
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, item in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "item": item}) + "\n")
