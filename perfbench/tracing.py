"""Per-layer tracing from outside the program.

`Tracer.install()` replaces the public functions and methods of every
tautring layer with wrappers that record a span per call: name, start, end,
parent span and op id.  A function is patched under every name bound to it in
any tautring module, not only where it is defined, so that
`from .algebra import lagrange_interpolate` call sites are traced too.
`uninstall()` restores the originals.

Self time of a span is its duration minus the time its child spans cover;
calls nest strictly in one thread, so the children never overlap.  Spans stay
in memory (about 30 bytes each) and `write()` saves them to a side file.
"""

from __future__ import annotations

import gzip
import os
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# (metric prefix, module, qualified attribute) of every function that gets a
# span.  Several attributes may share one prefix; their times add up.
SPANS = (
    ("algebra.lagrange_interpolate", "algebra", "lagrange_interpolate"),
    ("algebra.finite_difference_extract", "algebra", "finite_difference_extract"),
    ("pixton.omega_constant_term", "pixton", "omega_constant_term"),
    ("pixton.interpolated_constant_term", "pixton", "_interpolated_constant_term"),
    ("pixton.omega_r", "pixton", "omega_r"),
    ("graphs.enumerate_stable_graphs", "graphs", "enumerate_stable_graphs"),
    ("graphs.canonical_graph", "graphs", "canonical_graph"),
    ("graphs.stable_graph", "graphs", "stable_graph"),
    ("graphs.automorphism_count", "graphs", "automorphism_count"),
    ("strata.canonical_term", "strata", "canonical_term"),
    ("strata.add", "strata", "TautClass.__add__"),
    ("strata.products", "strata", "TautClass.mul_psi"),
    ("strata.products", "strata", "TautClass.mul_kappa"),
    ("strata.products", "strata", "TautClass.mul_monomial"),
    ("strata.products", "strata", "TautClass.mul_boundary"),
    ("strata.forget", "strata", "TautClass.forget_pullback"),
    ("strata.forget", "strata", "TautClass.forget_pushforward"),
    ("strata.forget", "strata", "TautClass.pushforward_to"),
    ("strata.gluing_pushforward", "strata", "gluing_pushforward"),
    ("strata.json", "strata", "TautClass.to_json"),
    ("strata.json", "strata", "TautClass.from_json"),
    ("relations.dr_relation_coefficient", "relations", "dr_relation_coefficient"),
    ("relations.dr_relation", "relations", "dr_relation"),
    ("relations.boundary_expression", "relations", "boundary_expression"),
    ("relations.theorem_star_reduce", "relations", "theorem_star_reduce"),
    ("relations.solve_monomial_relations", "relations", "solve_monomial_relations"),
    ("relations.db.load", "relations", "RelationDatabase.__init__"),
    ("relations.db.get", "relations", "RelationDatabase.get"),
    ("relations.db.store", "relations", "RelationDatabase.store"),
)

# Hot functions that are only counted: a span each would cost more than the
# call it measures.
COUNTED = (
    ("algebra.multipoly_mul", "algebra", "MultiPoly.__mul__"),
    ("algebra.multipoly_mul", "algebra", "MultiPoly.__rmul__"),
)


def _file_size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name_ids: dict = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("H")
        self.stack: list = []
        self.self_s: dict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = 0
        self.parent_counts: Counter = Counter()
        self.patched: list = []
        self.functions: list = []
        self.absent: list = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, name, fn, before=None, after=None):
        """A span around fn; before(args) runs first and its value is handed
        to after(args, result, state)."""
        nid = self._name_id(name)
        stack = self.stack
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops = self.span_parent, self.span_op
        self_s, calls, parent_counts = self.self_s, self.calls, self.parent_counts

        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            idx = len(names)
            if stack:
                parent = stack[-1]
                parents.append(parent[0])
                parent_counts[nid, parent[2]] += 1
            else:
                parents.append(-1)
            frame = [idx, 0.0, nid]
            stack.append(frame)
            names.append(nid)
            ops.append(self.op)
            ends.append(0.0)
            start = perf_counter()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                ends[idx] = end
                duration = end - start
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(args, result, state)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks that count work inside a span ---------------------------------

    def _hooks(self, name):
        counts = self.counts
        if name == "pixton.omega_r":
            def after(args, result, state):
                counts["pixton.strata"] += len(result.terms)
            return None, after
        if name == "graphs.enumerate_stable_graphs":
            def after(args, result, state):
                counts["graphs.enumerate_stable_graphs.graphs_out"] += len(result)
            return None, after
        if name == "strata.canonical_term":
            def after(args, result, state):
                counts["strata.canonical_term.useful"] += result is not None
            return None, after
        if name == "strata.add":
            def before(args):
                counts["strata.add.terms_copied"] += len(args[0].terms)
            return before, None
        if name == "relations.db.load":
            def after(args, result, state):
                db = args[0]
                counts["relations.db.load.records"] += len(db.records)
                counts["relations.db.load.bytes"] += _file_size(db.path)
            return None, after
        if name == "relations.db.get":
            def after(args, result, state):
                counts["relations.db.get.hits"] += result is not None
            return None, after
        if name == "relations.db.store":
            def before(args):
                return _file_size(args[0].path)
            def after(args, result, state):
                grown = _file_size(args[0].path) - state
                counts["relations.db.store.appends"] += grown > 0
                counts["relations.db.store.bytes"] += grown
            return before, after
        return None, None

    def _evaluation_counting(self, fn):
        """finite_difference_extract evaluates its black box f once per
        stencil point; count those evaluations."""
        counts = self.counts

        def extract(f, *args, **kwargs):
            def counted(point):
                counts["algebra.finite_difference_extract.evaluations"] += 1
                return f(point)
            return fn(counted, *args, **kwargs)

        return extract

    def _weighting_counting(self, fn):
        counts = self.counts

        def enumerate_weightings(*args, **kwargs):
            for w in fn(*args, **kwargs):
                counts["pixton.weightings"] += 1
                yield w

        return enumerate_weightings

    # -- patching --------------------------------------------------------------

    def install(self):
        """Wrap every target; a target the program no longer has is listed
        in self.absent and its metrics read 0."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "tautring" or key.startswith("tautring.")]
        targets = [(name, module, attr, "span") for name, module, attr in SPANS]
        targets += [(name, module, attr, "count") for name, module, attr in COUNTED]
        targets.append(("pixton.weightings", "pixton", "enumerate_weightings", "gen"))
        for name, module_name, path, kind in targets:
            owner = sys.modules["tautring." + module_name]
            attr = path
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(owner, class_name, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if kind == "span":
                inner = fn
                if name == "algebra.finite_difference_extract":
                    inner = self._evaluation_counting(fn)
                wrapper = self._wrap(name, inner, *self._hooks(name))
            elif kind == "count":
                wrapper = self._count(name, fn)
            else:
                wrapper = self._weighting_counting(fn)
            if isinstance(owner, type):
                self.patched.append((owner, attr, raw))
                setattr(owner, attr,
                        classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
                continue
            # a module-level function: rebind it wherever a module imported it
            self.functions.append(fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self.patched.append((module, key, fn))
                        setattr(module, key, wrapper)

    def stale_bindings(self) -> list:
        """Names in tautring modules still bound to an unwrapped target;
        empty when the wiring is complete."""
        stale = []
        for key, module in sorted(sys.modules.items()):
            if key == "tautring" or key.startswith("tautring."):
                for attr, value in vars(module).items():
                    if any(value is fn for fn in self.functions):
                        stale.append(f"{key}.{attr}")
        return stale

    def uninstall(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    # -- results ---------------------------------------------------------------

    def layer_metrics(self, lru_stats) -> dict:
        """Per-layer metrics; lru_stats maps a layer to (hits, misses) of its
        lru_cache'd functions over the batch."""
        calls, self_s, counts = self.calls, self.self_s, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        def lru_ratio(layer):
            hits, misses = lru_stats.get(layer, (0, 0))
            return ratio(hits, hits + misses)

        omega_r_calls = calls["pixton.omega_r"]
        computed = self._calls_under("pixton.omega_constant_term",
                                     "relations.dr_relation")
        evaluations = counts["algebra.finite_difference_extract.evaluations"]
        return {
            "pixton.omega_constant_term.calls": calls["pixton.omega_constant_term"],
            "pixton.omega_constant_term.self_s": self_s["pixton.omega_constant_term"],
            "pixton.omega_r.calls": omega_r_calls,
            "pixton.omega_r.self_s": self_s["pixton.omega_r"],
            "pixton.weightings": counts["pixton.weightings"],
            "pixton.strata_per_class": ratio(counts["pixton.strata"], omega_r_calls),
            "pixton.interpolation_retries":
                max(calls["pixton.interpolated_constant_term"]
                    - calls["pixton.omega_constant_term"], 0),
            "algebra.lagrange_interpolate.calls": calls["algebra.lagrange_interpolate"],
            "algebra.lagrange_interpolate.self_s": self_s["algebra.lagrange_interpolate"],
            "algebra.multipoly_mul.calls": counts["algebra.multipoly_mul"],
            "algebra.finite_difference_extract.self_s":
                self_s["algebra.finite_difference_extract"],
            "algebra.finite_difference_extract.evaluations": evaluations,
            "relations.dr_relation.calls": calls["relations.dr_relation"],
            "relations.dr_relation.computed": computed,
            "relations.dr_cache.hit_ratio":
                1.0 - ratio(computed, evaluations) if evaluations else 0.0,
            "strata.canonical_term.calls": calls["strata.canonical_term"],
            "strata.canonical_term.self_s": self_s["strata.canonical_term"],
            "strata.canonical_term.useful_ratio":
                ratio(counts["strata.canonical_term.useful"],
                      calls["strata.canonical_term"]),
            "strata.add.calls": calls["strata.add"],
            "strata.add.terms_copied": counts["strata.add.terms_copied"],
            "strata.products.self_s": self_s["strata.products"],
            "strata.forget.self_s": self_s["strata.forget"],
            "strata.gluing_pushforward.self_s": self_s["strata.gluing_pushforward"],
            "strata.json.self_s": self_s["strata.json"],
            "strata.lru.hit_ratio": lru_ratio("strata"),
            "relations.boundary_expression.calls": calls["relations.boundary_expression"],
            "relations.boundary_expression.self_s":
                self_s["relations.boundary_expression"],
            "relations.theorem_star_reduce.self_s":
                self_s["relations.theorem_star_reduce"],
            "relations.solve_monomial_relations.self_s":
                self_s["relations.solve_monomial_relations"],
            "relations.db.load.self_s": self_s["relations.db.load"],
            "relations.db.load.records": counts["relations.db.load.records"],
            "relations.db.load.bytes": counts["relations.db.load.bytes"],
            "relations.db.get.hit_ratio":
                ratio(counts["relations.db.get.hits"], calls["relations.db.get"]),
            "relations.db.store.appends": counts["relations.db.store.appends"],
            "relations.db.store.bytes": counts["relations.db.store.bytes"],
            "relations.db.store.self_s": self_s["relations.db.store"],
            "graphs.enumerate_stable_graphs.calls":
                calls["graphs.enumerate_stable_graphs"],
            "graphs.enumerate_stable_graphs.self_s":
                self_s["graphs.enumerate_stable_graphs"],
            "graphs.enumerate_stable_graphs.graphs_out":
                counts["graphs.enumerate_stable_graphs.graphs_out"],
            "graphs.canonical_graph.calls": calls["graphs.canonical_graph"],
            "graphs.canonical_graph.self_s": self_s["graphs.canonical_graph"],
            "graphs.stable_graph.calls": calls["graphs.stable_graph"],
            "graphs.stable_graph.self_s": self_s["graphs.stable_graph"],
            "graphs.automorphism_count.self_s": self_s["graphs.automorphism_count"],
            "graphs.lru.hit_ratio": lru_ratio("graphs"),
        }

    def _calls_under(self, name, parent):
        ids = self.name_ids
        if name not in ids or parent not in ids:
            return 0
        return self.parent_counts[ids[name], ids[parent]]

    def fired(self) -> set:
        """Metric prefixes whose wrappers ran at least once."""
        out = {name for name, count in self.calls.items() if count}
        out.update(name for name, count in self.counts.items() if count)
        return out

    def write(self, path):
        """Spans as gzip'd TSV: name, start, end, parent index, op id."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("index\tname\tstart_s\tend_s\tparent\top\n")
            names = self.names
            for i in range(len(self.span_name)):
                out.write(f"{i}\t{names[self.span_name[i]]}\t{self.span_start[i]:.9f}"
                          f"\t{self.span_end[i]:.9f}\t{self.span_parent[i]}"
                          f"\t{self.span_op[i]}\n")
