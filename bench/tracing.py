"""Boundary tracing from outside the program.

The tracer replaces hassecert's public functions, at every module that
binds them, with wrappers that record spans or counts in memory.  Nothing
under src/ changes and nothing is recorded inside a function: a span
covers one call across a module boundary (or a call the defining module
makes to its own public function, since that call also goes through the
module's globals).

A span is (name, start, end, parent, op): parent is the index of the
enclosing span, op the index of the benchmark op that caused it.  Self
time is a span's duration minus the time its direct children cover.
`.errors` counts exceptions that pass through a wrapper, including those
the caller then catches: for delta_surface_point and sample_surface_points
these are the fallbacks brauer.py swallows.  The residue-lift retry inside
delta_surface_point never crosses a boundary and is not visible here.
"""

import json
import sys
import time
from collections import Counter

# (span name, defining module, function, scope).  scope None wraps every
# binding of the function in the package; a module name wraps only that
# module's binding, so the span covers only that module's calls.
SPANS = [
    ("cli.certify_fiber", "cli", "certify_fiber", None),
    ("params.sieve_params", "params", "sieve_params", None),
    ("params.verify_conditions", "params", "verify_conditions", None),
    ("family.build", "family", "fiber_coeffs", "cli"),
    ("family.build", "family", "check_nonvanishing", "cli"),
    ("family.build", "family", "build_curve", "cli"),
    ("family.build", "family", "build_surface", "cli"),
    ("family.build", "family", "check_smooth_curve", "cli"),
    ("family.build", "family", "check_smooth_surface", "cli"),
    ("family.integral_model", "family", "integral_model", None),
    ("family.admissible_model", "family", "admissible_model", None),
    ("local.certify_all_local", "local", "certify_all_local", None),
    ("local.critical_places", "local", "critical_places", None),
    ("local.certify_local_curve", "local", "certify_local_curve", None),
    ("local.witness_verify", "local", "Witness.verify", None),
    ("local.delta_surface_point", "local", "delta_surface_point", None),
    ("local.sample_surface_points", "local", "sample_surface_points", None),
    ("brauer.obstruction_certificate", "brauer", "obstruction_certificate", None),
    ("brauer.certify_invariant", "brauer", "certify_invariant", None),
    ("brauer.sample_invariant", "brauer", "sample_invariant", None),
    ("search.curve_point_search", "search", "curve_point_search", None),
    ("search.surface_point_search", "search", "surface_point_search", None),
    ("arith.count_points", "arith", "count_points_hyperelliptic", None),
    ("arith.sieve_primes_upto", "arith", "sieve_primes_upto", None),
    ("arith.factorize", "arith", "factorize", None),
]

# hot functions get a call counter instead of a span
COUNTS = [
    ("arith.is_prime", "arith", "is_prime", None),
    ("params.is_prime", "arith", "is_prime", "params"),
    ("arith.hilbert_symbol", "arith", "hilbert_symbol", None),
    ("arith.is_rational_square", "arith", "is_rational_square", "search"),
    ("brauer.evaluate_invariant_at_point", "brauer", "evaluate_invariant_at_point", None),
]

# spans whose results are also counted: search.points_found
RESULT_COUNTS = {
    "search.curve_point_search": "search.points_found",
    "search.surface_point_search": "search.points_found",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._undo = []

    # -- wrappers

    def _span(self, name, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        found = RESULT_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".errors"] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if found:
                counts[found] += len(result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        calls, errors = name + ".calls", name + ".errors"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                counts[errors] += 1
                raise

        return wrapper

    # -- installation

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every target; unscoped targets first, so a scoped wrapper
        sits outside the unscoped one and both count a call."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "hassecert" or name.startswith("hassecert.")]
        targets = [(n, mod, fn, scope, self._span) for n, mod, fn, scope in SPANS]
        targets += [(n, mod, fn, scope, self._count) for n, mod, fn, scope in COUNTS]
        targets.sort(key=lambda t: t[3] is not None)
        for name, mod, fn, scope, make in targets:
            home = sys.modules["hassecert." + mod]
            if "." in fn:  # a method: patch the class
                cls_name, attr = fn.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, attr, make(name, getattr(cls, attr)))
                continue
            if scope is not None:
                owner = sys.modules["hassecert." + scope]
                self._patch(owner, fn, make(name, getattr(owner, fn)))
                continue
            original = getattr(home, fn)
            wrapper = make(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis

    def check_nesting(self):
        """Every child span lies inside its parent and belongs to its op."""
        bad = []
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op is None or end < start:
                bad.append(i)
            elif parent is not None:
                pname, pstart, pend, _, pop = self.spans[parent]
                if not (pstart <= start and end <= pend and pop == op):
                    bad.append(i)
        return bad

    def totals(self):
        """Per span name: (self seconds, inclusive seconds, calls)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                covered[parent] += end - start
        self_s, incl, calls = Counter(), Counter(), Counter()
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            self_s[name] += end - start - covered[i]
            incl[name] += end - start
            calls[name] += 1
        return self_s, incl, calls

    def child_time(self, parent_name, child_names):
        """Inclusive seconds of spans named in child_names whose direct
        parent is a parent_name span."""
        total = 0.0
        for name, start, end, parent, op in self.spans:
            if name in child_names and parent is not None \
                    and self.spans[parent][0] == parent_name:
                total += end - start
        return total

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
