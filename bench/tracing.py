"""Run-time hooks into cuntzlab for the benchmark.

Nothing here edits the package: every hook is installed by replacing an
attribute (a module function or a class method) for the duration of a pass
and putting the original object back afterwards.

* `Patcher` does the replacing and the restoring.
* `JoinTap` records what `JoinDynamics.entropy` returns.  It is installed
  in every run, traced or not, so the join-refinement counts come from the
  returned counts and the call arguments and repeat exactly.
* `Tracer` is installed only in the traced pass.  It records one span
  (name, start, end, parent span) per call of each wrapped layer function,
  in flat in-memory arrays, plus plain counters for the scalar layer, where
  a span per call would swamp the work being measured.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
import weakref
from array import array
from fractions import Fraction

import numpy as np


class Patcher:
    """Replaces attributes and restores the originals, last in first out."""

    def __init__(self):
        self._saved = []  # (owner, attribute, original object)

    def replace(self, owner, attr, new):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def replace_everywhere(self, original, new):
        """Rebind every name that a cuntzlab module holds for `original`,
        so that `from .x import f` import sites see the wrapper too."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cuntzlab"
                                   or mod_name.startswith("cuntzlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.replace(mod, attr, new)

    def saved(self):
        return list(self._saved)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# -- join refinement counts from outputs ---------------------------------

class JoinTap:
    """Keeps (n_gens, step, reports) for every `JoinDynamics.entropy` call."""

    def __init__(self):
        self.records = []

    def install(self, patcher: Patcher, join_dynamics_cls):
        original = vars(join_dynamics_cls)["entropy"]
        records = self.records

        @functools.wraps(original)
        def entropy(dyn, *args, **kwargs):
            reports = original(dyn, *args, **kwargs)
            records.append((dyn.n_gens, dyn.step, reports))
            return reports

        patcher.replace(join_dynamics_cls, "entropy", entropy)


def join_stats(records) -> dict:
    """Refinement steps, words scanned, and the share of those words spent
    after the count first stopped growing (N(n+1,p) = N(n,p)), after which
    every later step is known to return the same count."""
    steps = words = waste = 0
    for n_gens, step, reports in records:
        for report in reports:
            counts = [c for _, c in report.counts]
            stable = False
            for n in range(2, len(counts) + 1):
                w = n_gens ** (report.p + (n - 1) * step)
                steps += 1
                words += w
                if stable:
                    waste += w
                stable = stable or counts[n - 1] == counts[n - 2]
    return {"steps": steps, "words": words,
            "stable_waste_share": waste / words if words else 0.0}


# -- spans ---------------------------------------------------------------

def self_times(name_id, start, end, parent, n_names):
    """Per-name (calls, total self time), where a span's self time is its
    duration minus the durations of its direct children."""
    name_id = np.asarray(name_id, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    own = dur - child
    calls = np.bincount(name_id, minlength=n_names)
    self_s = np.bincount(name_id, weights=own, minlength=n_names)
    return calls, self_s


def _int_real(x) -> bool:
    if isinstance(x, int):
        return True
    if isinstance(x, Fraction):
        return x.denominator == 1
    return not x.im and x.re.denominator == 1


SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__neg__")


class Tracer:
    """Span recorder; `install` wraps the layers, `restore` undoes it."""

    def __init__(self):
        self.names: list = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.scalar_ops = 0
        self.scalar_int_ops = 0
        self.mul_terms_out = 0
        self.level_terms_in = 0
        self.level_terms_out = 0
        self.block_builds = 0
        self.block_words = 0
        self._patcher = Patcher()

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, after=None):
        """`fn` wrapped so that each call records one span."""
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        stack = self._stack
        name_ids, starts, ends, parents = (self.name_id, self.start, self.end,
                                           self.parent)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count_scalar(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *other):
            tracer.scalar_ops += 1
            if _int_real(a) and all(_int_real(b) for b in other):
                tracer.scalar_int_ops += 1
            return fn(a, *other)

        return wrapper

    def install(self):
        from cuntzlab import algebra, dynamics, endomorphism, product_masa, table
        from cuntzlab.scalars import GaussianRational

        p = self._patcher
        for op in SCALAR_OPS:
            p.replace(GaussianRational, op,
                      self._count_scalar(vars(GaussianRational)[op]))

        def on_mul(args, out):
            self.mul_terms_out += len(out.terms)

        def on_level(args, out):
            self.level_terms_in += len(args[0].terms)
            self.level_terms_out += len(out.terms)

        built = weakref.WeakKeyDictionary()

        def on_block_map(args, table_out):
            dyn, depth = args[0], args[1]
            depths = built.setdefault(dyn, set())
            if depth not in depths:
                depths.add(depth)
                self.block_builds += 1
                self.block_words += len(table_out.table)

        elem = algebra.AlgebraElement
        spec = endomorphism.EndomorphismSpec
        join = dynamics.JoinDynamics
        for owner, attr, name, after in (
                (elem, "__init__", "algebra.init", None),
                (elem, "level", "algebra.level", on_level),
                (elem, "__eq__", "algebra.eq", None),
                (elem, "in_F", "algebra.in_F", None),
                (elem, "trace_state", "algebra.trace_state", None),
                (spec, "apply", "endomorphism.apply", None),
                (spec, "cocycle", "endomorphism.cocycle", None),
                (join, "block_map", "dynamics.block_map", on_block_map),
                (join, "entropy", "dynamics.join", None),
                (product_masa.ProductMasaDynamics, "__init__",
                 "product_masa.init", None)):
            p.replace(owner, attr, self.span(name, vars(owner)[attr], after))
        for fn, name, after in (
                (algebra.mul, "algebra.mul", on_mul),
                (endomorphism.theta, "endomorphism.theta", None),
                (product_masa.ef_projection, "product_masa.ef_projection", None),
                (table.f_invariant, "table.f_invariant", None),
                (table.compute_row, "table.compute_row", None)):
            p.replace_everywhere(fn, self.span(name, fn, after))

    def wrapped(self):
        """(owner, attribute, original) for every replacement in force."""
        return self._patcher.saved()

    def restore(self):
        self._patcher.restore()

    # -- results ------------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict:
        calls, self_s = self_times(self.name_id, self.start, self.end,
                                   self.parent, len(self.names))
        by_name = {n: (int(calls[i]), float(self_s[i]))
                   for i, n in enumerate(self.names)}
        out = {
            "scalars.ops": self.scalar_ops,
            "scalars.int_share": (self.scalar_int_ops / self.scalar_ops
                                  if self.scalar_ops else 0.0),
        }
        for name in ("algebra.init", "algebra.mul", "algebra.level",
                     "algebra.eq", "algebra.in_F", "algebra.trace_state",
                     "endomorphism.apply", "endomorphism.cocycle",
                     "endomorphism.theta", "dynamics.block_map",
                     "product_masa.init", "product_masa.ef_projection",
                     "table.f_invariant"):
            out[name + ".calls"], out[name + ".self_s"] = by_name[name]
        out["algebra.mul.terms_out"] = self.mul_terms_out
        out["algebra.level.expansion"] = (
            self.level_terms_out / self.level_terms_in
            if self.level_terms_in else 0.0)
        out["dynamics.block_map.builds"] = self.block_builds
        out["dynamics.block_map.words"] = self.block_words
        out["dynamics.join.self_s"] = by_name["dynamics.join"][1]
        out["table.compute_row.self_s"] = by_name["table.compute_row"][1]
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        out["trace.coverage"] = float(dur[parent < 0].sum()) / wall_s
        return out

    def dump(self, path):
        """Write the spans as gzip-compressed JSON columns."""
        blob = json.dumps({"names": self.names,
                           "name_id": self.name_id.tolist(),
                           "start": self.start.tolist(),
                           "end": self.end.tolist(),
                           "parent": self.parent.tolist()})
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(blob)
