"""The benchmark's workloads.

Each workload is a fixed, exhaustive list of independent items.  A pass
builds fresh package objects (so it pays every cocycle and block-map cache
again, as each CLI invocation does), runs every item in the order it is
given, and then runs the checks that span items.  Items reach the package
only through its public functions, looked up on their module at call time
so that the tracer's wrappers are seen.

* `table1`: one item is one row of the 24-row entropy table, the paper's
  headline result; the only workload that drives the dynamics layer
  (block-map builds and join refinement).
* `ef_dense`: one item is one E/F projection word of depth 5 (the words of
  depths 1..4 are checked once per pass), a dense degree-0 element with
  dyadic coefficients; dominated by exact scalar arithmetic, with no
  endomorphism and no dynamics.
* `sparse_images`: one item is one (endomorphism, monomial) chain
  a, rho(a), rho^2(a), rho^3(a); many small sparse elements with +-1
  coefficients, dominated by element construction, `mul` and cocycles.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import cuntzlab
import cuntzlab.table as cl_table

def digest(entries) -> str:
    """sha256 of the entries, sorted, as canonical JSON."""
    blob = json.dumps(sorted(entries), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Workload:
    """Items and the passes over them.  `corrected` says whether the
    workload's times are corrected by `meter.Meter`."""

    corrected = True

    def __init__(self, tap):
        self.tap = tap


class Table1(Workload):
    name = "table1"
    # Raw times: most of a row is numpy work on arrays of up to 2^19 codes,
    # whose slowdowns the interpreter-bound kernel of meter.py does not
    # track, so correcting its long items only added noise.
    corrected = False

    def items(self):
        return list(cl_table.TABLE1_EXPECTED)

    def start_pass(self):
        self.entries = []

    def run_item(self, item) -> bool:
        cycles, hte, hte_c2 = item
        first = len(self.tap.records)
        row = cl_table.compute_row(cycles, hte, hte_c2, p_max=4, n_max=16)
        joins = [[r.masa, r.p, [c for _, c in r.counts]]
                 for _, _, reports in self.tap.records[first:] for r in reports]
        self.entries.append([row.perm, row.hte_computed, row.hte_c2_computed,
                             row.masa_used, joins])
        return row.status == "match"

    def finish_pass(self) -> dict:
        return {"ok": True, "digest": digest(self.entries)}


class EFDense(Workload):
    """Items are the depth-5 words, which hold 95% of the work.  The words
    of depths 1..4 are built and checked, and every depth's partition of
    1 is checked, in the cross-item step: as items they would put the
    median item on the boundary between 30 cheap and 32 costly items."""

    name = "ef_dense"
    depth = 5

    def items(self):
        return list(itertools.product((1, 2), repeat=self.depth))

    def start_pass(self):
        self.projections = {}

    def run_item(self, q) -> bool:
        p = cuntzlab.ef_projection(q)
        self.projections[q] = p
        return p * p == p and p.adjoint() == p

    def finish_pass(self) -> dict:
        """Build and check the shallower words, then check that the words
        of each depth sum to 1."""
        ok = True
        for m in range(1, self.depth):
            for q in itertools.product((1, 2), repeat=m):
                ok = self.run_item(q) and ok
        one = cuntzlab.AlgebraElement.one(2)
        for m in range(1, self.depth + 1):
            total = cuntzlab.AlgebraElement.zero(2)
            for q, p in self.projections.items():
                if len(q) == m:
                    total = total + p
            ok = ok and total == one
        self.projections = {}
        return {"ok": ok}


class SparseImages(Workload):
    name = "sparse_images"
    max_len = 3
    powers = 3

    def items(self):
        return [(row, left, right)
                for row in range(len(cl_table.TABLE1_EXPECTED))
                for p in range(1, self.max_len + 1)
                for left in cuntzlab.words(2, p)
                for right in cuntzlab.words(2, p)]

    def start_pass(self):
        self.specs = [cuntzlab.EndomorphismSpec.from_permutation(
            cuntzlab.Permutation.from_cycles(cycles, 2, 2))
            for cycles, _, _ in cl_table.TABLE1_EXPECTED]
        self.entries = []

    def run_item(self, item) -> bool:
        row, left, right = item
        rho = self.specs[row]
        p = len(left)
        a = cuntzlab.AlgebraElement.monomial(2, left, right)
        x = rho.apply(a)
        ok = x.trace_state() == a.trace_state() and x.in_F(p + 1, p + 1)
        for m in range(2, self.powers + 1):
            x = rho.apply(x)
            ok = ok and x.in_F(p + m, p + m)
        self.entries.append([rho.label(), left, right,
                             cuntzlab.format_element(x)])
        return ok

    def finish_pass(self) -> dict:
        return {"ok": True, "digest": digest(self.entries)}


WORKLOADS = {w.name: w for w in (Table1, EFDense, SparseImages)}
