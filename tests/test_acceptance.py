"""Acceptance gate: one test per headline requirement, each printing a
single PASS/FAIL line (run with -s to see them inline).  Requirements that
a `cuntzlab verify` suite covers call that suite's check function."""

import random
import time

from cuntzlab import (AlgebraElement, CantorDynamics, EndomorphismSpec,
                      compute_table1)
from cuntzlab.checks import (check_ef, check_matrix_norms, check_oracles,
                             check_psi_formulas, check_range_containment,
                             check_relations, check_trace_invariance)
from cuntzlab.sampling import random_element

from test_algebra import all_monomials, oracle_product


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_acceptance_table1_reproduction():
    start = time.monotonic()
    rows = compute_table1(p_max=4, n_max=16)
    elapsed = time.monotonic() - start
    ok = (len(rows) == 24
          and all(r.status == "match" for r in rows)
          and elapsed < 60.0)
    report(f"Table 1 reproduction (24 rows, {elapsed:.1f}s)", ok)


def test_acceptance_shift_entropy():
    dyn = CantorDynamics(EndomorphismSpec.from_label("(2 3)"))
    reports = dyn.entropy(4, 16)
    ok = all(r.verdict == "log2" for r in reports)
    for r in reports:
        ok &= all(inc == 1 for inc in r.increments)  # n = 2..16, exactly 1 bit
    report("shift entropy log 2 with exact 1-bit increments", ok)


def test_acceptance_ef_masa():
    ok = check_ef(table_depth=10, proj_depth=5)["passed"]
    report("E/F masa: tEF tables to depth 10 and log-2 verdicts", ok)


def test_acceptance_oracle_suite():
    start = time.monotonic()
    suite = check_oracles(depth=12)
    elapsed = time.monotonic() - start
    ok = suite["passed"] and len(suite["checks"]) == 17 and elapsed < 30.0
    report(f"oracle equivalence suite (17 pairings, {elapsed:.1f}s)", ok)


def test_acceptance_norm_bound():
    ok = check_matrix_norms(samples=100, seed=421731)["passed"]
    report("matrix-coefficient norm bound and exact reconstruction (100 samples)", ok)


def test_acceptance_range_containments():
    ok = check_range_containment(max_m=3, max_depth=3)["passed"]
    report("iterated images land in F_{p+m,l+m}; cylinders map to 0/1 sums", ok)


def test_acceptance_algebra_core():
    ok = check_relations()["passed"]
    rng = random.Random(75931)
    for _ in range(200):
        a = random_element(rng, max_terms=4, max_len=3)
        b = random_element(rng, max_terms=4, max_len=3)
        c = random_element(rng, max_terms=4, max_len=3)
        ok &= (a * b) * c == a * (b * c)
        ok &= (a * b).adjoint() == b.adjoint() * a.adjoint()
    monos = all_monomials(3)
    for ma in monos:
        ea = AlgebraElement(2, {ma: 1})
        for mb in monos:
            got = ea * AlgebraElement(2, {mb: 1})
            want = oracle_product(ma, mb)
            if want is None:
                ok &= got.is_zero()
            else:
                ok &= got == AlgebraElement(2, {want: 1})
    report("algebra core: relations, 200 random laws, rewriting oracle", ok)


def test_acceptance_sigma12_closed_formulas():
    ok = check_psi_formulas()["passed"]
    report("sigma_12 closed formulas (n <= 10, k <= 6)", ok)


def test_acceptance_trace_invariance():
    ok = check_trace_invariance(max_len=3)["passed"]
    report("trace invariance for all 24 permutative endomorphisms", ok)
