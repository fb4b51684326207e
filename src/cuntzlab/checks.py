"""Named verification suites, runnable from the CLI (`cuntzlab verify`).

Each suite re-derives a family of identities at default depths and returns
a report dict: {"suite", "passed", "checks": {name: bool}, "details"}.
Randomized suites embed their seed so failures are reproducible.  Each
suite imports the numpy-backed modules it uses when it runs, so listing
the suites loads no numpy."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

from .algebra import AlgebraElement, words
from .endomorphism import EndomorphismSpec, Permutation, theta, theta_power
from .errors import CuntzError, DiagonalNotPreservedError, MasaNotInvariantError
from .parsing import parse_element
from .sampling import random_homogeneous

if TYPE_CHECKING:
    from .product_masa import ProductMasaDynamics

DEFAULT_SEED = 20230517


def all_rank2_specs() -> List[EndomorphismSpec]:
    from .table import TABLE1_EXPECTED

    return [EndomorphismSpec.from_permutation(Permutation.from_cycles(c, 2, 2))
            for c, _, _ in TABLE1_EXPECTED]


def _word_and_cocycle_paths() -> List[Tuple[str, EndomorphismSpec]]:
    """(check name, spec): the 24 rank-2 permutations on the word path,
    then the same unitaries with perm=None, and the canonical shift, on the
    cocycle path u_{|I|} s_I s_J^* u_{|J|}^*.  Range containment and trace
    invariance are identities of the word rewriting, but theorems about u
    on the cocycle path."""
    specs = all_rank2_specs()
    named = [(endo.label(), endo) for endo in specs]
    for endo in specs + [EndomorphismSpec.canonical_shift(2)]:
        named.append((f"{endo.label()} cocycle path",
                      EndomorphismSpec(endo.u, rank=endo.rank, check=False)))
    return named


def _report(suite: str, checks: Dict[str, bool], **details) -> dict:
    return {"suite": suite, "passed": all(checks.values()),
            "checks": checks, "details": details}


def check_relations() -> dict:
    """Cuntz relations under equals for N = 2, 3, 4."""
    checks = {}
    for n in (2, 3, 4):
        one = AlgebraElement.one(n)
        gens = [AlgebraElement.generator(n, i) for i in range(1, n + 1)]
        ortho = all(
            gens[i].adjoint() * gens[j] ==
            (one if i == j else AlgebraElement.zero(n))
            for i in range(n) for j in range(n))
        total = AlgebraElement.zero(n)
        for g in gens:
            total = total + g * g.adjoint()
        checks[f"N={n} orthogonality"] = ortho
        checks[f"N={n} range projections sum to 1"] = total == one
    return _report("relations", checks)


def check_matrix_norms(samples: int = 100, seed: int = DEFAULT_SEED) -> dict:
    """Matrix-coefficient decomposition at k=3 for random homogeneous
    X in F_{p,l}, p,l <= 3.  Part norms are bounded by ||X|| through the
    exact Gram identity sum_J T_J^* T_J = X^* X (sum_J T_J T_J^* = X X^*
    for degree < 0); a permutation of the T_J's rows keeps that identity,
    so reconstruction is checked exactly against the product path psi."""
    from .matrices import homogeneous_parts, psi

    rng = random.Random(seed)
    k = 3
    norm_ok = recon_ok = True
    for _ in range(samples):
        p = rng.randint(0, 3)
        l = rng.randint(0, 3)
        x = random_homogeneous(rng, 2, p, l)
        dec = homogeneous_parts(x, k)
        square = x.adjoint() * x if dec.degree >= 0 else x * x.adjoint()
        if not dec.gram() == square:
            norm_ok = False
        if not dec.reconstruct_psi() == psi(x, k):
            recon_ok = False
    checks = {"part norms bounded": norm_ok, "exact reconstruction": recon_ok}
    return _report("matrix-norms", checks, seed=seed, samples=samples)


def check_range_containment(max_m: int = 3, max_depth: int = 3) -> dict:
    """For every rank-2 permutation, on both paths, and the canonical
    shift: iterated images of A_{p,p} basis monomials stay inside
    F_{p+m, p+m}, and images of diagonal cylinder projections are exact 0/1
    sums of cylinder projections."""
    from .dynamics import CantorDynamics

    checks = {}
    for name, endo in _word_and_cocycle_paths():
        checks[name] = (
            all(endo.range_containment(p, p, max_m)
                for p in range(1, max_depth + 1))
            and CantorDynamics(endo).diagonal_invariant(max_depth))
    return _report("range-containment", checks)


def check_cocycle() -> dict:
    """Cocycle recursion u_{k+1} = u_k theta^k(u) and the correspondence
    u = sum_i rho(s_i) s_i^*, for every rank-2 permutation."""
    checks = {}
    for endo in all_rank2_specs():
        rec = all(endo.cocycle(k + 1) ==
                  endo.cocycle(k) * theta_power(k, endo.u)
                  for k in range(5))
        total = AlgebraElement.zero(2)
        for i in (1, 2):
            s_i = AlgebraElement.generator(2, i)
            total = total + endo.apply(s_i) * s_i.adjoint()
        checks[f"{endo.label()} recursion"] = rec
        checks[f"{endo.label()} correspondence"] = total == endo.u
    return _report("cocycle", checks)


def check_psi_formulas() -> dict:
    """Closed-form identities for the sigma_12 endomorphism psi and its
    companions."""
    psi12 = EndomorphismSpec.from_label("(1 2)")
    psi1324 = EndomorphismSpec.from_label("(1 3 2 4)")
    s1 = AlgebraElement.generator(2, 1)
    s2 = AlgebraElement.generator(2, 2)
    x = parse_element("s[1] t[2] + s[2] t[1]", 2)
    checks = {}

    ok = True
    for n in range(1, 11):
        s1n = AlgebraElement.isometry(2, (1,) * n)
        expect = (AlgebraElement.isometry(2, (1,) + (2,) * n) * s1.adjoint()
                  + AlgebraElement.isometry(2, (1,) + (2,) * (n - 1) + (1,))
                  * s2.adjoint())
        ok &= psi12.apply(s1n) == expect
    checks["psi(s1^n) closed form, n<=10"] = ok

    ok = True
    px = psi12.apply(x)
    tx = x
    for _ in range(6):
        px = theta(px)
        tx = theta(tx)
        ok &= px == psi12.apply(tx)
    checks["theta^k psi(X) = psi theta^k(X), k<=6"] = ok

    checks["psi'(s1) = psi(s2)"] = psi1324.apply(s1) == psi12.apply(s2)
    checks["psi'(s2) = psi(s1)"] = psi1324.apply(s2) == psi12.apply(s1)

    conj = EndomorphismSpec.from_label("(1 4)(2 3)")
    ok = True
    for p in range(0, 4):
        for l in range(0, 4):
            for left in words(2, p):
                for right in words(2, l):
                    a = AlgebraElement.monomial(2, left, right)
                    ok &= conj.apply(a) == x * a * x.adjoint()
    checks["rho_(14)(23) = Ad(s1 s2* + s2 s1*)"] = ok
    return _report("psi-formulas", checks)


def check_trace_invariance(max_len: int = 3) -> dict:
    """trace_state(rho(a)) = trace_state(a) for all 24 permutative specs,
    on both paths, and the canonical shift, on every monomial with
    |I|, |J| <= max_len, exactly."""
    monomials = [AlgebraElement.monomial(2, left, right)
                 for p in range(max_len + 1) for l in range(max_len + 1)
                 for left in words(2, p) for right in words(2, l)]
    checks = {}
    for name, endo in _word_and_cocycle_paths():
        checks[name] = all(
            endo.apply(a).trace_state() == a.trace_state() for a in monomials)
    return _report("trace-invariance", checks)


ORACLE_PAIRINGS = [
    ("(2 3)", "shift"), ("(1 2)", "psi12"), ("(1 3 2 4)", "psi1324"),
    ("(1 3)", "t13"), ("(1 4 3 2)", "t1432"), ("(1 2 3)", "t123"),
    ("(1 4 2)", "t142"), ("(1 3)(2 4)", "flip"),
    ("(1 4)(2 3)", "first-letter-flip"), ("id", "id"),
]
CASE2_PERMS = ["(1 4)", "(1 3 2)", "(1 2 4)", "(1 4 3)", "(2 3 4)",
               "(1 2 4 3)", "(1 3 4 2)"]


def check_oracles(depth: int = 12) -> dict:
    """All 17 closed-form pairings against engine block maps."""
    from .dynamics import CantorDynamics
    from .oracles import case2_oracle_for, oracle_equivalence

    checks = {}
    for label, oracle in ORACLE_PAIRINGS:
        dyn = CantorDynamics(EndomorphismSpec.from_label(label))
        checks[f"{label} ~ {oracle}"] = oracle_equivalence(dyn, oracle, depth)
    for label in CASE2_PERMS:
        endo = EndomorphismSpec.from_label(label)
        try:
            oracle = case2_oracle_for(endo)
        except ValueError:  # no case-2 oracle fits: a failed check
            checks[f"{label} ~ case2"] = False
            continue
        dyn = CantorDynamics(endo)
        checks[f"{label} ~ {oracle}"] = oracle_equivalence(dyn, oracle, depth)
    return _report("oracles", checks, depth=depth)


def ef_expansion_holds(dyn: ProductMasaDynamics, max_depth: int) -> bool:
    """Direct-expansion oracle for the E/F tables, from ef_projection and
    apply alone (not V): for every E/F word q of depth m <= max_depth,
    rho(P_q) is the sum of the P_x over the x that block_map(m) sends to q."""
    from .product_masa import ef_projection

    for m in range(1, max_depth + 1):
        tbl = dyn.block_map(m)
        sums = {q: AlgebraElement.zero(2) for q in words(2, m)}
        for x in words(2, tbl.window):
            q = tbl.map_word(x)
            sums[q] = sums[q] + ef_projection(x)
        if not all(dyn.rho.apply(ef_projection(q)) == total
                   for q, total in sums.items()):
            return False
    return True


def check_ef(table_depth: int = 10, proj_depth: int = 5,
             expansion_depth: int = 2) -> dict:
    """Product-masa pipeline: projection-word partitions, the direct
    expansion of rho(P_q) for all 24 rank-2 permutations, the tEF table
    match for sigma_12 and sigma_1324, and log-2 verdicts for all four
    rows that need the C_{E,F} lower bound.  A sigma whose E/F dynamics
    raises MasaNotInvariantError or DiagonalNotPreservedError fails its
    expansion check, with the exception under "raised" in the details,
    and the other sigma still run; the four rows' table and verdict
    checks need their dynamics, so a raise there fails the whole suite
    (`run_suite`)."""
    from .dynamics import JoinDynamics
    from .oracles import oracle_equivalence
    from .product_masa import ProductMasaDynamics, ef_projection

    checks = {}
    one = AlgebraElement.one(2)
    for m in range(1, proj_depth + 1):
        projs = [ef_projection(q) for q in itertools.product((1, 2), repeat=m)]
        total = AlgebraElement.zero(2)
        ok = True
        for p in projs:
            # projections of trace 2^-m summing to 1: 2^m disjoint cylinders
            ok &= (p.trace_state() == Fraction(1, 2 ** m)
                   and p * p == p and p.adjoint() == p)
            total = total + p
        checks[f"depth-{m} projection words partition 1"] = ok and total == one
    raised = {}  # check name -> the exception that failed it
    for endo in all_rank2_specs():
        name = (f"{endo.label()} rho(P_q) expands on the EF table to depth "
                f"{expansion_depth}")
        try:
            checks[name] = ef_expansion_holds(ProductMasaDynamics(endo),
                                              expansion_depth)
        except (MasaNotInvariantError, DiagonalNotPreservedError) as exc:
            checks[name] = False
            raised[name] = f"{type(exc).__name__}: {exc}"
    for label in ("(1 2)", "(1 3 2 4)"):
        dyn = ProductMasaDynamics(EndomorphismSpec.from_label(label))
        checks[f"{label} EF table = tEF to depth {table_depth}"] = (
            oracle_equivalence(dyn, "tEF", table_depth))
    for label in ("(1 2)", "(1 3 2 4)", "(3 4)", "(1 4 2 3)"):
        dyn = ProductMasaDynamics(EndomorphismSpec.from_label(label))
        verdict = JoinDynamics.summarize(dyn.entropy(4, 16)).verdict
        checks[f"{label} EF verdict log2"] = verdict == "log2"
    return _report("ef", checks, **({"raised": raised} if raised else {}))


SUITES: Dict[str, Callable[[], dict]] = {
    "relations": check_relations,
    "matrix-norms": check_matrix_norms,
    "range-containment": check_range_containment,
    "cocycle": check_cocycle,
    "psi-formulas": check_psi_formulas,
    "trace-invariance": check_trace_invariance,
    "oracles": check_oracles,
    "ef": check_ef,
}


def run_suite(name: str) -> dict:
    """The report of one suite.  A suite that raises a CuntzError (say, a
    wrong engine that breaks the E/F masa) is a failed suite whose one
    check names the exception, with its message in the details."""
    try:
        return SUITES[name]()
    except CuntzError as exc:
        return _report(name, {f"raised {type(exc).__name__}": False},
                       message=str(exc))
