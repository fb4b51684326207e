"""Golden regression for the entropy table of the 24 rank-2 permutative
endomorphisms of O_2.

Expected values are embedded as data (the only hard-coded reference
numbers in the package): the entropy of each endomorphism and of its
restriction to the standard masa C_2, each either log 2 or 0.  Everything
else in a row (generator images, verdicts, masa used) is computed."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .algebra import AlgebraElement, Monomial, words
from .dynamics import CantorDynamics, DEFAULT_BUDGET
from .endomorphism import EndomorphismSpec, Permutation
from .errors import MasaNotInvariantError
from .parsing import format_element
from .product_masa import ProductMasaDynamics

LOG2 = "log 2"
ZERO = "0"

# (cycles, expected hte, expected hte restricted to C_2), in table order
TABLE1_EXPECTED: List[Tuple[Tuple[Tuple[int, ...], ...], str, str]] = [
    ((), ZERO, ZERO),                       # id
    (((1, 2),), LOG2, ZERO),
    (((1, 3),), LOG2, LOG2),
    (((1, 4),), LOG2, LOG2),
    (((2, 3),), LOG2, LOG2),
    (((2, 4),), LOG2, LOG2),
    (((3, 4),), LOG2, ZERO),
    (((1, 2, 3),), LOG2, LOG2),
    (((1, 3, 2),), LOG2, LOG2),
    (((1, 2, 4),), LOG2, LOG2),
    (((1, 4, 2),), LOG2, LOG2),
    (((1, 3, 4),), LOG2, LOG2),
    (((1, 4, 3),), LOG2, LOG2),
    (((2, 3, 4),), LOG2, LOG2),
    (((2, 4, 3),), LOG2, LOG2),
    (((1, 2, 3, 4),), LOG2, LOG2),
    (((1, 2, 4, 3),), LOG2, LOG2),
    (((1, 3, 2, 4),), LOG2, ZERO),
    (((1, 3, 4, 2),), LOG2, LOG2),
    (((1, 4, 2, 3),), LOG2, ZERO),
    (((1, 4, 3, 2),), LOG2, LOG2),
    (((1, 2), (3, 4)), ZERO, ZERO),
    (((1, 3), (2, 4)), ZERO, ZERO),
    (((1, 4), (2, 3)), ZERO, ZERO),
]


@dataclass
class Table1Row:
    perm: str
    rho_s1: str
    rho_s2: str
    hte_expected: str
    hte_computed: str
    hte_c2_expected: str
    hte_c2_computed: str
    masa_used: str
    status: str

    def csv_fields(self) -> List[str]:
        return [self.perm, self.rho_s1, self.rho_s2,
                self.hte_expected, self.hte_computed,
                self.hte_c2_expected, self.hte_c2_computed,
                self.masa_used, self.status]


def f_invariant(endo: EndomorphismSpec, max_depth: int = 4) -> bool:
    """Whether rho maps each A_{p,l} into F_{p,l} for p, l <= max_depth
    (the finite premise distinguishing the entropy-zero automorphisms)."""
    n = endo.n_gens
    for p in range(1, max_depth + 1):
        for l in range(1, max_depth + 1):
            for left in words(n, p):
                for right in words(n, l):
                    img = endo.apply(AlgebraElement.monomial(n, left, right))
                    if not img.in_F(p, l):
                        return False
    return True


def compute_row(cycles: Tuple[Tuple[int, ...], ...],
                hte_expected: str, hte_c2_expected: str,
                p_max: int = 4, n_max: int = 16,
                budget: int = DEFAULT_BUDGET) -> Table1Row:
    """Run the full pipeline for one permutation.

    The C_2 column is the exact join-count verdict on the standard masa.
    A log-2 lower bound there closes the entropy value against the rank-2
    upper bound hte <= log 2.  On a zero verdict, an endomorphism that
    leaves every F_{p,l} invariant is one of the entropy-zero
    automorphisms; otherwise the product masa C_{E,F} supplies the log-2
    lower bound.  The status is "match" only when both columns match and
    the word-path images rho(s_i) equal u s_i, read off u's terms."""
    perm = Permutation.from_cycles(cycles, 2, 2)
    endo = EndomorphismSpec.from_permutation(perm)
    label = perm.cycle_notation()
    s1 = endo.apply(AlgebraElement.generator(2, 1))
    s2 = endo.apply(AlgebraElement.generator(2, 2))
    # every right word of u has k >= 1 letters, so by the monomial rule
    # u s_i is the sum of c s_I s_{J'}^* over u's terms c s_I s_{iJ'}^*.
    # Leveled to one right length, an element of one gauge degree has one
    # term dict, so the dicts are compared: a word-path image with a right
    # word of any other length reads as a mismatch.
    u = endo.u.terms
    images_hold = all(
        img.terms == {Monomial(left, right[1:]): c
                      for (left, right), c in u.items() if right[0] == i}
        for i, img in ((1, s1), (2, s2)))

    dyn = CantorDynamics(endo, budget=budget)
    c2 = CantorDynamics.summarize(dyn.entropy(p_max, n_max)).verdict
    hte_c2 = {"log2": LOG2, "zero": ZERO}.get(c2, "inconclusive")

    if c2 == "log2":
        hte, masa = LOG2, "standard"
    elif c2 == "zero" and f_invariant(endo):
        hte, masa = ZERO, "standard"
    else:
        try:
            ef = ProductMasaDynamics(endo, budget=budget)
            verdict = CantorDynamics.summarize(ef.entropy(p_max, n_max)).verdict
            hte = LOG2 if verdict == "log2" else "inconclusive"
            masa = "EF"
        except MasaNotInvariantError:
            hte, masa = "inconclusive", "none"

    status = ("match" if images_hold and hte == hte_expected
              and hte_c2 == hte_c2_expected else "mismatch")
    return Table1Row(label, format_element(s1), format_element(s2),
                     hte_expected, hte, hte_c2_expected, hte_c2,
                     masa, status)


def compute_table1(p_max: int = 4, n_max: int = 16,
                   budget: int = DEFAULT_BUDGET) -> List[Table1Row]:
    return [compute_row(cycles, hte, hte_c2, p_max, n_max, budget)
            for cycles, hte, hte_c2 in TABLE1_EXPECTED]
