"""The product masa C_{E,F}: projection words, invariance checks, and the
sliding-block dynamics that yields the log-2 lower bound where the
standard masa gives zero."""

import itertools
from fractions import Fraction

import pytest

from cuntzlab import (AlgebraElement, EndomorphismSpec, JoinDynamics,
                      MasaNotInvariantError, ProductMasaDynamics,
                      ef_generators, ef_projection, parse_element, theta)
from cuntzlab.endomorphism import theta_power
from cuntzlab.oracles import oracle_equivalence, oracle_map


def test_ef_generators():
    e, f = ef_generators()
    one = AlgebraElement.one(2)
    x = parse_element("s[1] t[2] + s[2] t[1]", 2)
    assert e == (one + x).scaled(Fraction(1, 2))
    assert e * e == e and f * f == f
    assert e.adjoint() == e and f.adjoint() == f
    assert e + f == one
    assert e * f == AlgebraElement.zero(2)


def test_ef_generators_large_alphabet():
    # built without the text grammar, so N >= 10 works as for N = 2; for
    # N > 2, X is a self-adjoint partial isometry rather than a unitary
    e, f = ef_generators(10)
    assert e.sorted_terms() == ef_generators(2)[0].sorted_terms()
    x = e - f
    assert e + f == AlgebraElement.one(10)
    assert x.adjoint() == x and x * x * x == x
    assert ef_projection((1, 2), 10) == e * theta(f)


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6])
def test_projection_words_partition(depth):
    one = AlgebraElement.one(2)
    total = AlgebraElement.zero(2)
    projs = {q: ef_projection(q)
             for q in itertools.product((1, 2), repeat=depth)}
    for q, p in projs.items():
        assert p.trace_state() == Fraction(1, 2 ** depth), q
        assert p * p == p and p.adjoint() == p, q
        total = total + p
    assert total == one
    # mutual orthogonality via two representatives
    qs = list(projs)
    assert projs[qs[0]] * projs[qs[-1]] == AlgebraElement.zero(2)


def test_sigma12_rule_is_tensor_form():
    d = ProductMasaDynamics(EndomorphismSpec.from_label("(1 2)"))
    assert d.rule == {(1, 1): 1, (2, 2): 1, (1, 2): 2, (2, 1): 2}
    # psi(E) = E (x) E + F (x) F literally
    e, f = ef_generators()
    psi_e = EndomorphismSpec.from_label("(1 2)").apply(e)
    assert psi_e == e * theta(e) + f * theta(f)


def test_sigma1324_coincides_with_sigma12():
    a = ProductMasaDynamics(EndomorphismSpec.from_label("(1 2)"))
    b = ProductMasaDynamics(EndomorphismSpec.from_label("(1 3 2 4)"))
    assert a.rule == b.rule


def test_tEF_oracle_match():
    for label in ("(1 2)", "(1 3 2 4)"):
        d = ProductMasaDynamics(EndomorphismSpec.from_label(label))
        assert oracle_equivalence(d, "tEF", 10)
    assert oracle_map("tEF", (1, 1, 2, 2)) == (1, 2, 1)


def test_identity_gives_identity_table():
    d = ProductMasaDynamics(EndomorphismSpec.identity(2))
    tbl = d.block_map(3)
    for w in itertools.product((1, 2), repeat=3):
        assert tbl.map_word(w) == w


def test_ef_entropy_verdicts():
    for label in ("(1 2)", "(1 3 2 4)", "(3 4)", "(1 4 2 3)"):
        d = ProductMasaDynamics(EndomorphismSpec.from_label(label))
        assert JoinDynamics.summarize(d.entropy(4, 16)).verdict == "log2"
        assert d.separation_check(8)


def test_non_invariant_rejected():
    with pytest.raises(MasaNotInvariantError):
        ProductMasaDynamics(EndomorphismSpec.from_label("(1 3)"))
    with pytest.raises(MasaNotInvariantError):
        ProductMasaDynamics(EndomorphismSpec.from_label("(2 3 4)"))


def _shift_commutes(spec, n):
    """psi(theta^n(x)) == theta^n(psi(x)) for x = E and for x = F."""
    return [spec.apply(theta_power(n, x)) == theta_power(n, spec.apply(x))
            for x in ef_generators()]


def _rule_only(monkeypatch, spec):
    """The E/F dynamics of `spec` with the shift-commutation check off."""
    with monkeypatch.context() as mp:
        mp.setattr(ProductMasaDynamics, "_verify_shift_commutation",
                   lambda self: None)
        return ProductMasaDynamics(spec)


@pytest.mark.parametrize("label, k, passing_depths", [
    ("(2 4)", 2, 0),                # its rule exists; n = 1 rejects it
    ("(1 6 5 4 7 8)(2 3)", 3, 1),   # passes n = 1; n = 2 = k - 1 rejects it
])
def test_shift_commutation_checked_to_depth_k_minus_1(monkeypatch, label, k,
                                                      passing_depths):
    spec = EndomorphismSpec.from_label(label, k=k)
    assert _rule_only(monkeypatch, spec).rule
    for n in range(1, passing_depths + 1):
        assert _shift_commutes(spec, n) == [True, True]
    assert _shift_commutes(spec, passing_depths + 1) == [False, False]
    with pytest.raises(MasaNotInvariantError, match="shift-commutation"):
        ProductMasaDynamics(spec)


def test_shift_commutation_needs_u_in_F_kk(monkeypatch):
    """A rank-3 unitary declared as rank 2 has a depth-2 rule and passes the
    check at n = 1, but fails at n = 2: the proof's hypothesis u in F_{k,k}
    is what rejects it."""
    rank3 = EndomorphismSpec.from_label("(1 6 5 4 7 8)(2 3)", k=3)
    spec = EndomorphismSpec(rank3.u, rank=2, check=False)
    assert not spec.u.in_F(2, 2)
    assert _rule_only(monkeypatch, spec).rule
    assert _shift_commutes(spec, 1) == [True, True]
    assert _shift_commutes(spec, 2) == [False, False]
    with pytest.raises(MasaNotInvariantError, match="F_"):
        ProductMasaDynamics(spec)


def test_shift_acts_as_shift_in_ef_coordinates():
    d = ProductMasaDynamics(EndomorphismSpec.from_label("(2 3)"))
    assert d.rule == {(1, 1): 1, (2, 1): 1, (1, 2): 2, (2, 2): 2}
    tbl = d.block_map(2)
    for w in itertools.product((1, 2), repeat=3):
        assert tbl.map_word(w) == w[1:]


def test_sliding_tables_match_rule_reading():
    """Every E/F table agrees with reading the local rule off each window
    of k letters, word by word."""
    for label in ("(1 2)", "(1 3 2 4)", "(3 4)", "(1 4 2 3)"):
        d = ProductMasaDynamics(EndomorphismSpec.from_label(label))
        k = d.endo.rank
        for p in range(1, 11):
            tbl = d.block_map(p)
            for w in itertools.product((1, 2), repeat=p + k - 1):
                expected = tuple(d.rule[w[j:j + k]] for j in range(p))
                assert tbl.map_word(w) == expected, (label, w)
