"""Matrix embeddings: Psi_k, the homogeneous decomposition with its norm
bound, and operator norms."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from cuntzlab import (AlgebraElement, DimensionCapError, EndomorphismSpec,
                      GaussianRational, Monomial, NotHomogeneousError, Permutation,
                      algebra, embed_degree0, homogeneous_parts, norm_bounds,
                      operator_norm, parse_element, perm_unitary, psi, words)
from cuntzlab.sampling import random_element, random_homogeneous


def test_psi_of_one_is_identity(one):
    mat = psi(one, 1)
    for i in range(2):
        for j in range(2):
            expected = one if i == j else AlgebraElement.zero(2)
            assert mat.entries[i][j] == expected


def test_psi_of_s1(s1, s2):
    mat = psi(s1, 1)
    assert mat.entries[0][0] == s1
    assert mat.entries[0][1] == s2
    assert mat.entries[1][0].is_zero()
    assert mat.entries[1][1].is_zero()


def test_psi_star_homomorphism(rng):
    for _ in range(8):
        a = random_element(rng, max_terms=3, max_len=2)
        b = random_element(rng, max_terms=3, max_len=2)
        assert psi(a * b, 2) == psi(a, 2).matmul(psi(b, 2))
        assert psi(a.adjoint(), 2) == psi(a, 2).conjugate_transpose()


def test_embed_degree0_examples(one):
    assert np.allclose(embed_degree0(one), np.eye(1))
    u12 = perm_unitary(Permutation.parse("(1 2)"))
    mat = embed_degree0(u12)
    expected = np.zeros((4, 4))
    expected[[0, 1, 2, 3], [1, 0, 2, 3]] = 1
    assert np.allclose(mat, expected)
    e = parse_element("1/2 + 1/2 * s[1] t[2] + 1/2 * s[2] t[1]", 2)
    assert np.allclose(embed_degree0(e), np.full((2, 2), 0.5))
    with pytest.raises(NotHomogeneousError):
        embed_degree0(AlgebraElement.generator(2, 1))


NONZERO = [k for k in range(-9, 10) if k]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("part", ["real", "imaginary", "mixed"])
def test_embed_degree0_rounds_each_exact_entry_once(n, part):
    """Entry for entry, the embedding is complex(c) of the coefficient c
    of the element leveled to its longest word: overlapping blocks are
    summed exactly before one rounding, the real and imaginary parts each
    on their own denominators."""
    rng = random.Random(31 * n + len(part))

    def coeff():
        re = Fraction(rng.choice(NONZERO), rng.choice((3, 7, 11)))
        im = Fraction(rng.choice(NONZERO), rng.choice((3, 5, 13)))
        return {"real": GaussianRational(re), "imaginary": GaussianRational(0, im),
                "mixed": GaussianRational(re, im)}[part]

    ws = [w for r in range(3) for w in words(n, r)]
    terms = {Monomial(i, j): coeff() for i in ws for j in ws
             if len(i) == len(j) and rng.random() < 0.6}
    terms[Monomial((1, 2), (2, 1))] = coeff()
    x = AlgebraElement(n, terms)
    index = {w: k for k, w in enumerate(words(n, 2))}
    want = np.zeros((n * n, n * n), dtype=complex)
    for (left, right), c in x.level({0: 2}).terms.items():
        want[index[left], index[right]] = complex(c)
    assert np.array_equal(embed_degree0(x), want)
    if part == "real":  # a held element embeds off its matrix
        assert np.array_equal(embed_degree0(algebra._hold(x)), want)


def test_operator_norm_examples(s1):
    assert operator_norm(s1) == pytest.approx(1.0, abs=1e-9)
    x = parse_element("s[1] t[2] + s[2] t[1]", 2)
    assert operator_norm(x) == pytest.approx(1.0, abs=1e-9)
    two_iso = AlgebraElement.isometry(2, (1, 1)).scaled(2) * \
        AlgebraElement.generator(2, 2).adjoint()
    assert operator_norm(two_iso) == pytest.approx(2.0, abs=1e-9)
    assert operator_norm(AlgebraElement.zero(2)) == 0.0
    # the Gram matrix's top eigenvector, (1, -1), is orthogonal to the
    # all-ones vector, so an eigensolver seeded there would read 0
    diff = parse_element("s[1] t[1] - s[1] t[2]", 2)
    assert operator_norm(diff) == pytest.approx(math.sqrt(2), abs=1e-9)


def test_norm_bounds_mixed(s1, one):
    lo, hi = norm_bounds(s1 + one)
    assert lo == pytest.approx(1.0, abs=1e-9)
    assert hi == pytest.approx(2.0, abs=1e-9)


def test_decomposition_directions(s1):
    dec = homogeneous_parts(s1, 1)
    assert dec.direction == "creation"
    mats = dec.numeric()
    t1, t2 = mats[(1,)], mats[(2,)]
    assert np.allclose(t1, [[1, 0], [0, 0]])
    assert np.allclose(t2, [[0, 1], [0, 0]])
    dec0 = homogeneous_parts(parse_element("s[1] t[2]", 2), 1)
    assert dec0.direction == "scalar"
    assert np.allclose(dec0.numeric()[()], [[0, 1], [0, 0]])
    deca = homogeneous_parts(s1.adjoint(), 1)
    assert deca.direction == "annihilation"


def test_decomposition_requires_homogeneity(s1):
    with pytest.raises(NotHomogeneousError):
        homogeneous_parts(s1 + AlgebraElement.one(2), 2)
    # any k works for genuinely homogeneous input
    s12 = AlgebraElement.isometry(2, (1, 2))
    dec = homogeneous_parts(s12, 1)
    assert dec.direction == "creation"
    assert dec.reconstruct_psi() == psi(s12, 1)


def test_reconstruction_and_norm_bound(rng):
    # the exact identity sum_J T_J^* T_J = X^* X (X X^* for degree < 0),
    # a sum of positive terms, bounds every ||T_J|| by ||X||
    k = 3
    for _ in range(40):
        p = rng.randint(0, 3)
        l = rng.randint(0, 3)
        x = random_homogeneous(rng, 2, p, l)
        dec = homogeneous_parts(x, k)
        assert dec.reconstruct_psi() == psi(x, k)
        assert dec.gram() == (x.adjoint() * x if p >= l else x * x.adjoint())


def test_gram_identity_exact(rng):
    """sum_J T_J^* T_J = X^* X for degree >= 0, sum_J T_J T_J^* = X X^*
    for degree < 0: equal as algebra elements, with no tolerance."""
    for p, l in ((1, 3), (0, 2), (2, 2), (3, 3), (0, 0), (3, 1), (2, 0)):
        for _ in range(4):
            x = random_homogeneous(rng, 2, p, l)
            dec = homogeneous_parts(x, 3)
            assert dec.degree == p - l
            square = x.adjoint() * x if p >= l else x * x.adjoint()
            assert dec.gram() == square, (p, l, str(x))


def test_contractible_element_at_depth_zero():
    # s_11 s_1^* + s_12 s_2^* = s_1, whose canonical form has no right word
    dec = homogeneous_parts(parse_element("s[11] t[1] + s[12] t[2]", 2), 0)
    assert dec.parts == {(1,): {((), ()): 1}}


def test_depth_below_canonical_words():
    with pytest.raises(NotHomogeneousError, match="too small"):
        homogeneous_parts(parse_element("s[111] t[11]", 2), 1)
    with pytest.raises(NotHomogeneousError, match="too small"):
        homogeneous_parts(parse_element("s[11] t[111]", 2), 1)


def test_depth_past_dimension_cap(s1):
    with pytest.raises(DimensionCapError):
        homogeneous_parts(s1, 11)
    with pytest.raises(DimensionCapError):
        homogeneous_parts(s1, 10 ** 9)
    assert homogeneous_parts(s1, 10).k == 10


def test_psi_past_dimension_cap(s1, monkeypatch):
    def no_product(*args):
        raise AssertionError("symbolic product started")

    monkeypatch.setattr(AlgebraElement, "__mul__", no_product)
    for k in (11, 10 ** 9):
        with pytest.raises(DimensionCapError):
            psi(s1, k)
    with pytest.raises(DimensionCapError):
        psi(AlgebraElement.one(3), 7)  # 3^7 = 2187


def test_embed_multiplicative_isometric(rng):
    for _ in range(10):
        a = random_homogeneous(rng, 2, 2, 2)
        b = random_homogeneous(rng, 2, 2, 2)
        product = (a * b).level({0: 2})  # keep the embedding in M_4
        assert np.allclose(embed_degree0(a) @ embed_degree0(b),
                           embed_degree0(product))
        spectral = math.sqrt(max(np.linalg.eigvalsh(
            embed_degree0(a).conj().T @ embed_degree0(a)).max(), 0.0))
        assert operator_norm(a) == pytest.approx(spectral, abs=1e-9)
