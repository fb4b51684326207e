"""The verification suites behind `cuntzlab verify` can fail: none of them
passes vacuously, and a wrong oracle pairing fails both the suite and the
CLI."""

import json

import pytest

from cuntzlab import (AlgebraElement, DiagonalNotPreservedError,
                      EndomorphismSpec, GaussianRational,
                      MasaNotInvariantError, Permutation, checks,
                      endomorphism, product_masa)
from cuntzlab.cli import main
from test_dynamics import inversion_failures
from test_endomorphism import window_rewrite


@pytest.mark.parametrize("name", sorted(checks.SUITES))
def test_suite_reports_checks(name):
    report = checks.SUITES[name]()
    assert report["suite"] == name
    assert len(report["checks"]) >= 1
    assert report["passed"] == all(report["checks"].values())


def test_wrong_oracle_pairing_fails(monkeypatch, capsys):
    pairings = [(label, "psi1324" if oracle == "psi12" else oracle)
                for label, oracle in checks.ORACLE_PAIRINGS]
    monkeypatch.setattr(checks, "ORACLE_PAIRINGS", pairings)
    monkeypatch.setattr(checks, "CASE2_PERMS", [])
    report = checks.check_oracles()
    assert not report["passed"]
    assert [name for name, ok in report["checks"].items() if not ok] == \
        ["(1 2) ~ psi1324"]
    assert main(["verify", "oracles"]) == 1
    assert "failed: (1 2) ~ psi1324" in capsys.readouterr().out


def test_inapplicable_case2_oracle_fails(monkeypatch, capsys):
    # (1 2) matches neither first-letter-forgetting case: a failed check
    monkeypatch.setattr(checks, "ORACLE_PAIRINGS", [])
    monkeypatch.setattr(checks, "CASE2_PERMS", checks.CASE2_PERMS + ["(1 2)"])
    report = checks.check_oracles(depth=4)
    assert [name for name, ok in report["checks"].items() if not ok] == \
        ["(1 2) ~ case2"]
    assert main(["verify", "oracles"]) == 1
    assert "failed: (1 2) ~ case2" in capsys.readouterr().out


def test_cocycle_path_mutant_fails_containment_and_trace(monkeypatch):
    # u_2 with one term dropped: only the cocycle path reads the cocycles
    cocycle = EndomorphismSpec.cocycle

    def dropped(self, k):
        u_k = cocycle(self, k)
        if k != 2:
            return u_k
        terms = dict(u_k.terms)
        del terms[min(terms)]
        return AlgebraElement(self.n_gens, terms)

    monkeypatch.setattr(EndomorphismSpec, "cocycle", dropped)
    for report in (checks.check_range_containment(max_m=1, max_depth=2),
                   checks.check_trace_invariance(max_len=2)):
        failed = {name for name, ok in report["checks"].items() if not ok}
        # the 24 permutations and the shift on the cocycle path
        assert len(failed) == 25, report["suite"]
        assert all(name.endswith(" cocycle path") for name in failed)
        assert not report["passed"]


def test_matrix_norms_mutants_fail(monkeypatch):
    """Reading J off the front of the row word permutes the T_J's rows,
    which keeps the Gram identity: only the psi oracle catches it.
    Dropping one coefficient breaks the Gram identity."""
    from cuntzlab import matrices

    real = matrices.homogeneous_parts

    def j_first(x, k):
        dec = real(x, k)
        d = abs(dec.degree)
        parts = {}
        for j, coeffs in dec.parts.items():
            for (row, col), c in coeffs.items():
                if dec.degree < 0:
                    row, col = col, row
                word = row + j
                key = (word[d:], col) if dec.degree >= 0 else (col, word[d:])
                parts.setdefault(word[:d], {})[key] = c
        return matrices.HomogeneousDecomposition(dec.n_gens, k, dec.degree,
                                                 parts)

    def dropped(x, k):
        dec = real(x, k)
        j = min(dec.parts)
        coeffs = dict(dec.parts[j])
        del coeffs[min(coeffs)]
        return matrices.HomogeneousDecomposition(
            dec.n_gens, k, dec.degree, {**dec.parts, j: coeffs})

    monkeypatch.setattr(matrices, "homogeneous_parts", j_first)
    report = checks.check_matrix_norms(samples=20)
    assert report["checks"] == {"part norms bounded": True,
                                "exact reconstruction": False}
    monkeypatch.setattr(matrices, "homogeneous_parts", dropped)
    report = checks.check_matrix_norms(samples=20)
    assert not report["checks"]["part norms bounded"]


def test_raising_suite_is_a_failed_report(monkeypatch, capsys):
    """A wrong engine that breaks the E/F masa makes `check_ef` raise; the
    suite fails as a mismatch (exit 1, not the domain-error exit 3) and
    the suites after it still run."""
    def broken(self, endo, budget=None):
        raise MasaNotInvariantError("C_{E,F} is not invariant")

    monkeypatch.setattr(product_masa.ProductMasaDynamics, "__init__", broken)
    assert main(["verify", "ef"]) == 1
    out = capsys.readouterr().out
    assert "ef: FAIL" in out
    assert "failed: raised MasaNotInvariantError" in out
    # the other suites are stubbed to passing reports, to keep this quick
    ran = []
    for name in checks.SUITES:
        if name != "ef":
            monkeypatch.setitem(checks.SUITES, name, lambda name=name: (
                ran.append(name) or checks._report(name, {"stub": True})))
    assert main(["verify", "all", "--json"]) == 1
    reports = json.loads(capsys.readouterr().out)
    assert [r["suite"] for r in reports] == sorted(checks.SUITES)
    assert len(reports) == 8
    assert sorted(ran) == sorted(set(checks.SUITES) - {"ef"})
    (ef,) = [r for r in reports if r["suite"] == "ef"]
    assert ef["passed"] is False
    assert ef["checks"] == {"raised MasaNotInvariantError": False}
    assert "C_{E,F} is not invariant" in ef["details"]["message"]
    assert all(r["passed"] for r in reports if r["suite"] != "ef")


def _inverse_rewrite(self, word):
    """EndomorphismSpec._rewrite with sigma^{-1} in place of sigma."""
    return window_rewrite(self.perm.inverse(), word)


def test_inverse_rewrite_mutant_fails_verify_ef(monkeypatch, capsys):
    """sigma^{-1} in the word rewriting: rho(P_q) no longer expands on
    the E/F table for exactly the eight 3-cycles, and `verify ef` exits 1
    (a mismatch), not 3 (a domain error)."""
    monkeypatch.setattr(EndomorphismSpec, "_rewrite", _inverse_rewrite)
    assert main(["verify", "ef"]) == 1
    out = capsys.readouterr().out.splitlines()
    failed = [line.removeprefix("  failed: ") for line in out
              if line.startswith("  failed: ")]
    cycles = ["(1 2 3)", "(1 3 2)", "(1 2 4)", "(1 4 2)", "(1 3 4)",
              "(1 4 3)", "(2 3 4)", "(2 4 3)"]
    assert sorted(failed) == sorted(
        f"{c} rho(P_q) expands on the EF table to depth 2" for c in cycles)


def _swap_one_transition(build):
    """`_mealy_automaton` with the forward-table entries of the windows 11
    and 12 traded, so that pi runs sigma composed with (1 2), the
    transposition of those two words."""
    def swapped(sigma):
        record = build(sigma)
        for forward in record[3:5]:  # nexts and letters
            forward[0], forward[1] = forward[1], forward[0]
        return record
    return swapped


def test_swapped_transition_mutant_fails_verify_and_table1(monkeypatch,
                                                           capsys):
    """One transition of the automaton swapped: apply runs
    rho_{sigma (1 2)}, still an endomorphism, so the Cuntz relations and
    the identities of the word rewriting hold, but it is not rho_sigma.
    The cocycle correspondence and the E/F expansion fail for all 24
    sigma, four psi formulas fail, every Table 1 row mismatches on its
    images, and the E/F column moves on eight rows while the C_2 column,
    read off sigma^{-1}, does not.  T(pi(W))|_p = W|_p fails exactly
    where sigma(11) and sigma(12) end in different letters."""
    monkeypatch.setattr(endomorphism, "_mealy_automaton",
                        _swap_one_transition(endomorphism._mealy_automaton))
    assert main(["verify", "all", "--json"]) == 1
    failed = {r["suite"]: [name for name, ok in r["checks"].items() if not ok]
              for r in json.loads(capsys.readouterr().out)}
    labels = [endo.label() for endo in checks.all_rank2_specs()]
    assert failed.pop("cocycle") == [f"{l} correspondence" for l in labels]
    assert failed.pop("ef") == [
        f"{l} rho(P_q) expands on the EF table to depth 2" for l in labels]
    assert failed.pop("psi-formulas") == [
        "psi(s1^n) closed form, n<=10", "psi'(s1) = psi(s2)",
        "psi'(s2) = psi(s1)", "rho_(14)(23) = Ad(s1 s2* + s2 s1*)"]
    assert failed == dict.fromkeys(["matrix-norms", "oracles",
                                    "range-containment", "relations",
                                    "trace-invariance"], [])
    from cuntzlab import table

    rows = table.compute_table1()
    assert all(row.status == "mismatch"
               and row.hte_c2_computed == row.hte_c2_expected for row in rows)
    assert [row.perm for row in rows if row.hte_computed != row.hte_expected] \
        == ["id", "(1 2)", "(3 4)", "(1 3 2 4)", "(1 4 2 3)", "(1 2)(3 4)",
            "(1 3)(2 4)", "(1 4)(2 3)"]
    perms = [Permutation.parse(row.perm) for row in rows]
    assert [p for p in perms if inversion_failures(p, 3)] == \
        [p for p in perms if p((1, 1))[-1] != p((1, 2))[-1]]


def test_identity_bogolubov_mutant_fails_verify_ef(monkeypatch, capsys):
    """V = I passes the unitarity check but makes sigma' = sigma, so the
    E/F tables are the C_2 tables: `verify ef` exits 1 on 21 expansion
    checks and the four log-2 verdicts.  So a conjugate that hard-wires
    the Hadamard matrix instead of reading V fails this test."""
    one, zero = GaussianRational(1), GaussianRational(0)
    monkeypatch.setattr(product_masa, "V", ((one, zero), (zero, one)))
    assert main(["verify", "ef"]) == 1
    failed = [line.removeprefix("  failed: ")
              for line in capsys.readouterr().out.splitlines()
              if line.startswith("  failed: ")]
    expansion = [name for name in failed
                 if name.endswith("rho(P_q) expands on the EF table to depth 2")]
    assert len(expansion) == 21
    assert {name for name in failed if name.endswith("EF verdict log2")} == {
        f"{label} EF verdict log2"
        for label in ("(1 2)", "(1 3 2 4)", "(3 4)", "(1 4 2 3)")}


def test_raising_sigma_is_a_failed_ef_check(monkeypatch):
    """A sigma whose E/F dynamics raises fails its own expansion check,
    named in the details, and the other sigma still run."""
    build = product_masa.ProductMasaDynamics.__init__

    def broken(self, endo, *args, **kwargs):
        if endo.label() == "(1 3)":
            raise DiagonalNotPreservedError("no 0/1 sum", (1, 2))
        build(self, endo, *args, **kwargs)

    monkeypatch.setattr(product_masa.ProductMasaDynamics, "__init__", broken)
    report = checks.check_ef(table_depth=2, proj_depth=1, expansion_depth=1)
    name = "(1 3) rho(P_q) expands on the EF table to depth 1"
    assert [n for n, ok in report["checks"].items() if not ok] == [name]
    assert report["details"] == {
        "raised": {name: "DiagonalNotPreservedError: no 0/1 sum"}}
    assert not report["passed"]
    monkeypatch.undo()
    assert checks.check_ef(table_depth=2, proj_depth=1,
                           expansion_depth=1)["details"] == {}


def test_inverse_rewrite_mutant_fails_table1_rows(monkeypatch):
    """sigma^{-1} in place of sigma in the word rewriting: Table 1's
    block maps do not use it, so its entropy columns still match, but the
    generator images rho(s_i) differ from u s_i on exactly the rows whose
    sigma is not an involution."""
    from cuntzlab import table

    monkeypatch.setattr(EndomorphismSpec, "_rewrite", _inverse_rewrite)
    rows = table.compute_table1()
    failed = [row.perm for row in rows if row.status != "match"]
    perms = [Permutation.parse(row.perm) for row in rows]
    assert failed == [p.cycle_notation() for p in perms if p.inverse() != p]
    assert len(failed) == 14
    assert all(row.hte_computed == row.hte_expected
               and row.hte_c2_computed == row.hte_c2_expected for row in rows)


def test_image_check_reads_the_codes():
    """`images_hold` checks the images against sigma's codes: the images
    of each of the 24 sigma pass for sigma and fail for sigma with the
    codes of two words swapped, whether or not they share a first letter."""
    from cuntzlab import table

    for sigma in (Permutation.from_cycles(c, 2, 2)
                  for c, _, _ in table.TABLE1_EXPECTED):
        spec = EndomorphismSpec.from_permutation(sigma)
        images = [spec.apply(AlgebraElement.generator(2, i)) for i in (1, 2)]
        assert table.images_hold(sigma, images), sigma
        for a, b in ((0, 1), (0, 2), (1, 3)):
            codes = list(sigma.codes)
            codes[a], codes[b] = codes[b], codes[a]
            swapped = Permutation(2, 2, codes)
            assert not table.images_hold(swapped, images), (sigma, a, b)


def _linear_part(linear, k):
    """`product_masa._dual_permutation` with sigma' = A, the linear part
    of sigma, in place of A^{-T}."""
    codes = [0] * 2 ** k
    for x in range(1, 2 ** k):
        low = x & -x
        codes[x] = codes[x ^ low] ^ linear[low.bit_length() - 1]
    return Permutation(k, 2, codes)


def test_linear_part_mutant_fails_verify_ef_and_table1(monkeypatch, capsys):
    """sigma' = A in place of A^{-T}: the E/F tables are wrong on the 16
    rows where A^{-T} != A (A is orthogonal on the other 8), so
    `verify ef` exits 1 on those expansion checks, both tEF tables and
    the four log-2 verdicts, and the four E/F rows of Table 1 mismatch."""
    kept = {"id", "(1 4)", "(2 3)", "(1 2 4 3)", "(1 3 4 2)", "(1 2)(3 4)",
            "(1 3)(2 4)", "(1 4)(2 3)"}
    dual = product_masa._dual_permutation
    assert kept == {spec.label() for spec in checks.all_rank2_specs()
                    if _linear_part(spec.perm.affine_form()[0], 2)
                    == dual(spec.perm.affine_form()[0], 2)}
    moved = [spec.label() for spec in checks.all_rank2_specs()
             if spec.label() not in kept]
    monkeypatch.setattr(product_masa, "_dual_permutation", _linear_part)
    assert main(["verify", "ef"]) == 1
    failed = [line.removeprefix("  failed: ")
              for line in capsys.readouterr().out.splitlines()
              if line.startswith("  failed: ")]
    ef_rows = ("(1 2)", "(1 3 2 4)", "(3 4)", "(1 4 2 3)")
    assert failed == [
        *(f"{label} rho(P_q) expands on the EF table to depth 2"
          for label in moved),
        "(1 2) EF table = tEF to depth 10",
        "(1 3 2 4) EF table = tEF to depth 10",
        *(f"{label} EF verdict log2" for label in ef_rows)]
    from cuntzlab import table

    rows = table.compute_table1()
    assert [row.perm for row in rows if row.status != "match"] == [
        "(1 2)", "(3 4)", "(1 3 2 4)", "(1 4 2 3)"]
    assert all(row.masa_used == "EF" and row.hte_computed == "inconclusive"
               for row in rows if row.status != "match")
