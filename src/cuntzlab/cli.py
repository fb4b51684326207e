"""Command-line front end.

Subcommands: apply, entropy, table1, verify, norm, psi.  Every flag can
also be supplied through an environment variable with the CUNTZLAB_ prefix
(e.g. CUNTZLAB_DEPTH=6); explicit flags win.  Exit codes: 0 success,
1 verification mismatch, 2 usage or parse error, 3 domain error (masa not
invariant, non-unitary, non-homogeneous), 4 enumeration budget exceeded.
The numpy-backed modules are imported by the handlers that use them, so
`--help` and `apply` run without numpy.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import List, Optional

from .algebra import AlgebraElement
from .checks import SUITES, run_suite
from .endomorphism import EndomorphismSpec, Permutation
from .errors import (DEFAULT_BUDGET, BudgetExceededError, CuntzError,
                     CylinderError, DimensionCapError, MasaNotInvariantError,
                     NotHomogeneousError, NotUnitaryError, ParseError)
from .parsing import format_element, parse_element

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_BUDGET = 4

_DOMAIN_ERRORS = (NotUnitaryError, MasaNotInvariantError, NotHomogeneousError,
                  CylinderError, DimensionCapError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _env(name: str, default=None):
    return os.environ.get(f"CUNTZLAB_{name}", default)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cuntzlab",
                     description="Exact Cuntz-algebra endomorphisms and the "
                                 "entropy of their Cantor-set dynamics")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, perm=False, element=False, budget=False):
        """--json, plus only the flags the subcommand reads: the alphabet
        size for a permutation or element text, the rank for a
        permutation, the enumeration budget where words are enumerated."""
        if perm or element:
            p.add_argument("--n-gens", type=int, default=_env("N_GENS", 2),
                           help="alphabet size N (default 2)")
        if perm:
            p.add_argument("--rank", type=int, default=_env("RANK", 2),
                           help="permutation rank k (default 2)")
        if budget:
            p.add_argument("--budget", type=int,
                           default=_env("BUDGET", DEFAULT_BUDGET),
                           help="enumeration budget in words (default "
                                "2^22); also the largest key range that join "
                                "refinement marks instead of sorting")
        p.add_argument("--json", action="store_true",
                       default=_env("JSON", "") not in ("", "0", "false"),
                       help="emit JSON")
        if perm:
            p.add_argument("--perm", default=_env("PERM"),
                           help='cycle notation "(1 2)(3 4)" or id/shift/flip')
            p.add_argument("--perm-word", default=_env("PERM_WORD"),
                           help="one-line image word, e.g. 2134")
        if element:
            p.add_argument("--element", default=_env("ELEMENT"),
                           help='element text, e.g. "s[1] t[2] + s[2] t[1]"')

    p_apply = sub.add_parser("apply", help="apply an endomorphism to an element")
    common(p_apply, perm=True, element=True)

    p_entropy = sub.add_parser("entropy", help="entropy report on a masa")
    common(p_entropy, perm=True, budget=True)
    p_entropy.add_argument("--masa", choices=["standard", "ef"],
                           default=_env("MASA", "standard"))
    p_entropy.add_argument("--depth", type=int, default=_env("DEPTH", 4),
                           help="maximum partition depth p (default 4)")
    p_entropy.add_argument("--steps", type=int, default=_env("STEPS", 16),
                           help="maximum join steps n (default 16)")

    p_table = sub.add_parser("table1", help="full 24-row entropy regression")
    common(p_table, budget=True)
    p_table.add_argument("--depth", type=int, default=_env("DEPTH", 4))
    p_table.add_argument("--steps", type=int, default=_env("STEPS", 16))
    p_table.add_argument("--format", choices=["text", "json", "csv"],
                         default=_env("FORMAT", "text"))

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    common(p_verify)
    p_verify.add_argument("suite", choices=sorted(SUITES) + ["all"])

    p_norm = sub.add_parser("norm", help="operator norm of a homogeneous element")
    common(p_norm, element=True)

    p_psi = sub.add_parser("psi", help="matrix-coefficient decomposition")
    common(p_psi, element=True)
    p_psi.add_argument("--depth", type=int, default=_env("DEPTH", 2),
                       help="embedding depth k (default 2)")
    return parser


def _endomorphism_from_args(args) -> EndomorphismSpec:
    if args.rank < 1:
        raise ValueError(f"--rank must be at least 1, got {args.rank}")
    # a permutation lists all N^k image words; for N >= 2 a rank past the
    # budget's bit length is over the budget, so the exponent is capped
    # there and a huge N^k is never formed
    budget = getattr(args, "budget", DEFAULT_BUDGET)
    size = args.n_gens ** min(args.rank, budget.bit_length() + 1)
    if size > budget:
        raise BudgetExceededError(
            f"a permutation of rank {args.rank} needs {args.n_gens}^"
            f"{args.rank} words, budget {budget}")
    if getattr(args, "perm_word", None):
        # one digit per one-line entry writes at most 9 entries
        if size > 9:
            raise ParseError(
                f"--perm-word writes one digit per entry, so N^k <= 9, but "
                f"{args.n_gens}^{args.rank} = {size}; use --perm", 0)
        text = args.perm_word.strip()
        for pos, c in enumerate(text):
            if c not in "0123456789":
                raise ParseError(f"--perm-word entry {c!r} is not a digit", pos)
        perm = Permutation.from_one_line(map(int, text), args.rank, args.n_gens)
        return EndomorphismSpec.from_permutation(perm)
    if getattr(args, "perm", None):
        perm = Permutation.parse(args.perm, args.rank, args.n_gens)
        return EndomorphismSpec.from_permutation(perm)
    raise ParseError("one of --perm or --perm-word is required", 0)


def _require_element(args) -> AlgebraElement:
    if not getattr(args, "element", None):
        raise ParseError("--element is required", 0)
    return parse_element(args.element, args.n_gens)


def cmd_apply(args) -> int:
    endo = _endomorphism_from_args(args)
    result = endo.apply(_require_element(args))
    text = format_element(result)
    print(json.dumps({"element": text}) if args.json else text)
    return EXIT_OK


def cmd_entropy(args) -> int:
    from .dynamics import CantorDynamics
    from .product_masa import ProductMasaDynamics

    endo = _endomorphism_from_args(args)
    if args.masa == "ef":
        dyn = ProductMasaDynamics(endo, budget=args.budget)
    else:
        dyn = CantorDynamics(endo, budget=args.budget)
    reports = dyn.entropy(args.depth, args.steps)
    summary = CantorDynamics.summarize(reports)
    if args.json:
        print(json.dumps({"reports": [r.to_dict() for r in reports],
                          "summary": summary.to_dict()}, indent=2))
    else:
        for r in reports:
            counts = " ".join(f"{n}:{c}" for n, c in r.counts)
            print(f"p={r.p} verdict={r.verdict} "
                  f"estimate={r.estimate_nats:.6f} "
                  f"refined_steps={r.counts.refined_steps} "
                  f"tail={r.counts.tail or 'none'} counts {counts}")
        print(f"summary: perm={summary.perm} masa={summary.masa} "
              f"verdict={summary.verdict} estimate={summary.estimate_nats:.6f}")
    return EXIT_OK


CSV_COLUMNS = ["perm", "rho_s1", "rho_s2", "hte_expected", "hte_computed",
               "hte_c2_expected", "hte_c2_computed", "masa_used", "status"]


def cmd_table1(args) -> int:
    from .table import compute_table1

    rows = compute_table1(args.depth, args.steps, args.budget)
    fmt = "json" if args.json and args.format == "text" else args.format
    if fmt == "json":
        print(json.dumps([dict(zip(CSV_COLUMNS, r.csv_fields())) for r in rows],
                         indent=2))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            writer.writerow(r.csv_fields())
        sys.stdout.write(buf.getvalue())
    else:
        header = (f"{'perm':12} {'hte':8} {'expected':8} {'hte|C2':8} "
                  f"{'expected':8} {'masa':8} status")
        print(header)
        for r in rows:
            print(f"{r.perm:12} {r.hte_computed:8} {r.hte_expected:8} "
                  f"{r.hte_c2_computed:8} {r.hte_c2_expected:8} "
                  f"{r.masa_used:8} {r.status}")
    ok = all(r.status == "match" for r in rows)
    if not ok:
        for r in rows:
            if r.status != "match":
                print(f"mismatch: {r.perm}", file=sys.stderr)
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    reports = [run_suite(name) for name in names]
    if args.json:
        print(json.dumps(reports, indent=2, default=str))
    else:
        for rep in reports:
            status = "pass" if rep["passed"] else "FAIL"
            print(f"{rep['suite']}: {status}")
            for name, ok in rep["checks"].items():
                if not ok:
                    print(f"  failed: {name}")
            for key, val in rep["details"].items():
                print(f"  {key}: {val}")
    return EXIT_OK if all(r["passed"] for r in reports) else EXIT_MISMATCH


def cmd_norm(args) -> int:
    from .matrices import operator_norm

    value = operator_norm(_require_element(args))
    print(json.dumps({"norm": value}) if args.json else f"{value:.12g}")
    return EXIT_OK


def cmd_psi(args) -> int:
    from .matrices import homogeneous_parts

    if args.depth < 0:
        raise ValueError(f"--depth must be at least 0, got {args.depth}")
    x = _require_element(args)
    dec = homogeneous_parts(x, args.depth)

    def text(word):
        return "".join(map(str, word))

    # each T_J as its nonzero entries [K, M, exact coefficient], sorted
    parts = {text(j): sorted([text(row), text(col), str(c)]
                             for (row, col), c in coeffs.items())
             for j, coeffs in sorted(dec.parts.items())}
    if args.json:
        print(json.dumps({
            "k": args.depth,
            "degree": dec.degree,
            "direction": dec.direction,
            "parts": parts,
        }, indent=2))
    else:
        print(f"degree {dec.degree} ({dec.direction}), k={args.depth}")
        for j, entries in parts.items():
            print(f"T_{j or '1'} = {json.dumps(entries)}")
    return EXIT_OK


COMMANDS = {
    "apply": cmd_apply,
    "entropy": cmd_entropy,
    "table1": cmd_table1,
    "verify": cmd_verify,
    "norm": cmd_norm,
    "psi": cmd_psi,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if getattr(args, "budget", 1) < 1:
            raise ValueError(f"--budget must be at least 1, got {args.budget}")
        return COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, CuntzError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
