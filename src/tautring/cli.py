"""Command-line front end: batch computations in, JSON out.

Exit codes: 0 success, 1 validation error (malformed or missing flags and
an unusable --db or --out path included, found before any computation when
its directory is missing, or when --out names a directory or a path that
cannot be written), 2 verification mismatch (RelationPipelineError,
WeightingSystemError, InterpolationError), 3 cache integrity failure.
Data goes to --out (or stdout); progress and diagnostics go to stderr only.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from fractions import Fraction

from .algebra import InterpolationError
from .graphs import InvalidGraphError, enumerate_stable_graphs, graph_to_json
from .pixton import (WeightingSystemError, omega_constant_term,
                     omega_constant_term_from_samples)
from .relations import (
    CacheConsistencyError,
    CacheIntegrityError,
    RelationDatabase,
    RelationPipelineError,
    boundary_expression,
    dr_relation_coefficient,
    parse_monomial,
    trr_report,
)
from .strata import TautClass, boundary_divisor_class

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_MISMATCH = 2
EXIT_CACHE = 3


def _emit(payload: dict, out_path):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _check_writable(path: str):
    """The output is written after the computation: fail now, with the error
    open() would raise, if path is a directory or cannot be written."""
    directory = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(directory):
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else directory, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _progress(message: str):
    print(message, file=sys.stderr)


def _integers(what: str):
    def parse(text: str) -> tuple:
        try:
            return tuple(int(x) for x in text.split(","))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad {what} {text!r}") from exc
    return parse


def cmd_enumerate(args) -> int:
    graphs = enumerate_stable_graphs(args.genus, args.markings, args.max_edges)
    payload = {
        "genus": args.genus,
        "markings": args.markings,
        "max_edges": args.max_edges,
        "graphs": [
            {"canonical_key": g.canonical_key(), "graph": graph_to_json(g),
             "edges": g.n_edges}
            for g in graphs
        ],
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_omega(args) -> int:
    A = args.ramification
    _progress(f"computing the constant-term class for A={A} up to degree {args.degree}")
    if args.r_samples:
        cls = omega_constant_term_from_samples(args.genus, A, args.degree,
                                               args.r_samples)
    else:
        cls = omega_constant_term(args.genus, A, args.degree)
    payload = {
        "genus": args.genus,
        "ramification": list(A),
        "degree": args.degree,
        "class": cls.to_json(),
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_boundary_expression(args) -> int:
    parse_monomial(args.monomial)  # validate syntax early
    db = RelationDatabase(args.db)
    _progress(f"boundary expression for {args.monomial} on "
              f"({args.genus},{args.markings})")
    record = boundary_expression(args.genus, args.markings, args.monomial, db)
    payload = {
        "genus": args.genus,
        "markings": args.markings,
        "monomial": args.monomial,
        "expression": record.to_json(),
    }
    _emit(payload, args.out)
    return EXIT_OK


def cmd_verify_m11(args) -> int:
    """Re-derive the one-marked genus-one divisor formulas end to end and
    compare every displayed coefficient."""
    db = RelationDatabase(args.db)
    dirr = boundary_divisor_class(1, 1, ("irr",))
    kappa1 = TautClass.kappa(1, 1, 1)
    psi1 = TautClass.psi(1, 1, 1)
    mult = {2: 1, 3: 1, 4: 1}
    forget = (2, 3, 4, 5)
    checks = []

    _progress("pipeline 1: coefficient of a1*a2*a3*a4")
    rel_k = dr_relation_coefficient(1, (1, 1, 1, 1), mult, forget)
    checks.append(("kappa1 pivot (1/4)*24^2", Fraction(144), rel_k.coefficient(
        next(iter(kappa1.terms)))))
    loop_term = next(iter((dirr * 2).terms))
    checks.append(("irreducible-divisor value -(1/4)*48",
                   Fraction(-12), rel_k.coefficient(loop_term) * 2))

    _progress("pipeline 2: coefficient of a1^2*a2*a3")
    rel_p = dr_relation_coefficient(1, (2, 1, 1, 0), mult, forget)
    checks.append(("9*kappa1 + 3*psi1 = dirr, kappa part", Fraction(72),
                   rel_p.coefficient(next(iter(kappa1.terms)))))
    checks.append(("9*kappa1 + 3*psi1 = dirr, psi part", Fraction(24),
                   rel_p.coefficient(next(iter(psi1.terms)))))
    checks.append(("9*kappa1 + 3*psi1 = dirr, boundary part", Fraction(-8),
                   rel_p.coefficient(loop_term) * 2))

    _progress("solving for the divisor formulas")
    be_k = boundary_expression(1, 1, "kappa1", db)
    be_p = boundary_expression(1, 1, "psi1", db)
    twelfth = dirr * Fraction(1, 12)
    checks.append(("kappa1 = (1/12) dirr", True, be_k.value == twelfth))
    checks.append(("psi1 = (1/12) dirr", True, be_p.value == twelfth))

    rep = trr_report(4, 1, db)
    checks.append(("genus-0 recursion printed form disagrees (reported)",
                   False, rep["literal_matches_derived"]))
    checks.append(("genus-0 two-point-fixed form agrees",
                   True, rep["fixed_matches_derived"]))

    failures = 0
    lines = []
    for label, expected, got in checks:
        ok = expected == got
        failures += 0 if ok else 1
        lines.append({"check": label, "expected": str(expected),
                      "computed": str(got), "pass": ok})
        _progress(f"{'PASS' if ok else 'FAIL'}  {label}: expected {expected}, got {got}")
    _emit({"checks": lines, "failures": failures}, args.out)
    return EXIT_OK if failures == 0 else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tautring",
        description="Exact computations in the tautological ring of moduli of curves")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list stable graphs up to isomorphism")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--markings", type=int, required=True)
    p.add_argument("--max-edges", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("omega", help="constant-term double-ramification class")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--ramification", type=_integers("ramification vector"),
                   required=True, help="comma-separated integers summing to 0")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--r-samples", type=_integers("sample moduli"), default=None,
                   help="explicit sampling moduli, an even count split into "
                        "two disjoint halves")
    p.add_argument("--out")
    p.set_defaults(func=cmd_omega)

    p = sub.add_parser("boundary-expression",
                       help="express a psi/kappa monomial as a boundary class")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--markings", type=int, required=True)
    p.add_argument("--monomial", required=True, help='e.g. "psi1^2*kappa1"')
    p.add_argument("--db", default=None, help="relation database file (JSONL)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_boundary_expression)

    p = sub.add_parser("verify-m11",
                       help="run the one-marked genus-one pipelines end to end")
    p.add_argument("--db", default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_m11)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a bad flag; 2 here means a verification mismatch
        return EXIT_VALIDATION if exc.code else EXIT_OK
    try:
        if args.out:
            _check_writable(args.out)
        return args.func(args)
    except (CacheIntegrityError, CacheConsistencyError) as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return EXIT_CACHE
    except (RelationPipelineError, WeightingSystemError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except InterpolationError as exc:
        print(f"verification mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (InvalidGraphError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"cannot access {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
