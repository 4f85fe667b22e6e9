"""Command-line surface: type listings, count tables, per-representation
analysis with machine-readable reports, and semantic checks of identities
on concrete algebras.

Exit codes: 0 success (and, where a bundled reference report exists for the
request, bit-exact agreement with it); 1 usage or input error; 2 mismatch
against a reference, a failed verification, or axiom violations; 3 analysis
aborted by a resource cap.

Reports are deterministic: identical invocations produce byte-identical
report files, with wall-clock timings segregated into their own optional
file. All configuration is via flags — no environment variables.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from . import evallab, freealg, liftgen, pipeline, symrep
from ._data import data_text
from .exactla import QQ, FieldSpec

__all__ = [
    "main",
    "identity_text",
    "parse_identity_text",
    "bundled_report",
    "bundled_identity",
]


# -- identity file format ----------------------------------------------------------
#
# Line-oriented, round-trippable, independent of internal monomial storage:
#
#   degree 8
#   characteristic 0
#   alternating true
#   term 335 12345678 1
#   term 338 12345678 -3/2
#
# `term INDEX PERM COEFF`: INDEX is the 1-based position of the association
# type in the full deglex list of its degree, PERM the variable labels in
# leaf order (one digit per variable, so the degree is at most 9), COEFF an
# exact rational. With `alternating true` the file is the signed sum over
# all permutations of the listed terms, which must be identity-permutation
# terms on binary types.


def identity_text(identity: pipeline.ExplicitIdentity) -> str:
    n = identity.degree
    btypes = freealg.binary_types(n)
    perm = "".join(str(i) for i in range(1, n + 1))
    lines = [f"degree {n}", "characteristic 0", "alternating true"]
    lines += [f"term {btypes[j - 1].index} {perm} {Fraction(c)}" for j, c in identity.terms]
    return "\n".join(lines) + "\n"


def parse_identity_text(text: str):
    """Parse the identity file format.

    Returns an ExplicitIdentity for alternating files and a plain Polynomial
    otherwise.
    """
    degree = characteristic = None
    alternating = False
    raw_terms: list[tuple[int, tuple[int, ...], Fraction]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        bits = line.split()
        try:
            if bits[0] == "degree" and len(bits) == 2 and 1 <= int(bits[1]) <= 9:
                degree = int(bits[1])
            elif bits[0] == "characteristic" and len(bits) == 2:
                characteristic = int(bits[1])
            elif bits[0] == "alternating" and bits[1:] in (["true"], ["false"]):
                alternating = bits[1] == "true"
            elif bits[0] == "term" and len(bits) == 4:
                perm = tuple(int(ch) for ch in bits[2])
                raw_terms.append((int(bits[1]), perm, Fraction(bits[3])))
            else:
                raise ValueError
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"line {lineno}: cannot parse {line!r}") from None
    if degree is None:
        raise ValueError("missing degree header")
    if characteristic not in (None, 0):
        raise ValueError("only characteristic 0 identity files are supported")
    if not raw_terms:
        raise ValueError("no terms")
    total = freealg.count_types(degree).all
    binary = {t.index: j for j, t in enumerate(freealg.binary_types(degree), start=1)}
    ident_perm = tuple(range(1, degree + 1))
    for index, perm, _ in raw_terms:
        if not 1 <= index <= total:
            raise ValueError(f"type index {index} out of range for degree {degree}")
        if sorted(perm) != list(ident_perm):
            raise ValueError(f"bad permutation {''.join(map(str, perm))}")
    if alternating:
        if any(perm != ident_perm or index not in binary for index, perm, _ in raw_terms):
            raise ValueError(
                "alternating identity files must use identity permutations on binary types"
            )
        return pipeline.ExplicitIdentity(
            degree, tuple((binary[index], coeff) for index, _, coeff in raw_terms)
        )
    terms = [
        (coeff, freealg.labeled_tree(freealg.Monomial(degree, index, perm)))
        for index, perm, coeff in raw_terms
    ]
    return freealg.expand(terms)


# -- bundled reference data --------------------------------------------------------

_REPORT_GOLDENS = {
    (6, 101, "all"): "report_d6_c101_all.json",
    (7, 101, "all"): "report_d7_c101_all.json",
    (8, 0, "sign"): "report_d8_c0_sign.json",
}


def bundled_report(degree: int, characteristic: int, selector) -> str | None:
    """The reference report text for this request, or None if none is bundled.

    A golden listed here but missing from the package raises FileNotFoundError.
    """
    if not isinstance(selector, str):
        return None
    name = _REPORT_GOLDENS.get((degree, characteristic, selector))
    return None if name is None else data_text(name)


def bundled_identity() -> pipeline.ExplicitIdentity:
    """The stored degree-8 identity, read from identity_d8.txt.

    `lyident identity --recompute` and the test suite derive it again from
    scratch through the analysis pipeline.
    """
    identity = parse_identity_text(data_text("identity_d8.txt"))
    assert isinstance(identity, pipeline.ExplicitIdentity)
    return identity


# -- subcommands -------------------------------------------------------------------


def _cmd_types(args) -> int:
    types = freealg.enumerate_types(args.degree, args.cls)
    for i, t in enumerate(types, start=1):
        if args.render:
            mono = freealg.Monomial(args.degree, t.index, tuple(range(1, args.degree + 1)))
            text = freealg.render_monomial(mono, pretty=True)
        else:
            text = freealg.render_type(t)
        print(f"{i:>4}  {text}")
    return 0


def _cmd_counts(args) -> int:
    print(f"{'n':>3} {'bt':>8} {'binary':>8} {'ternary':>8} {'mixed':>8} "
          f"{'mu':>16} {'lambda':>12}")
    for n in range(1, args.max_degree + 1):
        counts = freealg.count_types(n)
        mu = freealg.monomial_count(n)
        lam = str(liftgen.lifting_count(n)) if n >= 4 else "-"
        print(f"{n:>3} {counts.all:>8} {counts.binary:>8} {counts.ternary:>8} "
              f"{counts.mixed:>8} {mu:>16} {lam:>12}")
    return 0


def _parse_selector(text: str):
    if text in ("all", "sign"):
        return text
    return [bit.strip() for bit in text.split(",") if bit.strip()]


@contextmanager
def _log_to_stderr(enabled: bool):
    """While enabled, send the package's INFO records (one line per analysed
    partition) to stderr."""
    if not enabled:
        yield
        return
    logger = logging.getLogger("lyident")
    handler = logging.StreamHandler(sys.stderr)
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _cmd_analyze(args) -> int:
    degree = args.degree
    # ahead of FieldSpec, whose own message would not name the degree
    symrep.check_characteristic(args.char, degree)
    selector = _parse_selector(args.partitions)
    caps = None
    if args.max_rows is not None or args.max_seconds is not None:
        caps = pipeline.ResourceCaps(max_rows=args.max_rows, max_seconds=args.max_seconds)
    with _log_to_stderr(args.verbose):
        reports = pipeline.analyze_degree(
            degree, FieldSpec(args.char), selector, caps=caps, jobs=args.jobs
        )

    payload = pipeline.report_payload(degree, reports, len(pipeline.default_generation(degree)))
    report_text = json.dumps(payload, indent=2) + "\n"
    if args.report:
        Path(args.report).write_text(report_text)
    if args.timings:
        Path(args.timings).write_text(
            json.dumps(pipeline.timings_payload(reports), indent=2) + "\n"
        )

    for rep in reports:
        verdict = {True: "contained", False: "NEW IDENTITY", None: rep.status}[rep.contains]
        a_rank = "-" if rep.a_rank is None else rep.a_rank
        c_rank = "-" if rep.c_rank is None else rep.c_rank
        print(f"{rep.partition.render():>10}  dim {rep.dim:>2}  a_rank {a_rank:>4}  "
              f"c_rank {c_rank:>4}  {verdict}")

    if any(rep.status != "ok" for rep in reports):
        print("analysis aborted by resource cap", file=sys.stderr)
        return 3
    reference = bundled_report(degree, args.char, selector)
    if reference is not None:
        if report_text != reference:
            print("MISMATCH against the bundled reference report", file=sys.stderr)
            return 2
        print("matches the bundled reference report")
    return 0


def _cmd_identity(args) -> int:
    if args.degree < 8:
        print("no such identity exists below degree 8")
        return 0
    if args.degree > 8:
        print("error: degrees above 8 are out of scope", file=sys.stderr)
        return 1
    identity = bundled_identity()
    if args.recompute:
        reports = pipeline.analyze_degree(8, QQ, "sign")
        rows = reports[0].new_rows
        if len(rows) != 1 or pipeline.reconstruct_identity(rows[0], 8) != identity:
            print("MISMATCH: recomputed identity differs from the stored one",
                  file=sys.stderr)
            return 2
        print("recomputed from scratch: matches the stored identity\n")
    text = identity_text(identity) if args.format == "file" else identity.render()
    if args.out:
        Path(args.out).write_text(text if text.endswith("\n") else text + "\n")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def _load_algebra_arg(source: str) -> evallab.AlgebraSC:
    if source in evallab.BUNDLED:
        return evallab.load_algebra(data_text(f"algebras/{source}.json"))
    return evallab.load_algebra(Path(source).read_text())


def _cmd_verify(args) -> int:
    item = parse_identity_text(Path(args.identity).read_text())
    algebra = _load_algebra_arg(args.algebra)
    result = evallab.check_identity(item, algebra, trials=args.trials, seed=args.seed)
    if result.passed:
        n = item.degree
        # a pass counts d^n basis tuples on top of the trials unless it skipped them
        if result.assignments_checked == args.trials:
            basis = (f"; basis tuples skipped: {algebra.dimension}^{n} exceeds "
                     f"{evallab.EXHAUSTIVE_LIMIT:,}")
        else:
            basis = ", plus basis tuples where feasible"
        print(f"PASS: zero on {result.assignments_checked} assignments "
              f"({args.trials} random, seed {args.seed}{basis})")
        if isinstance(item, pipeline.ExplicitIdentity) and item.alternating and algebra.dimension < n:
            print(f"note: the check is vacuous: every alternating {n}-linear map vanishes "
                  f"in dimension {algebra.dimension}")
        return 0
    print(f"FAIL after {result.assignments_checked} assignments")
    for k, v in enumerate(result.witness, start=1):
        print(f"  x{k} = ({', '.join(str(x) for x in v)})")
    print(f"  value = ({', '.join(str(x) for x in result.value)})")
    return 2


def _cmd_validate_algebra(args) -> int:
    try:
        algebra = _load_algebra_arg(args.algebra)
    except evallab.InvalidProduct as ex:
        # a rejected leibniz product is a verdict; a malformed file is an
        # input error, which main reports
        print(f"invalid: {ex}")
        return 2
    violations = evallab.validate(algebra)
    if not violations:
        print(f"valid: all six axioms hold on every basis tuple "
              f"(dimension {algebra.dimension})")
        return 0
    for v in violations:
        print(v.render())
    return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lyident",
        description="Polynomial identities of the bilinear operation in "
                    "binary-ternary algebras: enumeration, per-representation "
                    "analysis, and semantic verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("types", help="list association types in deglex order")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--class", dest="cls", choices=("binary", "ternary", "mixed"),
                   default=None, help="restrict to one operation class")
    p.add_argument("--render", action="store_true",
                   help="render with variable letters instead of dashes")
    p.set_defaults(func=_cmd_types)

    p = sub.add_parser("counts", help="type/monomial/generator count table")
    p.add_argument("--max-degree", type=int, default=12)
    p.set_defaults(func=_cmd_counts)

    p = sub.add_parser("analyze", help="per-partition consequence analysis")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--char", type=int, default=101,
                   help="coefficient field characteristic (0 = rationals)")
    p.add_argument("--partitions", default="all",
                   help='"all", "sign", or comma-separated partitions like "4+2,3+1^3"')
    p.add_argument("--report", default=None, help="write the JSON report here")
    p.add_argument("--timings", default=None, help="write wall-clock timings here")
    p.add_argument("--jobs", type=int, default=1, help="parallel partition workers")
    p.add_argument("--max-rows", type=int, default=None,
                   help="abort a partition beyond this many reduced rows")
    p.add_argument("--max-seconds", type=float, default=None,
                   help="abort a partition beyond this wall time")
    p.add_argument("--verbose", action="store_true",
                   help="log one progress line per analysed partition to stderr")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("identity", help="print the explicit degree-8 identity")
    p.add_argument("--degree", type=int, default=8)
    p.add_argument("--format", choices=("text", "file"), default="text",
                   help="human-readable text or the round-trippable file format")
    p.add_argument("--out", default=None, help="write to this path instead of stdout")
    p.add_argument("--recompute", action="store_true",
                   help="re-derive from scratch and compare before printing")
    p.set_defaults(func=_cmd_identity)

    p = sub.add_parser("verify", help="check an identity file on an algebra")
    p.add_argument("--identity", required=True, help="identity file path")
    p.add_argument("--algebra", required=True,
                   help=f"algebra file path or one of {', '.join(evallab.BUNDLED)}")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("validate-algebra", help="check the six axioms of an algebra file")
    p.add_argument("algebra", help=f"algebra file path or one of {', '.join(evallab.BUNDLED)}")
    p.set_defaults(func=_cmd_validate_algebra)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
