"""Per-partition consequence matrices and the search for new binary identities.

For a partition pi of n, the lifted identities fill a block matrix L_pi with
one d x d representation block per association type, binary types rightmost.
A row of RCF(L_pi) whose leading 1 falls in a binary block is zero everywhere
left of it, so it is an identity involving the bilinear operation alone; the
submatrix A_pi of such rows is measured against B_pi, the reduced
skew-symmetry relations of the binary types. reduce_identities keeps
RCF(L_pi) without ever holding L_pi, and A_pi is read off it with
tail_rows from the first binary column. It eliminates in a fill-reducing
order: the identities fewest terms first, the nonbinary blocks least
touched first. Neither order changes A_pi: the RCF does not depend on the
order rows arrive in, and its binary tail, the RCF of the rows in the
row space that vanish left of the binary columns, does not depend on how
the nonbinary columns are ordered. A row of A_pi outside the row space of
B_pi is an identity the bilinear operation satisfies beyond
anticommutativity. In the sign representation the blocks are 1 x 1 and rows
are alternating sums, which is where the degree-8 identity appears.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

from . import freealg, liftgen, symrep
from .exactla import GF101, QQ, FieldSpec, IncrementalReducer

__all__ = [
    "ExplicitIdentity",
    "PartitionReport",
    "ResourceCaps",
    "CertifyResult",
    "reduce_identities",
    "analyze_partition",
    "select_partitions",
    "analyze_degree",
    "default_generation",
    "reconstruct_identity",
    "certify_new",
    "report_payload",
    "timings_payload",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExplicitIdentity:
    """An identity of the bilinear operation: terms over binary types.

    terms pairs a binary type index (1-based within the degree's binary
    types) with an exact coefficient. With the alternating flag the identity
    is the sum over all sigma in S_n with sign epsilon(sigma) of the terms'
    bracketings applied to the permuted variables.
    """

    degree: int
    terms: tuple[tuple[int, object], ...]
    alternating: bool = True

    def __post_init__(self):
        if not self.terms:
            raise ValueError("an explicit identity needs at least one term")
        b = len(freealg.binary_types(self.degree))
        seen = set()
        for j, coeff in self.terms:
            if not 1 <= j <= b:
                raise ValueError(f"binary type index {j} out of range 1..{b}")
            if j in seen:
                # one coefficient per type: evaluation would sum a repeat, certify_new keep the last
                raise ValueError(f"binary type index {j} appears twice")
            seen.add(j)
            if type(coeff) is not int and not isinstance(coeff, Fraction):
                # render needs an exact number; a float would enter as its binary value
                raise ValueError(f"coefficient {coeff!r}: give an int or a Fraction")
            if not coeff:
                raise ValueError("zero coefficient in explicit identity")

    def render(self) -> str:
        n = self.degree
        btypes = freealg.binary_types(n)
        lines = []
        if self.alternating:
            lines.append(
                f"sum over all sigma in S_{n}, with sign eps(sigma), applied to the variables of:"
            )
        mags = [str(abs(Fraction(c))) for _, c in self.terms]
        width = max(len(m) for m in mags)
        for (j, coeff), mag in zip(self.terms, mags):
            mono = freealg.Monomial(n, btypes[j - 1].index, tuple(range(1, n + 1)))
            sgn = "+" if coeff > 0 else "-"
            lines.append(f"  {sgn} {mag:<{width}} {freealg.render_monomial(mono, pretty=True)}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ResourceCaps:
    """Per-partition limits: basis rows held in memory and wall seconds.
    None (or an infinite time) is no limit; a negative or NaN limit, or a
    row limit that is not an int, raises ValueError."""

    max_rows: int | None = None
    max_seconds: float | None = None

    def __post_init__(self):
        if self.max_rows is not None and type(self.max_rows) is not int:
            raise ValueError(f"max_rows must be an int, got {self.max_rows!r}")
        for name in ("max_rows", "max_seconds"):
            cap = getattr(self, name)
            if cap is not None and not cap >= 0:
                raise ValueError(f"{name} must be non-negative, got {cap}")


@dataclass(frozen=True)
class CertifyResult:
    not_anticommutative_consequence: bool
    is_LY_consequence: bool


@dataclass(frozen=True)
class PartitionReport:
    partition: symrep.Partition
    dim: int
    field: FieldSpec
    a_rank: int | None
    c_rank: int | None
    new_rows: tuple[tuple, ...]
    status: str = "ok"
    seconds: float = 0.0
    # how far an aborted reduction got: its rank and the identities appended,
    # counted in the elimination order
    rank_reached: int | None = None
    identities_consumed: int | None = None

    @property
    def contains(self) -> bool | None:
        """True iff rowspace(A) is inside rowspace(B); None when aborted."""
        if self.status != "ok":
            return None
        return not self.new_rows


def reduce_identities(
    gen: liftgen.GenerationSet,
    pi: symrep.Partition,
    field: FieldSpec,
    caps: ResourceCaps | None = None,
) -> tuple[IncrementalReducer, str]:
    """Feed every identity's block rows through an incremental reducer.

    Returns the reducer and a status: "ok", or an aborted marker when a
    resource cap was hit (the reducer then holds a partial row space). The
    identities go in fewest terms first, and the reducer's nonbinary
    columns follow liftgen's elimination layout; its binary columns, from
    the first binary column on, are those of identity_rows.
    """
    red, status, _ = _reduce(gen, symrep.RepTable(pi), field, caps)
    return red, status


def _reduce(gen, table: symrep.RepTable, field: FieldSpec, caps) -> tuple[IncrementalReducer, str, int]:
    """reduce_identities on one partition's table, plus the number of
    identities appended in the elimination order."""
    if table.n != gen.degree:
        raise ValueError(f"partition of {table.n} against degree-{gen.degree} identities")
    symrep.check_characteristic(field.characteristic, gen.degree)
    red = IncrementalReducer(liftgen._column_split(gen.degree, table.dim)[0], field)
    start = time.monotonic()
    items = liftgen._elimination_items((ident.polynomial for ident in gen.identities), table)
    for k, rows in enumerate(liftgen.block_rows(items, table), 1):
        red.append(rows)
        if caps and caps.max_rows is not None and red.rank > caps.max_rows:
            return red, "aborted-rows", k
        if caps and caps.max_seconds is not None and time.monotonic() - start > caps.max_seconds:
            return red, "aborted-time", k
    return red, "ok", len(gen.identities)


def _skew_reducer(table: symrep.RepTable, degree: int, field: FieldSpec) -> IncrementalReducer:
    """B_pi: the binary skew-symmetry relations iota + sigma, reduced over field."""
    d = table.dim
    btypes = freealg.binary_types(degree)
    red = IncrementalReducer(len(btypes) * d, field)
    ident = tuple(range(1, degree + 1))
    relations = ([(j * d, {ident: 1, g.perm: 1})] for j, t in enumerate(btypes) for g in freealg.skew_generators(t))
    for rows in liftgen.block_rows(relations, table):
        red.append(rows)
    return red


# the degrees analyze_degree covers
_DEGREES = range(4, 9)

# default_generation's sets, built once per process and keyed by degree; a
# GenerationSet is frozen, so every caller can share one
_GENERATIONS: dict[int, liftgen.GenerationSet] = {}


def default_generation(n: int) -> liftgen.GenerationSet:
    """The identities analyze_degree works from.

    Degrees 4 and 5 take the full lifting sets, degrees 6 and 7 filter the
    full 252/2016 sets to 48/154 that span the same row space in every
    partition, and degree 8 lifts those two, giving 1616 generators. Each
    set is built once per process.

    Raises ValueError above degree 8, where no filtered set is defined.
    """
    if n > _DEGREES[-1]:
        raise ValueError(f"no generation set above degree {_DEGREES[-1]}, got {n}")
    if n not in _GENERATIONS:
        if n <= 5:
            gen = liftgen.generate(n)
        elif n == 8:
            gen = liftgen.generate(8, {6: default_generation(6), 7: default_generation(7)})
        else:
            gen = liftgen.filter_redundant(liftgen.generate(n))
        _GENERATIONS[n] = gen
    return _GENERATIONS[n]


def analyze_partition(
    pi: symrep.Partition,
    gen: liftgen.GenerationSet,
    field: FieldSpec,
    caps: ResourceCaps | None,
) -> PartitionReport:
    t0 = time.monotonic()
    d = pi.dimension
    _, first_binary = liftgen._column_split(gen.degree, d)
    table = symrep.RepTable(pi)
    red, status, consumed = _reduce(gen, table, field, caps)
    if status != "ok":
        report = PartitionReport(pi, d, field, None, None, (), status, time.monotonic() - t0, red.rank, consumed)
        log.info(
            "degree %d partition %s: %s at rank %d after %d identities (%.1fs)",
            gen.degree, pi.render(), status, red.rank, consumed, report.seconds,
        )
        return report
    a_rows = red.tail_rows(first_binary)
    skew = _skew_reducer(table, gen.degree, field)
    new_rows = tuple(tuple(row) for row in a_rows if not skew.contains(row))
    report = PartitionReport(
        pi, d, field, len(a_rows), skew.rank, new_rows, "ok", time.monotonic() - t0
    )
    log.info(
        "degree %d partition %s: a_rank %d, c_rank %d, new rows %d (%.1fs)",
        gen.degree, pi.render(), report.a_rank, report.c_rank, len(new_rows), report.seconds,
    )
    return report


def select_partitions(n: int, selector) -> tuple[symrep.Partition, ...]:
    """The partitions of n that selector names: "all", "sign", or a list of
    partitions or their renderings; an empty or repeated list raises ValueError."""
    if selector == "all":
        return symrep.partitions(n)
    if selector == "sign":
        return (symrep.Partition((1,) * n),)
    out = []
    for item in selector:
        pi = item
        if isinstance(item, str):
            # the size first: an exponent in the text would otherwise build
            # that many parts before the check
            if sum(k * e for k, e in symrep._runs(item)) != n:
                raise ValueError(f"partition {item.strip()} is not a partition of {n}")
            pi = symrep.parse_partition(item)
        if pi.n != n:
            raise ValueError(f"partition {pi.render()} is not a partition of {n}")
        if pi in out:
            raise ValueError(f"partition {pi.render()} is selected twice")
        out.append(pi)
    if not out:
        raise ValueError("no partition selected")
    return tuple(out)


def analyze_degree(
    n: int,
    field: FieldSpec = GF101,
    partitions="all",
    generation: liftgen.GenerationSet | None = None,
    caps: ResourceCaps | None = None,
    jobs: int = 1,
) -> list[PartitionReport]:
    """Run the A_pi against B_pi comparison for the requested partitions,
    on default_generation(n) unless a generation set is given, in up to
    jobs worker processes; the reports keep the selection's order. The
    arguments are checked before any generation set is built."""
    if n not in _DEGREES:
        raise ValueError(f"analysis covers degrees {_DEGREES[0]} through {_DEGREES[-1]}")
    symrep.check_characteristic(field.characteristic, n)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    pis = select_partitions(n, partitions)
    gen = generation if generation is not None else default_generation(n)
    if gen.degree != n:
        raise ValueError(f"degree-{gen.degree} generation set for a degree-{n} analysis")
    if jobs > 1 and len(pis) > 1:
        # imported on use: at module level it costs every run 1 MB of peak RSS
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(pis))) as pool:
            return list(pool.map(analyze_partition, pis, repeat(gen), repeat(field), repeat(caps)))
    return [analyze_partition(pi, gen, field, caps) for pi in pis]


def reconstruct_identity(row, degree: int) -> ExplicitIdentity:
    """Turn a row of A_{1^n} (one entry per binary type) into an identity."""
    b = len(freealg.binary_types(degree))
    row = list(row)
    if len(row) != b:
        raise ValueError(f"expected {b} binary-type entries, got {len(row)}")
    terms = tuple((j + 1, x) for j, x in enumerate(row) if x)
    if not terms:
        raise ValueError("zero row does not define an identity")
    return ExplicitIdentity(degree, terms, alternating=True)


def _phantom_type(t: freealg.AssocType) -> bool:
    """True when the alternating sum over the type cancels to zero: the sum
    vanishes exactly when some skew generator is an even permutation."""
    return any(g.sign == 1 for g in freealg.skew_generators(t))


def certify_new(
    identity: ExplicitIdentity,
    degree: int,
    field: FieldSpec = QQ,
    generation: liftgen.GenerationSet | None = None,
) -> CertifyResult:
    """Check a sign-representation identity against the skews and against
    the lifted identities: new means (True, True)."""
    if identity.degree != degree:
        raise ValueError(f"identity degree {identity.degree} does not match {degree}")
    if not identity.alternating:
        raise ValueError("certification applies to alternating (sign representation) identities")
    symrep.check_characteristic(field.characteristic, degree)
    btypes = freealg.binary_types(degree)
    if all(_phantom_type(btypes[j - 1]) for j, _ in identity.terms):
        raise ValueError("degenerate identity: every term's alternation cancels to zero")
    sign = symrep.Partition((1,) * degree)
    vec = [0] * len(btypes)
    for j, coeff in identity.terms:
        vec[j - 1] = coeff
    table = symrep.RepTable(sign)
    not_skew_consequence = not _skew_reducer(table, degree, field).contains(vec)
    gen = generation if generation is not None else default_generation(degree)
    red, status, _ = _reduce(gen, table, field, None)
    assert status == "ok"
    _, first_binary = liftgen._column_split(degree, 1)
    padded = [0] * first_binary + vec
    return CertifyResult(not_skew_consequence, red.contains(padded))


# -- report serialization -------------------------------------------------------


def _entry_str(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def report_payload(degree: int, reports: list[PartitionReport], generated: int) -> dict:
    """Deterministic report body; wall times live in timings_payload."""
    (characteristic,) = {rep.field.characteristic for rep in reports}
    return {
        "degree": degree,
        "characteristic": characteristic,
        "identities": generated,
        "partitions": [
            {
                "partition": rep.partition.render(),
                "dim": rep.dim,
                "status": rep.status,
                "a_rank": rep.a_rank,
                "c_rank": rep.c_rank,
                "contains": rep.contains,
                "new_rows": [[_entry_str(x) for x in row] for row in rep.new_rows],
            }
            for rep in reports
        ],
    }


def timings_payload(reports: list[PartitionReport]) -> dict:
    """Wall times per partition; an aborted one also records how far it got."""
    entries = [{"partition": rep.partition.render(), "seconds": round(rep.seconds, 3)} for rep in reports]
    for entry, rep in zip(entries, reports):
        if rep.status != "ok":
            entry.update(rank_reached=rep.rank_reached, identities_consumed=rep.identities_consumed)
    return {"partitions": entries}
