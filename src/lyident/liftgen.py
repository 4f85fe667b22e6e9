"""Defining identities of the bilinear/trilinear structure and their liftings.

The seeds are the multilinear identities f (degree 3), g1 and g2 (degree 4),
and h (degree 5): the defining identities LY3-LY6 of Lie-Yamaguti algebras
(Yamaguti 1958), written as labelled trees exactly as the axioms state them;
expand straightens them into canonical monomials. They are the one encoding
of those axioms: evallab.validate evaluates the same trees, literally, on an
algebra's basis vectors.

Lifting a degree-n identity raises its degree by substituting a product for
one variable or by multiplying the whole identity into a new product; the
generators of degree n are the binary liftings of degree n-1 and the ternary
liftings of degree n-2.

A lifting step maps each canonical monomial (type T, perm) to one
canonical monomial and a sign. Apart from one case below, the result
depends only on the degree, T and the step, a substitution being keyed by
the leaf position of its variable in perm: a substitution changes only
the path from that leaf to the root, and a multiplication adds a new
root. So monomials are lifted through a step table, filled lazily by
the tree route (_apply_step, then straightening) run once on T's tree
labelled by leaf position. An entry holds the new type, the sign and the
order in which the new perm gathers the old perm's entries and the new
labels n+1 (and n+2). The one label-dependent case is a node on the path
whose first two children end up equal types: there the canonical order
compares their first labels, so the entry lists those nodes and the lift
compares the actual labels.

Each identity carries its lineage: the seed name followed by the lifting
steps that produced it. Replaying a lineage from the seed terms reproduces
the identity's polynomial exactly, which is the integrity check used in
tests and in serialized identity files.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field as dc_field
from itertools import islice
from math import factorial
from operator import itemgetter

import numpy as np

from . import freealg, symrep
from .exactla import GF101, FieldSpec, IncrementalReducer

__all__ = [
    "Identity",
    "GenerationSet",
    "seed_identities",
    "lift_binary",
    "lift_ternary",
    "generate",
    "lifting_count",
    "replay",
    "block_rows",
    "identity_rows",
    "filter_redundant",
]

# seed terms as (coefficient, labeled tree), each axiom as a sum that vanishes;
# a node is (2, a, b) for [a, b] or (3, a, b, c) for <a, b, c>; variables are 1-based
_SEED_TERMS: dict[str, tuple[tuple[int, object], ...]] = {
    # LY3: sum over cyclic (a, b, c) of [[a, b], c] + <a, b, c>
    "f": (
        (1, (2, (2, 1, 2), 3)), (1, (3, 1, 2, 3)),
        (1, (2, (2, 2, 3), 1)), (1, (3, 2, 3, 1)),
        (1, (2, (2, 3, 1), 2)), (1, (3, 3, 1, 2)),
    ),
    # LY4: sum over cyclic (a, b, c) of <[a, b], c, d>
    "g1": (
        (1, (3, (2, 1, 2), 3, 4)),
        (1, (3, (2, 2, 3), 1, 4)),
        (1, (3, (2, 3, 1), 2, 4)),
    ),
    # LY5: <a, b, [c, d]> = [<a, b, c>, d] + [c, <a, b, d>]
    "g2": (
        (1, (3, 1, 2, (2, 3, 4))),
        (-1, (2, (3, 1, 2, 3), 4)),
        (-1, (2, 3, (3, 1, 2, 4))),
    ),
    # LY6: <a, b, <c, d, e>> = <<a, b, c>, d, e> + <c, <a, b, d>, e> + <c, d, <a, b, e>>
    "h": (
        (1, (3, 1, 2, (3, 3, 4, 5))),
        (-1, (3, (3, 1, 2, 3), 4, 5)),
        (-1, (3, 3, (3, 1, 2, 4), 5)),
        (-1, (3, 3, 4, (3, 1, 2, 5))),
    ),
}

Step = tuple


@dataclass(frozen=True)
class Identity:
    """A multilinear polynomial asserted to vanish, plus how it was built."""

    polynomial: freealg.Polynomial
    lineage: tuple[Step, ...]

    @property
    def degree(self) -> int:
        return self.polynomial.degree

    def render_lineage(self) -> str:
        bits = []
        for step in self.lineage:
            if step[0] == "seed":
                bits.append(step[1])
            elif len(step) == 1:
                bits.append(step[0])
            else:
                bits.append(f"{step[0]}({step[1]})")
        return " -> ".join(bits)

    def __repr__(self):
        return f"Identity({self.render_lineage()}, {len(self.polynomial)} terms)"


@dataclass(frozen=True)
class GenerationSet:
    """Ordered identities of one degree, unfiltered or rank-filtered."""

    degree: int
    identities: tuple[Identity, ...]
    filtered: bool = False
    ranks: dict | None = dc_field(default=None, compare=False)

    def __len__(self):
        return len(self.identities)


def _substitute(tree, var: int, repl):
    if tree.__class__ is int:
        return repl if tree == var else tree
    if len(tree) == 3:
        return (2, _substitute(tree[1], var, repl), _substitute(tree[2], var, repl))
    return (3, _substitute(tree[1], var, repl), _substitute(tree[2], var, repl),
            _substitute(tree[3], var, repl))


# the length of each kind of lifting step, its kind included
_STEP_LENGTH = {"binary-sub": 2, "binary-mul": 1, "ternary-sub": 2, "ternary-mul": 2}


def _check_step(step: Step, degree: int):
    """(kind, argument) of a lifting step on an identity of the given
    degree, argument None for binary-mul; a malformed step raises
    ValueError naming it."""
    kind = step[0] if step else None
    if kind not in _STEP_LENGTH:
        raise ValueError(f"unknown lifting step {step!r}")
    if len(step) != _STEP_LENGTH[kind]:
        takes = "one argument" if _STEP_LENGTH[kind] == 2 else "no argument"
        raise ValueError(f"{kind} step takes {takes}, got {step!r}")
    if kind == "binary-mul":
        return kind, None
    arg = step[1]
    if kind == "ternary-mul":
        if arg.__class__ is not int or arg not in (1, 3):
            raise ValueError(f"ternary-mul position must be 1 or 3, got {arg!r}")
    elif arg.__class__ is not int or not 1 <= arg <= degree:
        raise ValueError(f"{kind} index must be an int in 1..{degree}, got {arg!r}")
    return kind, arg


def _apply_step(terms, degree: int, step: Step):
    """One lifting step on (coeff, tree) terms; returns (terms, new degree)."""
    kind, i = _check_step(step, degree)
    n = degree
    if kind == "binary-sub":
        return [(c, _substitute(t, i, (2, i, n + 1))) for c, t in terms], n + 1
    if kind == "binary-mul":
        return [(c, (2, t, n + 1)) for c, t in terms], n + 1
    if kind == "ternary-sub":
        return [(c, _substitute(t, i, (3, i, n + 1, n + 2))) for c, t in terms], n + 2
    if i == 1:
        return [(c, (3, t, n + 1, n + 2)) for c, t in terms], n + 2
    return [(c, (3, n + 1, n + 2, t)) for c, t in terms], n + 2


# (degree, type index, kind, argument) -> (type index, sign, gather, ties) of
# the lifted monomial; filled lazily by _step_entry, at most
# (types of degree n) x (2n + 3) entries per degree
_STEPS: dict[tuple, tuple] = {}


def _step_entry(n: int, t: int, kind: str, arg) -> tuple:
    """The table entry of one lifting step on the degree-n type t, made by
    the tree route on t's tree labelled by leaf position.

    A substitution's argument is the leaf position of its variable. gather
    picks the new leaf labels from the old perm extended by n+1 (and n+2);
    ties lists, bottom up, each (start, k) where a node on the straightened
    path from the changed leaf to the root has first two children of equal
    types of degree k, at leaf positions start and start + k, one of them
    on the path and both beginning with an old label: there the canonical
    order compares the actual labels, which the leaf positions need not
    share.
    """
    tree = freealg.labeled_tree(freealg.Monomial(n, t, tuple(range(1, n + 1))))
    lifted, _ = _apply_step([(1, tree)], n, (kind,) if arg is None else (kind, arg))
    mono, sign = freealg.canonicalize(lifted[0][1])
    labels = mono.perm
    ties = []

    def walk(node, start):
        at = start
        for child in node.children:
            walk(child, at)
            at += child.degree
        if node.arity and node.children[0] is node.children[1]:
            k = node.children[0].degree
            if labels[start] <= n and labels[start + k] <= n and n + 1 in labels[start : start + 2 * k]:
                ties.append((start, k))

    walk(mono.type, 0)
    entry = (mono.type_index, sign, itemgetter(*[x - 1 for x in labels]), tuple(ties))
    _STEPS[n, t, kind, arg] = entry
    return entry


def _untie(labels: tuple[int, ...], ties, sign: int):
    """Reorder the tied blocks of a gathered perm by their first labels."""
    out = list(labels)
    for start, k in ties:
        mid = start + k
        if out[start] > out[mid]:
            out[start : mid + k] = out[mid : mid + k] + out[start:mid]
            sign = -sign
    return tuple(out), sign


def _lift_terms(terms, degree: int, step: Step) -> freealg.Polynomial:
    """One lifting step on a polynomial's sorted (monomial, coeff) terms,
    each term lifted through the step table."""
    kind, arg = _check_step(step, degree)
    new = (degree + 1,) if kind.startswith("binary") else (degree + 1, degree + 2)
    m = degree + len(new)
    sub = kind.endswith("sub")
    out: dict[freealg.Monomial, object] = {}
    for mono, c in terms:
        perm = mono.perm
        key = (degree, mono.type_index, kind, perm.index(arg) + 1 if sub else arg)
        t, sign, gather, ties = _STEPS.get(key) or _step_entry(*key)
        labels = gather(perm + new)
        if ties:
            labels, sign = _untie(labels, ties, sign)
        lifted = freealg.Monomial(m, t, labels)
        c = out.get(lifted, 0) + sign * c
        if c:
            out[lifted] = c
        else:
            del out[lifted]
    return freealg.Polynomial(m, out)


def seed_identities() -> dict[str, Identity]:
    return {
        name: Identity(freealg.expand(terms), (("seed", name),))
        for name, terms in _SEED_TERMS.items()
    }


def _lift(ident: Identity, steps: list[Step]) -> list[Identity]:
    terms = ident.polynomial.sorted_terms()
    out = []
    for step in steps:
        poly = _lift_terms(terms, ident.degree, step)
        if poly:
            out.append(Identity(poly, ident.lineage + (step,)))
    return out


def lift_binary(ident: Identity) -> list[Identity]:
    """The n+1 binary liftings: substitutions at 1..n, then the multiplication."""
    n = ident.degree
    steps = [("binary-sub", i) for i in range(1, n + 1)] + [("binary-mul",)]
    return _lift(ident, steps)


def lift_ternary(ident: Identity) -> list[Identity]:
    """The n+2 ternary liftings: substitutions, then multiplications f.. and ..f."""
    n = ident.degree
    steps = [("ternary-sub", i) for i in range(1, n + 1)]
    steps += [("ternary-mul", 1), ("ternary-mul", 3)]
    return _lift(ident, steps)


def replay(lineage: tuple[Step, ...]) -> freealg.Polynomial:
    """Re-execute a lineage from its seed; must reproduce Identity.polynomial."""
    if not lineage or not lineage[0] or lineage[0][0] != "seed":
        raise ValueError(f"lineage must start with a seed step: {lineage!r}")
    if len(lineage[0]) != 2:
        raise ValueError(f"seed step takes one argument, got {lineage[0]!r}")
    name = lineage[0][1]
    if name not in _SEED_TERMS:
        raise ValueError(f"unknown seed {name!r}")
    poly = freealg.expand(_SEED_TERMS[name])
    for step in lineage[1:]:
        poly = _lift_terms(poly.sorted_terms(), poly.degree, step)
    return poly


def _leaf_count(tree) -> int:
    return 1 if isinstance(tree, int) else sum(_leaf_count(c) for c in tree[1:])


def lifting_count(n: int) -> int:
    """Number of lifted generators in degree n: (n+1)!/20 for n >= 4."""
    if n < 4:
        raise ValueError("the lifting count starts at degree 4")
    return factorial(n + 1) // 20


def generate(n: int, filtered_inputs: dict[int, GenerationSet] | None = None) -> GenerationSet:
    """All generators of degree n, in deterministic order.

    Degree 3 is the seed f; degree 4 is g1, g2 and the binary liftings of f;
    degree 5 is h, then binary liftings of degree 4, then ternary liftings of
    degree 3; beyond that every generator is lifted. filtered_inputs may map
    a source degree to a (typically filtered) GenerationSet to lift instead
    of the full one. Each source degree is built at most once per call.
    """
    if n < 3:
        raise ValueError("identities start at degree 3")
    sets = dict(filtered_inputs or {})
    # degree k is read by the binary liftings to k + 1 and, from degree 5
    # on, by the ternary liftings to k + 2: a source set is built on its
    # first read and dropped after its last
    reads = {k: 1 + (5 <= k + 2 <= n) for k in range(3, n)}

    def inputs(k: int) -> GenerationSet:
        if k not in sets:
            sets[k] = _generate(k, inputs)
        reads[k] -= 1
        return sets[k] if reads[k] else sets.pop(k)

    return _generate(n, inputs)


def _generate(n: int, inputs) -> GenerationSet:
    """generate's degree-n set, lifted from inputs(n - 1) and inputs(n - 2)."""
    seeds = seed_identities()
    if n == 3:
        return GenerationSet(3, (seeds["f"],))
    out: list[Identity] = []
    if n == 4:
        out += [seeds["g1"], seeds["g2"]]
    if n == 5:
        out.append(seeds["h"])
    for ident in inputs(n - 1).identities:
        out += lift_binary(ident)
    if n >= 5:
        for ident in inputs(n - 2).identities:
            out += lift_ternary(ident)
    return GenerationSet(n, tuple(out))


# -- representation rows and rank filtering ------------------------------------


def _column_split(degree: int, d: int) -> tuple[int, int]:
    """(total columns, first binary column) of a partition's block rows."""
    m = freealg.count_types(degree).all
    b = len(freealg.binary_types(degree))
    return m * d, (m - b) * d


# int64 entries one batch of block_rows may hold in its weighted matrices
# and in its padded blocks; at large d a batch is about one item
_BATCH_ENTRIES = 1 << 13


def block_rows(items: Iterable[list[tuple[int, dict]]], table: symrep.RepTable) -> Iterator[list[dict[int, int]]]:
    """The d rows {column: int}, nonzeros only, of each item, in order.

    An item lists (first column, {sigma: integer coefficient}) pairs: each
    pair's d x d block is the sum of c * R(sigma), and the blocks are read
    side by side in list order. Items are built a batch at a time: one
    gather of the batch's matrices, one coefficient-weighted np.add.reduceat
    into a padded (items x rows x blocks x columns) array and one
    np.flatnonzero on it, which lists every row's entries block by block,
    column by column, so no sort is needed.

    A coefficient that is not an integer raises ValueError.
    """
    d2 = table.dim**2
    batch: list[list[tuple[int, dict]]] = []
    terms = width = 0
    for item in items:
        size = sum([len(elt) for _, elt in item])
        if batch and max((terms + size) * d2, (len(batch) + 1) * max(width, len(item)) * d2) > _BATCH_ENTRIES:
            yield from _batch_rows(batch, width, table)
            batch, terms, width = [], 0, 0
        batch.append(item)
        terms += size
        width = max(width, len(item))
    if batch:
        yield from _batch_rows(batch, width, table)


def _batch_rows(batch: list[list[tuple[int, dict]]], width: int, table: symrep.RepTable) -> Iterator[list[dict[int, int]]]:
    """block_rows for one batch whose items have at most width blocks."""
    d = table.dim
    sigmas: list[tuple[int, ...]] = []
    coeffs: list = []
    segments, slots, firsts = [], [], [0] * (len(batch) * width)
    for b, item in enumerate(batch):
        for s, (first, elt) in enumerate(item, b * width):
            # an empty segment would make reduceat repeat the next entry
            if elt:
                segments.append(len(sigmas))
                slots.append(s)
                firsts[s] = first
                sigmas += elt
                coeffs += elt.values()
    if not all(c.__class__ is int for c in coeffs):
        for k, c in enumerate(coeffs):
            if int(c) != c:
                raise ValueError(f"coefficient {c} of {sigmas[k]} is not an integer")
            coeffs[k] = int(c)
    weighted = table.matrices(sigmas) * np.array(coeffs, dtype=np.int64)[:, None, None]
    # padded[b, i, s, j]: row i, column j of block s of item b, so the flat
    # order lists each row's entries block by block, column by column
    padded = np.zeros((len(batch), d, width, d), dtype=np.int64)
    slot = np.array(slots, dtype=np.intp)
    padded[slot // width, :, slot % width, :] = np.add.reduceat(weighted, segments, axis=0)
    flat = padded.reshape(-1)
    at = np.flatnonzero(flat)
    columns = np.array(firsts, dtype=np.int64).reshape(len(batch), 1, width, 1) + np.arange(d)
    cols = np.broadcast_to(columns, padded.shape).reshape(-1)[at].tolist()
    counts = np.bincount(at // (width * d), minlength=len(batch) * d).tolist()
    entries = zip(cols, flat[at].tolist())
    for k in range(0, len(counts), d):
        yield [dict(islice(entries, n)) for n in counts[k : k + d]]


def identity_rows(polys: Iterable[freealg.Polynomial], table: symrep.RepTable) -> Iterator[list[dict[int, int]]]:
    """Each polynomial's d block rows {column: int} for one partition, in
    order: block j holds the matrix of its j-th association type's
    component, and only touched blocks are built (block_rows, a batch of
    polynomials at a time)."""
    d = table.dim
    return block_rows(([((ti - 1) * d, perms) for ti, perms in poly.by_type().items()] for poly in polys), table)


def _elimination_items(polys: Iterable[freealg.Polynomial], table: symrep.RepTable) -> Iterator[list[tuple[int, dict]]]:
    """block_rows items of polys in a fill-reducing elimination order.

    The polynomials come fewest terms first, ties in the given order. The
    nonbinary type blocks are laid out least touched first (by the number
    of polynomials with a term of that type), ties in deglex order, and
    the binary blocks last in deglex order, so the binary columns are
    those of _column_split and identity_rows. One pass over the terms
    counts the touches; each item's blocks (by_type) are built only when
    block_rows asks for that item.
    """
    d = table.dim
    m = freealg.count_types(table.n).all
    nonbinary = m - len(freealg.binary_types(table.n))
    polys = list(polys)
    touches = [0] * (m + 1)
    for poly in polys:
        for ti in {mono.type_index for mono in poly.terms}:
            touches[ti] += 1
    first = [(ti - 1) * d for ti in range(m + 1)]
    for at, ti in enumerate(sorted(range(1, nonbinary + 1), key=touches.__getitem__)):
        first[ti] = at * d
    for poly in sorted(polys, key=len):
        yield [(first[ti], perms) for ti, perms in poly.by_type().items()]


def _usable_cpus() -> int:
    """The number of CPUs this process may run on (os.cpu_count() where
    the platform has no affinity call)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _map_partitions(fn, pis, *args, workers: int) -> list:
    """[fn(pi, *args) for pi in pis], in that order.

    With at least two workers and two partitions the calls run in a pool of
    up to workers processes, the largest partitions (by dimension) submitted
    first so that the slowest does not start last. fn must be defined at
    module level; it and its arguments are pickled, so any start method
    works. An exception raised in a call reaches the caller, and the pool
    is shut down before this returns.
    """
    if workers < 2 or len(pis) < 2:
        return [fn(pi, *args) for pi in pis]
    # imported on use: at module level it costs every run 1 MB of peak RSS
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=min(workers, len(pis)))
    try:
        futures = [None] * len(pis)
        for k in sorted(range(len(pis)), key=lambda k: -pis[k].dimension):
            futures[k] = pool.submit(fn, pis[k], *args)
        return [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def _filter_partition(pi: symrep.Partition, polys: list[freealg.Polynomial], degree: int, field: FieldSpec) -> tuple[list[int], int]:
    """filter_redundant on one partition: the positions of the polynomials
    that raised its rank, every one appended in order, and the final rank."""
    table = symrep.RepTable(pi)
    red = IncrementalReducer(_column_split(degree, table.dim)[0], field)
    grew = [k for k, rows in enumerate(identity_rows(polys, table)) if red.append(rows)]
    return grew, red.rank


def filter_redundant(gen: GenerationSet, field: FieldSpec = GF101) -> GenerationSet:
    """Keep the identities that grow some partition's accumulated row space.

    Each partition gets its own table and reducer, and every identity is
    appended in order (no short circuit), so the kept set spans the same
    row space as the input in every partition; the final ranks are returned
    on the result. The partitions run in worker processes, one per CPU this
    process may use (serially on one CPU), largest partitions first; a
    worker holds one table and one reducer at a time.
    """
    symrep.check_characteristic(field.characteristic, gen.degree)
    pis = symrep.partitions(gen.degree)
    polys = [ident.polynomial for ident in gen.identities]
    results = _map_partitions(_filter_partition, pis, polys, gen.degree, field, workers=_usable_cpus())
    grew = sorted(set().union(*(rows for rows, _ in results)))
    kept = tuple(gen.identities[k] for k in grew)
    ranks = {pi: rank for pi, (_, rank) in zip(pis, results)}
    return GenerationSet(gen.degree, kept, filtered=True, ranks=ranks)
