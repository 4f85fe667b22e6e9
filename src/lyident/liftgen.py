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

Each identity carries its lineage: the seed name followed by the lifting
steps that produced it. Replaying a lineage from the seed terms reproduces
the identity's polynomial exactly, which is the integrity check used in
tests and in serialized identity files.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import factorial

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


_tree_of = freealg.labeled_tree


def _poly_terms(poly: freealg.Polynomial):
    return [(c, _tree_of(m)) for m, c in poly.sorted_terms()]


def _substitute(tree, var: int, repl):
    if tree.__class__ is int:
        return repl if tree == var else tree
    if len(tree) == 3:
        return (2, _substitute(tree[1], var, repl), _substitute(tree[2], var, repl))
    return (3, _substitute(tree[1], var, repl), _substitute(tree[2], var, repl),
            _substitute(tree[3], var, repl))


def _apply_step(terms, degree: int, step: Step):
    """One lifting step on (coeff, tree) terms; returns (terms, new degree)."""
    kind = step[0]
    n = degree
    if kind in ("binary-sub", "ternary-sub", "ternary-mul") and len(step) != 2:
        raise ValueError(f"{kind} step takes one argument, got {step!r}")
    if kind in ("binary-sub", "ternary-sub"):
        i = step[1]
        if i.__class__ is not int or not 1 <= i <= n:
            raise ValueError(f"{kind} index must be an int in 1..{n}, got {i!r}")
    if kind == "binary-sub":
        out = [(c, _substitute(t, i, (2, i, n + 1))) for c, t in terms]
        return out, n + 1
    if kind == "binary-mul":
        return [(c, (2, t, n + 1)) for c, t in terms], n + 1
    if kind == "ternary-sub":
        out = [(c, _substitute(t, i, (3, i, n + 1, n + 2))) for c, t in terms]
        return out, n + 2
    if kind == "ternary-mul":
        pos = step[1]
        if pos == 1:
            return [(c, (3, t, n + 1, n + 2)) for c, t in terms], n + 2
        if pos == 3:
            return [(c, (3, n + 1, n + 2, t)) for c, t in terms], n + 2
        raise ValueError(f"ternary-mul position must be 1 or 3, got {pos}")
    raise ValueError(f"unknown lifting step {step!r}")


def seed_identities() -> dict[str, Identity]:
    return {
        name: Identity(freealg.expand(terms), (("seed", name),))
        for name, terms in _SEED_TERMS.items()
    }


def _lift(ident: Identity, steps: list[Step]) -> list[Identity]:
    if not ident.polynomial:
        return []
    terms = _poly_terms(ident.polynomial)
    out = []
    for step in steps:
        lifted, _ = _apply_step(terms, ident.degree, step)
        poly = freealg.expand(lifted)
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
    if not lineage or lineage[0][0] != "seed":
        raise ValueError(f"lineage must start with a seed step: {lineage!r}")
    name = lineage[0][1]
    if name not in _SEED_TERMS:
        raise ValueError(f"unknown seed {name!r}")
    terms = list(_SEED_TERMS[name])
    degree = max(_leaf_count(t) for _, t in terms)
    for step in lineage[1:]:
        terms, degree = _apply_step(terms, degree, step)
    return freealg.expand(terms)


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
    of the full one.
    """
    if n < 3:
        raise ValueError("identities start at degree 3")
    seeds = seed_identities()
    if n == 3:
        return GenerationSet(3, (seeds["f"],))

    def inputs(k: int) -> GenerationSet:
        if filtered_inputs and k in filtered_inputs:
            return filtered_inputs[k]
        return generate(k, filtered_inputs)

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


def _block_rows(blocks: list[tuple[int, np.ndarray]], d: int) -> list[dict[int, int]]:
    """The d rows {column: int}, nonzeros only, of d x d blocks given with
    their first columns, read side by side in one np.nonzero."""
    rows: list[dict[int, int]] = [{} for _ in range(d)]
    if blocks:
        colmap = [start + j for start, _ in blocks for j in range(d)]
        side = np.hstack([block for _, block in blocks])
        at, cols = np.nonzero(side)
        for i, c, x in zip(at.tolist(), cols.tolist(), side[at, cols].tolist()):
            rows[i][colmap[c]] = x
    return rows


def identity_rows(poly: freealg.Polynomial, table: symrep.RepTable) -> list[dict[int, int]]:
    """A polynomial's d block rows {column: int} for one partition: block j holds the
    matrix of its j-th association type's component; only touched blocks are built."""
    d = table.dim
    return _block_rows([((ti - 1) * d, table.element(perms)) for ti, perms in poly.by_type().items()], d)


def filter_redundant(gen: GenerationSet, field: FieldSpec = GF101) -> GenerationSet:
    """Keep the identities that grow some partition's accumulated row space.

    One partition at a time, with its own table and reducer, every identity
    is appended in order (no short circuit), so the kept set spans the same
    row space as the input in every partition; the final ranks are returned
    on the result.
    """
    symrep.check_characteristic(field.characteristic, gen.degree)
    grew: set[int] = set()
    ranks = {}
    for pi in symrep.partitions(gen.degree):
        table = symrep.RepTable(pi)
        red = IncrementalReducer(_column_split(gen.degree, table.dim)[0], field)
        for k, ident in enumerate(gen.identities):
            if red.append(identity_rows(ident.polynomial, table)):
                grew.add(k)
        ranks[pi] = red.rank
    kept = tuple(gen.identities[k] for k in sorted(grew))
    return GenerationSet(gen.degree, kept, filtered=True, ranks=ranks)
