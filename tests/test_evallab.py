"""Structure-constant algebras: axiom validation, the binary-product-derived
construction, and exact evaluation of identities."""

import itertools
import json
import random
import re
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from lyident import evallab, freealg, liftgen, pipeline
from lyident._data import data_text
from lyident.evallab import (
    AlgebraSC,
    InvalidProduct,
    check_identity,
    evaluate,
    from_leibniz,
    load_algebra,
    validate,
)
import reference
from reference import FractionAlgebra, alternation_polynomial, bracket, check_identity_per_tuple, triple

F = Fraction


def vec(*entries):
    return tuple(F(x) for x in entries)


def bundled_algebras():
    """The sample algebras shipped with the package, keyed by name."""
    return {name: load_algebra(data_text(f"algebras/{name}.json")) for name in evallab.BUNDLED}


@pytest.fixture(scope="module")
def bundled():
    return bundled_algebras()


@pytest.fixture(scope="module")
def cross(bundled):
    return bundled["cross_product"]


def matrix_semidirect():
    """The algebra of the 2x2 matrices acting on the plane, built from a
    right derivation-identity product on a 6-dim space: basis E11, E12, E21,
    E22, u1, u2 with {x, y} = ([B, A], B·u) for x = (A, u), y = (B, v).

    Its skew-symmetrized bracket has a nonzero Jacobi cyclic sum, which the
    trilinear operation must compensate — the corpus's only such member.
    """
    return from_leibniz(6, semidirect_entries(), name="matrix_semidirect")


def semidirect_entries(scale=1):
    """The sparse product entries of matrix_semidirect, times scale."""
    pos = {1: (1, 1), 2: (1, 2), 3: (2, 1), 4: (2, 2)}
    idx = {v: k for k, v in pos.items()}
    entries = []
    for i in range(1, 5):
        for j in range(1, 5):
            (a, b), (c, d) = pos[j], pos[i]  # [B, A] = M_j M_i - M_i M_j
            if b == c:
                entries.append((i, j, idx[a, d], 1))
            if d == a:
                entries.append((i, j, idx[c, b], -1))
    for a in (1, 2):  # {u_a, E_cd} = E_cd u_a = delta(d, a) u_c
        for j in range(1, 5):
            c, d = pos[j]
            if d == a:
                entries.append((4 + a, j, 4 + c, 1))
    return [(i, j, k, c * scale) for i, j, k, c in entries]


def random_bracket(dim, seed, density):
    """A seeded random skew-symmetric bracket table with zero trilinear
    operation; no axiom is imposed, evaluation needs none."""
    rng = random.Random(seed)
    entries = []
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            for k in range(1, dim + 1):
                if rng.random() < density:
                    c = rng.choice((-2, -1, 1, 2))
                    entries += [(i, j, k, c), (j, i, k, -c)]
    return AlgebraSC(dim, bilinear=entries)


def leibniz_or_none(dimension, product):
    """from_leibniz of a product, or None when the product fails the
    derivation identity."""
    try:
        return from_leibniz(dimension, product)
    except InvalidProduct:
        return None


def nonzero_operations(alg):
    """Whether the bracket, and whether the triple product, is nonzero on
    some tuple of basis vectors."""
    B = [alg.basis(i) for i in range(alg.dimension)]
    return (any(any(bracket(alg, u, v)) for u, v in itertools.product(B, repeat=2)),
            any(any(triple(alg, u, v, w)) for u, v, w in itertools.product(B, repeat=3)))


class TestValidate:
    def test_zero_algebra_ok(self, bundled):
        assert validate(bundled["zero"]) == []

    def test_cross_product_ok(self, cross):
        assert validate(cross) == []

    def test_non_antisymmetric_reports_ly1(self):
        alg = AlgebraSC(2, bilinear=[(1, 2, 1, 1), (2, 1, 1, 1)])
        bad = validate(alg)
        assert bad[0].axiom == "LY1"
        assert bad[0].witness == (1, 2)
        assert bad[0].render() == "LY1 fails at (e1, e2)"

    def test_nonzero_square_reports_ly1(self):
        alg = AlgebraSC(2, bilinear=[(1, 1, 2, 1)])
        bad = validate(alg)
        assert [v.axiom for v in bad] == ["LY1"]
        assert bad[0].witness == (1, 1)

    def test_trilinear_square_reports_ly2(self):
        alg = AlgebraSC(2, trilinear=[(1, 1, 1, 1, 1)])
        bad = validate(alg)
        assert bad[0].axiom == "LY2"
        assert bad[0].witness == (1, 1, 1)

    def test_non_jacobi_bracket_reports_ly3(self):
        alg = AlgebraSC(3, bilinear=[
            (1, 2, 3, 1), (2, 1, 3, -1),
            (1, 3, 1, 1), (3, 1, 1, -1),
        ])
        bad = validate(alg)
        assert [v.axiom for v in bad] == ["LY3"]
        assert bad[0].witness == (1, 2, 3)

    def test_lie_construction_is_jacobi_test(self, cross):
        # with zero trilinear operation the cyclic axiom is exactly Jacobi
        assert triple(cross, cross.basis(0), cross.basis(1), cross.basis(2)) == cross.zero()
        assert validate(cross) == []

    def test_basis_index_range(self, cross):
        # a negative index would otherwise wrap round to the last vector
        assert cross.basis(2) == (0, 0, 1)
        for bad in (-1, -3, 3, 4):
            with pytest.raises(ValueError, match="out of range 0..2"):
                cross.basis(bad)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="dimension <= 16"):
            validate(AlgebraSC(17))

    def test_bad_table_shapes(self):
        with pytest.raises(ValueError, match=r"bilinear entry \(1, 2, 1\): expected 3 indices"):
            AlgebraSC(2, bilinear=[(1, 2, 1)])
        with pytest.raises(ValueError, match=r"trilinear entry \(1, 2, 1, 1\): expected 4 indices"):
            AlgebraSC(2, trilinear=[(1, 2, 1, 1)])
        with pytest.raises(ValueError, match="bilinear must be a list of entries"):
            AlgebraSC(2, bilinear={(1, 2, 1): 1})
        with pytest.raises(ValueError, match="positive"):
            AlgebraSC(0)

    @pytest.mark.parametrize("dimension", [2.0, True, "2"])
    def test_non_integer_dimension_rejected(self, dimension):
        message = re.escape(f"dimension must be a positive integer, got {dimension!r}")
        with pytest.raises(ValueError, match=message):
            AlgebraSC(dimension, [(1, 2, 1, 1), (2, 1, 1, -1)])
        with pytest.raises(ValueError, match=message):
            from_leibniz(dimension, [(1, 1, 2, 1)])

    def test_float_constants_rejected(self):
        # 0.1 would be read as its binary value 3602879701896397/2**55
        with pytest.raises(ValueError, match=r"bilinear entry \(1, 1, 1, 0.1\): the coefficient must be"):
            AlgebraSC(1, [(1, 1, 1, 0.1)])
        with pytest.raises(ValueError, match=r"trilinear entry \(1, 1, 1, 1, 0.5\): the coefficient must be"):
            AlgebraSC(1, trilinear=[(1, 1, 1, 1, 0.5)])
        assert bracket(AlgebraSC(1, [(1, 1, 1, "1/10")]), vec(1), vec(1)) == vec(F(1, 10))
        assert bracket(AlgebraSC(1, [(1, 1, 1, F(1, 10))]), vec(1), vec(1)) == vec(F(1, 10))


def corpus_tables(seed, dimension=None, densities=(0.3, 0.1)):
    """A seeded random (dimension, bilinear, trilinear) of one of three kinds,
    no axiom imposed: any bracket and triple product, a skew bracket with no
    triple product (Jacobi is LY3), or both skew in their first two
    arguments. The dimension is drawn from 1..3 unless given; densities are
    the chances of a bilinear and of a trilinear entry."""
    rng = random.Random(seed)
    d, kind = dimension or rng.randint(1, 3), seed % 3
    bilinear, trilinear = [], []
    for i, j, k in itertools.product(range(1, d + 1), repeat=3):
        if (kind == 0 or i < j) and rng.random() < densities[0]:
            c = F(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
            bilinear += [(i, j, k, c)] if kind == 0 else [(i, j, k, c), (j, i, k, -c)]
    for i, j, k, l in itertools.product(range(1, d + 1), repeat=4):
        if kind != 1 and (kind == 0 or i < j) and rng.random() < densities[1]:
            c = rng.choice((-1, 1))
            trilinear += [(i, j, k, l, c)] if kind == 0 else [(i, j, k, l, c), (j, i, k, l, -c)]
    return d, bilinear, trilinear


class TestValidateCorpus:
    """validate, which walks liftgen's seed trees, against the hand-written
    Fraction loops of tests/reference.py: the same violations and the same
    first witnesses."""

    def test_axioms_read_from_liftgen(self):
        assert [name for name, _ in evallab._AXIOMS] == [f"LY{k}" for k in range(1, 7)]
        for (_, terms), seed in zip(evallab._AXIOMS[2:], ("f", "g1", "g2", "h")):
            assert terms is liftgen._SEED_TERMS[seed]

    def test_random_tables_match_reference(self):
        verdicts = []
        for seed in range(300):
            d, bilinear, trilinear = corpus_tables(seed)
            got = validate(AlgebraSC(d, bilinear, trilinear))
            assert got == reference.validate(FractionAlgebra(d, bilinear, trilinear)), seed
            verdicts.append([v.axiom for v in got])
        # valid, non-skew and skew-but-not-Jacobi tables all occur, and
        # every axiom fails somewhere
        assert verdicts.count([]) >= 20
        assert sum(v[:1] == ["LY1"] for v in verdicts) >= 20
        assert sum(v[:1] == ["LY3"] for v in verdicts[1::3]) >= 10
        assert {a for v in verdicts for a in v} == {f"LY{k}" for k in range(1, 7)}

    def test_four_dim_tables_match_reference(self):
        # sparse tables with a nonzero triple product, so that the degree-4
        # and degree-5 axioms find their first witnesses past the first tuples
        verdicts = []
        for seed in (s for s in range(90) if s % 3 != 1):
            d, bilinear, trilinear = corpus_tables(seed, dimension=4, densities=(0.1, 0.03))
            assert trilinear, seed
            got = validate(AlgebraSC(d, bilinear, trilinear))
            assert got == reference.validate(FractionAlgebra(d, bilinear, trilinear)), seed
            verdicts.append(got)
        assert {v.axiom for got in verdicts for v in got} == {f"LY{k}" for k in range(1, 7)}
        assert any(v.witness[0] > 1 for got in verdicts for v in got)

    def test_valid_algebras_match_reference(self, bundled):
        algebras = list(bundled.values()) + [matrix_semidirect()]
        # the valid 3-dim products with two entries, 1 and -1, and a
        # nonzero derived operation
        cells = list(itertools.product((1, 2, 3), repeat=3))
        for first, second in itertools.combinations(cells, 2):
            alg = leibniz_or_none(3, [(*first, 1), (*second, -1)])
            if alg is not None and any(nonzero_operations(alg)):
                algebras.append(alg)
        assert len(algebras) >= 40
        for alg in algebras:
            assert validate(alg) == reference.validate(FractionAlgebra.of(alg)) == []


class TestLeibniz:
    def test_nilpotent_square_is_valid(self):
        # {e1, e1} = e2: [,] vanishes and ⟨e1, e1, e1⟩ = {e1, e2} = 0
        alg = from_leibniz(2, [(1, 1, 2, 1)], name="sq")
        assert alg.name == "sq" and not any(nonzero_operations(alg))

    def test_lie_bracket_is_valid(self):
        alg = from_leibniz(3, [
            (1, 2, 3, 1), (2, 1, 3, -1),
            (2, 3, 1, 1), (3, 2, 1, -1),
            (3, 1, 2, 1), (1, 3, 2, -1),
        ])
        e1, e2 = alg.basis(0), alg.basis(1)
        assert bracket(alg, e1, e2) == vec(0, 0, 2)  # {e1,e2} - {e2,e1}
        assert triple(alg, e1, e2, e1) == vec(0, -1, 0)  # {e1, {e1, e2}} = {e1, e3}
        assert validate(alg) == []

    def test_idempotent_is_invalid(self):
        with pytest.raises(InvalidProduct) as info:
            from_leibniz(1, [(1, 1, 1, 1)])
        assert str(info.value) == "not a valid product: leibniz fails at (e1, e1, e1)"

    def test_from_leibniz_rejects_invalid(self):
        # {{e2,e1},e2} = {e3,e2} = 0, but {{e2,e2},e1} + {e2,{e1,e2}} = {e2,e3} = e1/2:
        # the first failing triple in product order
        with pytest.raises(InvalidProduct, match=r"leibniz fails at \(e2, e1, e2\)$"):
            from_leibniz(3, [(1, 2, 3, 1), (2, 3, 1, F(1, 2))])

    def test_float_product_rejected(self):
        with pytest.raises(ValueError, match=r"product entry \(1, 1, 1, 0.1\): the coefficient must be"):
            from_leibniz(1, [(1, 1, 1, 0.1)])

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="dimension <= 16"):
            from_leibniz(17)
        with pytest.raises(ValueError, match="positive"):
            from_leibniz(0)

    def test_abelian_gives_zero_algebra(self):
        alg = from_leibniz(3)
        assert bracket(alg, alg.basis(0), alg.basis(1)) == alg.zero()
        assert triple(alg, alg.basis(0), alg.basis(1), alg.basis(2)) == alg.zero()
        assert validate(alg) == []

    def test_nilpotent_derivation(self):
        alg = from_leibniz(2, [(1, 1, 2, 1)])
        assert validate(alg) == []

    def test_bundled_nonlie_derived_operations(self, bundled):
        alg = bundled["nonlie_leibniz"]
        e1, e3 = alg.basis(0), alg.basis(2)
        assert bracket(alg, e1, e3) == vec(0, 0, 2)
        assert triple(alg, e1, e3, e1) == vec(0, 0, 1)
        assert validate(alg) == []


class TestLeibnizCorpus:
    def test_all_two_dim_products(self):
        """Every valid product table with entries in {-1,0,1} on a 2-dim
        space yields an algebra passing all six axioms."""
        cells = [(i, j, k) for i in (1, 2) for j in (1, 2) for k in (1, 2)]
        valid = derived = 0
        for coeffs in itertools.product((-1, 0, 1), repeat=8):
            entries = [(i, j, k, c) for (i, j, k), c in zip(cells, coeffs) if c]
            alg = leibniz_or_none(2, entries)
            if alg is None:
                continue
            valid += 1
            assert validate(alg) == [], entries
            if any(nonzero_operations(alg)):
                derived += 1
        assert valid == 41  # guards against a vacuously permissive validator
        assert derived > 0  # and not all derived algebras are zero

    def test_sparse_three_dim_products(self):
        """Same property over all 3-dim tables with at most two +/-1 entries."""
        cells = [(i, j, k) for i in (1, 2, 3) for j in (1, 2, 3) for k in (1, 2, 3)]
        valid = derived = 0
        for nnz in (1, 2):
            for combo in itertools.combinations(cells, nnz):
                for signs in itertools.product((1, -1), repeat=nnz):
                    entries = [(i, j, k, s) for (i, j, k), s in zip(combo, signs)]
                    alg = leibniz_or_none(3, entries)
                    if alg is None:
                        continue
                    valid += 1
                    assert validate(alg) == [], entries
                    if any(nonzero_operations(alg)):
                        derived += 1
        assert valid == 288
        assert derived == 246

    def test_verdicts_match_reference(self):
        """from_leibniz rejects a product at the first triple where the
        Fraction loops of tests/reference.py find the derivation identity
        broken, and otherwise derives their operations."""
        rejected = accepted = 0
        for seed in range(120):
            rng = random.Random(seed)
            d = rng.randint(1, 3)
            product = [(i, j, k, F(rng.choice((-1, 1, 2)), rng.choice((1, 2))))
                       for i, j, k in itertools.product(range(1, d + 1), repeat=3) if rng.random() < 0.15]
            witness = reference.leibniz_witness(d, product)
            if witness is None:
                accepted += 1
                got = FractionAlgebra.of(from_leibniz(d, product))
                want = FractionAlgebra.from_product(d, product)
                assert (got.c, got.t) == (want.c, want.t), seed
                continue
            rejected += 1
            with pytest.raises(InvalidProduct) as info:
                from_leibniz(d, product)
            assert str(info.value) == f"not a valid product: {evallab.Violation('leibniz', witness).render()}"
        assert rejected >= 20 and accepted >= 20

    def test_matrix_semidirect_member(self):
        alg = matrix_semidirect()  # from_leibniz accepts the product
        # the derived bracket genuinely fails Jacobi somewhere...
        def jac(i, j, k):
            B = [alg.basis(x) for x in (i, j, k)]
            out = alg.zero()
            for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                term = bracket(alg, bracket(alg, B[a], B[b]), B[c])
                out = tuple(x + y for x, y in zip(out, term))
            return out
        assert any(
            any(jac(i, j, k))
            for i, j, k in itertools.combinations(range(6), 3)
        )
        # ...so the trilinear operation is forced to be nonzero, and the
        # whole structure still satisfies every axiom.
        assert nonzero_operations(alg)[1]
        assert validate(alg) == []


class TestSearch:
    def test_bruteforce_search_finds_bundled(self, bundled):
        """The bundled 3-dim example is the first table found by the
        deterministic search: sparse products with at most three +/-1
        entries that satisfy the derivation identity, are not Lie brackets,
        and have nonzero derived bilinear and trilinear operations."""
        cells = [(i, j, k) for i in (1, 2, 3) for j in (1, 2, 3) for k in (1, 2, 3)]

        def hits():
            for nnz in (1, 2, 3):
                for combo in itertools.combinations(cells, nnz):
                    for signs in itertools.product((1, -1), repeat=nnz):
                        entries = [(i, j, k, s) for (i, j, k), s in zip(combo, signs)]
                        alg = leibniz_or_none(3, entries)
                        if alg is None:
                            continue
                        mul = AlgebraSC(3, entries)  # the product as a bracket
                        B = [mul.basis(x) for x in range(3)]
                        not_lie = any(
                            any(x + y for x, y in zip(bracket(mul, B[i], B[j]),
                                                      bracket(mul, B[j], B[i])))
                            for i in range(3) for j in range(i, 3)
                        )
                        if not not_lie:
                            continue
                        if all(nonzero_operations(alg)):
                            yield entries

        first = next(hits())
        assert first == [(1, 1, 2, 1), (1, 3, 3, 1), (3, 1, 3, -1)]
        # and its derived algebra agrees with the bundled file's
        alg = bundled["nonlie_leibniz"]
        rebuilt = from_leibniz(3, first)
        basis = [alg.basis(i) for i in range(3)]
        for u, v in itertools.product(basis, repeat=2):
            assert bracket(alg, u, v) == bracket(rebuilt, u, v)
        for u, v, w in itertools.product(basis, repeat=3):
            assert triple(alg, u, v, w) == triple(rebuilt, u, v, w)


class TestEvaluate:
    def test_everything_zero_on_zero_algebra(self, bundled):
        zero = bundled["zero"]
        f = liftgen.seed_identities()["f"].polynomial
        vs = (vec(1, 2, 3), vec(-1, 0, 5), vec(F(1, 2), 1, 0))
        assert evaluate(f, zero, vs) == zero.zero()

    def test_hand_contraction(self, cross):
        # [[x1, x2], x3] as a polynomial
        poly = freealg.expand([(1, (2, (2, 1, 2), 3))])
        e = [cross.basis(i) for i in range(3)]
        assert evaluate(poly, cross, (e[0], e[1], e[2])) == cross.zero()  # [e3, e3]
        assert evaluate(poly, cross, (e[0], e[1], e[0])) == vec(0, 1, 0)  # [e3, e1] = e2

    def test_multilinearity(self, cross):
        poly = freealg.expand([(1, (2, (2, 1, 2), 3))])
        rng = random.Random(7)
        rv = lambda: vec(*(rng.randint(-5, 5) for _ in range(3)))
        for slot in range(3):
            base = [rv(), rv(), rv()]
            u, v = rv(), rv()
            a, b = F(3), F(-1, 2)
            mixed = list(base)
            mixed[slot] = tuple(a * x + b * y for x, y in zip(u, v))
            with_u, with_v = list(base), list(base)
            with_u[slot], with_v[slot] = u, v
            lhs = evaluate(poly, cross, mixed)
            rhs = tuple(
                a * x + b * y
                for x, y in zip(evaluate(poly, cross, with_u), evaluate(poly, cross, with_v))
            )
            assert lhs == rhs

    def test_argument_checks(self, cross):
        poly = freealg.expand([(1, (2, (2, 1, 2), 3))])
        with pytest.raises(ValueError, match="need 3 vectors"):
            evaluate(poly, cross, (cross.basis(0),))
        with pytest.raises(ValueError, match="length 2"):
            evaluate(poly, cross, (cross.basis(0), cross.basis(1), vec(1, 0)))

    def test_float_assignment_rejected(self, cross):
        poly = freealg.expand([(1, (2, (2, 1, 2), 3))])
        with pytest.raises(ValueError, match="float entry 0.1"):
            evaluate(poly, cross, (cross.basis(0), cross.basis(1), (0.1, 0, 0)))

    @pytest.mark.parametrize("degree", [4, 5, 6])
    def test_alternating_matches_expanded_polynomial(self, degree):
        b = len(freealg.binary_types(degree))
        terms = tuple((j, F((-1) ** j * (j % 3 + 1), 2)) for j in range(1, b + 1))
        ident = pipeline.ExplicitIdentity(degree, terms)
        poly = alternation_polynomial(ident)
        rng = random.Random(11)
        # every binary alternation of degree 5 or 6 vanishes on
        # matrix_semidirect; a random table gives nonzero values
        semidirect = matrix_semidirect()
        for alg in (semidirect, random_bracket(6, 1, 0.3)):
            for _ in range(3):
                vs = tuple(
                    vec(*(rng.randint(-2, 2) for _ in range(6))) for _ in range(degree)
                )
                value = evaluate(ident, alg, vs)
                assert value == evaluate(poly, alg, vs)
                assert any(value) or alg is semidirect

    def test_degree8_alternation_is_alternating_and_linear(self):
        alg = random_bracket(8, 8, 0.1)
        ident = theorem_identity()
        rng = random.Random(3)
        vs = [vec(*(rng.randint(-2, 2) for _ in range(8))) for _ in range(8)]
        value = evaluate(ident, alg, vs)
        assert any(value)
        swapped = list(vs)
        swapped[2], swapped[5] = vs[5], vs[2]
        assert evaluate(ident, alg, swapped) == tuple(-x for x in value)
        scaled = list(vs)
        scaled[4] = tuple(F(-3, 2) * x for x in vs[4])
        assert evaluate(ident, alg, scaled) == tuple(F(-3, 2) * x for x in value)

    def test_alternation_vanishes_on_dependent_vectors(self):
        alg = random_bracket(6, 1, 0.3)
        ident = pipeline.ExplicitIdentity(5, ((1, F(1)), (3, F(2))))
        rng = random.Random(5)
        vs = [vec(*(rng.randint(-2, 2) for _ in range(6))) for _ in range(5)]
        assert any(evaluate(ident, alg, vs))
        repeated = vs[:4] + [vs[1]]
        assert evaluate(ident, alg, repeated) == alg.zero()
        combined = vs[:4] + [tuple(x - 2 * y for x, y in zip(vs[0], vs[3]))]
        assert evaluate(ident, alg, combined) == alg.zero()
        # dimension 6 < degree 8
        big = theorem_identity()
        ws = [vec(*(rng.randint(-2, 2) for _ in range(6))) for _ in range(8)]
        assert evaluate(big, alg, ws) == alg.zero()

    def test_phantom_type_alternation_vanishes(self):
        # [[a,b],[c,d]] has an even skew generator: its alternation is zero
        alg = matrix_semidirect()
        ident = pipeline.ExplicitIdentity(4, ((1, F(1)),))
        assert not alternation_polynomial(ident)
        vs = tuple(vec(*range(i, i + 6)) for i in range(4))
        assert evaluate(ident, alg, vs) == alg.zero()

    def test_degree8_identity_zero_below_dim8(self, cross):
        ident = theorem_identity()
        vs = tuple(vec(i + 1, -i, 2 * i) for i in range(8))
        assert evaluate(ident, cross, vs) == cross.zero()


def theorem_identity():
    return pipeline.ExplicitIdentity(8, (
        (4, F(1)), (7, F(-3, 2)), (9, F(-1)), (10, F(1)),
        (14, F(2)), (18, F(3)), (20, F(2)), (21, F(-2)),
    ))


class TestCheckIdentity:
    def test_defining_identities_pass_everywhere(self, bundled):
        seeds = liftgen.seed_identities()
        for name in ("f", "g1", "g2", "h"):
            poly = seeds[name].polynomial
            for alg in bundled.values():
                res = check_identity(poly, alg, trials=5)
                assert res.passed, (name, alg.name)

    def test_non_identity_fails_with_witness(self, cross):
        # [[x1,x2],x3] - [[x1,x3],x2] is not an identity of a nonabelian bracket
        poly = freealg.expand([(1, (2, (2, 1, 2), 3)), (-1, (2, (2, 1, 3), 2))])
        res = check_identity(poly, cross, trials=4, seed=3)
        assert not res.passed
        assert res.witness is not None
        assert any(res.value)
        again = check_identity(poly, cross, trials=4, seed=3)
        assert again.witness == res.witness and again.value == res.value

    def test_theorem_identity_passes_on_bundled(self, bundled):
        ident = theorem_identity()
        for alg in bundled.values():
            res = check_identity(ident, alg, trials=20, seed=1)
            assert res.passed, alg.name
            assert res.assignments_checked >= 20

    def test_corrupted_identity_invisible_below_dim8(self, bundled):
        """Alternating 8-linear maps vanish identically in dimension < 8, so
        substitution alone cannot catch a corrupted coefficient on the
        bundled algebras — that burden falls on the symbolic certificate."""
        terms = tuple(
            (j, F(-1) if j == 7 else c) for j, c in theorem_identity().terms
        )
        corrupted = pipeline.ExplicitIdentity(8, terms)
        for alg in bundled.values():
            assert check_identity(corrupted, alg, trials=5, seed=2).passed

    def test_generated_identities_hold_semantically(self, bundled):
        """Symbolic-vs-semantic consistency: every lifted identity of degree
        <= 5 evaluates to zero on every bundled algebra."""
        for n in (4, 5):
            gen = liftgen.generate(n)
            for ident in gen.identities:
                for alg in bundled.values():
                    res = check_identity(ident.polynomial, alg, trials=2, seed=5)
                    assert res.passed, (n, ident.render_lineage(), alg.name)

    @pytest.mark.parametrize("trials", [1.5, True, "2"])
    def test_non_integer_trials_rejected(self, cross, trials):
        poly = freealg.expand([(1, (2, (2, 1, 2), 3))])
        with pytest.raises(ValueError, match=re.escape(f"trials must be an int, got {trials!r}")):
            check_identity(poly, cross, trials=trials)

    def test_negative_trials_rejected(self, cross):
        poly = freealg.expand([(1, (2, (2, 1, 2), 3))])
        with pytest.raises(ValueError, match="trials must be non-negative, got -3"):
            check_identity(poly, cross, trials=-3)


def lifted_generators():
    return [i.polynomial for n in (4, 5) for i in liftgen.generate(n).identities]


class TestBasisSweep:
    """The basis phase of check_identity, read off subtree tables, against
    the reference that evaluates every basis tuple afresh: the same verdict,
    count, witness and value."""

    def assert_matches_reference(self, item, alg, trials=0):
        got = check_identity(item, alg, trials=trials, seed=4)
        ref = FractionAlgebra.of(alg)
        assert got == check_identity_per_tuple(item, ref, trials=trials, seed=4), alg.name
        return got

    def test_identities_pass_on_bundled(self, bundled):
        seeds = [s.polynomial for s in liftgen.seed_identities().values()]
        for poly in seeds + lifted_generators():
            for alg in bundled.values():
                got = self.assert_matches_reference(poly, alg, trials=1)
                assert got.passed and got.assignments_checked == 1 + alg.dimension ** poly.degree

    @pytest.mark.parametrize("algebra", ["random_bracket", "nonlie_leibniz"])
    def test_dropped_term_fails_alike(self, bundled, algebra):
        # nonlie_leibniz has a nonzero trilinear table, so the triple path runs
        alg = random_bracket(4, 2, 0.3) if algebra == "random_bracket" else bundled[algebra]
        failed = []
        for poly in lifted_generators():
            first = poly.sorted_terms()[0][0]
            dropped = freealg.Polynomial(poly.degree, {m: c for m, c in poly.terms.items() if m != first})
            got = self.assert_matches_reference(dropped, alg)
            if not got.passed:
                failed.append(got.assignments_checked)
        # failures found past the first tuple pin the walking order
        assert len(failed) >= 5 and max(failed) > 1

    def test_zero_algebra_has_empty_tables(self, bundled):
        zero = bundled["zero"]
        poly = liftgen.seed_identities()["h"].polynomial
        memo = {}
        for mono in poly.terms:
            assert evallab._table(evallab._shape(freealg.labeled_tree(mono)), zero, memo) == {}
        got = self.assert_matches_reference(poly, zero)
        assert got.passed and got.assignments_checked == 3 ** poly.degree

    def test_explicit_identities(self, bundled):
        # the alternation of [[x1,x2],x3] is twice the Jacobi sum, which a
        # random bracket breaks; unalternated, it is one bracketing
        jacobi = pipeline.ExplicitIdentity(3, ((1, F(1)),))
        alg = random_bracket(4, 2, 0.3)
        assert not self.assert_matches_reference(jacobi, alg).passed
        plain = pipeline.ExplicitIdentity(3, ((1, F(1)),), alternating=False)
        assert not self.assert_matches_reference(plain, alg).passed
        for algebra in bundled.values():
            assert self.assert_matches_reference(theorem_identity(), algebra).passed

    def test_repeated_index_tuples_skip_evaluation(self, cross, monkeypatch):
        calls = []
        real = evallab.evaluate
        monkeypatch.setattr(evallab, "evaluate", lambda *a: calls.append(a) or real(*a))
        res = check_identity(theorem_identity(), cross, trials=2, seed=1)
        assert res == evallab.CheckResult(True, 2 + 3 ** 8)
        assert len(calls) == 2  # the random trials only
        jacobi = pipeline.ExplicitIdentity(3, ((1, F(1)),))
        calls.clear()
        assert check_identity(jacobi, cross, trials=0).passed
        assert calls == []  # the basis phase walks index sets without evaluate

    def test_alternating_witness_past_the_first_set(self):
        # on matrix_semidirect these vanish on the first index sets, so the
        # set walk must place its witness where the tuple walk finds it;
        # the degree-5 ones pass after all C(6, 5) sets
        alg = matrix_semidirect()
        cases = [((3, ((1, F(1)),)), 12), ((4, ((2, F(1)),)), 53),
                 ((4, ((1, F(1, 2)), (2, F(-3, 4)))), 53), ((5, ((1, F(1)), (3, F(2)))), None)]
        for (n, terms), position in cases:
            got = self.assert_matches_reference(pipeline.ExplicitIdentity(n, terms), alg)
            assert got.passed == (position is None)
            assert got.assignments_checked == (position or 6 ** n)


BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_workloads():
    """The benchmark's workloads module, which builds the oracle's inputs."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import workloads

    return workloads


def sparse_entries(dimension, seed):
    """Seeded random sparse constants, no axiom imposed: bilinear ones in
    halves, trilinear ones in thirds, fewer per slot as the dimension grows."""
    rng = random.Random(seed)
    indices = range(1, dimension + 1)
    bilinear = [(*ijk, F(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2))))
                for ijk in itertools.product(indices, repeat=3) if rng.random() < 0.6 / dimension]
    trilinear = [(*ijkl, F(rng.choice((-2, 1, 3)), rng.choice((1, 3))))
                 for ijkl in itertools.product(indices, repeat=4) if rng.random() < 0.3 / dimension ** 2]
    return bilinear, trilinear


def with_first_term_dropped(poly):
    first = poly.sorted_terms()[0][0]
    return freealg.Polynomial(poly.degree, {m: c for m, c in poly.terms.items() if m != first})


def so5_direct_sum():
    """so(5) > Cartan ⊕ so(5) > Cartan, a valid 16-dimensional algebra."""
    doc = json.loads((BENCH / "so5_cartan.json").read_text())
    d = doc["dimension"]

    def both(entries):
        return [tuple(e) for e in entries] + [(*(i + d for i in e[:-1]), e[-1]) for e in entries]

    return AlgebraSC(2 * d, both(doc["bilinear"]), both(doc["trilinear"]))


class TestChunkedSweep:
    """The sweep over nonzero table entries, one first index at a time,
    against the tuple walk of tests/reference.py and the Fraction routes:
    the same witness, position and value, so the same violations, verdicts
    and CheckResults."""

    def test_matches_tuple_walk_on_sparse_algebras(self):
        polys = [i.polynomial for i in liftgen.generate(4).identities]
        polys += [i.polynomial for i in liftgen.generate(5).identities[::6]]
        sums = [(terms, liftgen._leaf_count(terms[0][1])) for _, terms in (*evallab._AXIOMS, evallab._LEIBNIZ)]
        for poly in polys:  # the (integer coefficient, labelled tree) terms check_identity sweeps
            for p in (poly, with_first_term_dropped(poly)):
                sums.append(([(int(c), freealg.labeled_tree(m)) for m, c in p.sorted_terms()], p.degree))
        hits, late, passed = 0, 0, 0
        for seed in range(16):
            dimension = 2 + seed % 4
            alg = AlgebraSC(dimension, *sparse_entries(dimension, seed))
            for terms, n in sums:
                got = evallab._sweep(terms, alg, n)
                assert got == reference.sweep(terms, alg, n), (seed, terms)
                if got is None:
                    passed += 1
                else:
                    hits += 1
                    late += got[1][0] > 0
        # failures and passes, and witnesses past the first index's first value
        assert hits >= 100 and late >= 20 and passed >= 20, (hits, late, passed)

    def test_public_routes_match_fraction_references(self):
        polys = [i.polynomial for i in liftgen.generate(4).identities[::2]]
        for seed in range(8):
            dimension = 2 + seed % 4
            bilinear, trilinear = sparse_entries(dimension, seed)
            alg, ref = AlgebraSC(dimension, bilinear, trilinear), FractionAlgebra(dimension, bilinear, trilinear)
            assert validate(alg) == reference.validate(ref), seed
            witness = reference.leibniz_witness(dimension, bilinear)
            if witness is None:
                from_leibniz(dimension, bilinear)
            else:
                render = evallab.Violation("leibniz", witness).render()
                with pytest.raises(InvalidProduct, match=re.escape(render)):
                    from_leibniz(dimension, bilinear)
            if dimension > 4:
                continue  # the Fraction reference evaluates every tuple afresh
            for poly in polys:
                for item in (poly, with_first_term_dropped(poly)):
                    for trials in (0, 2):
                        got = check_identity(item, alg, trials=trials, seed=seed)
                        assert got == check_identity_per_tuple(item, ref, trials=trials, seed=seed), seed

    def test_cancelling_terms_before_the_witness(self):
        (_, ly1), = (axiom for axiom in evallab._AXIOMS if axiom[0] == "LY1")
        # [e1,e2] = e3 = -[e2,e1]: LY1's two terms cancel at (1, 2); the
        # witness is (1, 3), later in the same first index
        alg = AlgebraSC(3, [(1, 2, 3, 1), (2, 1, 3, -1), (1, 3, 2, 1), (3, 1, 2, 1)])
        assert evallab._sweep(ly1, alg, 2) == reference.sweep(ly1, alg, 2) == (3, (0, 2), {1: 2})
        # here every tuple with first index 1 cancels, and (2, 3) is the witness
        alg = AlgebraSC(3, [(1, 2, 3, 1), (2, 1, 3, -1), (2, 3, 1, F(1, 2))])
        assert evallab._sweep(ly1, alg, 2) == reference.sweep(ly1, alg, 2) == (6, (1, 2), {0: 1})
        assert validate(alg)[0] == evallab.Violation("LY1", (2, 3))

    def test_oracle_generators(self, monkeypatch):
        workloads = bench_workloads()
        failed = 0
        for seed in (1, 2, 3):
            inp = workloads.oracle_setup(seed)
            for poly in inp["generators"]:
                for alg in inp["algebras"].values():
                    for item, trials in ((poly, workloads.ORACLE_TRIALS), (with_first_term_dropped(poly), 0)):
                        got = check_identity(item, alg, trials=trials, seed=workloads.ORACLE_CHECK_SEED)
                        with monkeypatch.context() as m:
                            m.setattr(evallab, "_sweep", reference.sweep)
                            want = check_identity(item, alg, trials=trials, seed=workloads.ORACLE_CHECK_SEED)
                        assert got == want, (seed, alg.name)
                        assert got.passed or item is not poly
                        failed += not got.passed
        assert failed > 0  # a dropped term shows on the bundled algebras now and then

    def test_zero_algebra_makes_no_products(self, bundled, monkeypatch):
        zero = bundled["zero"]
        calls, depth = [], [0]
        real_operate, real_table = evallab._operate, evallab._table

        def operate(alg, factors):
            if not depth[0]:
                calls.append(factors)
            return real_operate(alg, factors)

        def table(shape, alg, memo):
            depth[0] += 1
            try:
                return real_table(shape, alg, memo)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(evallab, "_operate", operate)
        monkeypatch.setattr(evallab, "_table", table)
        for poly in lifted_generators() + [liftgen.generate(6).identities[0].polynomial]:
            assert check_identity(poly, zero, trials=2) == evallab.CheckResult(True, 2 + 3 ** poly.degree)
        assert calls == []
        # only a term whose root's children are all leaves has no empty table
        assert validate(zero) == []
        leaf_terms = [tree for _, terms in evallab._AXIOMS for _, tree in terms
                      if all(child.__class__ is int for child in tree[1:])]
        assert len(calls) == sum(3 ** (len(tree) - 1) for tree in leaf_terms)

    def test_validate_memory_is_bounded(self):
        # a 16-dimensional valid algebra walks every tuple of every axiom:
        # under 0.04 MiB traced with the tuple walk and 0.08 MiB chunked, but
        # 0.31 MiB when one accumulator holds the whole tuple space
        alg = so5_direct_sum()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert validate(alg) == []
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 0.16 * 2 ** 20


def fractional_entries(seed):
    """Seeded random constants on a 3-dim space, no axiom imposed: bilinear
    ones in odd halves, trilinear ones in thirds, so D = 6."""
    rng = random.Random(seed)
    bilinear = [(*ijk, F(rng.choice((-3, -1, 1, 3)), 2))
                for ijk in itertools.product(range(1, 4), repeat=3) if rng.random() < 0.3]
    trilinear = [(*ijkl, F(rng.choice((-2, -1, 1, 2)), 3))
                 for ijkl in itertools.product(range(1, 4), repeat=4) if rng.random() < 0.15]
    return bilinear, trilinear


class TestIntegerKernel:
    """Integer evaluation over a common denominator against the Fraction
    loops of tests/reference.py, on algebras built from the same entries:
    the same values, CheckResults field by field, and violations."""

    def assert_agrees(self, item, alg, ref, seed):
        rng = random.Random(seed)
        vs = tuple(tuple(F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(alg.dimension))
                   for _ in range(item.degree))
        value = evaluate(item, alg, vs)
        assert value == reference.evaluate(item, ref, vs)
        results = []
        for trials in (3, 0):  # a witness from the random phase, then from the basis phase
            got = check_identity(item, alg, trials=trials, seed=seed)
            assert got == check_identity_per_tuple(item, ref, trials=trials, seed=seed)
            results.append(got)
        return value, results

    def test_fractional_constants(self):
        bilinear, trilinear = fractional_entries(6)
        alg = AlgebraSC(3, bilinear, trilinear)
        ref = FractionAlgebra(3, bilinear, trilinear)
        assert alg._D == 6
        seeds = liftgen.seed_identities()
        jacobi = pipeline.ExplicitIdentity(3, ((1, F(1)),))
        # f and g2 mix brackets and triple products; random constants break all three
        for k, item in enumerate((seeds["f"].polynomial, seeds["g2"].polynomial, jacobi)):
            value, results = self.assert_agrees(item, alg, ref, seed=k)
            assert any(value) and not any(r.passed for r in results)
            assert any(x.denominator > 1 for x in results[0].value)
        assert validate(alg) == reference.validate(ref)

    def test_violated_axioms_with_fractional_constants(self):
        # a Lie bracket in halves with a trilinear operation in thirds that
        # is skew in its first two arguments but breaks the cyclic axiom
        bilinear = [(1, 2, 3, F(1, 2)), (2, 1, 3, F(-1, 2)), (2, 3, 1, F(1, 2)),
                    (3, 2, 1, F(-1, 2)), (3, 1, 2, F(1, 2)), (1, 3, 2, F(-1, 2))]
        trilinear = [(1, 2, 3, 1, F(1, 3)), (2, 1, 3, 1, F(-1, 3))]
        alg = AlgebraSC(3, bilinear, trilinear)
        bad = validate(alg)
        assert bad == reference.validate(FractionAlgebra(3, bilinear, trilinear))
        assert bad[0] == evallab.Violation("LY3", (1, 2, 3))

    def assert_theorem_agrees(self, alg, ref):
        """The theorem and the theorem with the type-7 coefficient set to -1
        at a random rational assignment; returns both values."""
        corrupted = pipeline.ExplicitIdentity(8, tuple(
            (j, F(-1) if j == 7 else c) for j, c in theorem_identity().terms
        ))
        rng = random.Random(8)
        vs = tuple(tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(8))
                   for _ in range(8))
        values = [evaluate(item, alg, vs) for item in (theorem_identity(), corrupted)]
        assert values == [reference.evaluate(item, ref, vs) for item in (theorem_identity(), corrupted)]
        return values

    def test_theorem_on_so5_cartan(self):
        doc = json.loads((Path(__file__).parents[1] / "bench" / "so5_cartan.json").read_text())
        alg = load_algebra(json.dumps(doc))
        ref = FractionAlgebra(8, doc["bilinear"], doc["trilinear"])
        # every alternated binary type of degree 8 vanishes on so(5) > Cartan,
        # so the corrupted identity does too
        assert self.assert_theorem_agrees(alg, ref) == [alg.zero()] * 2

    def test_theorem_on_fractional_bracket(self):
        # a random skew bracket in halves breaks both, differently
        rng = random.Random(8)
        bilinear = []
        for i, j in itertools.combinations(range(1, 9), 2):
            for k in range(1, 9):
                if rng.random() < 0.1:
                    c = F(rng.choice((-3, -1, 1, 3)), 2)
                    bilinear += [(i, j, k, c), (j, i, k, -c)]
        alg = AlgebraSC(8, bilinear)
        assert alg._D == 2
        theorem, corrupted = self.assert_theorem_agrees(alg, FractionAlgebra(8, bilinear))
        assert any(theorem) and any(corrupted) and theorem != corrupted

    def test_leibniz_with_fractional_product(self):
        entries = semidirect_entries(F(1, 2))
        alg = from_leibniz(6, entries)
        ref = FractionAlgebra.from_product(6, entries)
        assert alg._D == 4  # brackets in halves, triple products in quarters
        assert validate(alg) == reference.validate(ref) == []
        poly = liftgen.generate(4).identities[0].polynomial
        value, results = self.assert_agrees(poly, alg, ref, seed=1)
        assert not any(value) and all(r.passed for r in results)
        first = poly.sorted_terms()[0][0]
        dropped = freealg.Polynomial(4, {m: c for m, c in poly.terms.items() if m != first})
        value, results = self.assert_agrees(dropped, alg, ref, seed=1)
        assert any(value) and not any(r.passed for r in results)


class TestLoadAlgebra:
    def test_bundled_names(self, bundled):
        assert sorted(bundled) == [
            "cross_product", "nilpotent_leibniz", "nonlie_leibniz", "zero",
        ]
        for name, alg in bundled.items():
            assert alg.name == name
            assert validate(alg) == []

    def test_direct_with_fractions(self):
        alg = load_algebra(
            '{"name": "t", "dimension": 2, "construction": "direct",'
            ' "bilinear": [[1, 2, 1, "1/3"], [2, 1, 1, "-1/3"]],'
            ' "trilinear": [[1, 2, 1, 2, "5"], [2, 1, 1, 2, "-5"]]}'
        )
        assert bracket(alg, alg.basis(0), alg.basis(1)) == vec(F(1, 3), 0)
        assert triple(alg, alg.basis(0), alg.basis(1), alg.basis(0)) == vec(0, 5)

    def test_unknown_construction(self):
        with pytest.raises(ValueError, match="unknown construction"):
            load_algebra('{"dimension": 1, "construction": "mystery"}')

    @pytest.mark.parametrize("doc, message", [
        # index 0 would otherwise wrap round to the last basis vector
        ({"dimension": 2, "construction": "lie", "bilinear": [[0, 1, 1, "1"], [1, 0, 1, "-1"]]},
         "bilinear entry [0, 1, 1, '1']: indices must be integers in 1..2"),
        ({"dimension": 2, "construction": "direct", "trilinear": [[1, 2, 3, 1, "1"]]},
         "trilinear entry [1, 2, 3, 1, '1']: indices must be integers in 1..2"),
        ({"dimension": 2, "construction": "leibniz", "product": [[1, 2, "1"]]},
         "product entry [1, 2, '1']: expected 3 indices and a coefficient"),
        ({"dimension": 2, "construction": "lie", "bilinear": [[1, 2, 1, 0.1]]},
         "bilinear entry [1, 2, 1, 0.1]: the coefficient must be an int or an exact string"),
        ({"dimension": 2, "construction": "lie", "bilinear": [[1, 2, 1, "1/0"]]},
         "the coefficient must be an int or an exact string"),
        ({"dimension": 2, "construction": "lie", "bilinear": [[1, 2, 1, True]]},
         "the coefficient must be an int or an exact string"),
        ({"construction": "lie"}, "missing required field 'dimension'"),
        ({"dimension": 2}, "missing required field 'construction'"),
        ({"dimension": 2, "construction": ["lie"]}, "unknown construction ['lie']"),
        ({"dimension": "2", "construction": "lie"}, "dimension must be a positive integer"),
        ({"dimension": 2, "construction": "lie", "trilinear": []},
         "the lie construction does not read trilinear"),
        ({"dimension": 2, "construction": "direct", "bilinear": {}},
         "bilinear must be a list of entries"),
        ([2, "lie"], "one JSON object"),
    ], ids=["index-0", "index-above-dim", "short-entry", "float", "zero-denominator", "bool",
            "no-dimension", "no-construction", "list-construction", "string-dimension",
            "unread-table", "table-not-list", "not-an-object"])
    def test_malformed_file_rejected(self, doc, message):
        with pytest.raises(ValueError) as info:
            load_algebra(json.dumps(doc))
        assert message in str(info.value)

    def test_sparse_entries_checked(self):
        with pytest.raises(ValueError, match=r"bilinear entry \(0, 1, 1, 1\)"):
            AlgebraSC(2, bilinear=[(0, 1, 1, 1)])
        with pytest.raises(ValueError, match=r"product entry \(1, 1, 3, 1\)"):
            from_leibniz(2, [(1, 1, 3, 1)])
        # int and string coefficients, in files and in code, read alike
        doc = {"dimension": 2, "construction": "lie", "bilinear": [[1, 2, 1, 2], [2, 1, 1, "-2"]]}
        alg = load_algebra(json.dumps(doc))
        assert bracket(alg, alg.basis(0), alg.basis(1)) == vec(2, 0)
        assert bracket(alg, alg.basis(1), alg.basis(0)) == vec(-2, 0)
