"""Seeds, liftings, generation counts, lineage replay, and the rank filter."""

import gc
import json
import random
import weakref
from fractions import Fraction
from math import factorial
from pathlib import Path

import numpy as np
import pytest

import reference
from lyident import freealg, liftgen, pipeline, symrep
from lyident.exactla import GF101, QQ, FieldSpec, IncrementalReducer


def signed_renders(poly):
    return [
        ("+" if c > 0 else "-") + freealg.render_monomial(m)
        for m, c in poly.sorted_terms()
    ]


SEED_RENDERS = {
    "f": ["+<abc>", "-<acb>", "+<bca>", "+[[ab]c]", "-[[ac]b]", "+[[bc]a]"],
    "g1": ["+<[ab]cd>", "-<[ac]bd>", "+<[bc]ad>"],
    "g2": ["-[<abc>d]", "+[<abd>c]", "+<ab[cd]>"],
    "h": ["+<ab<cde>>", "-<cd<abe>>", "-<<abc>de>", "+<<abd>ce>"],
}


# the seeds' canonical terms as (type index, leaf labels, coefficient)
SEED_CANONICAL_TERMS = {
    "f": [(1, (1, 2, 3), 1), (1, (1, 3, 2), -1), (1, (2, 3, 1), 1),
          (2, (1, 2, 3), 1), (2, (1, 3, 2), -1), (2, (2, 3, 1), 1)],
    "g1": [(3, (1, 2, 3, 4), 1), (3, (1, 3, 2, 4), -1), (3, (2, 3, 1, 4), 1)],
    "g2": [(1, (1, 2, 3, 4), -1), (1, (1, 2, 4, 3), 1), (2, (1, 2, 3, 4), 1)],
    "h": [(1, (1, 2, 3, 4, 5), 1), (1, (3, 4, 1, 2, 5), -1),
          (2, (1, 2, 3, 4, 5), -1), (2, (1, 2, 4, 3, 5), 1)],
}


class TestSeeds:
    def test_literal_seeds_expand_to_canonical_terms(self):
        # the seeds are written as LY3-LY6 state them, e.g. f as the cyclic
        # sum of [[a,b],c] + <a,b,c>; straightened they give the pinned terms
        assert liftgen._SEED_TERMS["f"][4:] == ((1, (2, (2, 3, 1), 2)), (1, (3, 3, 1, 2)))
        assert liftgen._SEED_TERMS["h"][2] == (-1, (3, 3, (3, 1, 2, 4), 5))
        seeds = liftgen.seed_identities()
        for name, terms in SEED_CANONICAL_TERMS.items():
            poly = freealg.expand(liftgen._SEED_TERMS[name])
            assert [(m.type_index, m.perm, c) for m, c in poly.sorted_terms()] == terms
            assert seeds[name].polynomial == poly

    def test_seed_polynomials(self):
        seeds = liftgen.seed_identities()
        assert set(seeds) == {"f", "g1", "g2", "h"}
        for name, expected in SEED_RENDERS.items():
            assert signed_renders(seeds[name].polynomial) == expected

    def test_seed_degrees_and_lineage(self):
        seeds = liftgen.seed_identities()
        assert [seeds[k].degree for k in ("f", "g1", "g2", "h")] == [3, 4, 4, 5]
        assert seeds["f"].lineage == (("seed", "f"),)
        assert seeds["h"].render_lineage() == "h"

    def test_seed_coefficients_are_units(self):
        for ident in liftgen.seed_identities().values():
            assert all(c in (1, -1) for _, c in ident.polynomial.sorted_terms())


class TestLiftings:
    def test_binary_lifting_count_and_lineage(self):
        f = liftgen.seed_identities()["f"]
        lifted = liftgen.lift_binary(f)
        assert [i.lineage[-1] for i in lifted] == [
            ("binary-sub", 1),
            ("binary-sub", 2),
            ("binary-sub", 3),
            ("binary-mul",),
        ]
        assert all(i.degree == 4 for i in lifted)

    def test_ternary_lifting_count_and_lineage(self):
        f = liftgen.seed_identities()["f"]
        lifted = liftgen.lift_ternary(f)
        assert [i.lineage[-1] for i in lifted] == [
            ("ternary-sub", 1),
            ("ternary-sub", 2),
            ("ternary-sub", 3),
            ("ternary-mul", 1),
            ("ternary-mul", 3),
        ]
        assert all(i.degree == 5 for i in lifted)

    def test_binary_substitution_golden(self):
        # f with a -> [a,d]; note the reorientation sign on [[ad][bc]]
        f = liftgen.seed_identities()["f"]
        got = signed_renders(liftgen.lift_binary(f)[0].polynomial)
        assert got == [
            "+<bc[ad]>",
            "+<[ad]bc>",
            "-<[ad]cb>",
            "-[[ad][bc]]",
            "+[[[ad]b]c]",
            "-[[[ad]c]b]",
        ]

    def test_binary_multiplication_golden(self):
        f = liftgen.seed_identities()["f"]
        got = signed_renders(liftgen.lift_binary(f)[3].polynomial)
        assert got == [
            "+[<abc>d]",
            "-[<acb>d]",
            "+[<bca>d]",
            "+[[[ab]c]d]",
            "-[[[ac]b]d]",
            "+[[[bc]a]d]",
        ]

    def test_ternary_multiplication_golden(self):
        f = liftgen.seed_identities()["f"]
        got = signed_renders(liftgen.lift_ternary(f)[4].polynomial)
        assert got == [
            "+<de<abc>>",
            "-<de<acb>>",
            "+<de<bca>>",
            "+<de[[ab]c]>",
            "-<de[[ac]b]>",
            "+<de[[bc]a]>",
        ]

    def test_lifting_preserves_term_count_here(self):
        # no cancellation occurs in these liftings, only reorientation signs
        f = liftgen.seed_identities()["f"]
        for ident in liftgen.lift_binary(f) + liftgen.lift_ternary(f):
            assert len(ident.polynomial) == 6

    def test_zero_polynomial_lifts_to_nothing(self):
        zero = liftgen.Identity(freealg.Polynomial(3), (("seed", "f"),))
        assert liftgen.lift_binary(zero) == []
        assert liftgen.lift_ternary(zero) == []

    def test_bad_ternary_position(self):
        with pytest.raises(ValueError, match="position"):
            liftgen._apply_step([(1, (2, 1, 2))], 2, ("ternary-mul", 2))


class TestGenerate:
    def test_sizes(self):
        assert [len(liftgen.generate(n)) for n in (3, 4, 5, 6)] == [1, 6, 36, 252]

    def test_degree_4_order(self):
        lineages = [i.render_lineage() for i in liftgen.generate(4).identities]
        assert lineages == [
            "g1",
            "g2",
            "f -> binary-sub(1)",
            "f -> binary-sub(2)",
            "f -> binary-sub(3)",
            "f -> binary-mul",
        ]

    def test_degree_5_starts_with_h_then_binary_then_ternary(self):
        lineages = [i.render_lineage() for i in liftgen.generate(5).identities]
        assert lineages[0] == "h"
        assert lineages[1] == "g1 -> binary-sub(1)"
        assert lineages[-1] == "f -> ternary-mul(3)"
        assert sum(1 for s in lineages if s.endswith("ternary-mul(1)")) == 1

    def test_all_degrees_match(self):
        for n in (3, 4, 5):
            g = liftgen.generate(n)
            assert g.degree == n and not g.filtered
            assert all(i.degree == n for i in g.identities)

    def test_filtered_inputs_are_used(self):
        g4 = liftgen.generate(4)
        small = liftgen.GenerationSet(4, g4.identities[:2], filtered=True)
        g5 = liftgen.generate(5, {4: small})
        # h + 2 * 5 binary liftings + 5 ternary liftings of f
        assert len(g5) == 1 + 10 + 5

    def test_rejects_tiny_degrees(self):
        with pytest.raises(ValueError):
            liftgen.generate(2)

    def test_each_degree_built_once(self, monkeypatch):
        # generate(7) lifts degrees 6 and 5, which lift 5, 4 and 3 in turn;
        # each is built once: 288 + 42 + 7 + 1 liftings of an identity
        built, lifted = [], []
        build, lift = liftgen._generate, liftgen._lift
        monkeypatch.setattr(liftgen, "_generate", lambda n, inputs: built.append(n) or build(n, inputs))
        monkeypatch.setattr(liftgen, "_lift", lambda ident, steps: lifted.append(ident) or lift(ident, steps))
        liftgen.generate(7)
        assert sorted(built) == [3, 4, 5, 6, 7]
        assert len(lifted) == 338
        # a given source degree is not built at all
        small = liftgen.GenerationSet(4, liftgen.generate(4).identities[:2], filtered=True)
        built.clear()
        liftgen.generate(5, {4: small})
        assert sorted(built) == [3, 5]

    @pytest.mark.parametrize("n", [6, 7])
    def test_matches_reference_lifting(self, n):
        # every generator, lifted through the recursive reference
        # canonicalizer and substitution, in the same order
        got = [(i.lineage, i.polynomial) for i in liftgen.generate(n).identities]
        assert got == list(reference.generate_reference(n))


class TestCounts:
    def test_lifting_count_values(self):
        assert [liftgen.lifting_count(n) for n in range(4, 9)] == [
            6,
            36,
            252,
            2016,
            18144,
        ]

    def test_lifting_count_formula_and_recurrence(self):
        for n in range(4, 30):
            assert Fraction(factorial(n + 1), 20) == liftgen.lifting_count(n)
        for n in range(6, 30):
            assert liftgen.lifting_count(n) == n * (
                liftgen.lifting_count(n - 1) + liftgen.lifting_count(n - 2)
            )

    def test_generate_matches_lifting_count(self):
        for n in (4, 5, 6):
            assert len(liftgen.generate(n)) == liftgen.lifting_count(n)

    def test_lifting_count_domain(self):
        with pytest.raises(ValueError):
            liftgen.lifting_count(3)


class TestReplay:
    def test_replay_reproduces_generate_5(self):
        for ident in liftgen.generate(5).identities:
            assert liftgen.replay(ident.lineage) == ident.polynomial

    def test_replay_spot_check_degree_6(self):
        g6 = liftgen.generate(6)
        for ident in g6.identities[::25]:
            assert liftgen.replay(ident.lineage) == ident.polynomial

    def test_replay_rejects_bad_lineages(self):
        with pytest.raises(ValueError):
            liftgen.replay(())
        with pytest.raises(ValueError):
            liftgen.replay((("binary-mul",),))
        with pytest.raises(ValueError):
            liftgen.replay((("seed", "nope"),))
        # a substitution index outside 1..n is an error, not a no-op
        with pytest.raises(ValueError, match="1..3"):
            liftgen.replay((("seed", "f"), ("binary-sub", 9)))
        with pytest.raises(ValueError, match="1..4"):
            liftgen.replay((("seed", "g1"), ("ternary-sub", 0)))
        # a step that takes an argument but lacks it
        for step in [("binary-sub",), ("ternary-mul",)]:
            with pytest.raises(ValueError, match="one argument"):
                liftgen.replay((("seed", "f"), step))
        # an extra argument is an error, not ignored, and so is a seed
        # step without its name
        with pytest.raises(ValueError, match=r"binary-mul step takes no argument, got \('binary-mul', 7\)"):
            liftgen.replay((("seed", "f"), ("binary-mul", 7)))
        with pytest.raises(ValueError, match=r"seed step takes one argument, got \('seed', 'f', 'x'\)"):
            liftgen.replay((("seed", "f", "x"),))
        with pytest.raises(ValueError, match=r"seed step takes one argument, got \('seed',\)"):
            liftgen.replay((("seed",),))
        # a position that only compares equal to 1 is not one
        for pos in (True, 1.0):
            with pytest.raises(ValueError, match="position must be 1 or 3"):
                liftgen.replay((("seed", "f"), ("ternary-mul", pos)))


def tree_route(parent: liftgen.Identity, step) -> freealg.Polynomial:
    """One lifting step the way the step table's entries are made: the
    parent's terms as labelled trees, the step applied to the trees, then
    straightened."""
    terms = [(c, freealg.labeled_tree(m)) for m, c in parent.polynomial.sorted_terms()]
    return freealg.expand(liftgen._apply_step(terms, parent.degree, step)[0])


def tree_generation(n: int, inputs: dict) -> list:
    """(lineage, terms in insertion order) of the degree-n generators lifted
    from inputs[n - 1] and inputs[n - 2] by the tree route, in the order of
    liftgen.generate, zero lifts dropped."""
    out = [(s.lineage, list(s.polynomial.terms.items())) for s in liftgen.seed_identities().values() if s.degree == n]
    for parent in inputs[n - 1].identities:
        steps = [("binary-sub", i) for i in range(1, n)] + [("binary-mul",)]
        out += [(parent.lineage + (s,), list(q.terms.items())) for s in steps if (q := tree_route(parent, s))]
    if n >= 5:
        for parent in inputs[n - 2].identities:
            steps = [("ternary-sub", i) for i in range(1, n - 1)] + [("ternary-mul", 1), ("ternary-mul", 3)]
            out += [(parent.lineage + (s,), list(q.terms.items())) for s in steps if (q := tree_route(parent, s))]
    return out


class TestStepTable:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_generate_matches_tree_route(self, n):
        # every generator, its lineage, terms, coefficients and term order,
        # lifted one step from the same parents by the tree route
        inputs = {k: liftgen.generate(k) for k in (n - 2, n - 1) if k >= 3}
        got = [(i.lineage, list(i.polynomial.terms.items())) for i in liftgen.generate(n).identities]
        assert got == tree_generation(n, inputs)

    def test_generate_8_matches_tree_route(self, gen6_filtered, gen7_filtered, gen8):
        got = [(i.lineage, list(i.polynomial.terms.items())) for i in gen8.identities]
        assert len(got) == 1616
        assert got == tree_generation(8, {6: gen6_filtered, 7: gen7_filtered})

    def test_benchmark_lineages_replay_to_generate(self):
        doc = json.loads((Path(__file__).parents[1] / "bench" / "lineages.json").read_text(encoding="utf-8"))
        assert sorted(doc) == ["6", "7"]
        for n, lineages in doc.items():
            generated = {i.lineage: i.polynomial for i in liftgen.generate(int(n)).identities}
            for lineage in lineages:
                lineage = tuple(tuple(step) for step in lineage)
                assert liftgen.replay(lineage) == generated[lineage], lineage

    @pytest.mark.parametrize("perm, expected", [
        ((1, 2, 3), ((1, 2, 3, 4), 1)),
        ((2, 3, 1), ((1, 4, 2, 3), -1)),
    ], ids=["kept", "swapped"])
    def test_label_dependent_entry(self, perm, expected):
        # binary-sub at the leaf c of [[a,b],c] gives [[a,b],[c,d]]: the two
        # children [a,b] and [c,d] are equal types, so their order depends on
        # the labels. Leaf positions put the old pair first; the labels
        # (2, 3, 1) put [x1,x4] before [x2,x3], with a reorientation sign.
        [t] = [k for k, ty in enumerate(freealg.enumerate_types(3), 1) if freealg.render_type(ty) == "[[--]-]"]
        parent = liftgen.Identity(freealg.Polynomial(3, {freealg.Monomial(3, t, perm): 1}), (("seed", "f"),))
        step = ("binary-sub", perm[2])
        lifted = liftgen._lift(parent, [step])[0].polynomial
        assert lifted == tree_route(parent, step)
        [(mono, coeff)] = lifted.terms.items()
        assert freealg.render_type(mono.type) == "[[--][--]]"
        assert liftgen._STEPS[3, t, "binary-sub", 3][3] == ((0, 2),)
        assert (mono.perm, coeff) == expected


class TestIdentityRows:
    def test_degree_3_sign_partition(self):
        f = liftgen.seed_identities()["f"]
        tab = symrep.RepTable(symrep.Partition((1, 1, 1)))
        assert reference.dense_rows(next(liftgen.identity_rows([f.polynomial], tab)), 2) == [[3, 3]]

    def test_degree_3_trivial_partition(self):
        f = liftgen.seed_identities()["f"]
        tab = symrep.RepTable(symrep.Partition((3,)))
        assert reference.dense_rows(next(liftgen.identity_rows([f.polynomial], tab)), 2) == [[1, 1]]

    def test_degree_3_standard_partition(self):
        f = liftgen.seed_identities()["f"]
        tab = symrep.RepTable(symrep.Partition((2, 1)))
        assert reference.dense_rows(next(liftgen.identity_rows([f.polynomial], tab)), 4) == [
            [1, 0, 1, 0],
            [-2, 0, -2, 0],
        ]

    def test_shape(self):
        g1 = liftgen.seed_identities()["g1"]
        tab = symrep.RepTable(symrep.Partition((2, 1, 1)))
        cols = freealg.count_types(4).all * 3
        assert liftgen._column_split(4, 3) == (cols, (freealg.count_types(4).all - 2) * 3)
        rows = reference.dense_rows(next(liftgen.identity_rows([g1.polynomial], tab)), cols)
        assert len(rows) == 3 and all(len(r) == cols for r in rows)

    @staticmethod
    def assert_matches_dense(idents, pi):
        tab = symrep.RepTable(pi)
        built = liftgen.identity_rows([ident.polynomial for ident in idents], tab)
        for ident, rows in zip(idents, built, strict=True):
            assert all(type(x) is int for row in rows for x in row.values())
            assert rows == reference.nonzero_rows(reference.identity_rows_dense(ident.polynomial, tab)), (
                pi.render(), ident.render_lineage())

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_dense_reference(self, n):
        gen = liftgen.generate(n)
        for pi in symrep.partitions(n):
            self.assert_matches_dense(gen.identities, pi)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_dense_reference_degree_7_sample(self, seed):
        rng = random.Random(seed)
        idents = liftgen.generate(7).identities
        for pi in symrep.partitions(7):
            self.assert_matches_dense(rng.sample(idents, 8), pi)

    def test_matches_dense_reference_degree_8(self):
        # binary liftings of two degree-7 generators, at the widest
        # partition (d = 90) and the sign partition (d = 1)
        idents = liftgen.generate(7).identities
        lifted = [ident for k in (0, 1500) for ident in liftgen.lift_binary(idents[k])[::4]]
        assert all(ident.degree == 8 for ident in lifted) and len(lifted) == 4
        for pi in (symrep.Partition((4, 2, 1, 1)), symrep.Partition((1,) * 8)):
            self.assert_matches_dense(lifted, pi)

    @staticmethod
    def assert_matches_element_sums(polys, pis):
        # rows equal to the element-sum reference as dicts and in key order
        for pi in pis:
            tab = symrep.RepTable(pi)
            built = list(liftgen.identity_rows(polys, tab))
            ref_tab = symrep.RepTable(pi)
            expected = [reference.element_sum_rows(poly, ref_tab) for poly in polys]
            assert [[list(r.items()) for r in rows] for rows in built] == [
                [list(r.items()) for r in rows] for rows in expected], pi.render()

    @staticmethod
    def spans_batches(polys, pi) -> bool:
        """True when polys take more than one batch and touch different numbers of types."""
        widths = {len(poly.by_type()) for poly in polys}
        return len(widths) > 1 and len(polys) * max(widths) * pi.dimension**2 > liftgen._BATCH_ENTRIES

    def test_rows_match_element_sums_degree_6(self):
        polys = [ident.polynomial for ident in liftgen.generate(6).identities]
        assert len(polys) == 252 and self.spans_batches(polys, symrep.Partition((3, 2, 1)))
        self.assert_matches_element_sums(polys, symrep.partitions(6))

    def test_rows_match_element_sums_scan7(self, gen7_filtered):
        polys = [ident.polynomial for ident in gen7_filtered.identities]
        assert len(polys) == 154
        pis = [symrep.parse_partition(p) for p in ("7", "6+1", "5+2", "4+1^3", "2+1^5", "1^7")]
        self.assert_matches_element_sums(polys, pis)

    def test_rows_match_element_sums_degree_8(self, gen8):
        polys = [ident.polynomial for ident in gen8.identities]
        sign = symrep.Partition((1,) * 8)
        assert len(polys) == 1616 and self.spans_batches(polys, sign)
        self.assert_matches_element_sums(polys, [sign])
        self.assert_matches_element_sums(polys[:100], [symrep.Partition((4, 2, 1, 1))])

    def test_empty_items_and_blocks_give_zero_rows(self):
        # an empty item or block adds nothing, beside blocks that do
        tab = symrep.RepTable(symrep.Partition((2, 1)))
        elt = {(1, 2, 3): 2, (2, 1, 3): -1}
        items = [[], [(0, {})], [(2, {}), (4, elt)], [(4, elt)]]
        expected = [reference.nonzero_rows(np.hstack([np.zeros((2, 4), np.int64), reference.element(tab, elt)]))]
        assert list(liftgen.block_rows(items, tab)) == [[{}, {}], [{}, {}]] + expected * 2

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
    def test_skew_rows_match_dense_reference(self, n):
        # the skew relations built in batches as _skew_reducer builds them
        # against the dense reference, key order included, and
        # _skew_reducer's RCF against the RCF of the reference rows
        ident = tuple(range(1, n + 1))
        pis = symrep.partitions(n) if n < 8 else [symrep.Partition((4, 2, 1, 1)), symrep.Partition((1,) * 8)]
        for pi in pis:
            tab = symrep.RepTable(pi)
            d = tab.dim
            dense = reference.skew_rows_dense(tab, n)
            relations = [
                [(j * d, {ident: 1, g.perm: 1})]
                for j, t in enumerate(freealg.binary_types(n))
                for g in freealg.skew_generators(t)
            ]
            sparse = list(liftgen.block_rows(relations, tab))
            expected = [reference.nonzero_rows(block) for block in dense]
            assert [[list(r.items()) for r in rows] for rows in sparse] == [
                [list(r.items()) for r in rows] for rows in expected], pi.render()
            field = QQ if n < 8 else GF101
            ref = IncrementalReducer(len(freealg.binary_types(n)) * d, field)
            for block in dense:
                ref.append(reference.nonzero_rows(block))
            assert pipeline._skew_reducer(tab, n, field).tail_rows(0) == ref.tail_rows(0), pi.render()


DEG4_KEPT = [
    "g1",
    "g2",
    "f -> binary-sub(1)",
    "f -> binary-sub(2)",
    "f -> binary-mul",
]

DEG4_RANKS = {"4": 4, "3+1": 10, "2^2": 7, "2+1^2": 10, "1^4": 4}

DEG5_KEPT = [
    "h",
    "g1 -> binary-sub(1)",
    "g1 -> binary-sub(2)",
    "g1 -> binary-sub(4)",
    "g1 -> binary-mul",
    "g2 -> binary-sub(1)",
    "g2 -> binary-sub(3)",
    "g2 -> binary-mul",
    "f -> binary-sub(1) -> binary-sub(1)",
    "f -> binary-sub(1) -> binary-sub(2)",
    "f -> binary-sub(1) -> binary-mul",
    "f -> binary-mul -> binary-mul",
    "f -> ternary-sub(1)",
    "f -> ternary-mul(1)",
]

DEG5_RANKS = {
    "5": 10,
    "4+1": 40,
    "3+2": 50,
    "3+1^2": 61,
    "2^2+1": 50,
    "2+1^3": 41,
    "1^5": 11,
}


class TestFilter:
    def test_degree_4(self):
        filt = liftgen.filter_redundant(liftgen.generate(4))
        assert filt.filtered and filt.degree == 4
        assert [i.render_lineage() for i in filt.identities] == DEG4_KEPT
        assert {pi.render(): r for pi, r in filt.ranks.items()} == DEG4_RANKS

    def test_degree_4_rational_field_agrees(self):
        filt = liftgen.filter_redundant(liftgen.generate(4), QQ)
        assert [i.render_lineage() for i in filt.identities] == DEG4_KEPT
        assert {pi.render(): r for pi, r in filt.ranks.items()} == DEG4_RANKS

    def test_degree_5(self):
        filt = liftgen.filter_redundant(liftgen.generate(5))
        assert [i.render_lineage() for i in filt.identities] == DEG5_KEPT
        assert {pi.render(): r for pi, r in filt.ranks.items()} == DEG5_RANKS

    @pytest.mark.parametrize("field", [QQ, GF101], ids=["QQ", "GF101"])
    def test_row_space_equality_degree_4(self, field):
        g = liftgen.generate(4)
        filt = liftgen.filter_redundant(g, field)
        for pi in symrep.partitions(4):
            tab = symrep.RepTable(pi)
            cols = freealg.count_types(4).all * tab.dim
            full, kept = (IncrementalReducer(cols, field) for _ in range(2))
            for rows in liftgen.identity_rows([ident.polynomial for ident in g.identities], tab):
                full.append(rows)
            for rows in liftgen.identity_rows([ident.polynomial for ident in filt.identities], tab):
                kept.append(rows)
            assert full.tail_rows(0) == kept.tail_rows(0)

    def test_row_space_equality_degree_5(self):
        g = liftgen.generate(5)
        filt = liftgen.filter_redundant(g)
        for pi in symrep.partitions(5):
            tab = symrep.RepTable(pi)
            cols = freealg.count_types(5).all * tab.dim
            full, kept = (IncrementalReducer(cols, GF101) for _ in range(2))
            for rows in liftgen.identity_rows([ident.polynomial for ident in g.identities], tab):
                full.append(rows)
            for rows in liftgen.identity_rows([ident.polynomial for ident in filt.identities], tab):
                kept.append(rows)
            assert full.tail_rows(0) == kept.tail_rows(0)  # the same RCF, so the same pivots

    def test_gf101_filter_keeps_the_rational_row_space_degree_6(self, gen6_filtered):
        # the degree-8 result over Q lifts the GF(101)-filtered sets, so no
        # identity may be redundant mod 101 only: over Q the full set and the
        # filtered one reach the GF(101) rank in every partition, so they
        # span one row space
        rational = liftgen.filter_redundant(liftgen.generate(6), QQ)
        assert rational.ranks == gen6_filtered.ranks
        for pi, rank in gen6_filtered.ranks.items():
            red, status = pipeline.reduce_identities(gen6_filtered, pi, QQ)
            assert (status, red.rank) == ("ok", rank), pi.render()

    @pytest.mark.parametrize("p", [2, 3])
    def test_characteristic_at_most_degree_rejected(self, p):
        # over GF(3) the sign rank would read 3 where Q and GF(101) give 4
        with pytest.raises(ValueError, match=r"characteristic must be 0 or a prime > 4"):
            liftgen.filter_redundant(liftgen.generate(4), FieldSpec(p))

    @staticmethod
    def stratified_sample(gen, seed: int, per_stratum: int = 2) -> liftgen.GenerationSet:
        """per_stratum identities of each (seed, last lifting step) stratum,
        drawn with seed, in generation order."""
        strata: dict[tuple, list[int]] = {}
        for k, ident in enumerate(gen.identities):
            strata.setdefault((ident.lineage[0][1], ident.lineage[-1][0]), []).append(k)
        rng = random.Random(seed)
        picked = sorted(k for key in sorted(strata) for k in rng.sample(strata[key], per_stratum))
        return liftgen.GenerationSet(gen.degree, tuple(gen.identities[k] for k in picked))

    @staticmethod
    def assert_matches_identity_outermost(gen, field):
        filt = liftgen.filter_redundant(gen, field)
        kept, ranks = reference.filter_identity_outermost(gen, field)
        assert filt.identities == kept
        assert list(filt.ranks.items()) == list(ranks.items())

    @pytest.mark.parametrize("field", [GF101, QQ], ids=["GF101", "QQ"])
    def test_matches_identity_outermost_degree_6(self, field):
        self.assert_matches_identity_outermost(liftgen.generate(6), field)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_identity_outermost_degree_7_sample(self, seed):
        sample = self.stratified_sample(liftgen.generate(7), seed)
        assert len(sample) > 20
        self.assert_matches_identity_outermost(sample, GF101)

    def test_one_partition_at_a_time(self, monkeypatch):
        # each partition's rows arrive in one contiguous run, and when a run
        # starts the table of the previous run has been freed
        rows = liftgen.block_rows
        runs, alive = [], []
        previous = None

        def recording(items, table):
            nonlocal previous
            if not runs or table.partition != runs[-1]:
                if previous is not None:
                    gc.collect()
                    if previous() is not None:
                        alive.append(runs[-1].render())
                runs.append(table.partition)
                previous = weakref.ref(table)
            return rows(items, table)

        monkeypatch.setattr(liftgen, "block_rows", recording)
        filt = liftgen.filter_redundant(liftgen.generate(5))
        assert [i.render_lineage() for i in filt.identities] == DEG5_KEPT
        assert runs == list(symrep.partitions(5))
        assert alive == []

    def test_degree_6_keeps_48(self):
        filt = liftgen.filter_redundant(liftgen.generate(6))
        assert len(filt) == 48
