"""Tests for exact row reduction over the rationals and prime fields.

The reducer's tail_rows(0) is the row canonical form (RCF) of everything
appended; the rcf tests state its properties there. One lazily cleaned
kernel serves both fields; it is checked against the plain-Python reference
RCF over Q and over several primes, and its stored rows are checked
directly.
"""

import random
import re
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from lyident.exactla import GF101, QQ, FieldSpec, IncrementalReducer
from reference import is_prime_trial_division, pivots, rcf_mod, rcf_rational


def test_fieldspec_validation():
    assert FieldSpec(0).characteristic == 0
    assert FieldSpec(101).characteristic == 101
    for bad in (1, 4, 100, -3):
        with pytest.raises(ValueError):
            FieldSpec(bad)


def test_fieldspec_rejects_non_int():
    # the characteristic alone picks the field arithmetic, so it must be an
    # int: 3.0 would pass the primality test and fail later in pow
    for bad in (3.0, 101.0, 0.0, True, False, np.int64(101), Fraction(101), "101", None):
        with pytest.raises(ValueError, match="must be an int"):
            FieldSpec(bad)


def test_fieldspec_large_primes():
    # Miller-Rabin decides these at once; trial division would take ~1.5e9
    # steps on 2^61 - 1
    for p in (2**31 - 1, 10**9 + 7, 2**61 - 1, 2**64 - 59):
        assert FieldSpec(p).characteristic == p
    # 561 and 41041 are Carmichael numbers, 3215031751 a strong pseudoprime
    # to the bases 2, 3, 5 and 7, and 318665857834031151167461 one to each
    # of the first 12 primes
    for bad in (2**61 + 1, 561, 41041, 3215031751, 318665857834031151167461):
        with pytest.raises(ValueError, match="prime"):
            FieldSpec(bad)
    # above the limit the bases no longer decide primality
    limit = 3_317_044_064_679_887_385_961_981
    for big in (limit, 2**127 - 1):
        with pytest.raises(ValueError, match="not decided"):
            FieldSpec(big)


def test_fieldspec_agrees_with_trial_division():
    for n in range(-2, 10**4):
        try:
            FieldSpec(n)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == (n == 0 or is_prime_trial_division(n)), n


def test_rows_map_rationals():
    # over GF(101) a rational entry is numerator times the inverse of its
    # denominator: -3/2 -> 49, -1 -> 100, 202/2 -> 0
    red = IncrementalReducer(4, GF101)
    red.append([[1, 49, 100, 0]])
    assert red.contains([1, Fraction(-3, 2), -1, Fraction(202, 2)])
    assert not red.contains([1, Fraction(3, 2), -1, 0])
    with pytest.raises(ValueError, match="denominator"):
        red.contains([1, 0, 0, Fraction(1, 101)])
    # over Q the entries stay exact
    red = IncrementalReducer(2, QQ)
    red.append([[3, Fraction(-9, 2)]])
    assert red.tail_rows(0) == [[Fraction(1), Fraction(-3, 2)]]


def test_gf_reducer_reads_fractions():
    red = IncrementalReducer(2, GF101)
    red.append([[2, -1]])
    assert red.contains([1, Fraction(-1, 2)])
    assert not red.contains([1, Fraction(1, 2)])
    assert red.append([[Fraction(1, 3), Fraction(-1, 6)]]) == 0
    # arrays are refused, float or integer; the same rows as lists enter
    for rows in (np.array([[1.0, -0.5]]), np.array([[2, -1]])):
        with pytest.raises(ValueError, match="ndarray row"):
            red.append(rows)
    assert red.append([[2, -1]]) == 0
    assert red.append([(2, 1)]) == 1
    with pytest.raises(ValueError, match="denominator"):
        red.contains([1, Fraction(1, 101)])


def rcf(rows, field):
    """RCF of a nonempty list of rows: a fresh reducer's tail_rows(0)."""
    red = IncrementalReducer(len(rows[0]), field)
    red.append(rows)
    return red.tail_rows(0)


def assert_rcf(rows):
    """Leading 1s in strictly increasing columns, each pivot column
    zero outside its own row."""
    leads = [next(i for i, x in enumerate(row) if x) for row in rows]
    assert leads == sorted(set(leads))
    for k, (row, c) in enumerate(zip(rows, leads)):
        assert row[c] == 1
        assert all(other[c] == 0 for i, other in enumerate(rows) if i != k)


def test_rcf_identity():
    eye = [[int(i == j) for j in range(5)] for i in range(5)]
    assert rcf(eye, QQ) == eye
    assert rcf(eye, GF101) == eye


def test_rcf_dependent_rows():
    assert rcf([[2, 4], [1, 2]], QQ) == [[Fraction(1), Fraction(2)]]


def test_rcf_fractions_normalize():
    assert rcf([[Fraction(1, 2), Fraction(1, 3)], [0, 5]], QQ) == [
        [Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def random_matrix(rng, rows, cols, field):
    if field.characteristic:
        return [[rng.randrange(field.characteristic) for _ in range(cols)] for _ in range(rows)]
    return [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("field", [QQ, GF101])
def test_rcf_idempotent_and_span_preserving(field):
    rng = random.Random(7)
    for _ in range(5):
        m = random_matrix(rng, 20, 30, field)
        r = rcf(m, field)
        assert_rcf(r)
        assert rcf(r, field) == r
        red_m, red_r = IncrementalReducer(30, field), IncrementalReducer(30, field)
        red_m.append(m)
        red_r.append(r)
        assert all(red_m.contains(row) for row in r)
        assert all(red_r.contains(row) for row in m)


@pytest.mark.parametrize("field", [QQ, GF101])
def test_rcf_unique_under_row_operations(field):
    rng = random.Random(11)
    m = random_matrix(rng, 8, 12, field)
    shuffled = [list(row) for row in m]
    rng.shuffle(shuffled)
    shuffled[0] = [a + 3 * b for a, b in zip(shuffled[0], shuffled[4])]
    shuffled.append([2 * a for a in shuffled[1]])
    assert rcf(m, field) == rcf(shuffled, field)


@pytest.mark.parametrize("field", [QQ, GF101])
def test_incremental_matches_batch(field):
    rng = random.Random(23)
    for rows, cols in [(15, 10), (40, 25)]:
        m = random_matrix(rng, rows, cols, field)
        one = IncrementalReducer(cols, field)
        deltas = [one.append([row]) for row in m]
        bulk = IncrementalReducer(cols, field)
        bulk.append(m)
        assert sum(deltas) == bulk.rank == one.rank
        assert one.tail_rows(0) == bulk.tail_rows(0)
        assert pivots(one) == pivots(bulk)


def test_append_duplicate_row():
    red = IncrementalReducer(3, GF101)
    assert red.append([[1, 2, 3]]) == 1
    assert red.append([[1, 2, 3]]) == 0
    assert red.append([[2, 4, 6]]) == 0
    assert red.rank == 1


@pytest.mark.parametrize("field", [QQ, GF101])
def test_append_row_in_span_keeps_snapshot(field):
    rng = random.Random(5)
    m = random_matrix(rng, 6, 9, field)
    red = IncrementalReducer(9, field)
    red.append(m)
    snap = red.tail_rows(0)
    combo = [sum(3 * row[j] - 2 * m[0][j] for row in m) for j in range(9)]
    assert red.append([combo]) == 0
    assert red.tail_rows(0) == snap


@pytest.mark.parametrize("cols", [3.0, True, -1], ids=["float", "bool", "negative"])
def test_column_count_must_be_nonnegative_int(cols):
    # a float count once let append accept a row and tail_rows fail later
    with pytest.raises(ValueError, match=rf"column count must be a nonnegative int, got {cols!r}"):
        IncrementalReducer(cols, GF101)


def test_append_width_mismatch():
    red = IncrementalReducer(4, QQ)
    with pytest.raises(ValueError):
        red.append([[1, 2, 3]])
    with pytest.raises(ValueError):
        red.contains([1, 2, 3])


@pytest.mark.parametrize("field", [QQ, GF101])
def test_row_space_contains(field):
    rng = random.Random(41)
    b = random_matrix(rng, 5, 8, field)
    red = IncrementalReducer(8, field)
    red.append(b)
    assert all(red.contains(row) for row in b)
    assert not any(IncrementalReducer(8, field).contains([int(i == j) for j in range(8)])
                   for i in range(8))
    for _ in range(7):
        coeffs = [rng.randint(-4, 4) for _ in range(5)]
        assert red.contains([sum(c * row[j] for c, row in zip(coeffs, b)) for j in range(8)])


def test_contains_tracks_pivots():
    red = IncrementalReducer(3, QQ)
    red.append([[1, 1, 0], [0, 1, 1]])
    assert red.contains([1, 0, -1])
    assert not red.contains([1, 0, 0])
    assert pivots(red) == (0, 1)


def test_rational_entries_stay_exact():
    # a matrix that makes float pivoting drift: scaled Hilbert rows
    m = [[Fraction(1, i + j + 1) for j in range(5)] for i in range(5)]
    assert rcf(m, QQ) == [[Fraction(int(i == j)) for j in range(5)] for i in range(5)]


def test_rank_agreement_across_fields():
    rng = random.Random(97)
    for _ in range(10):
        m = [[rng.randint(-5, 5) for _ in range(12)] for _ in range(9)]
        assert len(rcf(m, QQ)) == len(rcf(m, GF101))


def deficient_batch(rng, rows, cols, rank):
    """Integer rows, negative entries included, that span at most rank
    dimensions: random combinations of rank random base rows."""
    base = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rank)]
    return [[sum(c * b[j] for c, b in zip(coeffs, base)) for j in range(cols)]
            for coeffs in ([rng.randint(-3, 3) for _ in range(rank)] for _ in range(rows))]


def tail_of(ref, start):
    """Reference RCF rows with pivot column >= start, restricted to start:."""
    return [r[start:] for r in ref if not any(r[:start])]


@pytest.mark.parametrize("p", [2, 3, 101, 127, 131])
def test_gf_kernel_matches_reference(p):
    rng = random.Random(p)
    for rows, cols, rank in [(30, 40, 12), (60, 25, 20), (12, 50, 12)]:
        m = deficient_batch(rng, rows, cols, rank)
        ref = rcf_mod(m, p)
        leads = tuple(next(j for j, x in enumerate(r) if x) for r in ref)
        whole = IncrementalReducer(cols, FieldSpec(p))
        whole.append(m)
        pieces = IncrementalReducer(cols, FieldSpec(p))
        cuts = sorted(rng.sample(range(1, rows), 5))
        for lo, hi in zip([0, *cuts], [*cuts, rows]):
            pieces.append(m[lo:hi])
        for red in (whole, pieces):
            assert (red.rank, pivots(red)) == (len(ref), leads)
            for start in sorted({0, *rng.sample(range(cols + 1), 4), leads[-1], cols}):
                assert red.tail_rows(start) == tail_of(ref, start)
            assert all(red.contains(r) for r in m)
        # appends and membership tests after tail_rows calls still see the
        # whole row space
        more = deficient_batch(rng, 8, cols, 4)
        ref = rcf_mod(m + more, p)
        for red in (whole, pieces):
            red.append(more)
            assert red.tail_rows(0) == ref
            assert all(red.contains(r) for r in m + more)
            probe = [rng.randrange(p) for _ in range(cols)]
            assert red.contains(probe) == (len(rcf_mod(m + more + [probe], p)) == len(ref))


@pytest.mark.parametrize("p", [3, 101, 131])
def test_gf_reads_unreduced_integer_rows(p):
    # rows reach the GF(p) reducer as plain integers: negative entries,
    # entries >= p and nonzero multiples of p stand for their residues
    rng = random.Random(500 + p)
    for rows, cols, rank in [(20, 30, 10), (40, 16, 14)]:
        residues = [[x % p for x in r] for r in deficient_batch(rng, rows, cols, rank)]
        lifted = [[x + p * rng.randint(-3, 3) for x in r] for r in residues]
        flat = [x for r in lifted for x in r]
        assert min(flat) < 0 and max(flat) >= p and any(x and not x % p for x in flat)
        ref = IncrementalReducer(cols, FieldSpec(p))
        ref.append(residues)
        red = IncrementalReducer(cols, FieldSpec(p))
        red.append(lifted)
        assert (red.rank, pivots(red)) == (ref.rank, pivots(ref))
        assert red.tail_rows(0) == ref.tail_rows(0) == rcf_mod(residues, p)
        for start in sorted({0, *rng.sample(range(cols + 1), 4), cols}):
            assert red.tail_rows(start) == ref.tail_rows(start)
        # membership of list rows: lifted members, and lifted probes that
        # may or may not lie in the span
        for r in residues[:5]:
            assert red.contains([x + p * rng.randint(-3, 3) for x in r])
        for _ in range(10):
            probe = [rng.randrange(p) if rng.random() < 0.3 else 0 for _ in range(cols)]
            lifted_probe = [x + p * rng.randint(-3, 3) for x in probe]
            assert red.contains(lifted_probe) == ref.contains(probe)


def test_gf_elimination_clears_filled_pivots():
    # the echelon row under pivot 0 holds pivot column 1: clearing column 0
    # of [1, 0, 0, 1] fills column 1, which must be cleared in turn
    red = IncrementalReducer(4, GF101)
    assert red.append([[1, 1, 0, 0], [0, 1, 0, 1]]) == 2
    assert red.contains([1, 0, 0, 100])
    assert not red.contains([1, 0, 0, 1])
    assert red.append([[1, 0, 0, 1]]) == 1
    assert pivots(red) == (0, 1, 3)
    assert red.tail_rows(0) == rcf_mod([[1, 1, 0, 0], [0, 1, 0, 1], [1, 0, 0, 1]], 101)


def rcf_reference(rows, field):
    """The reference RCF of rows over field."""
    p = field.characteristic
    return rcf_mod(rows, p) if p else rcf_rational(rows)


def random_entry(rng, field, density):
    """A random entry that is nonzero with probability about density."""
    if rng.random() >= density:
        return 0
    p = field.characteristic
    return rng.randrange(p) if p else rng.randint(-9, 9)


def assert_cleaned_rows_reduced(red):
    """Each basis row holds only its entries right of its pivot: ints in
    [1, p) with pivot entry 1 over GF(p), a primitive integer vector with a
    positive pivot entry over Q. Every row cleaned at the current rank
    vanishes on all other pivot columns."""
    p = red.field.characteristic
    for c, (cols, vals) in red._rows.items():
        lead = red._leads[c]
        assert all(j > c for j in cols) and all(type(v) is int and v for v in vals)
        if p:
            assert lead == 1 and all(0 < v < p for v in vals)
        else:
            assert type(lead) is int and lead > 0 and gcd(lead, *vals) == 1, c
        if red._cleaned[c] == red.rank:
            assert not set(cols) & set(red._rows), c


FIELDS = [FieldSpec(3), GF101, QQ]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_lazy_cleaning_interleaved(field):
    # appends, membership tests and tail_rows in a random order; each step
    # cleans some rows and leaves others stale, and every clean row is
    # already the reference RCF row under its pivot
    p = field.characteristic
    rng = random.Random(300 + p)
    cols = 30
    red = IncrementalReducer(cols, field)
    seen = []
    for _ in range(25):
        step = rng.choice(["append", "append", "contains", "tail"])
        if step == "append":
            batch = deficient_batch(rng, rng.randint(1, 4), cols, rng.randint(1, 3))
            # a sparse row too, so that later pivots land among older rows
            batch.append([random_entry(rng, field, 0.2) for _ in range(cols)])
            red.append(batch)
            seen += batch
        ref = rcf_reference(seen, field) if seen else []
        if step == "contains":
            probe = [random_entry(rng, field, 0.3) for _ in range(cols)]
            assert red.contains(probe) == (len(rcf_reference(seen + [probe], field)) == len(ref))
            if seen:
                coeffs = [rng.randint(-3, 3) for _ in seen]
                assert red.contains([sum(k * r[j] for k, r in zip(coeffs, seen)) for j in range(cols)])
        if step == "tail":
            for start in sorted({0, *rng.sample(range(cols + 1), 3)}):
                assert red.tail_rows(start) == tail_of(ref, start)
        assert_cleaned_rows_reduced(red)
        assert red.rank == len(ref)
        by_pivot = {next(j for j, x in enumerate(r) if x): r for r in ref}
        # the pivots read from _rows: tail_rows would clean every stale row
        assert set(red._rows) == set(by_pivot)
        for c in red._rows:
            if red._cleaned[c] == red.rank:
                cols_c, vals_c = red._rows[c]
                lead = red._leads[c]
                line = [0] * cols
                for j, x in zip([c, *cols_c], [lead, *vals_c]):
                    line[j] = x if p else Fraction(x, lead)
                assert line == by_pivot[c], c
    assert red.tail_rows(0) == rcf_reference(seen, field)
    assert_cleaned_rows_reduced(red)
    assert all(red._cleaned[c] == red.rank for c in red._rows)


@pytest.mark.parametrize("field", [GF101, QQ], ids=repr)
def test_deep_chain_of_stale_rows(field):
    # rows e_i + e_(i+1) appended in order never meet an existing pivot, so
    # every row but the last is stale and cleaning the first one needs all
    # the others: a chain far deeper than the default recursion limit
    n, p = 3000, field.characteristic
    chain = [{i: 1, i + 1: 1} for i in range(n)]
    probe = [0] * (n + 1)
    probe[0], probe[n] = 1, (-1) ** (n - 1)  # e_0 +- e_n lies in the span
    for read in ("contains", "tail_rows"):
        red = IncrementalReducer(n + 1, field)
        assert red.append(chain) == n
        if read == "contains":
            assert red.contains(probe)
            probe[n] = -probe[n]
            assert not red.contains(probe)
        else:
            rows = red.tail_rows(0)
            assert len(rows) == n
            for i, row in enumerate(rows):
                last = (-1) ** (n - 1 - i)
                assert row[i] == 1 and row[n] == (last % p if p else last)
                assert sum(map(bool, row)) == 2
            assert_cleaned_rows_reduced(red)


@pytest.mark.parametrize("field", [QQ, GF101])
def test_array_shape_and_booleans(field):
    # rows are dicts, lists or tuples: an array, of any shape, is refused at
    # its first row, and so is a flat list or a bare int; booleans are not
    # read as 0/1
    red = IncrementalReducer(3, field)
    for bad, what in ((np.array([1, 2, 3]), "int64 row"), (np.array([1.0, 2.0, 3.0]), "float64 row"),
                      (np.zeros((2, 4), dtype=np.int64), "ndarray row"),
                      (np.array([[True, False, True]]), "ndarray row"), ([1, 2, 3], "int row")):
        with pytest.raises(ValueError, match=what):
            red.append(bad)
    for bad, what in ((np.array([1, 1, 2]), "ndarray row"), (3, "int row"),
                      ([True, True, False], "bool entry True")):
        with pytest.raises(ValueError, match=what):
            red.contains(bad)
    with pytest.raises(ValueError, match="bool entry True"):
        red.append([[True, False, True], [False, True, True]])
    assert red.rank == 0
    assert red.append([[1, 0, 1], (0, 1, 1)]) == 2
    assert red.tail_rows(0) == rcf([[1, 0, 1], [0, 1, 1]], field)
    assert red.contains([1, 1, 2]) and red.contains((1, 1, 2))


@pytest.mark.parametrize("field", [QQ, GF101])
def test_dict_rows_match_sequences(field):
    # {column: int} rows reach the same RCF as the rows written out, and the
    # reducer leaves the caller's dicts as they were
    rows = [[2, 0, -4, 6], [0, 3, 3, 0], [2, 3, -1, 6], [0, 0, 5, 7]]
    dicts = [{j: x for j, x in enumerate(r) if x} for r in rows]
    copies = [dict(d) for d in dicts]
    red, ref = IncrementalReducer(4, field), IncrementalReducer(4, field)
    assert red.append(dicts) == ref.append(rows) == 3
    assert dicts == copies
    assert red.tail_rows(0) == ref.tail_rows(0)
    assert red.contains({0: 4, 1: 3, 2: -5, 3: 12}) and not red.contains({0: 1})
    assert red.append([{}]) == 0


@pytest.mark.parametrize("field", [QQ, GF101, FieldSpec(2**31 - 1)])
@pytest.mark.parametrize(
    "bad",
    [{-1: 1}, {4: 1}, {0: 1, 7: 2}, {1.0: 1}, {np.int64(1): 1}, {"1": 1}, {0: Fraction(1, 2)},
     {0: Fraction(2)}, {0: 1.0}, {0: np.int64(1)}],
    ids=["negative", "cols", "beyond", "float-col", "np-col", "str-col", "half", "whole-fraction",
         "float", "np-value"],
)
def test_bad_dict_rows_rejected(field, bad):
    red = IncrementalReducer(4, field)
    with pytest.raises(ValueError, match="dict row"):
        red.append([bad])
    with pytest.raises(ValueError, match="dict row"):
        red.append([{0: 1}, bad])
    with pytest.raises(ValueError, match="dict row"):
        red.contains(bad)
    assert red.rank == 0


@pytest.mark.parametrize("field", [QQ, GF101])
def test_float_entries_rejected(field):
    # 0.1 would enter as its binary value 3602879701896397/2**55
    red = IncrementalReducer(2, field)
    for rows, entry in (
        ([[0.1, 0.3]], "0.1"),
        ([[1, 2], [3, 0.5]], "0.5"),
        ([[1, np.float64(2.0)]], "float64 entry np.float64(2.0)"),
        ([[np.float32(0.0), 2]], "float32 entry np.float32(0.0)"),
    ):
        with pytest.raises(ValueError, match=re.escape(entry)):
            red.append(rows)
        with pytest.raises(ValueError, match=re.escape(entry)):
            red.contains(rows[-1])
    # a float array is refused as a row before its entries are read
    with pytest.raises(ValueError, match="ndarray row"):
        red.append(np.array([[1.0, 3.0]]))
    assert red.rank == 0
    # exact entries of the same rows still enter
    assert red.append([[Fraction(1, 10), Fraction(3, 10)], (1, 3)]) == 1


@pytest.mark.parametrize("field", [QQ, GF101])
def test_rational_forms_agree_near_int64_limit(field):
    # entries near 2**62: any product of two overflows int64, so rows enter
    # as Python ints and an int64 array of them is refused
    big = 2**62 + 11
    r0 = [big, 1, 0, 3, big - 1, 5]
    r1 = [1, big, 2, 0, 7, big - 3]
    r2 = [a - b for a, b in zip(r0, r1)]
    r3 = [0, 0, 1, big, 1, 1]
    rows = [r0, r1, r2, r3]
    with pytest.raises(ValueError, match="ndarray row"):
        IncrementalReducer(6, field).append(np.array(rows, dtype=np.int64))
    forms = [
        rows,
        [[Fraction(x) for x in r] for r in rows],
        [[Fraction(x, 3) for x in r] for r in rows],
    ]
    reducers = []
    for form in forms:
        red = IncrementalReducer(6, field)
        assert all(type(x) is int for row in form for x in red._cleared(row).values())
        assert red.append(form) == 3
        reducers.append(red)
    first = reducers[0]
    assert_rcf(first.tail_rows(0))
    assert all(first.contains(r) for r in rows)
    assert not first.contains([1, 0, 0, 0, 0, 0])
    for red in reducers[1:]:
        assert (red.rank, pivots(red)) == (first.rank, pivots(first))
        assert red.tail_rows(0) == first.tail_rows(0)
