"""Exact rational elimination: echelon forms, null spaces, solving.

Rows and vectors are sparse: column index to nonzero Fraction entry.
"""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dercent import linalg
from dercent.linalg import in_row_space, nullspace, rank, rref, solve_many
from dercent.oracle import MODULUS

from support import (
    count_calls,
    dense,
    reference_nullspace,
    reference_rank_mod,
    reference_rref,
    reference_solve_many,
    sparse,
)

F = Fraction


def assert_sparse(vectors):
    """Only nonzero Fraction entries, keyed by column index."""
    for v in vectors:
        assert all(type(j) is int and type(x) is Fraction and x for j, x in v.items())


def test_rref_identity():
    reduced, pivots = rref([{0: 2}, {1: 3}], 2)
    assert reduced == [{0: 1}, {1: 1}]
    assert pivots == [0, 1]
    assert_sparse(reduced)


def test_rref_dependent_rows():
    reduced, pivots = rref([{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 6}, {1: 1, 2: 1}], 3)
    assert pivots == [0, 1]
    assert reduced == [{0: 1, 2: 1}, {1: 1, 2: 1}]
    assert_sparse(reduced)


def test_rank():
    assert rank([{0: 1, 1: 2}, {0: 2, 1: 4}], 2) == 1
    assert rank([{0: 1}, {1: 1}], 2) == 2
    assert rank([], 0) == 0
    assert rank([{}, {0: 0}], 3) == 0


def test_rank_mod_p():
    # 3 divides the first row; 1/2 is 2 mod 3
    assert rank([{0: 3, 1: 6}, {0: F(1, 2), 1: 1}], 2, modulus=3) == 1
    assert rank([{0: 3, 1: 6}, {0: F(1, 2), 1: 1}], 2) == 1
    # full rank over Q, the two rows agree mod 2
    assert rank([{0: 1, 1: 1}, {0: 1, 1: 3}], 2, modulus=2) == 1
    assert rank([{0: 1, 1: 1}, {0: 1, 1: 3}], 2) == 2
    assert rank([], 0, modulus=MODULUS) == 0
    with pytest.raises(ZeroDivisionError):
        rank([{0: F(1, 3)}], 1, modulus=3)


def test_nullspace_known_kernel():
    # x + y + z = 0 has a 2-dimensional solution space
    basis = nullspace([{0: 1, 1: 1, 2: 1}], 3)
    assert len(basis) == 2
    for v in basis:
        assert sum(v.values()) == 0
    # Basis is itself in reduced row-echelon form
    assert rref(basis, 3)[0] == basis
    assert_sparse(basis)


def test_nullspace_full_and_trivial():
    assert nullspace([], 2) == [{0: 1}, {1: 1}]
    assert nullspace([{0: 1}, {1: 1}], 2) == []


def test_nullspace_exactness():
    basis = nullspace([{0: F(1, 3), 1: F(1, 7)}], 2)
    assert len(basis) == 1
    v = basis[0]
    assert F(1, 3) * v[0] + F(1, 7) * v[1] == 0
    assert_sparse(basis)


def test_nullspace_is_one_elimination(monkeypatch):
    # taken right to left, the columns give null vectors already in reduced
    # row-echelon form, so no second elimination normalizes them
    calls = count_calls(monkeypatch, "_eliminate", module=linalg)
    # the third row is the sum of the first two: three free columns
    rows = [{0: 1, 1: 2, 3: 1}, {1: 1, 2: -1, 4: 3}, {0: 1, 1: 3, 2: -1, 3: 1, 4: 3}]
    basis = nullspace(rows, 5)
    assert calls == {None: 1}
    assert len(basis) == 3
    assert linalg.rref(basis, 5)[0] == basis
    assert_sparse(basis)


def test_solve_many_consistent_and_not():
    columns = [{0: 1, 2: 1}, {1: 1, 2: 1}]
    targets = [{0: 1, 1: 1, 2: 2}, {0: 1}]
    sols = solve_many(columns, targets)
    assert sols == [{0: 1, 1: 1}, None]
    assert_sparse(sols[:1])


def test_solve_many_free_columns_zeroed():
    columns = [{0: 1}, {0: 2}, {0: 1}]  # dependent columns
    sols = solve_many(columns, [{0: 3}])
    # the free coefficients are zero, so only the pivot column's is stored
    assert sols == [{0: 3}]
    assert_sparse(sols)


def test_in_row_space():
    reduced, pivots = rref([{0: 1, 2: 1}, {1: 1, 2: 1}], 3)
    assert in_row_space(reduced, pivots, {0: 2, 1: 3, 2: 5})
    assert not in_row_space(reduced, pivots, {2: 1})


# Against the dense reference elimination, on random sparse rational
# matrices: rows and pivots of the RREF, ranks, null spaces, row-space
# membership and solutions must be equal, not merely equivalent.  The
# strategies draw dense rows; the tests convert them at the boundary.

entries = st.one_of(
    st.just(F(0)),
    st.just(F(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)


@st.composite
def sparse_matrices(draw, max_rows=7, max_cols=7):
    """(rows, ncols) with some rows and columns forced to zero."""
    nrows = draw(st.integers(0, max_rows))
    ncols = draw(st.integers(0, max_cols))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    zero_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0))))
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0))))
    rows = [
        [F(0) if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    return rows, ncols


@st.composite
def low_rank_matrices(draw, max_rows=7, max_cols=7):
    """(rows, ncols) of a product B*C through an inner dimension of 1 to 3."""
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    inner = draw(st.integers(1, 3))
    b = [draw(st.lists(entries, min_size=inner, max_size=inner)) for _ in range(nrows)]
    c = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(inner)]
    rows = [[sum((b[i][k] * c[k][j] for k in range(inner)), F(0))
             for j in range(ncols)] for i in range(nrows)]
    return rows, ncols


@st.composite
def permuted_block_diagonal(draw):
    """(rows, ncols) of a block-diagonal matrix with its rows shuffled."""
    blocks = draw(st.lists(
        st.one_of(sparse_matrices(max_rows=3, max_cols=3),
                  low_rank_matrices(max_rows=3, max_cols=3)),
        min_size=1, max_size=3,
    ))
    ncols = sum(width for _, width in blocks)
    rows, offset = [], 0
    for block, width in blocks:
        for row in block:
            rows.append([F(0)] * offset + row + [F(0)] * (ncols - offset - width))
        offset += width
    return draw(st.permutations(rows)), ncols


matrices = st.one_of(sparse_matrices(), low_rank_matrices(), permuted_block_diagonal())


def combination(draw, vectors, length):
    """A random rational combination of vectors, all of the given length."""
    coeffs = draw(st.lists(entries, min_size=len(vectors), max_size=len(vectors)))
    return [sum((c * v[i] for c, v in zip(coeffs, vectors)), F(0))
            for i in range(length)]


@given(matrices)
def test_rref_rank_nullspace_match_reference(matrix):
    rows, ncols = matrix
    expected_rows, expected_pivots = reference_rref(rows)
    reduced, pivots = rref([sparse(row) for row in rows], ncols)
    assert pivots == expected_pivots
    assert [dense(row, ncols) for row in reduced] == expected_rows
    assert_sparse(reduced)
    assert rank([sparse(row) for row in rows], ncols) == len(expected_pivots)
    basis = nullspace([sparse(row) for row in rows], ncols)
    assert [dense(v, ncols) for v in basis] == reference_nullspace(rows, ncols)
    assert_sparse(basis)


@given(matrices, st.sampled_from([2, 3, 5, MODULUS]))
def test_rank_mod_p_matches_reference_and_bounds_rank_over_q(matrix, modulus):
    rows, ncols = matrix
    sparse_rows = [sparse(row) for row in rows]
    if any(x.denominator % modulus == 0 for row in rows for x in row):
        with pytest.raises(ZeroDivisionError):
            rank(sparse_rows, ncols, modulus=modulus)
        return
    r = rank(sparse_rows, ncols, modulus=modulus)
    assert r == reference_rank_mod(rows, ncols, modulus)
    assert r <= rank(sparse_rows, ncols)


@given(matrices, st.data())
def test_in_row_space_matches_reference(matrix, data):
    rows, ncols = matrix
    inside = combination(data.draw, rows, ncols)
    anywhere = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
    reduced, pivots = rref([sparse(row) for row in rows], ncols)
    expected_rows, expected_pivots = reference_rref(rows)
    assert in_row_space(reduced, pivots, sparse(inside))
    for v in (inside, anywhere):
        assert in_row_space(reduced, pivots, sparse(v)) == in_row_space(
            [sparse(row) for row in expected_rows], expected_pivots, sparse(v)
        )


@given(matrices, st.data())
def test_solve_many_matches_reference(matrix, data):
    rows, length = matrix  # each row is one column vector of the system
    inside = [combination(data.draw, rows, length) for _ in range(2)]
    anywhere = data.draw(st.lists(
        st.lists(entries, min_size=length, max_size=length), max_size=3
    ))
    targets = inside + anywhere
    solutions = solve_many([sparse(v) for v in rows], [sparse(t) for t in targets])
    assert [None if x is None else dense(x, len(rows)) for x in solutions] == (
        reference_solve_many(rows, targets)
    )
    assert_sparse(x for x in solutions if x is not None)
    for target, x in zip(inside, solutions):
        assert x is not None
        assert [sum((c * rows[k][i] for k, c in x.items()), F(0))
                for i in range(length)] == target
    assert solve_many([sparse(v) for v in rows], []) == []


@given(matrices, st.sampled_from([2, 3, 5, MODULUS]), st.data())
def test_row_order_changes_no_result(matrix, modulus, data):
    # The pivot row of a column is the sparsest candidate, so a shuffle of
    # the rows changes which rows are updated, empty out or gain fill, but
    # none of the results.  The system's rows are also the coordinates of
    # the vectors solve_many takes: its columns are the matrix's columns.
    rows, ncols = matrix
    order = data.draw(st.permutations(range(len(rows))))
    columns = [[row[j] for row in rows] for j in range(ncols)]
    targets = [combination(data.draw, columns, len(rows)),
               data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))]

    def readings(order):
        m = [sparse(rows[i]) for i in order]
        reduced, pivots = rref(m, ncols)
        try:
            rank_mod = rank(m, ncols, modulus=modulus)
        except ZeroDivisionError:
            rank_mod = None
        solutions = solve_many([sparse([c[i] for i in order]) for c in columns],
                               [sparse([t[i] for i in order]) for t in targets])
        return (
            [dense(row, ncols) for row in reduced], pivots, rank(m, ncols), rank_mod,
            [dense(v, ncols) for v in nullspace(m, ncols)],
            [None if x is None else dense(x, ncols) for x in solutions],
        )

    expected_rows, expected_pivots = reference_rref(rows)
    divides = any(x.denominator % modulus == 0 for row in rows for x in row)
    expected = (
        expected_rows, expected_pivots, len(expected_pivots),
        None if divides else reference_rank_mod(rows, ncols, modulus),
        reference_nullspace(rows, ncols),
        reference_solve_many(columns, targets),
    )
    assert readings(order) == readings(range(len(rows))) == expected


def test_fill_and_cancellation_reach_the_column_index():
    # Column 0 pivots on the sparsest row, [1, 2, 0, 0]: the dense row
    # loses column 1, and the two other short rows gain it.
    rows = [[1, 2, 1, 1], [1, 2, 0, 0], [1, 0, 3, 0], [1, 0, 0, 4]]
    expected_rows, expected_pivots = reference_rref(rows)
    for order in permutations(rows):
        m = [sparse(row) for row in order]
        reduced, pivots = rref(m, 4)
        assert [dense(row, 4) for row in reduced] == expected_rows
        assert pivots == expected_pivots
        assert rank(m, 4) == rank(m, 4, modulus=MODULUS) == 4


def test_solve_many_without_columns():
    targets = [[0, 0], [0, 1], []]
    solutions = solve_many([], [sparse(t) for t in targets])
    assert solutions == [{}, None, {}]
    assert [None if x is None else dense(x, 0) for x in solutions] == (
        reference_solve_many([], targets)
    )
