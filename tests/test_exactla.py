from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ascheme import exactla
from ascheme.errors import MinpolyDegreeExceeded
from ascheme.exactla import bareiss_inverse, int_matmul, minpoly_degree, rank, solve_exact


def test_rank_basic():
    assert rank([(1, 0), (0, 1)]) == 2
    assert rank([(1, 2), (2, 4), (3, 6)]) == 1
    assert rank([(0, 0, 0)]) == 0
    assert rank([(Fraction(1, 2), 1), (1, 2), (0, 1)]) == 2


def test_int_matmul_matches_numpy():
    rng = np.random.default_rng(7)
    A = rng.integers(-5, 6, (6, 6))
    B = rng.integers(-5, 6, (6, 6))
    got = int_matmul(A.tolist(), B.tolist())
    assert (np.array(got) == A @ B).all()


def _reference_matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_int_matmul_equals_python_int_products(data):
    """Operands on both sides of the int64 bound: the product equals the
    Python-int product, and runs in int64 exactly when the bound
    max(1, largest row sum of |A|) * max(1, largest |B|) is below 2^63."""
    n = data.draw(st.integers(1, 5))
    bits = data.draw(st.integers(1, 70))
    entry = st.integers(-(2**bits), 2**bits)
    A = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    B = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    got = int_matmul(A, B)
    assert got.tolist() == _reference_matmul(A, B)
    bound = max(1, max(sum(map(abs, row)) for row in A)) * max(
        1, max(abs(b) for row in B for b in row)
    )
    assert (got.dtype == np.int64) == (bound < 2**63)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_int_matmul_bound_holds_over_a_stack(data):
    """Stacks of matrices multiply as their members do, and run in int64
    exactly when the largest row sum of |A| over the whole stack times the
    largest |B| over the whole stack is below 2^63."""
    n = data.draw(st.integers(1, 4))
    depth = data.draw(st.integers(1, 3))
    # each member of a stack has its own entry size, so the bound of the
    # stack is not that of its first member
    square = st.integers(1, 66).flatmap(
        lambda bits: st.lists(
            st.lists(st.integers(-(2**bits), 2**bits), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    A = data.draw(st.lists(square, min_size=depth, max_size=depth))
    B = data.draw(st.lists(square, min_size=depth, max_size=depth))
    got = int_matmul(A, B)
    assert got.tolist() == [_reference_matmul(a, b) for a, b in zip(A, B)]
    bound = max(1, max(sum(map(abs, row)) for a in A for row in a)) * max(
        1, max(abs(x) for b in B for row in b for x in row)
    )
    assert (got.dtype == np.int64) == (bound < 2**63)


def test_minpoly_degree_oracles():
    # companion matrix of x^3 - 2: minimal polynomial is the full cubic
    C = [[0, 0, 2], [1, 0, 0], [0, 1, 0]]
    assert minpoly_degree(C) == 3
    # diagonal with repeated eigenvalue
    assert minpoly_degree([[1, 0, 0], [0, 1, 0], [0, 0, 2]]) == 2
    # all-ones matrix: eigenvalues n and 0
    J = [[1] * 4 for _ in range(4)]
    assert minpoly_degree(J) == 2
    assert minpoly_degree([[0]]) == 1
    # nilpotent Jordan block: x^3 despite a single eigenvalue
    N = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    assert minpoly_degree(N) == 3


def test_minpoly_degree_overflow_raises_typed_error(monkeypatch):
    monkeypatch.setattr(exactla, "_echelon_insert", lambda basis, vec: None)
    with pytest.raises(MinpolyDegreeExceeded) as exc:
        minpoly_degree([[1, 0], [0, 2]])
    assert exc.value.dim == 2


def test_minpoly_degree_pentagon():
    # quotient matrix of the pentagon scheme's edge class
    B1 = [[0, 2, 0], [1, 0, 1], [0, 1, 1]]
    assert minpoly_degree(B1) == 3


def test_solve_exact():
    A = [[1, 1], [1, -1]]
    (x,) = solve_exact(A, [[3, 1]])
    assert x == [Fraction(2), Fraction(1)]
    # inconsistent
    assert solve_exact([[1, 1], [2, 2]], [[1, 3]]) == [None]
    # underdetermined: free variable pinned to zero, still a solution
    (x,) = solve_exact([[1, 1, 0]], [[5]])
    assert x == [Fraction(5), Fraction(0), Fraction(0)]
    # no right-hand side, no solution
    assert solve_exact(A, []) == []


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_rank_matches_numpy_on_random_int_matrices(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    A = rng.integers(-3, 4, (m, n))
    got = rank([tuple(row) for row in A.tolist()])
    assert got == np.linalg.matrix_rank(A.astype(np.float64))


def _times(A, x):
    return [sum(Fraction(a) * v for a, v in zip(row, x)) for row in A]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_solve_exact_reproduces_rhs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    A = rng.integers(-4, 5, (n, n)).tolist()
    xs = rng.integers(-4, 5, (3, n)).tolist()
    rhs = [[sum(a * x for a, x in zip(row, x_j)) for row in A] for x_j in xs]
    got = solve_exact(A, rhs)
    assert len(got) == len(rhs)
    for b, g in zip(rhs, got):
        assert g is not None
        assert _times(A, g) == [Fraction(v) for v in b]
    # A with row 0 repeated: a right-hand side whose last entry differs
    # from its first is inconsistent, and only that one gives None
    A2 = A + [A[0]]
    rhs2 = [b + [b[0]] for b in rhs]
    bad = int(rng.integers(0, len(rhs2) + 1))
    rhs2.insert(bad, rhs[0] + [rhs[0][0] + 1])
    got2 = solve_exact(A2, rhs2)
    assert len(got2) == len(rhs2)
    for j, (b, g) in enumerate(zip(rhs2, got2)):
        if j == bad:
            assert g is None
            continue
        assert g is not None
        assert _times(A2, g) == [Fraction(v) for v in b]
        # each solution is the one a pass with b alone gives
        assert solve_exact(A2, [b]) == [g]


def _leibniz_det(K):
    """Determinant by the permutation expansion, sharing nothing with an
    elimination."""
    total = 0
    for perm in permutations(range(len(K))):
        sign = (-1) ** sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
        term = sign
        for r, c in enumerate(perm):
            term *= K[r][c]
        total += term
    return total


def _krylov(B):
    """The Krylov matrix [e_0, B e_0, ..., B^(m-1) e_0] of B, as rows."""
    cols = [[int(r == 0) for r in range(len(B))]]
    for _ in range(len(B) - 1):
        cols.append([sum(b * x for b, x in zip(row, cols[-1])) for row in B])
    return [list(row) for row in zip(*cols)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bareiss_inverse_matches_rank_and_solve_exact(data):
    """bareiss_inverse against rank and solve_exact as oracles, on random
    integer matrices, on ones with a column made a combination of the
    columns before it, and on Krylov matrices of random B, some of them
    with e_0 in an invariant subspace of B (B block upper triangular).
    A nonsingular K gives stop = m, det' = +-det K, K adj = det' I and the
    columns of adj / det' are solve_exact's solutions of K c = e_i; a
    singular one stops at its first column in the span of the columns
    before it, which for a Krylov matrix is its rank."""
    m = data.draw(st.integers(1, 6))
    kind = data.draw(st.sampled_from(["random", "singular", "krylov"]))
    K = data.draw(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=m, max_size=m), min_size=m, max_size=m
        )
    )
    if kind == "singular":
        j = data.draw(st.integers(0, m - 1))
        mult = data.draw(st.lists(st.integers(-3, 3), min_size=j, max_size=j))
        for row in K:
            row[j] = sum(a * x for a, x in zip(mult, row))
    elif kind == "krylov":
        h = data.draw(st.integers(1, m))
        for r in range(h, m):
            K[r][:h] = [0] * h
        K = _krylov(K)
    stop, det, adj = bareiss_inverse([row[:] for row in K])
    units = [[int(r == i) for r in range(m)] for i in range(m)]
    full = rank(K)
    if det is None:
        assert full < m and adj is None
        cols = [list(c) for c in zip(*K)]
        assert rank(cols[:stop]) == stop == rank(cols[: stop + 1])
        if kind == "krylov":
            assert stop == full
        return
    assert full == m == stop
    assert det in (_leibniz_det(K), -_leibniz_det(K))
    assert _reference_matmul(K, adj) == [[det * u for u in row] for row in units]
    sols = solve_exact(K, units)
    assert [[Fraction(adj[t][i], det) for t in range(m)] for i in range(m)] == sols
