import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.special import betainc

import intop.basis
import intop.intmat
from intop.basis import (IntervalMap, QuadratureBasis, WeightFamily, build_basis,
                         lagrange_cardinal, legendre_coefficients, orthonormal_table,
                         recurrence_coefficients)
from intop.cli import main
from intop.errors import IllConditionedError, PoleEvaluationError
from intop.intmat import (_COND_LIMIT, _EIGEN_MEMO_BYTES, _MATRIX_MEMO_BYTES,
                          ScalarSymbol, ScaledMatrix, _eigen_data, _incomplete_beta,
                          apply_real, build_integration_matrices, eigen_factorize,
                          matrix_function, scale, symbol_on_spectrum)
from intop.oracle import QuadratureRequest, adaptive_integrate


FAMILIES = [
    WeightFamily.legendre(),
    WeightFamily.chebyshev_first(),
    WeightFamily.gegenbauer(0.8),
    WeightFamily.jacobi(0.3, -0.4),
]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_complement_identity(family, n):
    bas = build_basis(family, n)
    mats = build_integration_matrices(bas)
    total = np.outer(np.ones(n), bas.gauss_weights)
    np.testing.assert_allclose(mats.plus + mats.minus, total, atol=1e-13)


@pytest.mark.parametrize("family", FAMILIES)
def test_flip_symmetry(family):
    # For even weights, integrating up to x_j from the left mirrors
    # integrating down to x_{n-1-j} from the right.
    if not family.symmetric:
        pytest.skip("only meaningful for even weights")
    bas = build_basis(family, 6)
    mats = build_integration_matrices(bas)
    np.testing.assert_allclose(mats.plus, mats.minus[::-1, ::-1], atol=1e-13)


def test_legendre_row_sums():
    bas = build_basis(WeightFamily.legendre(), 9)
    mats = build_integration_matrices(bas)
    np.testing.assert_allclose(mats.plus @ np.ones(9), bas.nodes + 1.0,
                               atol=1e-13)
    np.testing.assert_allclose(mats.minus @ np.ones(9), 1.0 - bas.nodes,
                               atol=1e-13)


def test_legendre_n2_closed_form():
    bas = build_basis(WeightFamily.legendre(), 2)
    mats = build_integration_matrices(bas)
    r = 1.0 / math.sqrt(3.0)
    expect = np.array([[0.5, 0.5 - r], [0.5 + r, 0.5]])
    np.testing.assert_allclose(mats.plus, expect, atol=1e-15)


def test_single_node_entries():
    leg = build_integration_matrices(build_basis(WeightFamily.legendre(), 1))
    np.testing.assert_allclose(leg.plus, [[1.0]], atol=1e-15)
    cheb = build_integration_matrices(
        build_basis(WeightFamily.chebyshev_first(), 1))
    np.testing.assert_allclose(cheb.plus, [[math.pi / 2.0]], atol=1e-14)


@pytest.mark.parametrize("n", [*range(1, 61), 100, 200])
def test_legendre_matrices_match_the_w_transformation(n):
    # W-transformation of the Gauss Runge-Kutta methods (Hairer & Wanner,
    # Solving ODEs II, IV.5), rescaled to (-1, 1): with Q[k, m] =
    # sqrt(w_k) phi_m(x_k) and D = diag(sqrt(w)),
    # A+- = D^-1 Q (e0 e0^T +- S) Q^T D, S[k, k-1] = -S[k-1, k] = 1/sqrt(4k^2 - 1),
    # since int P_m = (P_{m+1} - P_{m-1})/(2m+1) and P_n vanishes at the
    # nodes. No incomplete beta function enters this reference.
    eps = np.finfo(float).eps
    bas = build_basis(WeightFamily.legendre(), n)
    mats = build_integration_matrices(bas)
    root_w = np.sqrt(bas.gauss_weights)
    Q = (bas.table * root_w).T
    assert np.abs(Q.T @ Q - np.eye(n)).max() <= n * eps
    k = np.arange(1.0, n)
    xi = 1.0 / np.sqrt(4.0 * k * k - 1.0)
    S = np.diag(xi, -1) - np.diag(xi, 1)
    E = np.zeros((n, n))
    E[0, 0] = 1.0
    for sign, mat in ((1.0, mats.plus), (-1.0, mats.minus)):
        w_form = Q @ (E + sign * S) @ Q.T * (root_w[None, :] / root_w[:, None])
        assert np.abs(w_form - mat).max() <= 4.0 * eps


def test_a_matrix_request_evaluates_three_orthonormal_tables(monkeypatch, capsys):
    # build_basis evaluates two (the Newton polish and the Christoffel
    # weights), the matrix build only the shifted family's; the basis
    # holds the table that the build and legendre_coefficients read
    calls = []

    def counted(*args):
        calls.append(args[0])
        return orthonormal_table(*args)

    monkeypatch.setattr(intop.basis, "orthonormal_table", counted)
    monkeypatch.setattr(intop.intmat, "orthonormal_table", counted)
    assert main(["matrices", "--n", "6"]) == 0
    capsys.readouterr()
    assert len(calls) == 3
    bas = build_basis(WeightFamily.legendre(), 6)
    legendre_coefficients(bas, np.ones(6))
    assert len(calls) == 3


def test_entries_match_quadrature_oracle():
    family = WeightFamily.jacobi(0.3, -0.4)
    bas = build_basis(family, 4)
    mats = build_integration_matrices(bas)
    for j in range(4):
        for k in range(4):
            val, _ = adaptive_integrate(QuadratureRequest(
                lambda x: lagrange_cardinal(bas, k, x) * family.weight(x),
                -1.0, float(bas.nodes[j]), tol=1e-10,
                left_exponent=family.beta))
            # endpoint singularity at -1 limits the oracle itself to ~1e-9
            assert mats.plus[j, k] == pytest.approx(val, abs=5e-9), (j, k)


# Jacobi exponents in (-1, 2). Within 1e-3 of -1 the outer Gauss nodes sit
# within rounding of +-1, where a float reference point u = (1 + x)/2 has
# itself lost the digits being checked, so the strategies stop there.
EXPONENTS = st.floats(-0.999, 1.999)
ORDERS = st.integers(1, 60)


def _jacobi_plus(alpha, beta, n):
    family = WeightFamily.jacobi(alpha, beta)
    bas = build_basis(family, n)
    _, _, mu0 = recurrence_coefficients(family, 1)
    return bas, build_integration_matrices(bas).plus, mu0


@given(EXPONENTS, EXPONENTS, ORDERS)
def test_row_sums_are_the_running_mass(alpha, beta, n):
    # A+ 1 = int_{-1}^{x_j} w = mu0 I_{(1+x_j)/2}(beta+1, alpha+1)
    bas, plus, mu0 = _jacobi_plus(alpha, beta, n)
    running = mu0 * betainc(beta + 1.0, alpha + 1.0, 0.5 * (1.0 + bas.nodes))
    np.testing.assert_allclose(plus.sum(axis=1), running, rtol=0.0,
                               atol=1e-12 * mu0)


@settings(max_examples=60)
@given(EXPONENTS, EXPONENTS, ORDERS, st.data())
def test_plus_is_exact_on_monomials(alpha, beta, n, data):
    k = data.draw(st.integers(0, n - 1), label="k")
    j = data.draw(st.integers(0, n - 1), label="j")
    bas, plus, mu0 = _jacobi_plus(alpha, beta, n)
    # int_{-1}^{x_j} t^k w(t) dt in r = (1 + t)^(beta + 1), which removes the
    # endpoint singularity before mpmath's tanh-sinh rule sees it
    with mpmath.workdps(30):
        e = 1 / mpmath.mpf(beta + 1.0)
        top = (1 + mpmath.mpf(bas.nodes[j])) ** (beta + 1.0)
        ref = float(e * mpmath.quad(lambda r: (r ** e - 1) ** k * (2 - r ** e) ** alpha,
                                    [0, top]))
    assert abs(plus[j] @ bas.nodes ** k - ref) <= 1e-12 * mu0


@given(st.floats(0.001, 2.999), st.floats(0.001, 2.999),
       st.one_of(st.floats(0.0, 1e-3), st.floats(0.499, 0.501),
                 st.floats(0.999, 1.0)))
def test_incomplete_beta_matches_scipy(p, q, u):
    got = float(_incomplete_beta(p, q, u, 1.0 - u))
    assert got == pytest.approx(betainc(p, q, u), rel=0.0, abs=1e-14)


def test_side_accessor_and_validation():
    bas = build_basis(WeightFamily.legendre(), 3)
    mats = build_integration_matrices(bas)
    assert mats.side("+") is mats.plus
    assert mats.side("-") is mats.minus
    with pytest.raises(ValueError):
        mats.side("up")


def test_scale_matches_shifted_integral():
    # On (0, 2): C f(xi_j) should equal int_0^{xi_j} f for smooth f
    bas = build_basis(WeightFamily.legendre(), 12)
    mats = build_integration_matrices(bas)
    imap = IntervalMap(0.0, 2.0)
    scaled = scale(mats, "+", imap)
    np.testing.assert_allclose(scaled.xi, imap.forward(bas.nodes), atol=1e-14)
    f = lambda t: np.cos(t)
    np.testing.assert_allclose(scaled.C @ f(scaled.xi), np.sin(scaled.xi),
                               atol=1e-13)
    with pytest.raises(ValueError):
        scale(mats, "plus", imap)


def test_eigen_factorize_reconstructs():
    bas = build_basis(WeightFamily.legendre(), 8)
    scaled = scale(build_integration_matrices(bas), "+", IntervalMap(0.0, 1.0))
    eig = eigen_factorize(scaled)
    rebuilt = eig.vectors @ np.diag(eig.values) @ eig.inverse
    np.testing.assert_allclose(rebuilt.real, scaled.C, atol=1e-12)
    assert np.max(np.abs(rebuilt.imag)) < 1e-12
    assert eig.cond < 1e4


def test_eigen_order_is_deterministic():
    bas = build_basis(WeightFamily.legendre(), 7)
    scaled = scale(build_integration_matrices(bas), "+", IntervalMap(0.0, 1.0))
    a = eigen_factorize(scaled)
    b = eigen_factorize(scaled)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.vectors, b.vectors)
    order = np.lexsort((a.values.imag, a.values.real))
    np.testing.assert_array_equal(order, np.arange(7))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 5, 10, 15])
@pytest.mark.parametrize("side", ["+", "-"])
def test_eigen_phases_match_the_column_loop(family, n, side):
    # the per-column normalization the vectorized one replaced, bit for bit
    scaled = scale(build_integration_matrices(build_basis(family, n)), side,
                   IntervalMap(0.0, 2.0))
    lam, X = np.linalg.eig(scaled.C)
    X = X[:, np.lexsort((lam.imag, lam.real))]
    X = X / np.linalg.norm(X, axis=0)[None, :]
    for j in range(X.shape[1]):
        col = X[:, j]
        c = col[int(np.argmax(np.abs(col) > 1e-12))]
        X[:, j] = col * (np.conj(c) / abs(c))
    np.testing.assert_array_equal(eigen_factorize(scaled).vectors, X)


def test_ill_conditioned_eigenvectors_raise():
    bas = build_basis(WeightFamily.legendre(), 2)
    mats = build_integration_matrices(bas)
    imap = IntervalMap(0.0, 1.0)
    defective = ScaledMatrix(mats, "+", imap,
                             np.array([[1.0, 1.0], [0.0, 1.0 + 1e-13]]),
                             imap.forward(bas.nodes))
    with pytest.raises(IllConditionedError):
        eigen_factorize(defective)


def test_matrix_function_exponential():
    bas = build_basis(WeightFamily.legendre(), 6)
    scaled = scale(build_integration_matrices(bas), "+", IntervalMap(0.0, 1.0))
    eig = eigen_factorize(scaled)
    ours = matrix_function(eig, np.exp)
    ref = scipy.linalg.expm(scaled.C)
    np.testing.assert_allclose(ours.real, ref, atol=1e-11)


def test_apply_real_resolvent():
    bas = build_basis(WeightFamily.legendre(), 6)
    scaled = scale(build_integration_matrices(bas), "+", IntervalMap(0.0, 1.0))
    eig = eigen_factorize(scaled)
    v = np.sin(scaled.xi)
    ours, residue = apply_real(eig, lambda lam: 1.0 / (1.0 + lam), v)
    ref = np.linalg.solve(np.eye(6) + scaled.C, v)
    np.testing.assert_allclose(ours, ref, atol=1e-11)
    assert residue < 1e-11


def test_pole_on_spectrum_raises():
    bas = build_basis(WeightFamily.legendre(), 4)
    scaled = scale(build_integration_matrices(bas), "+", IntervalMap(0.0, 1.0))
    eig = eigen_factorize(scaled)
    lam0 = eig.values[0]
    with pytest.raises(PoleEvaluationError):
        apply_real(eig, lambda lam: 1.0 / (lam - lam0), np.ones(4))
    with pytest.raises(PoleEvaluationError):
        matrix_function(eig, lambda lam: 1.0 / (lam - lam0))


# (kind, side) -> (argument the transform is evaluated at, regions accepted)
SPECTRUM_RULE = {("fourier", "+"): (lambda lam: 1j / lam, ("upper", "entire")),
                 ("fourier", "-"): (lambda lam: -1j / lam, ("lower", "entire")),
                 ("laplace", "+"): (lambda lam: 1.0 / lam, ("right", "entire"))}


@pytest.mark.parametrize("region", ["upper", "lower", "right", "entire"])
@pytest.mark.parametrize("side", ["+", "-"])
@pytest.mark.parametrize("kind", ["fourier", "laplace"])
def test_symbol_on_spectrum_argument_and_region(kind, side, region):
    bas = build_basis(WeightFamily.legendre(), 5)
    eig = eigen_factorize(scale(build_integration_matrices(bas), side,
                                IntervalMap(0.0, 2.0)))
    sym = ScalarSymbol(lambda z: np.exp(-np.asarray(z)) / (3.0 + np.asarray(z)),
                       region)
    arg, regions = SPECTRUM_RULE.get((kind, side), (None, ()))
    if region not in regions:
        with pytest.raises(ValueError):
            symbol_on_spectrum(eig, sym, kind)
        return
    phi = symbol_on_spectrum(eig, sym, kind)
    assert np.array_equal(phi(eig.values), sym(arg(eig.values)))


def test_apply_real_reports_residue():
    bas = build_basis(WeightFamily.legendre(), 5)
    scaled = scale(build_integration_matrices(bas), "+", IntervalMap(0.0, 1.0))
    eig = eigen_factorize(scaled)
    vec, residue = apply_real(eig, lambda lam: lam * lam, np.ones(5))
    assert vec.dtype == np.float64
    np.testing.assert_allclose(vec, scaled.C @ (scaled.C @ np.ones(5)),
                               atol=1e-12)
    assert residue < 1e-12


def test_scalar_symbol_is_callable_and_validated():
    sym = ScalarSymbol(lambda y: 1.0 / (1.0 - 1j * np.asarray(y)), "upper")
    assert sym(0.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ScalarSymbol(lambda y: y, "north")


def test_repeated_build_returns_the_memoized_read_only_pair():
    bas = build_basis(WeightFamily.legendre(), 6)
    mats = build_integration_matrices(bas)
    assert build_integration_matrices(bas) is mats
    # equal content built by hand hits the memo too
    again = QuadratureBasis(bas.family, bas.n, bas.nodes.copy(),
                            bas.gauss_weights.copy(), bas.table.copy())
    assert build_integration_matrices(again) is mats
    for arr in (mats.plus, mats.minus):
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0


def test_hand_built_basis_one_ulp_apart_gets_its_own_pair():
    bas = build_basis(WeightFamily.legendre(), 6)
    mats = build_integration_matrices(bas)
    nodes = bas.nodes.copy()
    nodes[2] = np.nextafter(nodes[2], 1.0)
    moved = QuadratureBasis(bas.family, bas.n, nodes, bas.gauss_weights.copy(),
                            bas.table.copy())
    other = build_integration_matrices(moved)
    assert other is not mats
    assert not np.array_equal(other.plus, mats.plus)
    # the held pair keeps read-only copies, so the caller's arrays stay
    # writable and writing to them cannot reach the memo
    nodes[2] = 0.0
    assert other.basis.nodes[2] != 0.0 and not other.basis.nodes.flags.writeable
    assert build_integration_matrices(moved) is not other


def test_matrix_memo_holds_the_verify_suite_scan():
    # verify_suite scans Legendre n = 1..40 on every call; a repeated call
    # rebuilds none of those pairs
    bases = [build_basis(WeightFamily.legendre(), n) for n in range(1, 41)]
    pairs = [build_integration_matrices(bas) for bas in bases]
    assert all(build_integration_matrices(bas) is mats
               for bas, mats in zip(bases, pairs))


def test_matrix_memo_holds_at_most_its_byte_budget():
    memo, budget = build_integration_matrices, _MATRIX_MEMO_BYTES
    # a pair costs 16 n^2 bytes: n_fit is the largest that fits
    n_fit = math.isqrt(budget // 16)
    pairs = []
    for n in range(n_fit // 18, n_fit, n_fit // 18):  # about 6 budgets in all
        pairs.append(memo(build_basis(WeightFamily.legendre(), n)))
        assert memo.held_size() <= budget
    assert memo.held_size() > budget // 2
    # the least recently used pair went first, the latest is still held
    assert memo(pairs[-1].basis) is pairs[-1]
    assert memo(pairs[0].basis) is not pairs[0]
    # the largest pair that fits is held, one more is not
    fits = memo(build_basis(WeightFamily.legendre(), n_fit))
    assert memo(fits.basis) is fits
    big = memo(build_basis(WeightFamily.legendre(), n_fit + 1))
    assert memo(big.basis) is not big
    assert memo.held_size() <= budget
    memo.cache_clear()
    assert memo.held_size() == 0


def _legendre_scaled(n, side="+", a=0.0, b=1.0):
    return scale(build_integration_matrices(build_basis(WeightFamily.legendre(), n)),
                 side, IntervalMap(a, b))


def test_repeated_factorization_shares_the_memoized_read_only_arrays():
    scaled = _legendre_scaled(9)
    first = eigen_factorize(scaled)
    # equal content in another array hits the memo; the caller's own scaled
    # matrix is the one wrapped
    again = ScaledMatrix(scaled.source, "+", scaled.imap, scaled.C.copy(), scaled.xi)
    second = eigen_factorize(again)
    assert second.scaled is again and second is not first
    for name in ("values", "vectors", "inverse"):
        arr = getattr(first, name)
        assert getattr(second, name) is arr
        assert not arr.flags.writeable
    assert second.cond == first.cond


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 6, 15])
@pytest.mark.parametrize("side", ["+", "-"])
def test_memoized_factorization_equals_an_inline_one(family, n, side):
    scaled = scale(build_integration_matrices(build_basis(family, n)), side,
                   IntervalMap(-0.5, 2.0))
    lam, X = np.linalg.eig(scaled.C)
    order = np.lexsort((lam.imag, lam.real))
    lam, X = lam[order], X[:, order]
    X = X / np.linalg.norm(X, axis=0)[None, :]
    pivots = X[np.argmax(np.abs(X) > 1e-12, axis=0), np.arange(n)]
    X = X * np.array([np.conj(c) / abs(c) for c in pivots])[None, :]
    eigen_factorize(scaled)  # fills the memo
    eig = eigen_factorize(scaled)
    np.testing.assert_array_equal(eig.values, lam)
    np.testing.assert_array_equal(eig.vectors, X)
    np.testing.assert_array_equal(eig.inverse, np.linalg.inv(X))
    assert eig.cond == float(np.linalg.cond(X))


def test_same_matrix_on_another_interval_or_side_gets_its_own_entry():
    eigs = [eigen_factorize(_legendre_scaled(7, side, 0.0, b))
            for side, b in (("+", 1.0), ("+", 2.0), ("-", 1.0))]
    assert len({id(eig.values) for eig in eigs}) == 3
    assert _eigen_data.held_size() == 3 * (32 * 7 * 7 + 16 * 7)
    # a matrix one ulp away from a held one misses
    scaled = _legendre_scaled(7)
    moved = scaled.C.copy()
    moved[3, 2] = np.nextafter(moved[3, 2], 1.0)
    other = eigen_factorize(ScaledMatrix(scaled.source, "+", scaled.imap, moved,
                                         scaled.xi))
    assert other.values is not eigs[0].values


def test_refused_matrix_is_held_without_an_inverse():
    scaled = _legendre_scaled(16)
    messages = []
    for _ in range(2):
        with pytest.raises(IllConditionedError) as err:
            eigen_factorize(scaled)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert "exceeds 1.0e+08 (n=16, family legendre)" in messages[0]
    _, _, cond, inverse = _eigen_data(scaled.C)
    assert cond > _COND_LIMIT and inverse is None


def test_singular_eigenvector_basis_is_refused_not_inverted():
    # a Jordan block: both eigenvector columns point the same way
    bas = build_basis(WeightFamily.legendre(), 2)
    imap = IntervalMap(0.0, 1.0)
    jordan = ScaledMatrix(build_integration_matrices(bas), "+", imap,
                          np.array([[0.0, 1.0], [0.0, 0.0]]), imap.forward(bas.nodes))
    for _ in range(2):
        with pytest.raises(IllConditionedError):
            eigen_factorize(jordan)


def test_eigen_memo_holds_at_most_its_byte_budget():
    memo, budget, n = _eigen_data, _EIGEN_MEMO_BYTES, 10
    cost = 32 * n * n + 16 * n
    count = 3 * budget // cost  # three budgets' worth of distinct matrices
    eigs = []
    for k in range(count):
        eigs.append(eigen_factorize(_legendre_scaled(n, "+", 0.0, 1.0 + k / count)))
        assert memo.held_size() <= budget
    assert memo.held_size() > budget - cost
    # the least recently used entry went first, the latest is still held
    assert eigen_factorize(eigs[-1].scaled).values is eigs[-1].values
    assert eigen_factorize(eigs[0].scaled).values is not eigs[0].values
    memo.cache_clear()
    assert memo.held_size() == 0
