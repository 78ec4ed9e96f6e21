"""Kernels: parity with the scalar-loop oracles, enumeration, edge cases."""
import tracemalloc
from math import isqrt

import numpy as np
import pytest

from dphmm import kernels
from tests import kernel_oracles as oracles
from tests.conftest import brute_force_loglik, random_discrete_params


def _problem(seed, n=40, k=3):
    rng = np.random.default_rng(seed)
    Q = rng.dirichlet(np.ones(k), size=k)
    mu = rng.dirichlet(np.ones(k))
    B = rng.random((n, k)) + 0.01
    u = rng.random(n)
    return mu, Q, B, u


@pytest.mark.parametrize("seed", range(5))
def test_backend_parity(seed):
    mu, Q, B, u = _problem(seed)

    a1, c1 = kernels.forward_filter(mu, Q, B)
    a2, c2 = oracles.forward_filter_loops(mu, Q, B)
    assert np.allclose(a1, a2, atol=1e-13)
    assert np.allclose(c1, c2, atol=1e-13)

    b1 = kernels.backward_messages(Q, B, c1)
    b2 = oracles.backward_messages_loops(Q, B, c2)
    assert np.allclose(b1, b2, atol=1e-12)

    s1 = kernels.ffbs(Q, a1, u)
    s2 = oracles.ffbs_loops(Q, a2, u)
    assert np.array_equal(s1, s2)


def _assert_parity(n, k):
    mu, Q, B, u = _problem(100 * k + n, n=n, k=k)

    a1, c1 = kernels.forward_filter(mu, Q, B)
    a2, c2 = oracles.forward_filter_loops(mu, Q, B)
    np.testing.assert_allclose(a1, a2, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(c1, c2, rtol=0.0, atol=1e-13)

    b1 = kernels.backward_messages(Q, B, c2)
    b2 = oracles.backward_messages_loops(Q, B, c2)
    np.testing.assert_allclose(b1, b2, rtol=0.0, atol=1e-12)

    assert np.array_equal(kernels.ffbs(Q, a2, u), oracles.ffbs_loops(Q, a2, u))


def _lengths(block):
    """Short sequences and both sides of the block edges."""
    return (1, 2, 3, block - 1, block, block + 1, 2 * block + 1)


_SMALL_BLOCK = 64
_FIXED_BLOCK = 2048     # the block of every k before blocks were sized by k


def _chunk_edge(k, near):
    """The first block length m from ``near`` on that is a whole number C of
    the filter's chunks of L steps, with m - 1 and m + 1 cut into chunks of
    L as well."""
    m = near
    while True:
        L = kernels._chunk_len(m, k)
        if m % L == 0 and kernels._chunk_len(m - 1, k) == L == kernels._chunk_len(m + 1, k):
            return m
        m += 1


@pytest.mark.parametrize("n, k", [(n, k) for n in (*_lengths(_SMALL_BLOCK), _SMALL_BLOCK + 2)
                                  for k in (*range(1, 11), 16)])
def test_parity_across_blocks(n, k, monkeypatch):
    # a small budget brings every block edge within reach of the scalar
    # oracles at k = 16, which take seconds per call over two full blocks.
    # Its blocks are cut into chunks of 2 steps; n = 2 and n = block + 2
    # end in a block of one step, shorter than a chunk
    monkeypatch.setattr(kernels, "TABLE_FLOATS", _SMALL_BLOCK * k * k)
    assert kernels.block_len(k) == _SMALL_BLOCK
    _assert_parity(n, k)


def _full_block_cases():
    """(n, k) on both sides of each k's own block edges. A block's steps
    are paired: the half-block lengths run one block of an odd or even number
    of steps, the others straddle the edges. At k = 2 and 4 the forward
    blocks of 2 * block, 2 * block + 2 and 2 * block + 3 also end in a last
    block of block - 1, 1 and 2 steps, and the backward ones start in it.
    The k = 2 cases run up to 65539 steps: with the messages' first level
    rounded once, beta's scale drifted past the tolerance there (3e-12). The
    edges of the former fixed block stay as cases inside a block.

    The filter cuts a block into chunks: for k = 1 to 10, one block of
    n - 1 = C L steps and of C L - 1 and C L + 1 (about 1000 steps, L from 2
    to 8), and at k = 2 and 4 a full block followed by such a block."""
    cases = []
    for k in range(1, 11):
        block = kernels.block_len(k)
        lengths = set()
        if k in (2, 3, 4, 9):
            lengths |= {*_lengths(block // 2)[-4:], *_lengths(block)[-4:]}
        if k in (2, 3, 9):
            lengths |= {*_lengths(_FIXED_BLOCK // 2)[-4:], *_lengths(_FIXED_BLOCK)[-4:]}
        if k in (2, 4):
            lengths |= {2 * block, 2 * block + 2, 2 * block + 3}
            lengths |= {block + _chunk_edge(k, 1000) + d for d in (0, 1, 2)}
        lengths |= {_chunk_edge(k, 1000) + d for d in (0, 1, 2)}
        cases += [(n, k) for n in sorted(lengths)]
    return cases


@pytest.mark.parametrize("n, k", _full_block_cases())
def test_parity_at_full_block_edges(n, k):
    _assert_parity(n, k)


@pytest.mark.parametrize("k", range(1, 65))
def test_block_products_stay_within_one_blas_thread(k):
    # The block-wide products, ``Q.T @ prev`` over the filter's C chunks and
    # ``(b * following) @ Q.T`` in ``backward_messages``' correction pass,
    # have at most (block + 1) // 2 columns or rows; a step of the chunk
    # maps is k products ``Q.T @ T[i]`` of k^2 F multiply-adds over the F
    # full chunks. Under the table budget they stay below the size from
    # which OpenBLAS may split a call over threads.
    block = kernels.block_len(k)
    assert block * k * k <= kernels.TABLE_FLOATS
    assert (block + 1) // 2 * k * k <= kernels.PAIR_MACS
    L = kernels._chunk_len(block, k)
    assert 2 <= L and -(-block // L) <= (block + 1) // 2
    assert k * k * (block // L) <= kernels.PAIR_MACS


def test_message_pair_products_sum_to_the_exact_products():
    # The messages keep beta's scale, so their first level must not round
    # Q[i, m] Q[m, l] once: that fixed error would enter every pair alike.
    from fractions import Fraction
    k = 5
    Q = np.random.default_rng(8).dirichlet(np.ones(k), size=k)
    hi, lo = kernels._products(Q)
    for m in range(k):
        for i in range(k):
            for l in range(k):
                exact = Fraction(Q[i, m]) * Fraction(Q[m, l])
                assert abs(Fraction(hi[m, i * k + l]) + Fraction(lo[m, i * k + l]) - exact) \
                    <= exact * 2.0 ** -78


def _sparse_transition_problem(case):
    """Laws concentrated on one state, with Q zero or tiny somewhere."""
    n = 2 * kernels.block_len(2) + 1
    skew = np.tile([0.1, 0.9], (n, 1))
    tiny = 1e-90
    if case == "identity":
        skew[n - 1, 1] = 0.0        # beta of state 1 is 0 before the last step
        return np.array([1.0, 0.0]), np.eye(2), skew
    if case == "reducible":
        return np.array([0.0, 1.0]), np.array([[1.0, 0.0], [0.5, 0.5]]), skew
    if case == "left_to_right":
        Q = np.array([[0.9, 0.1, 0.0], [0.0, 0.9, 0.1], [0.0, 0.0, 1.0]])
        return np.array([1.0, 0.0, 0.0]), Q, np.random.default_rng(11).random((n, 3)) + 0.01
    Q = np.array([[1.0 - tiny, tiny], [tiny, 1.0 - tiny]])
    if case == "tiny_likelihoods":
        return np.array([0.5, 0.5]), Q, np.tile([0.0, 1e-240], (n, 1))
    return np.array([1.0, 0.0]), Q, skew


@pytest.mark.parametrize("case", ["identity", "reducible", "left_to_right", "tiny_entries",
                                  "tiny_likelihoods"])
def test_parity_with_zero_and_tiny_transition_entries(case):
    # With Q = I the rows of a block's product part by a factor 9 per step.
    # Scanned, the forward row of state 0, which holds the law, underflows
    # after 512 steps and the likelihood reads 0 from there on; the backward
    # row of state 1 overflows after 323 steps and meets beta = 0 as NaN.
    # Zeros in Q send the filter and the messages step by step;
    # "tiny_entries" stays on the scan, just above the guard. In
    # "tiny_likelihoods" every likelihood, 1e-240, is on state 1, so the
    # first row of a chunk's map, which starts in state 0, keeps about 1e-90
    # of its sum per step while the law loses nothing: the maps scale each
    # step's likelihoods to sum 1 before dividing by that row's sum, as the
    # product of the two divisors underflows to 0.
    mu, Q, B = _sparse_transition_problem(case)
    assert (Q.min() >= kernels.SCAN_MIN_Q) == case.startswith("tiny")
    alpha, c = kernels.forward_filter(mu, Q, B)
    ref_alpha, ref_c = oracles.forward_filter_loops(mu, Q, B)
    assert np.all(c > 0.0)
    np.testing.assert_allclose(alpha, ref_alpha, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(c, ref_c, rtol=0.0, atol=1e-13)
    # beta reaches 1e24 to 1e90 here, so compare the smoothing marginals
    # alpha * beta, which are probabilities, at the tolerance for beta
    beta = kernels.backward_messages(Q, B, ref_c)
    ref_beta = oracles.backward_messages_loops(Q, B, ref_c)
    np.testing.assert_allclose(ref_alpha * beta, ref_alpha * ref_beta, rtol=0.0, atol=1e-12)


_C3 = kernels.block_len(3)
_L3 = kernels._chunk_len(_C3, 3)    # 18: the blocks of 14563 steps end in a chunk of one
_E3 = 1003      # a third block: 250 chunks of 4 steps and a last one of 3


@pytest.mark.parametrize("t_zero", sorted({0, 100, 101, *(_C3 // 2 + d for d in (0, 1)),
                                           *(_C3 + d for d in (0, 1, 2)),
                                           *(_FIXED_BLOCK // 2 + d for d in (0, 1)),
                                           *(_FIXED_BLOCK + d for d in (0, 1, 2)),
                                           1 + 7 * _L3, _C3 + 1 + 400 * _L3,
                                           _C3 + 400 * _L3, 2 * _C3,
                                           2 * _C3 + 1 + 1000, 2 * _C3 + 1 + 1001}))
def test_zero_likelihood_inside_and_between_blocks(t_zero):
    # at k = 3 the scanned filter blocks time as [1, C], [C + 1, 2C], ...,
    # and cuts each block into chunks of L = 18 steps: offsets 0, L, 2L, ...
    # step from the scanned laws, the others from the step before. 1 + 7L
    # and C + 1 + 400L are the first steps of chunks, C + 400L the last step
    # of the chunk before; C and 2C are the last, one-step chunks of the two
    # full blocks. The third block's last, short chunk starts at offset 1000;
    # 1001 lies inside it. The former fixed block's edges fall inside the
    # first block
    assert kernels._chunk_len(_E3, 3) == 4
    mu, Q, B, _ = _problem(7, n=2 * _C3 + 1 + _E3, k=3)
    B[t_zero] = 0.0
    alpha, c = kernels.forward_filter(mu, Q, B)
    ref_alpha, ref_c = oracles.forward_filter_loops(mu, Q, B)
    assert np.all(c[t_zero:] == 0.0) and np.all(alpha[t_zero:] == 0.0)
    assert np.all(c[:t_zero] > 0.0)
    np.testing.assert_allclose(alpha, ref_alpha, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(c, ref_c, rtol=0.0, atol=1e-13)


def _peak_above_outputs(run, outputs_nbytes):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - before - outputs_nbytes


def test_scan_memory_does_not_grow_with_n():
    # every temporary is per block: at most block / 2 pair products of k x k
    # floats, half the table budget, whatever the length of the sequence
    k = 4
    block = kernels.block_len(k)
    peaks = []
    for n in (4 * block + 1, 16 * block + 1):
        mu, Q, B, _ = _problem(3, n=n, k=k)
        alpha, c = kernels.forward_filter(mu, Q, B)
        outputs = alpha.nbytes + c.nbytes
        peaks.append((_peak_above_outputs(lambda: kernels.forward_filter(mu, Q, B), outputs),
                      _peak_above_outputs(lambda: kernels.backward_messages(Q, B, c),
                                          alpha.nbytes)))
    (filter_4, messages_4), (filter_16, messages_16) = peaks
    assert abs(filter_16 - filter_4) <= 64 * 1024
    assert abs(messages_16 - messages_4) <= 64 * 1024
    assert max(filter_4, messages_4) <= 2 * kernels.TABLE_FLOATS * 8 + 64 * 1024


def test_draw_memory_does_not_grow_with_n():
    # per block: the draw table of TABLE_FLOATS floats, its targets
    # u_t * s[t, j] (block * k floats), the drawn states and one comparison
    # mask (block * k bytes each); the walk's arrays, which come after the
    # targets and the mask are freed, hold fewer
    k = 4
    block = kernels.block_len(k)
    peaks = []
    for n in (4 * block + 1, 16 * block + 1):
        mu, Q, B, u = _problem(3, n=n, k=k)
        alpha, _ = kernels.forward_filter(mu, Q, B)
        peaks.append(_peak_above_outputs(lambda: kernels.ffbs(Q, alpha, u), 8 * n))
    assert abs(peaks[1] - peaks[0]) <= 64 * 1024
    assert peaks[0] <= 8 * kernels.TABLE_FLOATS + 10 * block * k + 64 * 1024


# the walk cuts a block of m rows into chunks of isqrt(m // 32) rows: 5 for
# m from 800 to 1151
_WALK_L, _WALK_C = 5, 200


@pytest.mark.parametrize("n, t", [(4, 1), (8, 2), (_FIXED_BLOCK + 10, 2),
                                  (kernels.block_len(2) + 10, 2),
                                  *((_WALK_L * _WALK_C, t) for t in (2, 499, 500, 996))])
def test_ffbs_zero_weight_column_returns_minus_one(n, t):
    # state 1 at t + 1 is forced, and no state with mass at t can move to it;
    # at n = block + 10 the table meets this in the second block drawn. At
    # n = 1000 the block's 999 rows form 200 walk chunks of 5, the last topped
    # up by one row: t = 2 lies in the chunk walked last, 499 and 500 on either
    # side of a chunk edge, and 996 in the topped-up chunk
    Q = np.array([[1.0, 0.0], [0.5, 0.5]])
    alpha = np.full((n, 2), 0.5)
    alpha[t] = [1.0, 0.0]
    alpha[t + 1] = [0.0, 1.0]
    u = np.random.default_rng(0).random(n)
    assert kernels.ffbs(Q, alpha, u)[0] == -1
    assert oracles.ffbs_loops(Q, alpha, u)[0] == -1


def _numpy_step_draw(Q, alpha, u):
    """The backward draw one step at a time, each weight vector summed by
    numpy's 1-D ``w.sum()``."""
    n, k = alpha.shape
    states = np.empty(n, dtype=np.int64)
    cs = np.cumsum(alpha[n - 1])
    states[n - 1] = min(int(np.searchsorted(cs, u[n - 1] * cs[-1])), k - 1)
    for t in range(n - 2, -1, -1):
        w = alpha[t] * Q[:, states[t + 1]]
        cs = np.cumsum(w)
        states[t] = min(int(np.searchsorted(cs, u[t] * w.sum())), k - 1)
    return states


def _walk_lengths(k):
    """Block lengths about the walk's chunk edges: the most rows with
    one-row chunks (127) and the fewest with two-row ones (128); 200 chunks
    of 5 rows one row short (the last chunk topped up by one row), exact,
    and one row over (topped up by 4); and about the block length."""
    assert isqrt(127 // 32) == 1 and isqrt(128 // 32) == 2
    assert all(isqrt(m // 32) == _WALK_L for m in range(800, 1152))
    block = kernels.block_len(k)
    rows = _WALK_L * _WALK_C
    return sorted({127, 128, rows - 1, rows, rows + 1, block - 1, block + 1})


@pytest.mark.parametrize("k, m", [(k, m) for k in (1, 2, 3, 4, 9) for m in _walk_lengths(k)])
def test_ffbs_walk_across_chunk_edges(k, m):
    # n = m + 1 gives one block of m rows below the last state; m = block + 1
    # gives a full block and a block of one row
    mu, Q, B, u = _problem(70 + k, n=m + 1, k=k)
    alpha, _ = kernels.forward_filter(mu, Q, B)
    path = kernels.ffbs(Q, alpha, u)
    assert np.array_equal(path, oracles.ffbs_loops(Q, alpha, u))
    assert np.array_equal(path, _numpy_step_draw(Q, alpha, u))


def _sequential_walk(F, x):
    path = np.empty(len(F), dtype=np.int64)
    for t in range(len(F) - 1, -1, -1):
        x = path[t] = F[t, x]
    return path


@pytest.mark.parametrize("k", range(1, 11))
def test_walk_equals_the_sequential_walk_from_every_state(k):
    rng = np.random.default_rng(80 + k)
    rows = _WALK_L * _WALK_C
    for m in (1, 2, 3, 31, 32, 127, 128, 129, 130, rows - 1, rows, rows + 1, rows + 4, 8192):
        F = rng.integers(0, k, (m, k), dtype=np.uint8)
        for x in range(k):
            assert np.array_equal(kernels._walk(F, x), _sequential_walk(F, x)), (m, x)


def test_ffbs_table_reduces_like_the_step_loop():
    # Uniforms aimed at the running sums make each draw hinge on the last bit
    # of its total weight. numpy sums a contiguous vector of 8 or more
    # entries pairwise, so the table must sum contiguous rows as a 1-D
    # ``w.sum()`` does, and so must the scalar oracle. Below 8 entries the
    # table takes the last running sum as the total.
    rng = np.random.default_rng(5)
    n = 400
    for k in range(2, 10):
        alpha = rng.random((n, k)) * 10.0 ** rng.integers(-6, 6, (n, k))
        alpha /= alpha.sum(axis=1, keepdims=True)
        Q = np.full((k, k), 1.0 / k)
        w = alpha * Q[:, 0]
        totals = np.array([row.sum() for row in w])
        u = np.cumsum(w, axis=1)[np.arange(n), rng.integers(0, k, n)] / totals
        table = kernels.ffbs(Q, alpha, u)
        assert np.array_equal(table, _numpy_step_draw(Q, alpha, u)), k
        assert np.array_equal(table, oracles.ffbs_loops(Q, alpha, u)), k


def _wide_rows(rng, n, k):
    """Nonnegative entries spanning 12 orders of magnitude, with all-zero rows."""
    x = rng.random((n, k)) * 10.0 ** rng.integers(-12, 0, (n, k))
    x[rng.integers(0, n, 8)] = 0.0
    return x


@pytest.mark.parametrize("k", range(1, 11))
def test_column_pass_sums_equal_numpy_reductions_bit_for_bit(k):
    # The kernels replace reductions over a short axis by whole-column adds
    # while k < 8, which reproduces numpy's one-at-a-time order there; from
    # 8 on they call numpy, which sums pairwise. A numpy build that reduces
    # otherwise fails here rather than moving a draw silently.
    rng = np.random.default_rng(40 + k)
    x = _wide_rows(rng, 3000, k)
    assert np.array_equal(kernels._rowsum(x), x.sum(axis=1))
    # the filter's normalisers c, summed over the states of its state-major
    # (k, C) layout
    assert np.array_equal(kernels._colsum(np.ascontiguousarray(x.T), np.empty(3000)),
                          x.sum(axis=1))
    unit = kernels._unit(x.copy(), 1)
    s = x.sum(axis=1, keepdims=True)
    assert np.array_equal(unit, x / np.where(s > 0.0, s, 1.0))

    alpha = _wide_rows(rng, 600, k)
    Q = rng.dirichlet(np.ones(k), size=k) * 10.0 ** rng.integers(-6, 0, (k, k))
    QT = np.ascontiguousarray(Q.T)
    W = alpha[:, None, :] * QT
    totals = W.sum(axis=2)
    running = np.cumsum(W, axis=2)
    # half the uniforms land on a running sum
    u = rng.random(600)
    aim = running[np.arange(600), 0, rng.integers(0, k, 600)]
    u[::2] = (aim / np.where(totals[:, 0] > 0.0, totals[:, 0], 1.0))[::2]
    s, table = kernels._draw_table(alpha, QT, u)
    assert np.array_equal(s, totals)
    below = running < (u[:, None] * totals)[:, :, None]
    assert np.array_equal(table, np.minimum(below.sum(axis=2), k - 1))


def test_forward_matches_enumeration():
    from dphmm import simulate
    from dphmm.hmm import emission_matrix

    rng = np.random.default_rng(3)
    for _ in range(20):
        params = random_discrete_params(rng, k=2, support=2)
        _, y = simulate(params, 6, rng)
        _, c = kernels.forward_filter(params.mu, params.trans.rows, emission_matrix(params, y))
        assert np.log(c).sum() == pytest.approx(brute_force_loglik(params, y), abs=1e-10)


def test_zero_likelihood_zeroes_tail():
    mu = np.array([0.5, 0.5])
    Q = np.array([[0.5, 0.5], [0.5, 0.5]])
    B = np.array([[0.9, 0.2], [0.0, 0.0], [0.9, 0.2]])
    for forward_filter in (kernels.forward_filter, oracles.forward_filter_loops):
        alpha, c = forward_filter(mu, Q, B)
        assert c[0] > 0 and c[1] == 0.0 and c[2] == 0.0
        assert np.all(alpha[1:] == 0.0)


def test_gamma_normalization_of_smoothing():
    mu, Q, B, _ = _problem(11, n=25, k=2)
    alpha, c = kernels.forward_filter(mu, Q, B)
    beta = kernels.backward_messages(Q, B, c)
    gamma = alpha * beta
    assert np.allclose(gamma.sum(axis=1), 1.0, atol=1e-10)
