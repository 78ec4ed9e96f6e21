"""Hot inner loops of the HMM machinery.

Everything here works on plain arrays: ``mu`` (k,), row-stochastic ``Q``
(k, k) and the per-step emission likelihood matrix ``B`` (n, k) with
``B[t, i] = f_i(y_t)``. There is one build: numpy, vectorised over time in
blocks of ``block_len(k)`` steps, so no temporary grows with n. A block is
as long as the table budget allows: its draw table of ``block * k * k``
floats, the largest temporary, stays within ``TABLE_FLOATS``; the scan's
largest holds half as many.

Backward state draw (``ffbs``), as a table. For every step t and every
possible next state j, ``W[t, j, i] = alpha[t, i] * Q[i, j]`` with i
contiguous. ``k - 1`` whole-column passes ``W[:, :, i] += W[:, :, i - 1]``
turn W in place into the running sums, with the additions ``cumsum`` makes.
The total ``s[t, j]`` is the last running sum while k < 8 and
``W.sum(axis=2)``, taken before the passes, from 8 on: a step-by-step
draw's 1-D ``w.sum()`` adds fewer than 8 contiguous entries one at a time
and more pairwise, so on the same uniforms the path is the same to the bit.
The drawn state is ``F[t, j] = #{i < k - 1 : running_i < u_t * s[t, j]}``,
one comparison pass per column; the running sums never decrease, so this is
the count over all i capped at k - 1. F is an (m, k) array of small
integers, and the path is the walk ``x_t = F[t, x_{t+1}]`` down its rows.
Each row maps the next state to this one, and composing maps is
associative, so ``_walk`` cuts the m rows into C chunks of
``L = isqrt(m // 32)`` (the last topped up with rows that pass the state
through), composes each chunk's map by L - 1 gathers over all chunks at
once, walks the C maps in Python and fills in the chunks' other rows by
L - 1 more gathers: about sqrt(32 m) Python steps and 2 sqrt(m / 32)
gathers per block in place of m Python steps. Below 128 rows L is 1 and the
walk is the plain one. The states are integers, so the path is the
step-by-step walk's exactly.

Forward filter and backward messages, as a prefix scan. The filtered law is
``alpha_t ∝ alpha_{t-1} Q diag(B_t)``, so the laws of a block are the prefix
products of the matrices ``Q diag(B_t)`` applied to the law carried in from
the block before. The first level of pairs is formed straight from B and Q:
with the block's rows scaled to sum 1, ``_pairs`` gives
``Q diag(b_2j) Q diag(b_2j+1)`` for all block/2 pairs from one matrix
product with the k x k^2 array ``Q[i, m] Q[m, l]``, each product scaled to
sum 1. ``_prefix`` scans these pairs by pairing neighbours again, level by
level, then fills one buffer of laws from the top level down: each entry
the level above does not give is one vector-matrix product from its
scanned predecessor. That is log2(block) levels and about block/2 small
matrix products per block
(Särkkä & García-Fernández, IEEE TAC 2021, on the temporal parallelisation
of HMM inference), and it gives the laws at the block's odd offsets. The
first level's fill is the correction pass, two steps of the recursion's own
formula, ``a = (alpha[t-1] @ Q) * B[t]``, ``c[t] = a.sum()``,
``alpha[t] = a / c[t]``: the even offsets step from the law carried in and
the scanned odd laws, then the odd offsets from those even ones. So the
normalisers are those of the step recursion and the scan's rounding does
not carry from one block to the next. The backward messages scan the
matrices ``diag(B_t / c_t) Q^T`` from the end, with the same first level
(the transposes of ``Q diag(d_2j+1) Q diag(d_2j)``): with the forward
normalisers these products keep the scale of ``beta``, so no normalisation
is needed, and the same two-step correction follows. Kept scale needs the
first level's ``Q[i, m] Q[m, l]`` exact: rounded once, their fixed errors
entered every pair alike and beta's scale drifted by about 2e-17 per step
(3e-12 after 32767 steps at k = 2, where the step recursion stays within
1e-13 of an extended-precision reference). So the messages take them as the
sum of two arrays, the exact products of Q's 26-bit halves and the small
rest, at the cost of a second product of the same size; the filter, which
keeps only directions, takes one. The correction's ``c`` and the scan's row
normalisers follow the draw's 8-entry rule (``_rowsum``): column adds below
8 states and ``sum(axis=1)`` from 8 on, equal to ``a.sum(axis=1)`` bit for
bit. Results agree with the step
recursion to within a few ulps (tests hold them to 1e-13 for alpha and c,
1e-12 for beta). No scan temporary holds more than (block/2) k^2 floats,
and a block's temporaries are freed before the next block starts.

Guard. The scan needs every product of a block to keep its rows within
range of each other: normalising a product to sum 1 would otherwise let a
row far below the largest underflow to 0, and a law carried in on that row's
state would be lost (with Q = I and every B row [0.1, 0.9], after 512
steps). When every entry of Q is at least ``SCAN_MIN_Q``, each row of a
forward product is at least ``Q.min()`` times any other, and each backward
product stays below ``Q.min() ** -2``, so nothing under- or overflows. A
smaller entry (a zero in a reducible or left-to-right chain, say) sends the
filter and the messages through the step recursion instead; the table draw
needs no guard.

Cost. A pair product costs k^3 per step against the step recursion's k^2,
and each block pays a fixed cost of a few dozen array calls, whatever k is.
So blocks are as long as ``TABLE_FLOATS`` (2^17 floats, 1 MB) allows:
32768 steps at k = 2, 8192 at k = 4, 2048 at k = 8 and 512 at k = 16. Small
k pays the fixed cost seldom and large k keeps the draw's table in cache;
with 2048-step blocks the 4 MB table at k = 16 took the draw 2.3 times as
long. The budget comes from an in-process sweep over k = 2, 3, 4, 6, 8 and
16 at n = 2000 and 20000: half of it made the filter slower than 2048-step
blocks at k = 8 and 16, and twice of it slowed the draw at n = 20000 from
k = 4 on, by up to 1.4 times. Under it the correction's block-wide
products, ``prev @ Q`` and ``(b * following) @ Q.T``, have at most
(block + 1) / 2 rows, so at most half the budget plus k^2 multiply-adds:
below ``PAIR_MACS`` for every k up to 512. The first level's matrix
product is split into calls of at most ``PAIR_MACS`` multiply-adds, which
OpenBLAS runs on one thread: with two BLAS threads on a 2-core host, one
threaded call per block made the filter 3 times slower at k = 12. Measured
on a 2-core x86-64 host with numpy 2.4 at n = 20000, the filter took about
115, 180 and 250 ns per step at k = 2, 4 and 6 (195, 245 and 300 with
2048-step blocks, side by side) and the messages about 90, 140 and 155
(120, 135 and 175 with 2048-step blocks and one rounded product). At
n = 2000 the scan is ahead of the step loop up to k = 24 and level with it
at k = 32; below about 30 steps the loop is ahead by up to 50 microseconds
per call. Neither is branched on. A column pass is one array call over a
whole block, where a reduction over an axis only k long pays a fixed cost
per row: the draw table makes about 3k such calls per block and a row sum
k. At n = 20000 on the same host the draw took about 45, 95 and 185 ns per
step at k = 2, 4 and 6 (75, 120 and 195 with 2048-step blocks), of which
the chunked walk takes about 12, 30 and 40 ns; walked one row at a time, as
a list comprehension over the table, it took about 55, 90 and 105 ns, and
the draw 140, 160 and 250.
"""
from __future__ import annotations

from math import isqrt

import numpy as np

TABLE_FLOATS = 2 ** 17   # block * k * k, the draw table's floats, stays at or below this
SCAN_MIN_Q = 1e-100     # below this transition entry the filter and messages step
PAIR_MACS = 2 ** 18     # multiply-adds per pair-product call: OpenBLAS keeps these on one thread


def block_len(k):
    """Time steps per vectorised block for k states: the most that keep the
    draw's table within ``TABLE_FLOATS`` floats, and at least 1."""
    return max(1, TABLE_FLOATS // (k * k))


def _rowsum(x):
    """``x.sum(axis=1)`` of a 2-D ``x``, bit for bit, by whole-column adds
    while a row is shorter than 8 (numpy adds those one at a time)."""
    k = x.shape[1]
    if k >= 8:
        return x.sum(axis=1)
    s = x[:, 0].copy()
    for i in range(1, k):
        s += x[:, i]
    return s


def _unit(x, axes):
    """x scaled in place to sum 1 over ``axes``, the rows (1) or the matrices
    ((1, 2)) of x; slices that sum to 0 stay 0."""
    if axes == 1:
        s = _rowsum(x)[:, None]
    else:
        s = np.einsum("tij->t", x)[:, None, None]
    s[s <= 0.0] = 1.0
    return np.divide(x, s, out=x)


def _prefix(v, M, normalise):
    """Rows ``v``, ``v M[0]``, ``v M[0] M[1]``, ..., ``v M[0] ... M[m-1]``.

    Adjacent pairs are multiplied level by level until one product is left.
    The rows are then filled from the top level down in one buffer: a
    level's products of 2^l matrices end at rows 2^l, 2 * 2^l, ..., and
    each of its even entries takes one step from the row 2^l before it; the
    odd ones are the next level's. With ``normalise`` every product and row
    is scaled to sum 1 (only the direction is wanted); without it the exact
    scale is kept.
    """
    levels = [M]
    while len(levels[-1]) > 1:
        P = levels[-1]
        h = len(P) // 2
        pairs = P[0:2 * h:2] @ P[1:2 * h:2]
        levels.append(_unit(pairs, (1, 2)) if normalise else pairs)
    out = np.empty((len(M) + 1, M.shape[2]))
    out[0] = v
    for level in range(len(levels) - 1, -1, -1):
        P, s = levels[level], 2 ** level
        even = out[s:len(P) * s + 1:2 * s]
        np.einsum("ti,tij->tj", out[0:len(P) * s:2 * s], P[0::2], out=even)
        if normalise:
            _unit(even, 1)
    return out


def _products(Q, exact):
    """k x k^2 arrays whose sum is ``QQ[m, i * k + l] = Q[i, m] Q[m, l]``: the
    rounded products, or with ``exact`` two arrays that hold them to within
    2^-79, those of Q's 26-bit halves (which are exact) and the rest."""
    k = Q.shape[0]
    if not exact:
        return ((Q.T[:, :, None] * Q[:, None, :]).reshape(k, k * k),)
    t = 134217729.0 * Q          # (2^27 + 1) Q: Veltkamp's split into 26-bit halves
    hi = t - (t - Q)
    lo = Q - hi
    rest = hi.T[:, :, None] * lo[:, None, :] + lo.T[:, :, None] * Q[:, None, :]
    return (hi.T[:, :, None] * hi[:, None, :]).reshape(k, k * k), rest.reshape(k, k * k)


def _pairs(QQ, rows, reverse=False):
    """The products ``Q diag(rows[2j]) Q diag(rows[2j + 1])`` of adjacent
    rows, shaped (h, k, k), from one matrix product per array of
    ``_products`` over all h pairs; with ``reverse``, ``diag(rows[2j]) Q^T
    diag(rows[2j + 1]) Q^T``, which is the transpose of ``Q diag(rows[2j + 1])
    Q diag(rows[2j])``."""
    h, k = len(rows) // 2, rows.shape[1]
    first, second = rows[0:2 * h:2], rows[1:2 * h:2]
    if reverse:
        first, second = second, first
    # (first @ QQ)[j, i * k + l] = sum_m first[j, m] Q[i, m] Q[m, l], in
    # products of at most PAIR_MACS multiply-adds each
    P = np.empty((h, k * k))
    step = max(1, PAIR_MACS // k ** 3)
    for j in range(0, h, step):
        np.matmul(first[j:j + step], QQ[0], out=P[j:j + step])
        for rest in QQ[1:]:
            P[j:j + step] += first[j:j + step] @ rest
    P = P.reshape(h, k, k)
    P *= second[:, None, :]
    return P.transpose(0, 2, 1) if reverse else P


def _step(prev, Q, b, alpha, c):
    """One step of the forward recursion for every row: ``alpha`` receives
    ``(prev @ Q) * b`` scaled to sum 1 and ``c`` its sum; rows that sum to 0
    stay 0."""
    a = (prev @ Q) * b
    c[:] = _rowsum(a)
    np.divide(a, np.where(c > 0.0, c, 1.0)[:, None], out=alpha)


def _draw_table(alpha, QT, u):
    """Total weights ``s[t, j]`` and the drawn states ``F[t, j]``, an (m, k)
    array, for every step t of a block and next state j."""
    k = QT.shape[0]
    W = np.einsum("ti,ji->tji", alpha, QT)  # W[t, j, i] = alpha[t, i] Q[i, j], i contiguous
    if k >= 8:
        s = W.sum(axis=2)
    for i in range(1, k):
        W[:, :, i] += W[:, :, i - 1]    # the running sums, added as cumsum adds them
    if k < 8:
        s = W[:, :, k - 1]
    target = u[:, None] * s
    F = np.zeros(s.shape, dtype=np.min_scalar_type(k - 1))
    for i in range(k - 1):
        F += W[:, :, i] < target
    return s, F


def _walk(F, x):
    """The states ``x_t = F[t, x_{t+1}]`` for t = m - 1, ..., 0 from
    ``x_m = x``, as an (m,) array.

    The rows form C chunks of L, the last one topped up with rows that pass
    the state through. Each chunk's map from the state above it to the state
    at its first row is composed by L - 1 gathers over all chunks at once;
    the C maps are walked in Python, which gives each chunk's first state,
    and L - 1 more gathers fill in the other rows of every chunk.
    """
    m, k = F.shape
    L = max(1, isqrt(m // 32))
    C = -(-m // L)
    if C * L > m:
        padded = np.empty((C * L, k), dtype=F.dtype)
        padded[:m] = F
        padded[m:] = np.arange(k)   # rows that pass the state through
        F = padded
    flat = F.ravel()
    G = F[L - 1::L]     # G[c, j]: chunk c's state at row r given state j above it
    for r in range(L - 2, -1, -1):
        G = flat.take(np.arange(r * k, C * L * k, L * k)[:, None] + G)
    table = G.ravel().tolist()
    path = np.empty(C * L + 1, dtype=np.int64)
    path[C * L] = x
    path[(C - 1) * L::-L] = [x := table[i + x] for i in range((C - 1) * k, -1, -k)]
    above = path[L::L]      # the state above each chunk's row r, from r = L - 1 down
    for r in range(L - 1, 0, -1):
        above = flat.take(np.arange(r * k, C * L * k, L * k) + above)
        path[r::L] = above
    return path[:m]


def forward_filter(mu, Q, B):
    """Scaled forward pass.

    Returns (alpha, c): alpha[t] is the filtered law of the state at t given
    observations up to t, c[t] the per-step normalizer, so the log likelihood
    is sum(log(c)). A zero normalizer means zero likelihood; remaining rows
    of alpha and c are left at 0.
    """
    n, k = B.shape
    alpha = np.zeros((n, k))
    c = np.zeros(n)
    a = mu * B[0]
    s = a.sum()
    c[0] = s
    if s <= 0.0:
        return alpha, c
    alpha[0] = a / s
    if Q.min() < SCAN_MIN_Q:
        for t in range(1, n):
            a = (alpha[t - 1] @ Q) * B[t]
            s = a.sum()
            c[t] = s
            if s <= 0.0:
                c[t] = 0.0
                return alpha, c
            alpha[t] = a / s
        return alpha, c
    block, QQ = block_len(k), _products(Q, False)
    for t0 in range(1, n, block):
        t1 = min(t0 + block, n)
        b = B[t0:t1]
        # the law carried in, then the laws at offsets 1, 3, ...; each row and
        # each product is scaled to sum 1, and every temporary is freed before
        # the steps
        laws = _prefix(alpha[t0 - 1], _unit(_pairs(QQ, _unit(b.copy(), 1)), (1, 2)), True)
        _step(laws[:(t1 - t0 + 1) // 2], Q, b[0::2], alpha[t0:t1:2], c[t0:t1:2])
        _step(alpha[t0:t1 - 1:2], Q, b[1::2], alpha[t0 + 1:t1:2], c[t0 + 1:t1:2])
        zero = np.flatnonzero(c[t0:t1] <= 0.0)
        if zero.size:
            stop = t0 + int(zero[0])
            alpha[stop:t1] = 0.0
            c[stop:t1] = 0.0
            break
    return alpha, c


def backward_messages(Q, B, c):
    """Scaled backward pass: beta[t] with beta[n-1] = 1.

    alpha[t] * beta[t] is the smoothing marginal at t given all observations.
    """
    n, k = B.shape
    beta = np.zeros((n, k))
    beta[n - 1] = 1.0
    if Q.min() < SCAN_MIN_Q:
        for t in range(n - 2, -1, -1):
            beta[t] = (Q @ (B[t + 1] * beta[t + 1])) / c[t + 1]
        return beta
    block, QQ = block_len(k), _products(Q, True)
    for t1 in range(n - 1, 0, -block):
        t0 = max(t1 - block, 0)
        # step r of the reversed block gives beta[t1 - 1 - r] from beta[t1 - r]
        b, cb = B[t1:t0:-1], c[t1:t0:-1, None]
        # beta[t1], then the messages after steps 1, 3, ...
        following = _prefix(beta[t1], _pairs(QQ, b / cb, reverse=True), False)[:(t1 - t0 + 1) // 2]
        rev = beta[t1 - 1:None if t0 == 0 else t0 - 1:-1]
        rev[0::2] = (b[0::2] * following) @ Q.T / cb[0::2]
        rev[1::2] = (b[1::2] * rev[0:-1:2]) @ Q.T / cb[1::2]
    return beta


def ffbs(Q, alpha, u):
    """Backward state draw given filtered laws; u holds n uniforms.

    Returns the sampled path, or a path whose first entry is -1 when a
    conditional weight vector degenerates to zero (numerical underflow).
    """
    n, k = alpha.shape
    states = np.empty(n, dtype=np.int64)
    cs = np.cumsum(alpha[n - 1])
    states[n - 1] = min(int(np.searchsorted(cs, u[n - 1] * cs[-1])), k - 1)
    QT = np.ascontiguousarray(Q.T)
    block = block_len(k)
    for t1 in range(n - 1, 0, -block):
        t0 = max(t1 - block, 0)
        s, F = _draw_table(alpha[t0:t1], QT, u[t0:t1])
        states[t0:t1] = _walk(F, int(states[t1]))
        if (s <= 0.0).any() and (s[np.arange(t1 - t0), states[t0 + 1:t1 + 1]] <= 0.0).any():
            states[0] = -1
            return states
        del s, F    # s views the table W: free both before the next block's
    return states
