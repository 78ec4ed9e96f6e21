"""Hot inner loops of the HMM machinery.

Everything here works on plain arrays: ``mu`` (k,), row-stochastic ``Q``
(k, k) and the per-step emission likelihood matrix ``B`` (n, k) with
``B[t, i] = f_i(y_t)``. There is one build: numpy, vectorised over time in
blocks of ``CHUNK`` steps, so no temporary grows with n. The largest is the
draw's table of ``CHUNK * k * k`` floats; the scan's largest holds half as
many.

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
the count over all i capped at k - 1. The path is then the integer walk
``x_t = F[t, x_{t+1}]`` over the flat row-major table.

Forward filter and backward messages, as a prefix scan. The filtered law is
``alpha_t ∝ alpha_{t-1} Q diag(B_t)``, so the laws of a block are the prefix
products of the matrices ``Q diag(B_t)`` applied to the law carried in from
the block before. The first level of pairs is formed straight from B and Q:
with the block's rows scaled to sum 1, ``_pairs`` gives
``Q diag(b_2j) Q diag(b_2j+1)`` for all CHUNK/2 pairs from one matrix
product with the k x k^2 array ``Q[i, m] Q[m, l]``, each product scaled to
sum 1. ``_prefix`` scans these pairs by pairing neighbours again: the
products of adjacent pairs are scanned recursively, and each remaining
entry is one vector-matrix product from its scanned predecessor. That is
log2(CHUNK) levels and about CHUNK/2 small matrix products per block
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
is needed, and the same two-step correction follows. The correction's
``c`` and the scan's row normalisers follow the draw's 8-entry rule
(``_rowsum``): column adds below 8 states and ``sum(axis=1)`` from 8 on,
equal to ``a.sum(axis=1)`` bit for bit. Results agree with the step
recursion to within a few ulps (tests hold them to 1e-13 for alpha and c,
1e-12 for beta). No block temporary holds more than (CHUNK/2) k^2 floats,
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
and each block pays a fixed cost of a few dozen array calls, so blocks of
2048 steps pay it half as often as blocks of 1024. The first level's matrix
product is split into calls of at most ``PAIR_MACS`` multiply-adds, which
OpenBLAS runs on one thread: with two BLAS threads on a 2-core host, one
threaded call per block made the filter 3 times slower at k = 12. Measured
on a 2-core x86-64 host with numpy 2.4 at n = 20000, the filter took about
165, 235 and 305 ns per step at k = 2, 4 and 6 (1.7 to 1.8 times faster
than with 1024-step blocks and a step-matrix array) and the messages about
105, 130 and 175. At n = 2000 the scan is ahead of the step loop up to
k = 24 and behind from k = 32; below about 30 steps the loop is ahead by up
to 50 microseconds per call. Neither is branched on. A column pass is one
array call over a whole block, where a reduction over an axis only k long
pays a fixed cost per row: the draw table makes about 3k such calls per
block and a row sum k. At n = 20000 on the same host the draw took about
135, 195 and 285 ns per step at k = 2, 4 and 6; about 65 ns of it is the
Python walk.
"""
from __future__ import annotations

import numpy as np

CHUNK = 2048            # time steps per vectorised block
SCAN_MIN_Q = 1e-100     # below this transition entry the filter and messages step
PAIR_MACS = 2 ** 18     # multiply-adds per pair-product call: OpenBLAS keeps these on one thread


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
    """Rows ``v M[0]``, ``v M[0] M[1]``, ..., ``v M[0] ... M[m-1]``.

    Adjacent pairs are multiplied and scanned recursively; the other rows
    take one step from the row before. With ``normalise`` every product and
    row is scaled to sum 1 (only the direction is wanted); without it the
    exact scale is kept.
    """
    m = M.shape[0]
    out = np.empty((m, M.shape[2]))
    if not m:
        return out
    h = m // 2
    if h:
        pairs = M[0:2 * h:2] @ M[1:2 * h:2]
        out[1:2 * h:2] = _prefix(v, _unit(pairs, (1, 2)) if normalise else pairs, normalise)
    prev = np.concatenate([v[None], out[1:m - 1:2]])
    even = np.einsum("ti,tij->tj", prev, M[0::2])
    out[0::2] = _unit(even, 1) if normalise else even
    return out


def _pairs(Q, rows, reverse=False):
    """The products ``Q diag(rows[2j]) Q diag(rows[2j + 1])`` of adjacent
    rows, shaped (h, k, k), from one matrix product with ``Q[i, m] Q[m, l]``
    over all h pairs; with ``reverse``, ``diag(rows[2j]) Q^T diag(rows[2j + 1])
    Q^T``, which is the transpose of ``Q diag(rows[2j + 1]) Q diag(rows[2j])``."""
    h, k = len(rows) // 2, rows.shape[1]
    first, second = rows[0:2 * h:2], rows[1:2 * h:2]
    if reverse:
        first, second = second, first
    # (first @ QQ)[j, i * k + l] = sum_m first[j, m] Q[i, m] Q[m, l], in
    # products of at most PAIR_MACS multiply-adds each
    QQ = (Q.T[:, :, None] * Q[:, None, :]).reshape(k, k * k)
    P = np.empty((h, k * k))
    step = max(1, PAIR_MACS // k ** 3)
    for j in range(0, h, step):
        np.matmul(first[j:j + step], QQ, out=P[j:j + step])
    P *= np.tile(second, k)
    P = P.reshape(h, k, k)
    return P.transpose(0, 2, 1) if reverse else P


def _step(prev, Q, b, alpha, c):
    """One step of the forward recursion for every row: ``alpha`` receives
    ``(prev @ Q) * b`` scaled to sum 1 and ``c`` its sum; rows that sum to 0
    stay 0."""
    a = (prev @ Q) * b
    c[:] = _rowsum(a)
    np.divide(a, np.where(c > 0.0, c, 1.0)[:, None], out=alpha)


def _draw_table(alpha, QT, u):
    """Total weights ``s[t, j]`` and the drawn states ``F[t, j]`` (as a flat
    row-major list) for every step t of a block and next state j."""
    k = QT.shape[0]
    W = alpha[:, None, :] * QT          # W[t, j, i] = alpha[t, i] Q[i, j], i contiguous
    if k >= 8:
        s = W.sum(axis=2)
    for i in range(1, k):
        W[:, :, i] += W[:, :, i - 1]    # the running sums, added as cumsum adds them
    if k < 8:
        s = W[:, :, k - 1]
    target = u[:, None] * s
    F = np.zeros(s.shape, dtype=np.intp)
    for i in range(k - 1):
        F += W[:, :, i] < target
    return s, F.ravel().tolist()


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
    for t0 in range(1, n, CHUNK):
        t1 = min(t0 + CHUNK, n)
        b = B[t0:t1]
        # the laws at offsets 1, 3, ...; each row and each product is scaled
        # to sum 1, and every temporary is freed before the steps
        odd = _prefix(alpha[t0 - 1], _unit(_pairs(Q, _unit(b.copy(), 1)), (1, 2)), True)
        prev = np.concatenate([alpha[t0 - 1:t0], odd[:(t1 - t0 - 1) // 2]])
        _step(prev, Q, b[0::2], alpha[t0:t1:2], c[t0:t1:2])
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
    for t1 in range(n - 1, 0, -CHUNK):
        t0 = max(t1 - CHUNK, 0)
        # step r of the reversed block gives beta[t1 - 1 - r] from beta[t1 - r]
        b, cb = B[t1:t0:-1], c[t1:t0:-1, None]
        odd = _prefix(beta[t1], _pairs(Q, b / cb, reverse=True), False)  # steps 1, 3, ...
        rev = beta[t1 - 1:None if t0 == 0 else t0 - 1:-1]
        following = np.concatenate([beta[t1:t1 + 1], odd[:(t1 - t0 - 1) // 2]])
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
    for t1 in range(n - 1, 0, -CHUNK):
        t0 = max(t1 - CHUNK, 0)
        s, table = _draw_table(alpha[t0:t1], QT, u[t0:t1])
        path = [0] * (t1 - t0)
        x = int(states[t1])
        for r in range(t1 - t0 - 1, -1, -1):
            x = table[r * k + x]
            path[r] = x
        states[t0:t1] = path
        if np.any(s[np.arange(t1 - t0), states[t0 + 1:t1 + 1]] <= 0.0):
            states[0] = -1
            return states
    return states
