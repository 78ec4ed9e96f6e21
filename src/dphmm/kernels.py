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

Forward filter, as a prefix scan over chunks (``_filter_block``). The
filtered law is ``alpha_t ∝ alpha_{t-1} Q diag(B_t)``, so the laws of a
block are the prefix products of the matrices ``Q diag(B_t)`` applied to the
law carried in from the block before. A block of m steps is cut into F full
chunks of L steps and, when L does not divide m, a last, short one; the scan
runs over the chunks in three phases (the blocked two-level form of
Särkkä & García-Fernández, IEEE TAC 2021, on the temporal parallelisation of
HMM inference):

1. ``_chunk_maps`` forms every full chunk's map ``Q diag(b_0) ... Q
   diag(b_{L-1})``, with each step's likelihoods b scaled to sum 1, in one
   chunk-contiguous (k, k, F) array. Each of its L - 1 steps after the
   first is ``np.matmul(Q.T, T)``, k products (k, k) @ (k, F) that share the
   one Q, then a multiply by the step's likelihoods divided by the sum of
   the map's first row (see Guard). A scan over the products of step pairs
   made one small matrix product per pair, each its own BLAS call: 625
   stacked 4 x 4 products took about 23 microseconds, one step of 625
   chunk maps at k = 4 about 5. Each map is scaled to sum 1 at the end.
2. ``_prefix`` scans the F maps by pairing neighbours level by level, then
   fills one buffer of laws from the top level down: each entry the level
   above does not give is one vector-matrix product from its scanned
   predecessor, and every product and law is scaled to sum 1. That is
   log2(F) levels and about F small matrix products, and it gives the law
   before each chunk.
3. L passes of the recursion's own formula, ``a = (prev @ Q) * B[t]``,
   ``c[t] = a.sum()``, ``alpha[t] = a / c[t]``, over all C chunks at once in
   the state-major (k, C) layout: pass r fills step r of every chunk, from
   the scanned law before the chunk when r = 0 and from step r - 1
   otherwise.

So every alpha and c comes from its predecessor by the step formula, and
``c`` follows the draw's 8-entry rule (``_colsum``: row adds below 8 states,
sums of contiguous rows from 8 on, equal to a 1-D ``a.sum()`` bit for bit).
The scan's rounding enters only through the law that starts each chunk, a
direction within a few ulps of the step recursion's, which the chunk's L
steps carry as the recursion carries its own rounding; it does not carry
from one chunk or block to the next. Results agree with the step recursion
to within a few ulps (tests hold alpha and c to 1e-13). A step of zero
likelihood has ``c`` exactly 0 and turns what follows it, in its chunk and
through the maps of later chunks, into NaN under ``np.errstate``; the filter
then clears alpha and c from the first zero on.

The chunk length is ``L = max(2, isqrt(k m // 128))`` (``_chunk_len``), so a
chunk is a pair, the first level of a plain pair scan, up to m = 575 at
k = 2 and m = 287 at k = 4. A map step and a fill pass cost about ten array
calls, a level of the tree about fifteen, and a map product grows with k, so
the best L grows with m and k. An in-process sweep over k = 2, 3, 4, 6, 8
and 16, m = 99, 499, 1999, 9999 and each k's block length, and L from 2 to
64, put the best L at 2 to 4 for m = 99, 4 to 10 for m = 499, 4 to 12 for
m = 1999, 6 to 12 at the block lengths of k = 3 to 16 and 20 at 32768
steps (k = 2). The cost is flat to within about 10% over a factor of two
or more in L. The rule's L lies at most 7% above the best at every point
but one: at k = 3, m = 14563 it lies between L = 16 (10% above) and
20 (16%).

Backward messages, as a prefix scan over pairs. They scan the matrices
``diag(B_t / c_t) Q^T`` from the end. ``_pairs`` forms the first level of
pairs straight from B and Q, the transposes of ``Q diag(d_2j+1) Q
diag(d_2j)``, from one matrix product with the k x k^2 array ``Q[i, m]
Q[m, l]`` over all block/2 pairs, and ``_prefix`` scans them. With the
forward normalisers these products keep the scale of ``beta``, so no
normalisation is needed. A correction pass of two steps of the recursion's
own formula gives the messages: the even offsets step from the message
carried in and the scanned odd ones, then the odd offsets from those even
ones. Kept scale needs the first level's ``Q[i, m] Q[m, l]`` exact: rounded
once, their fixed errors entered every pair alike and beta's scale drifted
by about 2e-17 per step (3e-12 after 32767 steps at k = 2, where the step
recursion stays within 1e-13 of an extended-precision reference). So the
messages take them as the sum of two arrays (``_products``), the exact
products of Q's 26-bit halves and the small rest, at the cost of a second
product of the same size. The scan's row normalisers follow the 8-entry
rule too (``_rowsum``). Results agree with the step recursion to within a
few ulps (tests hold beta to 1e-12). No scan temporary holds more than
(block/2) k^2 floats, and a block's temporaries are freed before the next
block starts.

Guard. The scan needs every product of a block to keep its rows within
range of each other: normalising a product to sum 1 would otherwise let a
row far below the largest underflow to 0, and a law carried in on that row's
state would be lost (with Q = I and every B row [0.1, 0.9], after 512
steps). When every entry of Q is at least ``SCAN_MIN_Q``, each row of a
forward product is at least ``Q.min()`` times any other, and each backward
product stays below ``Q.min() ** -2``, so nothing under- or overflows. While
a chunk map is formed, the sum of its first row falls by at most a factor
``Q.min()`` per step (a step from a first row summing to 1, with likelihoods
summing to 1), and dividing each step by it keeps every entry below
``k / Q.min()``. The likelihoods are scaled to sum 1 before that division,
not divided by the product of the two sums, which underflows where
neither does (likelihoods of 1e-240 against a row sum of 1e-90). A
smaller entry (a zero in a reducible or left-to-right chain, say) sends the
filter and the messages through the step recursion instead; the table draw
needs no guard.

Cost. A map step or a pair product costs k^3 per step against the step
recursion's k^2, and each block pays a fixed cost of a few dozen array
calls, whatever k is.
So blocks are as long as ``TABLE_FLOATS`` (2^17 floats, 1 MB) allows:
32768 steps at k = 2, 8192 at k = 4, 2048 at k = 8 and 512 at k = 16. Small
k pays the fixed cost seldom and large k keeps the draw's table in cache;
with 2048-step blocks the 4 MB table at k = 16 took the draw 2.3 times as
long. The budget comes from an in-process sweep over k = 2, 3, 4, 6, 8 and
16 at n = 2000 and 20000: half of it made the filter slower than 2048-step
blocks at k = 8 and 16, and twice of it slowed the draw at n = 20000 from
k = 4 on, by up to 1.4 times. Under it the block-wide products, the
filter's ``Q.T @ prev`` over at most (block + 1) / 2 chunks and the
messages' ``(b * following) @ Q.T`` over at most (block + 1) / 2 rows,
take at most half the budget plus k^2 multiply-adds, and each of a map
step's k products k^2 F, at most half the budget: below ``PAIR_MACS`` for
every k up to 512. The messages' first-level product is split into calls
of at most ``PAIR_MACS`` multiply-adds, which OpenBLAS runs on one thread:
with two BLAS threads on a 2-core host, one threaded call per block made
the filter 3 times slower at k = 12. Measured in process on a 2-core x86-64
host with numpy 2.4 at n = 20000, best of interleaved calls, the filter
took about 59, 116 and 207 ns per step at k = 2, 4 and 6, against 129, 213
and 318 for a scan over step pairs (side by side), and the messages about
90, 140 and 155 (120, 135 and 175 with 2048-step blocks and one rounded
product). At n = 100, where a chunk is a pair, a call took about 124
microseconds at k = 2 and 137 at k = 4, level with the pair scan (122 and
137); the step loop took 325. At n = 2000 the scan is level with the step
loop at k = 32 (7.8 against 7.2 ms) and behind it at k = 48 (20.9 against
7.8 ms), where a block is 56 steps and its fixed cost returns; below about
30 steps the loop is ahead by up to 40 microseconds per call. Neither is
branched on. A column pass is one array call over a
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


def _products(Q):
    """Two k x k^2 arrays whose sum holds ``QQ[m, i * k + l] = Q[i, m] Q[m, l]``
    to within 2^-79: the products of Q's 26-bit halves (which are exact) and
    the rest."""
    k = Q.shape[0]
    t = 134217729.0 * Q          # (2^27 + 1) Q: Veltkamp's split into 26-bit halves
    hi = t - (t - Q)
    lo = Q - hi
    rest = hi.T[:, :, None] * lo[:, None, :] + lo.T[:, :, None] * Q[:, None, :]
    return (hi.T[:, :, None] * hi[:, None, :]).reshape(k, k * k), rest.reshape(k, k * k)


def _pairs(QQ, rows):
    """The products ``diag(rows[2j]) Q^T diag(rows[2j + 1]) Q^T`` of adjacent
    rows, shaped (h, k, k), from one matrix product per array of
    ``_products`` over all h pairs: the transposes of ``Q diag(rows[2j + 1])
    Q diag(rows[2j])``."""
    h, k = len(rows) // 2, rows.shape[1]
    first, second = rows[1:2 * h:2], rows[0:2 * h:2]
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
    return P.transpose(0, 2, 1)


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


def _chunk_len(m, k):
    """Steps per chunk of the forward filter for a block of m steps at k
    states."""
    return max(2, isqrt(k * m // 128))


def _colsum(a, out):
    """The sums over states of a state-major (k, C) array ``a`` into ``out``,
    bit for bit the 1-D ``sum`` of each column: row adds below 8 states and
    the sums of contiguous rows from 8 on."""
    if a.shape[0] >= 8:
        return np.ascontiguousarray(a.T).sum(axis=1, out=out)
    return np.add.reduce(a, axis=0, out=out)


def _chunk_maps(Q, b):
    """The maps ``Q diag(b[:, 0, f]) Q diag(b[:, 1, f]) ... Q diag(b[:, L - 1,
    f])`` of F chunks, each scaled to sum 1, shaped (F, k, k), from the
    (k, L, F) likelihoods ``b``."""
    k, L, F = b.shape
    b = b / b.sum(axis=0)   # each step's likelihoods scaled to sum 1
    T = Q[:, :, None] * b[:, 0]     # T[i, l, f]: chunk f's map so far
    for r in range(1, L):
        # k products (k, k) @ (k, F) with the one Q, then the step's
        # likelihoods, with the map scaled to a first row summing to 1
        w = b[:, r] / T[0].sum(axis=0)
        T = np.matmul(Q.T, T)
        T *= w
    T /= T.reshape(k * k, F).sum(axis=0)
    return np.ascontiguousarray(T.transpose(2, 0, 1))


def _filter_block(law, Q, b, alpha, c):
    """Fill ``alpha`` and ``c`` for the m steps of ``b`` from the law
    carried in."""
    m, k = b.shape
    L = _chunk_len(m, k)
    F, C = m // L, -(-m // L)
    e = m - F * L   # the steps of a last, short chunk
    bt = np.zeros((k, L, C))    # bt[:, r, j]: step r of chunk j, 0 past the block's end
    bt[:, :, :F] = b[:F * L].reshape(F, L, k).transpose(2, 1, 0)
    if e:
        bt[:, :e, F] = b[F * L:].T
    laws = _prefix(law, _chunk_maps(Q, bt[:, :, :F]), True) if F else law[None]
    A = np.empty((L, k, C))
    cs = np.empty((L, C))
    prev = laws[:C].T
    for r in range(min(L, m)):
        prev = np.matmul(Q.T, prev, out=A[r])
        prev *= bt[:, r]
        prev /= _colsum(prev, cs[r])
    alpha[:F * L].reshape(F, L, k)[...] = A[:, :, :F].transpose(2, 0, 1)
    c[:F * L].reshape(F, L)[...] = cs[:, :F].T
    if e:
        alpha[F * L:] = A[:e, :, F]
        c[F * L:] = cs[:e, F]


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
    block = block_len(k)
    with np.errstate(divide="ignore", invalid="ignore"):
        for t0 in range(1, n, block):
            t1 = min(t0 + block, n)
            _filter_block(alpha[t0 - 1], Q, B[t0:t1], alpha[t0:t1], c[t0:t1])
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
    block, QQ = block_len(k), _products(Q)
    for t1 in range(n - 1, 0, -block):
        t0 = max(t1 - block, 0)
        # step r of the reversed block gives beta[t1 - 1 - r] from beta[t1 - r]
        b, cb = B[t1:t0:-1], c[t1:t0:-1, None]
        # beta[t1], then the messages after steps 1, 3, ...
        following = _prefix(beta[t1], _pairs(QQ, b / cb), False)[:(t1 - t0 + 1) // 2]
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
