"""Hot inner loops of the HMM machinery.

Everything here works on plain arrays: ``mu`` (k,), row-stochastic ``Q``
(k, k) and the per-step emission likelihood matrix ``B`` (n, k) with
``B[t, i] = f_i(y_t)``. There is one build: numpy, vectorised over time in
blocks of ``CHUNK`` steps, so no temporary grows with n; the largest holds
``CHUNK * k * k`` floats.

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
the block before. ``_prefix`` forms them by pairing neighbours: the products
of adjacent pairs are scanned recursively, and each remaining step is one
vector-matrix product from its scanned predecessor. That is log2(CHUNK)
levels and about CHUNK matrix products per block (Särkkä & García-Fernández,
IEEE TAC 2021, on the temporal parallelisation of HMM inference). A
correction pass then recomputes every step with the recursion's own
formula, ``a = (alpha[t-1] @ Q) * B[t]``, ``c[t] = a.sum()``,
``alpha[t] = a / c[t]``, from the scanned law at t - 1, so the normalisers
are those of the step recursion and the scan's rounding does not carry from
one block to the next. The backward messages scan the matrices
``diag(B_t / c_t) Q^T`` from the end: with the forward normalisers these
products keep the scale of ``beta``, so no normalisation is needed, and the
same kind of correction pass follows. The correction pass's ``c`` and the
scan's row normalisers follow the draw's 8-entry rule (``_rowsum``): column
adds below 8 states and ``sum(axis=1)`` from 8 on, equal to
``a.sum(axis=1)`` bit for bit. Results agree with the step recursion to
within a few ulps (tests hold them to 1e-13 for alpha and c, 1e-12 for
beta).

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
and each block pays a fixed cost of a few dozen array calls. Measured on a
2-core x86-64 host with numpy 2.4 at n = 2000, the scan is ahead of the
step loop up to k = 16 and behind from k = 20; below a few dozen steps the
loop is ahead by tens of microseconds per call. Neither is branched on.
A column pass is one array call over a whole block, where a reduction over
an axis only k long pays a fixed cost per row: the draw table makes about
3k such calls per block and a row sum k. At n = 20000 on the same host the
draw took about 170, 245 and 350 ns per step at k = 2, 4 and 6, 1.6 to 2.1
times faster than with the reductions; about 65 ns of it is the Python
walk.
"""
from __future__ import annotations

import numpy as np

CHUNK = 1024            # time steps per vectorised block
SCAN_MIN_Q = 1e-100     # below this transition entry the filter and messages step


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
    """x scaled in place to sum 1 over ``axes``; slices that sum to 0 stay 0."""
    s = _rowsum(x)[:, None] if axes == 1 else x.sum(axis=axes, keepdims=True)
    return np.divide(x, s, out=x, where=s > 0.0)


def _prefix(v, M, normalise):
    """Rows ``v M[0]``, ``v M[0] M[1]``, ..., ``v M[0] ... M[m-1]``.

    Adjacent pairs are multiplied and scanned recursively; the other rows
    take one step from the row before. With ``normalise`` every product and
    row is scaled to sum 1 (only the direction is wanted); without it the
    exact scale is kept.
    """
    m = M.shape[0]
    out = np.empty((m, M.shape[2]))
    h = m // 2
    if h:
        pairs = M[0:2 * h:2] @ M[1:2 * h:2]
        out[1:2 * h:2] = _prefix(v, _unit(pairs, (1, 2)) if normalise else pairs, normalise)
    prev = np.concatenate([v[None], out[1:m - 1:2]])
    even = np.einsum("ti,tij->tj", prev, M[0::2])
    out[0::2] = _unit(even, 1) if normalise else even
    return out


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
        laws = _prefix(alpha[t0 - 1], Q * _unit(b.copy(), 1)[:, None, :], True)
        a = (np.concatenate([alpha[t0 - 1:t0], laws[:-1]]) @ Q) * b
        s = _rowsum(a)
        zero = np.flatnonzero(s <= 0.0)
        stop = t1 if zero.size == 0 else t0 + int(zero[0])
        c[t0:stop] = s[:stop - t0]
        alpha[t0:stop] = a[:stop - t0] / s[:stop - t0, None]
        if stop < t1:
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
        b = B[t0 + 1:t1 + 1] / c[t0 + 1:t1 + 1, None]
        scanned = _prefix(beta[t1], b[::-1, :, None] * Q.T, False)[::-1]
        following = np.concatenate([scanned[1:], beta[t1:t1 + 1]])
        beta[t0:t1] = (B[t0 + 1:t1 + 1] * following) @ Q.T / c[t0 + 1:t1 + 1, None]
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
