"""Scalar-loop reference versions of the ``dphmm.kernels`` functions and
of ``dphmm.hmm.simulate``.

Each kernel loop runs over time steps and states one scalar at a time, with
no vectorised numpy call, so it serves as an independent oracle for the
vectorised kernels in the parity tests. The simulation loop steps the
hidden path with one scalar ``searchsorted`` per step and draws emissions
with ``Generator.choice`` and ``Generator.normal``. The backward draw totals
each step's weights in the order of numpy's 1-D ``sum`` (pairwise from 8
entries), as the kernel's draw table does, so the two draw the same path
even when a uniform lands on a running sum.
"""
import numpy as np

from dphmm import TranslatedEmission


def forward_filter_loops(mu, Q, B):
    n, k = B.shape
    alpha = np.zeros((n, k))
    c = np.zeros(n)
    s = 0.0
    for i in range(k):
        v = mu[i] * B[0, i]
        alpha[0, i] = v
        s += v
    c[0] = s
    if s <= 0.0:
        for i in range(k):
            alpha[0, i] = 0.0
        c[0] = 0.0
        return alpha, c
    for i in range(k):
        alpha[0, i] /= s
    for t in range(1, n):
        s = 0.0
        for j in range(k):
            acc = 0.0
            for i in range(k):
                acc += alpha[t - 1, i] * Q[i, j]
            v = acc * B[t, j]
            alpha[t, j] = v
            s += v
        c[t] = s
        if s <= 0.0:
            for j in range(k):
                alpha[t, j] = 0.0
            c[t] = 0.0
            return alpha, c
        for j in range(k):
            alpha[t, j] /= s
    return alpha, c


def backward_messages_loops(Q, B, c, alpha):
    # alpha, which the kernel scales its scanned messages by, is not used
    n, k = B.shape
    beta = np.zeros((n, k))
    for i in range(k):
        beta[n - 1, i] = 1.0
    for t in range(n - 2, -1, -1):
        for i in range(k):
            acc = 0.0
            for j in range(k):
                acc += Q[i, j] * B[t + 1, j] * beta[t + 1, j]
            beta[t, i] = acc / c[t + 1]
    return beta


def _pairwise_sum(a, lo, n):
    """Sum of ``a[lo:lo + n]`` in the order numpy's 1-D ``sum`` adds a
    contiguous float64 vector: one entry at a time below 8 entries, eight
    interleaved partial sums up to 128, and halves split at a multiple of 8
    above that."""
    if n < 8:
        s = 0.0
        for i in range(n):
            s += a[lo + i]
        return s
    if n <= 128:
        r = [a[lo + j] for j in range(8)]
        i = 8
        while i < n - n % 8:
            for j in range(8):
                r[j] += a[lo + i + j]
            i += 8
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        while i < n:
            s += a[lo + i]
            i += 1
        return s
    half = n // 2
    half -= half % 8
    return _pairwise_sum(a, lo, half) + _pairwise_sum(a, lo + half, n - half)


def ffbs_loops(Q, alpha, u):
    n, k = alpha.shape
    states = np.empty(n, dtype=np.int64)
    target = u[n - 1]
    acc = 0.0
    idx = k - 1
    total = 0.0
    for i in range(k):
        total += alpha[n - 1, i]
    target *= total
    for i in range(k):
        acc += alpha[n - 1, i]
        if target <= acc:
            idx = i
            break
    states[n - 1] = idx
    for t in range(n - 2, -1, -1):
        w = [alpha[t, i] * Q[i, states[t + 1]] for i in range(k)]
        s = _pairwise_sum(w, 0, k)
        if s <= 0.0:
            states[0] = -1
            return states
        target = u[t] * s
        acc = 0.0
        idx = k - 1
        for i in range(k):
            acc += w[i]
            if target <= acc:
                idx = i
                break
        states[t] = idx
    return states


def simulate_loops(params, n, rng):
    k = params.k
    u = rng.random(n)
    row_cums = np.cumsum(params.trans.rows, axis=1)
    states = np.empty(n, dtype=np.int64)
    states[0] = min(int(np.searchsorted(np.cumsum(params.mu), u[0])), k - 1)
    for t in range(1, n):
        states[t] = min(int(np.searchsorted(row_cums[states[t - 1]], u[t])), k - 1)
    obs = np.empty(n, dtype=np.int64 if params.discrete else np.float64)
    for i in range(k):
        idx = np.nonzero(states == i)[0]
        if idx.size:
            obs[idx] = _emission_loops(params.emissions[i], rng, idx.size)
    return states, obs


def _emission_loops(e, rng, size):
    if isinstance(e, TranslatedEmission):
        return _emission_loops(e.base, rng, size) + e.shift
    if e.discrete:
        return rng.choice(e.pmf.size, size=size, p=e.pmf)
    comp = rng.choice(e.n_atoms, size=size, p=e.weights)
    return rng.normal(e.locations[comp], e.scales[comp])
