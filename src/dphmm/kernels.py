"""Hot inner loops of the HMM machinery.

Everything here works on plain arrays: ``mu`` (k,), row-stochastic ``Q``
(k, k) and the per-step emission likelihood matrix ``B`` (n, k) with
``B[t, i] = f_i(y_t)``. There is one build: numpy, vectorised over states
within each time step.
"""
from __future__ import annotations

import numpy as np


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
    for t in range(1, n):
        a = (alpha[t - 1] @ Q) * B[t]
        s = a.sum()
        c[t] = s
        if s <= 0.0:
            c[t] = 0.0
            return alpha, c
        alpha[t] = a / s
    return alpha, c


def backward_messages(Q, B, c):
    """Scaled backward pass: beta[t] with beta[n-1] = 1.

    alpha[t] * beta[t] is the smoothing marginal at t given all observations.
    """
    n, k = B.shape
    beta = np.zeros((n, k))
    beta[n - 1] = 1.0
    for t in range(n - 2, -1, -1):
        beta[t] = (Q @ (B[t + 1] * beta[t + 1])) / c[t + 1]
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
    for t in range(n - 2, -1, -1):
        w = alpha[t] * Q[:, states[t + 1]]
        s = w.sum()
        if s <= 0.0:
            states[0] = -1
            return states
        cs = np.cumsum(w)
        states[t] = min(int(np.searchsorted(cs, u[t] * s)), k - 1)
    return states
