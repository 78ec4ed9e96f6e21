"""Span tracer that wraps dphmm's public functions from the outside.

``Tracer.install`` replaces each traced function on every ``dphmm`` module
that holds it, so calls made through by-name imports (``cli.run_chain``,
``metrics.simulate`` and so on) are traced as well as calls through the
defining module. Spans are kept in memory. A span's self time is its
duration minus the time its child spans cover.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from collections import defaultdict

# The layers' entry points, as (module, function). The package calls each
# of them across a module boundary.
TRACED = (
    ("kernels", "forward_filter"),
    ("kernels", "backward_messages"),
    ("kernels", "ffbs"),
    ("hmm", "emission_matrix"),
    ("hmm", "smoothing_exact"),
    ("hmm", "simulate"),
    ("gibbs", "run_chain"),
    ("gibbs", "gibbs_sweep"),
    ("gibbs", "ffbs_states"),
    ("gibbs", "update_transitions"),
    ("gibbs", "update_discrete_emissions"),
    ("gibbs", "update_mixture_emissions"),
    ("priors", "sample_transition_row"),
    ("priors", "sample_dp_discrete"),
    ("emissions", "l1_distance"),
    ("metrics", "align_labels"),
    ("metrics", "block_l1_distance"),
    ("experiments", "golden_experiment"),
    ("modelio", "write_samples"),
    ("modelio", "read_samples"),
)


def _forward_cost(n, k):
    # Per step: alpha_{t-1} Q (k*k mul-add), times B_t, sum, divide (3k).
    # Reads B_t, writes alpha_t and c_t; Q is read once and stays cached.
    return n * (2 * k * k + 3 * k), n * 8 * (2 * k + 1) + 8 * k * k


def _backward_cost(n, k):
    # Per step: B_{t+1} * beta_{t+1} (k), Q times that (k*k mul-add),
    # divide by c_{t+1} (k). Reads B_{t+1}, beta_{t+1}, c_{t+1}; writes beta_t.
    return n * (2 * k * k + 2 * k), n * 8 * (3 * k + 1) + 8 * k * k


def _ffbs_cost(n, k):
    # Per step: alpha_t * Q[:, x_{t+1}], its sum and cumsum (3k).
    # Reads alpha_t and u_t, writes x_t.
    return n * 3 * k, n * 8 * (k + 2) + 8 * k * k


# Computed operation count and bytes moved per kernel call, from (n, k) and
# the argument that carries the (n, k) shape.
KERNEL_COST = {
    "kernels.forward_filter": (_forward_cost, "B"),
    "kernels.backward_messages": (_backward_cost, "B"),
    "kernels.ffbs": (_ffbs_cost, "alpha"),
}


class _Frame:
    __slots__ = ("name", "child")

    def __init__(self, name):
        self.name = name
        self.child = 0.0


class Tracer:
    """In-memory span and counter records for one process."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.self_by_caller = defaultdict(float)   # (name, caller) -> s
        self.calls_by_caller = defaultdict(int)    # (name, caller) -> count
        self.counters = defaultdict(float)
        self.sweep_s: list[float] = []
        self.sites: list[str] = []

    def _enter(self, name):
        frame = _Frame(name)
        caller = self.stack[-1].name if self.stack else "benchmark"
        self.stack.append(frame)
        return frame, caller, time.perf_counter()

    def _exit(self, frame, caller, t0):
        dt = time.perf_counter() - t0
        self.stack.pop()
        if self.stack:
            self.stack[-1].child += dt
        own = dt - frame.child
        name = frame.name
        self.calls[name] += 1
        self.total[name] += dt
        self.self_time[name] += own
        self.self_by_caller[name, caller] += own
        self.calls_by_caller[name, caller] += 1
        return dt

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark around a call into the package."""
        state = self._enter(name)
        try:
            yield
        finally:
            self._exit(*state)

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = self._exit(*state)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, dt, bound.arguments, result)
            return result

        return traced

    def install(self):
        """Wrap every TRACED function at every dphmm module attribute bound to it."""
        import dphmm  # noqa: F401  (loads every package module)

        modules = sorted((m_name, mod) for m_name, mod in sys.modules.items()
                         if m_name == "dphmm" or m_name.startswith("dphmm."))
        package = dict(modules)
        for mod_name, fn_name in TRACED:
            original = getattr(package[f"dphmm.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for m_name, mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self.sites.append(f"{m_name.removeprefix('dphmm.')}.{attr}")


# ---------------------------------------------------------------------------
# hooks: counts taken at a layer boundary from the call's arguments and result


def _kernel_hook(name):
    cost, shape_arg = KERNEL_COST[name]

    def hook(tracer, dt, arguments, result):
        n, k = arguments[shape_arg].shape
        flops, nbytes = cost(n, k)
        tracer.counters[f"{name}.steps"] += n
        tracer.counters[f"{name}.flops"] += flops
        tracer.counters[f"{name}.bytes"] += nbytes
    return hook


def _sweep_hook(tracer, dt, arguments, result):
    tracer.sweep_s.append(dt)


def _row_hook(tracer, dt, arguments, result):
    tracer.counters[f"priors.row_draws.{result.method}"] += 1


def _block_l1_hook(tracer, dt, arguments, result):
    if arguments["mode"] == "montecarlo":
        tracer.counters["metrics.mc_blocks"] += arguments["n_samples"]
        tracer.counters["metrics.mc_s"] += dt


def _file_hook(name):
    def hook(tracer, dt, arguments, result):
        tracer.counters[f"{name}.bytes"] += os.path.getsize(arguments["path"])
    return hook


_HOOKS = {
    **{name: _kernel_hook(name) for name in KERNEL_COST},
    "gibbs.gibbs_sweep": _sweep_hook,
    "priors.sample_transition_row": _row_hook,
    "metrics.block_l1_distance": _block_l1_hook,
    "modelio.write_samples": _file_hook("modelio.write_samples"),
    "modelio.read_samples": _file_hook("modelio.read_samples"),
}
