"""Outside-in spans around the public functions of each entsig module.

The tracer replaces each target function, in every ``entsig`` module
namespace that holds it, with a wrapper that records a span; classes get their
``__init__`` wrapped, so a span covers construction and validation.  The
modules import each other's functions by name (``significance`` calls its own
``outcome_probabilities`` binding), which is why every namespace is patched
and not just the defining one.  Nothing under ``src/entsig`` changes:
``uninstall`` puts every original object back.

Spans are folded into per-name totals as they close.  A span's self time is
its duration minus the time covered by its child spans; calls are also
counted per (parent span, child span) edge so that ratios such as noise
evaluations per crossing search are measured where the work happens.
"""

from __future__ import annotations

import functools
import sys
import time

# layer (module) -> public names that get a span
TARGETS = {
    "cli": ("main",),
    "significance": (
        "significance_sweep", "crossing_point", "monte_carlo_study", "apply_noise",
        "predicted_counts", "sample_counts", "evaluate", "setting_estimate", "CountTable",
    ),
    "inequalities": ("mermin", "ardehali", "outcome_probabilities"),
    "channels": ("apply_to_all", "apply_local", "bit_flip_channel", "white_noise", "experimental_ansatz"),
    "core": ("DensityMatrix", "fidelity_with_pure", "kron_all", "hermitian_eig"),
}


def _probability_flops(args, kwargs) -> float:
    """Nominal cost of one outcome_probabilities call: 8 d^3 real flops for
    the d x d x d complex contraction u^dag rho u (diagonal only)."""
    setting = args[1] if len(args) > 1 else kwargs["setting"]
    return 8.0 * float(2**setting.n_qubits) ** 3


WORK = {"inequalities.outcome_probabilities": _probability_flops}


class Tracer:
    """Install with ``install()``, read with ``snapshot()``, clear with
    ``reset()``, remove with ``uninstall()``."""

    def __init__(self):
        self._stack: list[list] = []  # open spans: [key, time covered by children]
        self._patches: list[tuple] = []  # (owner, attribute, original)
        self.reset()

    def reset(self) -> None:
        keys = [f"{mod}.{name}" for mod, names in TARGETS.items() for name in names]
        self.calls = dict.fromkeys(keys, 0)
        self.self_s = dict.fromkeys(keys, 0.0)
        self.work = dict.fromkeys(keys, 0.0)
        self.edges: dict[tuple, int] = {}

    def _wrap(self, key: str, fn):
        stack, calls, self_s, work, edges = self._stack, self.calls, self.self_s, self.work, self.edges
        clock = time.perf_counter
        cost = WORK.get(key)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                edge = (parent[0] if parent else None, key)
                edges[edge] = edges.get(edge, 0) + 1
                calls[key] += 1
                self_s[key] += duration - frame[1]
                if cost is not None:
                    work[key] += cost(args, kwargs)

        return span

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items() if name == "entsig" or name.startswith("entsig.")]
        for mod, names in TARGETS.items():
            defining = sys.modules[f"entsig.{mod}"]
            for name in names:
                key = f"{mod}.{name}"
                original = getattr(defining, name)
                if isinstance(original, type):
                    init = original.__init__
                    self._patches.append((original, "__init__", init))
                    setattr(original, "__init__", self._wrap(key, init))
                    continue
                wrapper = self._wrap(key, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def snapshot(self) -> dict:
        """Per-name calls, self time and nominal work, plus edge counts."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "work": dict(self.work),
            "edges": dict(self.edges),
        }


def layer_metrics(snap: dict, items: int) -> dict:
    """Per-layer metrics for one round of a workload: ``(value, unit)`` by name.

    ``items`` is the number of work items in the round (grid points, crossing
    searches or Monte Carlo trials), the base of every ``calls_per_item``.
    """
    out = {}
    for mod, names in TARGETS.items():
        total = 0.0
        for name in names:
            key = f"{mod}.{name}"
            out[f"{key}.calls"] = (snap["calls"][key], "calls/round")
            out[f"{key}.self_s"] = (snap["self_s"][key], "s/round")
            total += snap["self_s"][key]
        out[f"{mod}.self_s"] = (total, "s/round")
    searches = snap["calls"]["significance.crossing_point"]
    evals = snap["edges"].get(("significance.crossing_point", "significance.apply_noise"), 0)
    out["significance.crossing_point.evals_per_search"] = (evals / searches if searches else 0.0, "evals/search")
    out["inequalities.outcome_probabilities.calls_per_item"] = (
        snap["calls"]["inequalities.outcome_probabilities"] / items, "calls/item")
    out["core.DensityMatrix.calls_per_item"] = (snap["calls"]["core.DensityMatrix"] / items, "calls/item")
    prob_s = snap["self_s"]["inequalities.outcome_probabilities"]
    prob_flops = snap["work"]["inequalities.outcome_probabilities"]
    out["inequalities.outcome_probabilities.gflops"] = (prob_flops / prob_s / 1e9 if prob_s > 0 else 0.0, "GFLOP/s")
    return out
