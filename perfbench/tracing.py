"""Span tracing of thermowave from outside the package.

``Tracer.install`` wraps every public function of the eight modules, the
public methods of their classes, and ``LinearReference.__init__``.  The
modules import each other's functions by name (``stepper.resolvent_solve``,
``cli.run``, ``convergence.run`` ...), so every module global bound to a
wrapped function is rebound, not only the defining one.  Spans (name,
start, end, parent, job) stay in memory; ``write`` dumps them when the
child process ends and ``layer_metrics`` derives self times and per-step
ratios.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("cli", "operators", "nonlinearity", "stepper", "diagnostics",
          "oracle", "convergence", "profiles")

SETUP, JOB, COVERAGE = 0, 1, 2  # span job ids: set-up, timed job, coverage pass

# The tail percentile is the highest of these with at least ten samples
# beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Tracer:
    def __init__(self):
        self.names = []          # span-name table, index = name id
        self.spans = []          # (name id, start ns, end ns, parent index, job)
        self.newton_iters = 0    # from the StepReport of every traced step
        self.job = SETUP
        self._stack = []

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        is_step = name == "stepper.step"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.job)
            if is_step:
                self.newton_iters += out[1].newton_iters
            return out

        return traced

    def install(self):
        modules = [importlib.import_module(f"thermowave.{m}") for m in LAYERS]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(obj, meth, self._wrap(f"{layer}.{attr}.{meth}", fn))
        import thermowave
        ref = thermowave.oracle.LinearReference  # its construction is a layer metric
        ref.__init__ = self._wrap("oracle.LinearReference.__init__", ref.__init__)
        for mod in [thermowave] + modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and not attr.startswith("__"):
                    setattr(mod, attr, wrapped[id(obj)])

    def write(self, path):
        with open(path, "w") as f:
            f.write("name\tstart_ns\tend_ns\tparent\tjob\n")
            for name_id, start, end, parent, job in self.spans:
                f.write(f"{self.names[name_id]}\t{start}\t{end}\t{parent}\t{job}\n")

    def layer_metrics(self) -> dict:
        """Per-layer figures from the spans; times in the unit of the name."""
        names = self.names
        n = len(self.spans)
        dur = [end - start for _, start, end, _, _ in self.spans]
        child = [0] * n
        in_step = [False] * n
        by_name = {}
        step_id = names.index("stepper.step")
        for i, (name_id, _, _, parent, job) in enumerate(self.spans):
            by_name.setdefault((job, names[name_id]), []).append(i)
            if parent >= 0:
                child[parent] += dur[i]
                in_step[i] = in_step[parent] or self.spans[parent][0] == step_id

        def spans(name, job=JOB):
            return by_name.get((job, name), [])

        def layer(prefix):
            return [i for (job, name), idx in by_name.items()
                    if job == JOB and name.startswith(prefix + ".") for i in idx]

        def total(idx, self_time=False):
            return sum(dur[i] - (child[i] if self_time else 0) for i in idx)

        def mean_us(idx):
            return total(idx) / len(idx) / 1e3 if idx else 0.0

        steps = spans("stepper.step")
        n_steps = len(steps)
        step_us = sorted(dur[i] / 1e3 for i in steps)
        tail = next((p for p in TAIL_LADDER if n_steps * (1 - p / 100) >= 10), 50.0)
        resolvent = spans("operators.resolvent_solve")
        energy = spans("diagnostics.energy")
        samples = spans("oracle.LinearReference.sample")
        return {
            "stepper.us_per_step": total(steps) / n_steps / 1e3,
            "stepper.step_p50_us": _percentile(step_us, 50.0),
            "stepper.step_tail_us": _percentile(step_us, tail),
            "stepper.step_tail_pct": tail,
            "stepper.newton_iters_per_step": self.newton_iters / n_steps,
            "stepper.solve_phi_us_per_iter":
                total(spans("stepper.solve_phi")) / 1e3 / max(self.newton_iters, 1),
            "stepper.phi_equation_rhs_us": mean_us(spans("stepper.phi_equation_rhs")),
            "stepper.step_self_us": total(steps, self_time=True) / n_steps / 1e3,
            "operators.resolvent_solve_calls_per_step": len(resolvent) / n_steps,
            "operators.resolvent_solve_us": mean_us(resolvent),
            "operators.apply_calls_per_step":
                len(spans("operators.DiscreteOperator.apply")) / n_steps,
            "operators.build_bundle_s": total(spans("operators.build_bundle", SETUP)) / 1e9,
            "nonlinearity.pointwise_us_per_step":
                total(layer("nonlinearity"), self_time=True) / n_steps / 1e3,
            "diagnostics.energy_calls_per_step": len(energy) / n_steps,
            "diagnostics.energy_us": mean_us(energy),
            "diagnostics.self_s":
                total([i for i in layer("diagnostics") if not in_step[i]], self_time=True) / 1e9,
            "oracle.reference_build_s": total(spans("oracle.LinearReference.__init__")) / 1e9,
            "oracle.sample_calls": len(samples),
            "oracle.sample_s": total(samples) / 1e9,
            "convergence.error_norms_self_s":
                total(spans("convergence.error_norms"), self_time=True) / 1e9,
            "profiles.make_initial_us": mean_us(spans("profiles.make_initial", SETUP)),
            "cli.validate_config_us": mean_us(spans("cli.validate_config", SETUP)),
            "cli.self_s": total(layer("cli"), self_time=True) / 1e9,
        }


def _percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]
