"""Span tracing of refcalc from outside the package.

Tracer.install() replaces every public function of each refcalc module with a
recording wrapper, under every name a refcalc module holds it by: wrapping
refcalc.quadrature.integrate also rebinds refcalc.turnout.integrate, which
was imported by name. Distribution methods are wrapped on their classes, the
integrands handed to the quadrature layer are wrapped at each call, and the
sweep's process pool is swapped for a subclass that records its lifetime.
uninstall() puts every original back.

Each call is a span with a name, start, end, parent and job id. Calls that
run on the order of 10^5 times per pass (distribution methods, integrand
evaluations and the small helpers they call) are only aggregated per
(name, parent); all others are also kept as individual spans. Self time is
a span's duration minus the time of its child spans.

Spans are recorded in this process only. The sweep pool's worker processes
are forked with the wrappers in place, but what they record is lost with
them, so on sweep_pool the per-layer figures cover the parent process.
"""

from __future__ import annotations

import inspect
import os
import sys
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

LAYERS = (
    "distributions", "quadrature", "model", "election", "thresholds",
    "congruence", "third_party", "turnout", "oracle", "scenario", "cli",
)
_DIST_CLASSES = ("DistributionSpec", "TruncatedDistribution")
_TRUNCATED_PARENTS = (
    "distributions.TruncatedDistribution.pdf",
    "distributions.TruncatedDistribution.cdf",
)
# Helpers called once per integrand evaluation: aggregated, not kept as spans.
_HOT = {
    "election.lambda_win", "election.right_share_multi",
    "election.win_given_shock", "third_party.lambda_hat",
}
INTEGRAND = "<integrand>"

# Per-function metrics: "<name>.calls" and "<name>.s" (inclusive seconds).
FUNCTION_METRICS = (
    "election.win_prob", "election.net_benefit",
    "congruence.second_issue_congruence",
    "congruence.traditional_issue_congruence",
    "congruence.classify_congruence_region",
    "thresholds.gamma_star", "thresholds.r_bind", "thresholds.r_star",
    "thresholds.r_star_star",
    "third_party.phi", "third_party.win_prob_third",
    "third_party.net_benefit_third", "third_party.worse_off_condition",
)


def _is_hot(name):
    return (
        name.startswith("distributions.") or name.startswith("model.")
        or name.endswith(INTEGRAND) or name in _HOT
    )


def _layer_of(fn):
    module = getattr(fn, "__module__", None) or ""
    return module.rsplit(".", 1)[-1] if module.startswith("refcalc.") else "external"


class Tracer:
    def __init__(self):
        self._patched = []
        self.reset()

    # ------------------------------------------------------------ recording
    def reset(self):
        self.job = None
        self._stack = []
        self._depth = defaultdict(int)
        self._next_id = 0
        self.spans = []  # (id, name, start, end, parent_id, parent_name, job)
        # (name, parent) -> [calls, outermost inclusive s, self s]
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])
        self.scalar_calls = 0
        self.array_calls = 0
        self.truncated_mass_cdf_calls = 0
        self.integrand_evals = 0
        self.intensity_integrand_evals = 0
        self.nested_integrate_calls = 0
        self.failures = defaultdict(int)
        self.brent_iterations = 0
        self.intensity_args = set()
        self.simulations = []  # (mode, agent_level, voters, replications, s)

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else None
        frame = [name, 0.0, self._next_id, parent, perf_counter()]
        self._next_id += 1
        self._stack.append(frame)
        self._depth[name] += 1
        return frame

    def _exit(self, frame):
        end = perf_counter()
        name, child_s, span_id, parent, start = frame
        self._stack.pop()
        self._depth[name] -= 1
        dur = end - start
        parent_name = None
        if parent is not None:
            parent[1] += dur
            parent_name = parent[0]
        entry = self.agg[(name, parent_name)]
        entry[0] += 1
        if not self._depth[name]:
            entry[1] += dur
        entry[2] += dur - child_s
        if not _is_hot(name):
            self.spans.append(
                (span_id, name, start, end, parent and parent[2], parent_name, self.job)
            )
        return dur

    def _span(self, name, fn, on_result=None, on_error=None):
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                self._exit(frame)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__name__, wrapper.__qualname__ = fn.__name__, fn.__qualname__
        wrapper.__module__, wrapper.__doc__ = fn.__module__, fn.__doc__
        return wrapper

    def _integrand(self, f, count):
        name = f"{_layer_of(f)}.{INTEGRAND}"

        def wrapped(x):
            if count:
                self.integrand_evals += 1
                if self._depth["turnout.intensity"]:
                    self.intensity_integrand_evals += 1
            frame = self._enter(name)
            try:
                return f(x)
            finally:
                self._exit(frame)

        return wrapped

    # ------------------------------------------------------ special wrappers
    def _wrap_integrate(self, fn):
        errors = sys.modules["refcalc.errors"]

        def integrate(f, a, b, *args, **kwargs):
            if self._depth["quadrature.integrate"]:
                self.nested_integrate_calls += 1
            return inner(self._integrand(f, True), a, b, *args, **kwargs)

        def failed(exc):
            if isinstance(exc, errors.QuadratureError):
                self.failures["quadrature"] += 1

        inner = self._span("quadrature.integrate", fn, on_error=failed)
        integrate.__name__ = integrate.__qualname__ = "integrate"
        integrate.__module__ = fn.__module__
        return integrate

    def _wrap_integrate_shock(self, fn):
        inner = self._span("quadrature.integrate_shock", fn)

        def integrate_shock(f, *args, **kwargs):
            return inner(self._integrand(f, False), *args, **kwargs)

        integrate_shock.__module__ = fn.__module__
        return integrate_shock

    def _wrap_distribution(self, name, fn):
        is_cdf = name == "distributions.DistributionSpec.cdf"

        def method(obj, x, *args, **kwargs):
            if getattr(x, "ndim", 0):
                self.array_calls += 1
            else:
                self.scalar_calls += 1
            if is_cdf and self._stack and self._stack[-1][0] in _TRUNCATED_PARENTS:
                self.truncated_mass_cdf_calls += 1
            frame = self._enter(name)
            try:
                return fn(obj, x, *args, **kwargs)
            finally:
                self._exit(frame)

        return method

    def _wrap_function(self, name, fn):
        errors = sys.modules["refcalc.errors"]
        if name == "quadrature.integrate":
            return self._wrap_integrate(fn)
        if name == "quadrature.integrate_shock":
            return self._wrap_integrate_shock(fn)
        if name == "turnout.intensity":
            inner = self._span(name, fn)

            def intensity(b_J, tp, *args, **kwargs):
                self.intensity_args.add((b_J, tp, args, tuple(sorted(kwargs.items()))))
                return inner(b_J, tp, *args, **kwargs)

            intensity.__module__ = fn.__module__
            return intensity
        if name.startswith("thresholds."):
            def iterations(result):
                self.brent_iterations += getattr(result, "iterations", 0)

            def failed(exc):
                if isinstance(exc, errors.RootFindError):
                    self.failures["thresholds"] += 1

            return self._span(name, fn, iterations, failed)
        if name == "oracle.simulate":
            def simulate(target, regime, config):
                frame = self._enter(name)
                try:
                    return fn(target, regime, config)
                finally:
                    dur = self._exit(frame)
                    self.simulations.append((
                        config.mode, config.agent_level,
                        config.n_policy_voters, config.n_replications, dur,
                    ))

            simulate.__module__ = fn.__module__
            return simulate
        if name == "cli.main":
            def main(argv=None):
                frame = self._enter(f"cli.{argv[0]}")
                try:
                    return fn(argv)
                finally:
                    self._exit(frame)

            main.__module__ = fn.__module__
            return main
        return self._span(name, fn)

    def _pool_class(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                self._trace_frame = tracer._enter("cli.pool")
                super().__init__(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    if self._trace_frame is not None:
                        tracer._exit(self._trace_frame)
                        self._trace_frame = None

        return TracedPool

    # --------------------------------------------------------------- patching
    def _rebind(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "refcalc" or mod_name.startswith("refcalc.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        for layer in LAYERS:
            mod = sys.modules[f"refcalc.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                self._rebind(obj, self._wrap_function(f"{layer}.{attr}", obj))
        dist = sys.modules["refcalc.distributions"]
        for cls_name in _DIST_CLASSES:
            cls = getattr(dist, cls_name)
            for attr, obj in list(vars(cls).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                name = f"distributions.{cls_name}.{attr}"
                self._patched.append((cls, attr, obj))
                setattr(cls, attr, self._wrap_distribution(name, obj))
        cli = sys.modules["refcalc.cli"]
        self._patched.append((cli, "ProcessPoolExecutor", cli.ProcessPoolExecutor))
        cli.ProcessPoolExecutor = self._pool_class()

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------------- metrics
    def _by_name(self):
        calls, outer_s, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        for (name, _), (n, incl, own) in self.agg.items():
            calls[name] += n
            outer_s[name] += incl
            self_s[name] += own
        return calls, outer_s, self_s

    def metrics(self, pass_s: float, cpu_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the pass just traced, as name -> (value, unit)."""
        calls, outer_s, self_s = self._by_name()
        layer_self = defaultdict(float)
        for name, own in self_s.items():
            layer_self[name.split(".", 1)[0]] += own
        dist_calls = self.scalar_calls + self.array_calls
        intensity_calls = calls["turnout.intensity"]

        out = {
            "distributions.scalar_calls": (self.scalar_calls, "count"),
            "distributions.array_calls": (self.array_calls, "count"),
            "distributions.self_s": (layer_self["distributions"], "s"),
            "distributions.us_per_call": (
                1e6 * layer_self["distributions"] / dist_calls if dist_calls else 0.0, "us"),
            "distributions.truncated_mass_cdf_calls": (self.truncated_mass_cdf_calls, "count"),
            "quadrature.integrate_calls": (calls["quadrature.integrate"], "count"),
            "quadrature.integrand_evals": (self.integrand_evals, "count"),
            "quadrature.nested_calls": (self.nested_integrate_calls, "count"),
            "quadrature.self_s": (layer_self["quadrature"], "s"),
            "quadrature.failures": (self.failures["quadrature"], "count"),
            "model.calls": (sum(n for k, n in calls.items() if k.startswith("model.")), "count"),
            "model.self_s": (layer_self["model"], "s"),
        }
        for name in FUNCTION_METRICS:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.s"] = (outer_s[name], "s")
        out["thresholds.brent_iterations"] = (self.brent_iterations, "count")
        out["thresholds.failures"] = (self.failures["thresholds"], "count")

        out.update({
            "turnout.intensity.calls": (intensity_calls, "count"),
            "turnout.intensity.distinct": (len(self.intensity_args), "count"),
            "turnout.intensity.useful_ratio": (
                len(self.intensity_args) / intensity_calls if intensity_calls else 0.0, "ratio"),
            "turnout.intensity.s": (outer_s["turnout.intensity"], "s"),
            "turnout.intensity.integrand_evals": (self.intensity_integrand_evals, "count"),
            "turnout.intensity.pass_share": (outer_s["turnout.intensity"] / pass_s, "ratio"),
            "turnout.r_T.s": (outer_s["turnout.r_T"], "s"),
            "turnout.win_prob_turnout.s": (outer_s["turnout.win_prob_turnout"], "s"),
            "turnout.net_benefit_turnout.s": (outer_s["turnout.net_benefit_turnout"], "s"),
        })

        def us_per_rep(select):
            sims = [s for s in self.simulations if select(s)]
            reps = sum(s[3] for s in sims)
            return 1e6 * sum(s[4] for s in sims) / reps if reps else 0.0

        sim_s = sum(s[4] for s in self.simulations)
        draws = sum(s[2] * s[3] for s in self.simulations)
        out["oracle.simulate.calls"] = (len(self.simulations), "count")
        for mode in ("two_party", "third_party", "turnout"):
            out[f"oracle.agents.{mode}.us_per_rep"] = (
                us_per_rep(lambda s, m=mode: s[1] and s[0] == m), "us")
        out["oracle.counts.us_per_rep"] = (us_per_rep(lambda s: not s[1]), "us")
        out["oracle.voter_draws_per_s"] = (draws / sim_s if sim_s else 0.0, "1/s")

        out["scenario.load_s"] = (outer_s["scenario.load_scenario"], "s")
        for command in ("eval", "figure", "sweep", "validate", "pool"):
            out[f"cli.{command}.s"] = (outer_s[f"cli.{command}"], "s")
        out["process.cpu_s"] = (cpu_s, "s")
        return out


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children, such as pool workers."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system
