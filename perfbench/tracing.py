"""In-memory call tracing of the gaudinlab layers, installed from outside.

`Tracer.install()` wraps every public function and public method of the
traced modules.  The modules import one another's functions by name
(`models` binds `kernel_phi`, `flows` binds `grad_hamiltonian`, ...), and
`verify.SUITES` holds its suite functions in a dict, so each wrapper is
bound into every `gaudinlab` module namespace and module-level dict that
holds the original; otherwise the calls from the layer above go untimed.

One span is kept per call: name, start, end (ns), parent span and run id.
Spans live in flat arrays and are written as JSON once, by `write()`.
`layer_metrics()` turns them into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import os
import sys
import time
from array import array

import numpy as np

LAYERS = ("weierstrass", "liealg", "models", "flows", "univar", "verify", "cli")
SUITES = ("weierstrass", "rational", "elliptic", "univar", "multiform")


def _traced_callables(module):
    """(qualified name, owner, attribute, function) for each public function
    and public method defined in `module`; `__init__` counts for classes
    that write their own (not dataclasses)."""
    layer = module.__name__.rsplit(".", 1)[-1]
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((f"{layer}.{name}", module, name, obj))
        elif inspect.isclass(obj):
            for meth, fn in vars(obj).items():
                own_init = meth == "__init__" and not dataclasses.is_dataclass(obj)
                if inspect.isfunction(fn) and (own_init or not meth.startswith("_")):
                    out.append((f"{layer}.{name}.{meth}", obj, meth, fn))
    return out


def _bindings():
    """(container, key, value, label) for every attribute of a gaudinlab
    module and every value of a module-level dict."""
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "gaudinlab" or name.startswith("gaudinlab.")):
            continue
        for key, value in list(vars(module).items()):
            yield module, key, value, f"{name}.{key}"
            if isinstance(value, dict):
                for k, v in list(value.items()):
                    yield value, k, v, f"{name}.{key}[{k!r}]"


def _bind(container, key, value):
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


class Tracer:
    """Span recorder for one traced run of the gaudinlab CLI."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.kernel_keys: set = set()
        self.steps = 0
        self.csv_bytes = 0
        self.checks = 0
        self._originals: dict[int, object] = {}
        self._wrappers: dict[int, object] = {}
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, span_name, fn):
        nid = len(self.names)
        self.names.append(span_name)
        name, parent, start, end, stack = (self.name, self.parent, self.start,
                                           self.end, self._stack)
        clock = time.perf_counter_ns
        after = self._after_hook(span_name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _after_hook(self, span_name, fn):
        """Counters taken where the work happens, from arguments or results."""
        if span_name == "weierstrass.kernel_phi":
            sig = inspect.signature(fn)

            def record_key(args, kwargs, result):
                a = sig.bind(*args, **kwargs).arguments
                self.kernel_keys.add((complex(a["u"]), complex(a["z"]),
                                      complex(a["pole"])))
            return record_key
        if span_name == "flows.evolve":
            def record_steps(args, kwargs, result):
                self.steps += len(result.states) - 1
            return record_steps
        if span_name == "flows.write_trajectory_csv":
            sig = inspect.signature(fn)

            def record_bytes(args, kwargs, result):
                self.csv_bytes += os.path.getsize(sig.bind(*args, **kwargs).arguments["path"])
            return record_bytes
        if span_name.startswith("verify.suite_"):
            def record_checks(args, kwargs, result):
                self.checks += len(result)
            return record_checks
        return None

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the traced layers and rebind every wrapper by identity."""
        import gaudinlab.cli  # noqa: F401  (imports every traced module)

        for layer in LAYERS:
            module = sys.modules[f"gaudinlab.{layer}"]
            for span_name, owner, attr, fn in _traced_callables(module):
                self._originals[id(fn)] = fn
                self._wrappers[id(fn)] = self._wrap(span_name, fn)
                if inspect.isclass(owner):
                    self._restore.append((owner, attr, fn))
                    setattr(owner, attr, self._wrappers[id(fn)])
        for container, key, value, _ in _bindings():
            if self._is_original(value):
                self._restore.append((container, key, value))
                _bind(container, key, self._wrappers[id(value)])
        return self

    def _is_original(self, value):
        return id(value) in self._originals and self._originals[id(value)] is value

    def unwrapped_bindings(self):
        """Names in gaudinlab namespaces that still hold a traced original."""
        return [label for _, _, value, label in _bindings() if self._is_original(value)]

    def uninstall(self):
        for container, key, original in reversed(self._restore):
            _bind(container, key, original)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def write(self, path):
        """The spans as columns: name index, start/end ns, parent index."""
        payload = {
            "run_id": self.run_id,
            "names": self.names,
            "columns": ["name", "start_ns", "end_ns", "parent"],
            "name": self.name.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _pct_us(durations_ns, q):
    return float(np.percentile(durations_ns, q)) / 1e3 if len(durations_ns) else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts, self times and per-call percentiles from the spans."""
    name = np.frombuffer(tracer.name, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    start = np.frombuffer(tracer.start, dtype=np.int64)
    dur = np.frombuffer(tracer.end, dtype=np.int64) - start
    child = np.zeros(len(dur), dtype=np.int64)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    self_ns = np.bincount(name, weights=dur - child, minlength=len(tracer.names))
    calls = np.bincount(name, minlength=len(tracer.names))
    ids = {n: i for i, n in enumerate(tracer.names)}

    def ids_of(*span_names):
        return [ids[n] for n in span_names]

    def n_calls(*span_names):
        return int(sum(calls[i] for i in ids_of(*span_names)))

    def durations(span_name):
        return dur[name == ids[span_name]]

    def total_s(span_name):
        return float(durations(span_name).sum()) / 1e9

    def self_s(prefix):
        return float(sum(self_ns[i] for i, n in enumerate(tracer.names)
                         if n.startswith(prefix))) / 1e9

    evolve = name == ids["flows.evolve"]
    ev_start, ev_end = start[evolve], start[evolve] + dur[evolve]

    def calls_in_evolve(span_name):
        s = start[name == ids[span_name]]
        k = np.searchsorted(ev_start, s, side="right") - 1
        return int(np.sum((k >= 0) & (s < ev_end[np.maximum(k, 0)])))

    steps = tracer.steps
    n_kernel = n_calls("weierstrass.kernel_phi")
    m = {
        "weierstrass.self_s": self_s("weierstrass."),
        "weierstrass.kernel_phi.calls": n_kernel,
        "weierstrass.kernel_phi.p50_us": _pct_us(durations("weierstrass.kernel_phi"), 50),
        "weierstrass.kernel_phi.per_step":
            calls_in_evolve("weierstrass.kernel_phi") / steps if steps else 0.0,
        "weierstrass.kernel_phi.unique_frac":
            len(tracer.kernel_keys) / n_kernel if n_kernel else 0.0,
        "weierstrass.eval.calls": n_calls("weierstrass.weierstrass_eval",
                                          "weierstrass.zeta_eval",
                                          "weierstrass.sigma_eval"),
        "weierstrass.lattice_distance.calls": n_calls("weierstrass.lattice_distance"),
        "weierstrass.build_cache.calls": n_calls("weierstrass.build_cache"),
        "weierstrass.oracle.self_s": self_s("weierstrass.LatticeSumOracle."),
        "liealg.self_s": self_s("liealg."),
        "liealg.matrix_exponential.calls": n_calls("liealg.matrix_exponential"),
        "liealg.invariant.calls": n_calls("liealg.InvariantPolynomial.evaluate",
                                          "liealg.InvariantPolynomial.gradient"),
        "models.self_s": self_s("models."),
        "models.lax_matrix.calls": n_calls("models.lax_matrix"),
        "models.lax_matrix.p50_us": _pct_us(durations("models.lax_matrix"), 50),
        "models.grad_hamiltonian.calls": n_calls("models.grad_hamiltonian"),
        "models.grad_hamiltonian.p50_us": _pct_us(durations("models.grad_hamiltonian"), 50),
        "models.grad_hamiltonian.p90_us": _pct_us(durations("models.grad_hamiltonian"), 90),
        "models.orbit_elements.calls": n_calls("models.orbit_elements"),
        "models.orbit_elements.per_step":
            calls_in_evolve("models.orbit_elements") / steps if steps else 0.0,
        "models.m_matrix.calls": n_calls("models.m_matrix"),
        "models.hamiltonian.calls": n_calls("models.hamiltonian"),
        "flows.self_s": self_s("flows."),
        "flows.steps": steps,
        "flows.write_trajectory_csv.s": total_s("flows.write_trajectory_csv"),
        "flows.write_trajectory_csv.bytes": tracer.csv_bytes,
        "flows.diagnostics.s": total_s("flows.diagnostics"),
        "flows.plaquette_residual.calls": n_calls("flows.plaquette_residual"),
        "flows.poisson_bracket.calls": n_calls("flows.poisson_bracket"),
        "univar.self_s": self_s("univar."),
    }
    for suite in SUITES:
        m[f"verify.{suite}.s"] = total_s(f"verify.suite_{suite}")
    m["verify.checks"] = tracer.checks
    m["cli.self_s"] = self_s("cli.")
    return m


def metric_unit(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith("_us"):
        return "us"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith(".per_step"):
        return "calls/step"
    if metric.endswith("_frac"):
        return "fraction"
    if metric.endswith(".steps"):
        return "steps"
    return "count"
