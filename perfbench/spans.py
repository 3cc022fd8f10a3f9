"""Span tracing for one roncoalg CLI call, installed from outside the package.

`Tracer.install` wraps every function named in `TRACED`.  The wrapper
replaces the function in every loaded `roncoalg.*` namespace that holds the
same object, so calls through `from .x import f` aliases are recorded as
well; methods are patched on their class.  Each call becomes one span
(name, start, end, parent), kept in memory until the CLI call has returned.
`HOOKS` turn arguments and results into per-layer counters.

`summarize` derives calls, inclusive and self seconds from a span list.
A span's self time is its duration minus the durations of its direct
children; its inclusive time counts only toward the outermost span of the
same name on its path, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from workloads import chain_dim

PACKAGE = "roncoalg"

# module -> public functions (or Class.method) whose calls become spans.
TRACED = {
    "cli": ("main",),
    "terms": ("parse_term",),
    "ronco": ("eval_term", "ronco_bracket", "section", "project", "truncate_to_structure",
              "graded_kernel_basis"),
    "leibniz": ("eval_term", "leib_bracket"),
    "freelie": ("lie_bracket", "rewrite_to_lyndon", "left_normed_bracketing", "expand_to_tensor"),
    "structure": ("verify_variety", "verify_mu", "ronco_to_mu", "mu_to_ronco"),
    "linalg": ("rank_and_kernel", "rank", "quotient_dim", "SpanBuilder.add", "SpanBuilder._reduce"),
    "homology": ("hl1", "hl2", "hr0", "h1_adjoint"),
    "jsonio": ("loads_algebra", "dumps_algebra", "dumps_canonical", "report_to_obj",
               "ronco_element_to_obj"),
}

# Identities checked on every basis triple, per variety (the n³ loops).
TRIPLE_AXIOMS = {"leibniz": 1, "lie": 1, "ronco": 2, "symmetric-leibniz": 2}


def _verify_variety(args, kwargs, result, c):
    a, variety = args[0], args[1] if len(args) > 1 else kwargs["variety"]
    c["structure.violations"] += len(result.violations)
    c["structure.tuples_visited"] += a.dim**3 * TRIPLE_AXIOMS[variety]
    c["structure.cells"] += len(a.bracket)
    c["structure.cells_possible"] += a.dim**2


def _verify_mu(args, kwargs, result, c):
    m = args[0]
    symmetric = args[1] if len(args) > 1 else kwargs.get("symmetric", False)
    c["structure.violations"] += len(result.violations)
    c["structure.tuples_visited"] += m.dim**3 * (6 if symmetric else 5)
    c["structure.cells"] += len(m.lie_bracket) + len(m.product)
    c["structure.cells_possible"] += 2 * m.dim**2


def _rank_and_kernel(args, kwargs, result, c):
    m = args[0]
    c["linalg.rank_and_kernel.rows"] += m.rows
    c["linalg.rank_and_kernel.cols"] += m.cols
    c["linalg.rank_and_kernel.nnz"] += len(m.entries)


def _span_add(args, kwargs, result, c):
    c["linalg.SpanBuilder.add.useful"] += bool(result)


def _chain(op):
    def hook(args, kwargs, result, c):
        c["homology.chain_dim"] += chain_dim(op, args[0].dim)
    return hook


def _bytes_in(args, kwargs, result, c):
    c["jsonio.bytes_in"] += len(args[0].encode())


def _bytes_out(args, kwargs, result, c):
    c["jsonio.bytes_out"] += len(result.encode())


HOOKS = {
    "structure.verify_variety": _verify_variety,
    "structure.verify_mu": _verify_mu,
    "linalg.rank_and_kernel": _rank_and_kernel,
    "linalg.SpanBuilder.add": _span_add,
    "jsonio.loads_algebra": _bytes_in,
    "jsonio.dumps_canonical": _bytes_out,
    **{f"homology.{fn}": _chain(op) for fn, op in
       (("hl1", "hl1"), ("hl2", "hl2"), ("hr0", "hr0"), ("h1_adjoint", "h1ad"))},
}


class Tracer:
    """Spans and counters of one process; `install` patches the package."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start ns, end ns, parent span index or -1]
        self.counters: dict = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter_ns
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [index, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result, counters)
            return result

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module_name, functions in TRACED.items():
            home = sys.modules[f"{PACKAGE}.{module_name}"]
            for qualified in functions:
                name = f"{module_name}.{qualified}"
                if "." in qualified:
                    cls_name, attr = qualified.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, attr, self.wrap(name, getattr(cls, attr)))
                    continue
                original = getattr(home, qualified)
                wrapper = self.wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)


def cache_counters() -> dict:
    """cache_info() of every functools cache defined in a loaded package module.

    Found by introspection, so a cache added to the package is reported
    without a change here.  Keys are "<module>.<function>".
    """
    out = {}
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith(PACKAGE + "."):
            continue
        short = module_name[len(PACKAGE) + 1:]
        for attr, obj in vars(module).items():
            if callable(getattr(obj, "cache_info", None)) and getattr(obj, "__module__", None) == module_name:
                info = obj.cache_info()
                out[f"{short}.{attr}"] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
    return out


def summarize(names: list[str], spans: list[list]) -> dict:
    """{name: {"calls", "s", "self_s"}} from one process's spans."""
    duration = [end - start for _, start, end, _ in spans]
    child = [0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += duration[i]
    out: dict = {}
    for i, (index, _, _, parent) in enumerate(spans):
        stat = out.setdefault(names[index], {"calls": 0, "s": 0.0, "self_s": 0.0})
        stat["calls"] += 1
        stat["self_s"] += (duration[i] - child[i]) / 1e9
        outermost = True
        while parent >= 0:
            if spans[parent][0] == index:
                outermost = False
                break
            parent = spans[parent][3]
        if outermost:
            stat["s"] += duration[i] / 1e9
    return out
