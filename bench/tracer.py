"""Span tracing of dqwalk's layers, from outside the package.

``Tracer.install()`` wraps each traced function in every dqwalk module
namespace that binds it (``moments.coin_matrix_at_k`` is the same object as
``channels.coin_matrix_at_k``), so calls between modules are seen without
editing src/.  Spans are kept in memory with a parent link and the id of the
CLI call that caused them; ``uninstall()`` restores the original bindings.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# (module, function) pairs that get a span.  A name missing from the package
# is skipped, so the tracer keeps working when a layer is refactored away.
TRACED = (
    ("cli", "main"),
    ("channels", "build_broken_line"),
    ("channels", "build_coin_channel"),
    ("channels", "load_channel"),
    ("channels", "validate_completeness"),
    ("channels", "coin_matrix_at_k"),
    ("channels", "coin_matrix_derivative_at_k"),
    ("pauli", "sandwich_superop"),
    ("moments", "transfer_grids"),
    ("moments", "moment_series"),
    ("moments", "moment_series_from_grids"),
    ("moments", "asymptotic_first_moment"),
    ("brokenline", "diffusion_closed_form"),
    ("simulator", "step"),
    ("simulator", "moment_direct"),
)

# Computed cost model of one node-step (one momentum node advanced one step)
# of the telescoped recursion in moments._accumulate: three length-4 dot
# products and three 4x4 matrix-vector products (60 multiply-adds) plus ~10
# additions; memory traffic is the two 4x4 matrices, three trace rows and the
# two running 4-vectors read and written (60 elements).  Scaled by the
# observed element size of the grids: complex multiply-add = 8 flops.
_MACS_PER_NODE_STEP = 60
_ADDS_PER_NODE_STEP = 10
_ELEMENTS_PER_NODE_STEP = 60

_NAME, _PARENT, _CALL, _START, _END, _CHILD, _EXTRA = range(7)


def _node_steps(args, kwargs, result):
    return result.n_k * result.t_max


def _grid_itemsize(args, kwargs, result):
    return getattr(getattr(result, "step", None), "itemsize", 16)


def _site_pairs(args, kwargs, result):
    return result.n_sites ** 2


_EXTRAS = {
    "moments.moment_series": _node_steps,
    "moments.moment_series_from_grids": _node_steps,
    "moments.transfer_grids": _grid_itemsize,
    "simulator.step": _site_pairs,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.call_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, extra_of = self.spans, self._stack, _EXTRAS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, parent, self.call_id, 0.0, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                span[_END] = end
                stack.pop()
                if parent >= 0:
                    spans[parent][_CHILD] += end - span[_START]
            if extra_of is not None:
                span[_EXTRA] = extra_of(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dqwalk" or n.startswith("dqwalk."))]
        for module_name, attr in TRACED:
            home = sys.modules.get(f"dqwalk.{module_name}")
            fn = getattr(home, attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(f"{module_name}.{attr}", fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, fn))

    def uninstall(self) -> None:
        for module, key, fn in reversed(self._patched):
            setattr(module, key, fn)
        self._patched.clear()

    def dump(self) -> list[dict]:
        """Spans as plain dicts (times in seconds from the first span)."""
        if not self.spans:
            return []
        origin = self.spans[0][_START]
        return [
            {"id": idx, "name": s[_NAME], "parent": s[_PARENT], "call": s[_CALL],
             "start": s[_START] - origin, "end": s[_END] - origin,
             "self": s[_END] - s[_START] - s[_CHILD], "extra": s[_EXTRA]}
            for idx, s in enumerate(self.spans)
        ]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals over one round's spans.

    ``*_s`` metrics are inclusive span times of the named functions, except
    ``moments.recursion_s`` and ``cli.self_s`` (self times: the recursion is
    the moment sweeps minus the grid builds they call; the CLI share is
    argparse, dispatch and output writing) and ``channels.build_s`` (builder
    self time, certificate excluded).  Inclusive metrics may overlap:
    ``channels.load_s`` contains a certificate, ``moments.grids_s`` contains
    coin stacks and sandwiches.
    """
    incl: dict[str, float] = {}
    self_t: dict[str, float] = {}
    calls: dict[str, int] = {}
    node_steps = site_pairs = 0
    itemsize = 16
    for s in spans:
        name, dur = s[_NAME], s[_END] - s[_START]
        incl[name] = incl.get(name, 0.0) + dur
        self_t[name] = self_t.get(name, 0.0) + dur - s[_CHILD]
        calls[name] = calls.get(name, 0) + 1
        if name.startswith("moments.moment_series"):
            node_steps += s[_EXTRA] or 0
        elif name == "moments.transfer_grids" and s[_EXTRA]:
            itemsize = s[_EXTRA]
        elif name == "simulator.step":
            site_pairs += s[_EXTRA] or 0

    def total(table, *names):
        return sum(table.get(n, 0.0) for n in names)

    recursion = total(self_t, "moments.moment_series", "moments.moment_series_from_grids")
    step_s = incl.get("simulator.step", 0.0)
    flops_per_mac = 8 if itemsize >= 16 else 2
    complex_factor = 2 if itemsize >= 16 else 1
    return {
        "cli.self_s": self_t.get("cli.main", 0.0),
        "channels.build_s": total(self_t, "channels.build_broken_line",
                                  "channels.build_coin_channel"),
        "channels.load_s": incl.get("channels.load_channel", 0.0),
        "channels.certify_s": incl.get("channels.validate_completeness", 0.0),
        "channels.coin_k_s": total(incl, "channels.coin_matrix_at_k",
                                   "channels.coin_matrix_derivative_at_k"),
        "pauli.sandwich_s": incl.get("pauli.sandwich_superop", 0.0),
        "moments.grids_s": incl.get("moments.transfer_grids", 0.0),
        "moments.recursion_s": recursion,
        "moments.node_steps": node_steps,
        "moments.ns_per_node_step": 1e9 * recursion / node_steps if node_steps else 0.0,
        "moments.flops_computed": (_MACS_PER_NODE_STEP * flops_per_mac
                                   + _ADDS_PER_NODE_STEP * complex_factor),
        "moments.bytes_computed": _ELEMENTS_PER_NODE_STEP * itemsize,
        "moments.asymptotic_s": incl.get("moments.asymptotic_first_moment", 0.0),
        "brokenline.closed_form_s": incl.get("brokenline.diffusion_closed_form", 0.0),
        "brokenline.closed_form_calls": calls.get("brokenline.diffusion_closed_form", 0),
        "simulator.step_s": step_s,
        "simulator.steps": calls.get("simulator.step", 0),
        "simulator.site_pairs": site_pairs,
        "simulator.ns_per_site_pair": 1e9 * step_s / site_pairs if site_pairs else 0.0,
        "simulator.moment_direct_s": incl.get("simulator.moment_direct", 0.0),
    }


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over rounds."""
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
