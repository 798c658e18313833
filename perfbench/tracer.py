"""Spans around calls into the package's public functions, recorded from outside.

``Tracer.install`` replaces each hooked function by a wrapper in every
``pdsseries`` module that holds a reference to it, because the package binds
many names by import (``selection`` calls its own ``iterated_lasso`` and
``post_lasso`` bindings, ``montecarlo`` its own ``comparison_estimators``).
``uninstall`` puts the originals back. Spans are kept in memory; a layer's
self time is its span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

PACKAGE = "pdsseries"

# (module, function, metric stem). The stem names the layer in the output;
# "_self" marks functions whose callees are mostly hooked themselves.
HOOKS = (
    ("montecarlo", "true_theta", "montecarlo.true_theta"),
    ("montecarlo", "generate_sample", "montecarlo.generate_sample"),
    ("dictionary", "build_design", "dictionary.build_design"),
    ("dictionary", "evaluate_dictionary", "dictionary.evaluate_dictionary"),
    ("dictionary", "standardize_columns", "dictionary.standardize_columns"),
    ("dictionary", "build_extended_fs", "dictionary.build_extended_fs"),
    ("lasso", "lasso_solve", "lasso.lasso_solve"),
    ("lasso", "initial_loadings", "lasso.initial_loadings"),
    ("lasso", "refined_loadings", "lasso.refined_loadings"),
    ("lasso", "iterated_lasso", "lasso.iterated_lasso_self"),
    ("lasso", "post_lasso", "lasso.post_lasso"),
    ("selection", "first_stage_select", "selection.first_stage"),
    ("selection", "reduced_form_select", "selection.reduced_form"),
    ("selection", "post_double_select", "selection.post_double_select"),
    ("selection", "choose_k_bic", "selection.choose_k_bic"),
    ("selection", "comparison_estimators", "selection.comparison_estimators_self"),
    ("selection", "pds_fit", "selection.pds_fit"),
    ("inference", "functional_estimate", "inference.functional_estimate"),
    ("cli", "load_csv", "cli.load_csv"),
    ("cli", "main", "cli.main_self"),
)

# counters derived from the arguments and results of hooked calls
COUNTERS = (
    "lasso.lasso_solve_calls",
    "lasso.cd_sweeps",
    "lasso.cd_coord_updates",
    "lasso.cd_nonconverged",
    "lasso.loadings_cells",
    "lasso.iterated_lasso_calls",
    "lasso.rounds_per_equation",
    "lasso.rounds_useful_ratio",
    "lasso.active_size_mean",
    "selection.union_size_mean",
    "selection.grid_failures",
)


class Tracer:
    """Records one span per hooked call, plus counters read off the results."""

    def __init__(self):
        self.spans: list = []  # [stem, start, end, parent index, unit id]
        self.unit = None
        self.missing: set = set()
        self._stack: list = []
        self._patched: list = []  # (module, attribute, original)
        self._counts: dict = defaultdict(int)
        self._active_sizes: list = []
        self._union_sizes: list = []
        self._rounds: dict = defaultdict(list)  # iterated_lasso span -> active sets

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for mod_name, func_name, stem in HOOKS:
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(home, func_name, None) if home is not None else None
            if original is None:
                self.missing.add(f"{mod_name}.{func_name}")
                continue
            wrapper = self._wrap(stem, original, _OBSERVERS.get(stem))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, stem, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [stem, time.perf_counter(), None, parent, tracer.unit]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if observe is not None:
                try:
                    observe(tracer, parent, args, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    # the result no longer carries what the counter reads
                    tracer.missing.add(f"counter of {stem}")
            return result

        return wrapper

    # ------------------------------------------------------------ results

    def self_times(self) -> tuple:
        """Summed self seconds and inclusive seconds, each a dict by stem."""
        child_cover = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0 and end is not None:
                child_cover[parent] += end - start
        self_s: dict = defaultdict(float)
        incl_s: dict = defaultdict(float)
        for i, (stem, start, end, _, _) in enumerate(self.spans):
            if end is None:
                continue
            self_s[stem] += (end - start) - child_cover[i]
            incl_s[stem] += end - start
        return self_s, incl_s

    def counters(self) -> dict:
        out = {name: float(self._counts.get(name, 0)) for name in COUNTERS}
        eq_spans = [i for i, s in enumerate(self.spans)
                    if s[0] == "lasso.iterated_lasso_self"]
        out["lasso.iterated_lasso_calls"] = float(len(eq_spans))
        if eq_spans:
            rounds = [self._rounds.get(i, []) for i in eq_spans]
            out["lasso.rounds_per_equation"] = sum(map(len, rounds)) / len(eq_spans)
            refits = useful = 0
            for sets in rounds:
                for prev, cur in zip(sets, sets[1:]):
                    refits += 1
                    useful += prev != cur
            out["lasso.rounds_useful_ratio"] = useful / refits if refits else 0.0
        if self._active_sizes:
            out["lasso.active_size_mean"] = sum(self._active_sizes) / len(self._active_sizes)
        if self._union_sizes:
            out["selection.union_size_mean"] = sum(self._union_sizes) / len(self._union_sizes)
        return out

    def dump(self) -> list:
        """Spans as plain records, for writing out when the run ends."""
        return [{"name": stem, "start": start, "end": end, "parent": parent, "unit": unit}
                for stem, start, end, parent, unit in self.spans]


def _observe_solve(tracer, parent, args, fit):
    active = tuple(int(j) for j in fit.active_set)
    sweeps = int(fit.iterations)
    m = len(fit.coefficients)
    tracer._counts["lasso.lasso_solve_calls"] += 1
    tracer._counts["lasso.cd_sweeps"] += sweeps
    tracer._counts["lasso.cd_coord_updates"] += sweeps * m
    tracer._counts["lasso.cd_nonconverged"] += not fit.converged
    tracer._active_sizes.append(len(active))
    if parent >= 0 and tracer.spans[parent][0] == "lasso.iterated_lasso_self":
        tracer._rounds[parent].append(active)


def _observe_loadings(tracer, parent, args, loadings):
    # one cell per (observation, column) pair the loadings formula touches
    n = len(args[1])
    tracer._counts["lasso.loadings_cells"] += n * len(loadings)


def _observe_union(tracer, parent, args, sel):
    tracer._union_sizes.append(len(sel.union_set))


def _observe_grid(tracer, parent, args, res):
    tracer._counts["selection.grid_failures"] += len(res.errors)


_OBSERVERS = {
    "lasso.lasso_solve": _observe_solve,
    "lasso.initial_loadings": _observe_loadings,
    "lasso.refined_loadings": _observe_loadings,
    "selection.post_double_select": _observe_union,
    "selection.choose_k_bic": _observe_grid,
}
