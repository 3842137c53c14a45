"""Span recording at the library's layer boundaries, and the per-layer report.

`instrument` replaces public entry points with recording wrappers in the
namespace each caller looks them up in: the benchmark calls
`tables.compute_cell`, `tables.compute_cell` calls `bounds_mod.best_upper_bound`,
which calls `lp_optimum` and `feasibility.special_values` through the
`bounds` module, and so on.  A span is (name, parent span, op, start, end,
attributes); spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager

from twodist import bounds, constructions, core, feasibility, search, tables

STREAM_ABOVE = 8192  # random_greedy drops the adjacency matrix above this many candidates


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1  # index of the op being run; spans of one op share it
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.op, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, result)
            return result

        return traced

    def write(self, path):
        with open(path, "w") as out:
            for name, parent, op, start, end, attrs in self.spans:
                out.write(json.dumps([name, parent, op, start, end, attrs]) + "\n")


def _lp_attrs(args, result):
    return {"n": args[0].n}


def _words(args, result):
    return {"words": result.size} if isinstance(result, core.Code) else None


def _greedy_attrs(args, result):
    return {"candidates": search.candidate_count(args[0]), "restarts": result.restarts_run}


def _oracle_attrs(args, result):
    return {"vertices": search.candidate_count(args[0])}


def _pairs(args, result):
    return {"words": args[0].size}


BUILDERS = ("dm_code", "seed_code", "su1_code", "su2_code", "arc_code", "pencil_code",
            "complementary_code", "small_family_code")
CLOSED_FORMS = ("plotkin_bound", "d2_bound", "dd_refine", "sphere_bound", "gray_rankin_bound")

# (owner, attribute, span name, attributes) for every wrapped entry point
TARGETS = (
    (tables, "compute_cell", "tables.compute_cell", None),
    (tables, "render_table", "tables.render", None),
    (bounds, "best_upper_bound", "bounds.aggregate", None),
    (bounds, "lp_optimum", "bounds.lp", _lp_attrs),
    *((bounds, f, "bounds.closed_form", None) for f in CLOSED_FORMS),
    (bounds, "kraw_eval", "krawtchouk.kraw_eval", None),
    (core, "kraw_eval", "krawtchouk.kraw_eval", None),
    (feasibility, "special_values", "feasibility.screen", None),
    (feasibility, "two_distance_realizable", "feasibility.screen", None),
    (feasibility, "macwilliams_mu", "feasibility.linear_screens", None),
    (feasibility, "srg_analysis", "feasibility.linear_screens", None),
    (feasibility, "gcd_screen", "feasibility.linear_screens", None),
    (constructions, "two_distance_lower_bounds", "constructions.catalog", None),
    (constructions, "equidistant_lower_bound", "constructions.catalog", None),
    *((constructions, f, "constructions.build", _words) for f in BUILDERS),
    (constructions.GeneratorMatrix, "span", "constructions.build", _words),
    (search, "random_greedy", "search.greedy", _greedy_attrs),
    (search, "exhaustive_maximum", "search.oracle", _oracle_attrs),
    (search, "verify_two_distance", "core.verify", _pairs),
    (core, "verify_two_distance", "core.verify", _pairs),
    (core, "strength", "core.strength", None),
    (core, "moments", "core.moments", None),
    (core, "is_antipodal", "core.antipodal", None),
    (core, "write_code", "core.io", None),
    (core, "read_code", "core.io", None),
)


@contextmanager
def instrument(tracer: Tracer):
    """Install recording wrappers for the duration of the block."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in TARGETS]
    try:
        for (owner, attr, name, attrs), (_, _, fn) in zip(TARGETS, saved):
            setattr(owner, attr, tracer.wrap(name, fn, attrs))
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


# per-layer metrics: name -> (unit, better, what it should move)
LAYER_METRICS = {
    "bounds.lp_s": ("s", "lower", "table ops_per_s, op_p99_ms"),
    "bounds.lp_calls": ("count", "lower", "table ops_per_s, op_p99_ms"),
    "bounds.lp_vertex_pairs": ("count", "lower", "computed C(n+2, 2) per LP; labels lp_s"),
    "bounds.closed_form_s": ("s", "lower", "table op_p50_ms"),
    "krawtchouk.kraw_eval_calls": ("count", "lower", "table ops_per_s; verify through moments"),
    "krawtchouk.kraw_eval_s": ("s", "lower", "table ops_per_s; verify through moments"),
    "feasibility.screen_s": ("s", "lower", "table op_p50_ms"),
    "feasibility.short_circuit_frac": ("ratio", "higher", "table op_p50_ms"),
    "feasibility.short_circuit_base": ("count", "lower", "base of short_circuit_frac"),
    "feasibility.linear_screens_s": ("s", "lower", "verify ops_per_s"),
    "constructions.catalog_s": ("s", "lower", "table ops_per_s"),
    "constructions.build_s": ("s", "lower", "verify ops_per_s"),
    "constructions.words_built": ("count", "lower", "verify ops_per_s"),
    "tables.compute_cell_self_s": ("s", "lower", "table ops_per_s"),
    "tables.render_s": ("s", "lower", "table ops_per_s"),
    "search.greedy_matrix_s": ("s", "lower", "search ops_per_s, op_p50_ms"),
    "search.greedy_stream_s": ("s", "lower", "search ops_per_s, op_p50_ms"),
    "search.restarts_run": ("count", "lower", "search ops_per_s"),
    "search.restarts_per_s": ("1/s", "higher", "search ops_per_s"),
    "search.oracle_s": ("s", "lower", "search ops_per_s, op_p99_ms"),
    "search.oracle_vertices": ("count", "lower", "search ops_per_s, op_p99_ms"),
    "core.verify_s": ("s", "lower", "verify ops_per_s; a small share on search"),
    "core.pairs_compared": ("count", "lower", "computed N(N-1)/2; verify ops_per_s"),
    "core.strength_s": ("s", "lower", "verify ops_per_s"),
    "core.moments_s": ("s", "lower", "verify ops_per_s"),
    "core.antipodal_s": ("s", "lower", "verify ops_per_s"),
    "core.io_s": ("s", "lower", "verify ops_per_s"),
    "trace.overhead_frac": ("ratio", "lower", "none; traced against untraced ops_per_s"),
}


def span_self(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _, _, _, start, end, _ in spans]
    for _, parent, _, start, end, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def self_times(spans) -> dict[str, float]:
    """Self seconds summed per span name."""
    out: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, span_self(spans)):
        out[span[0]] += own
    return out


def layer_metrics(spans, scale: float, overhead_frac: float) -> dict[str, float]:
    """Every entry of LAYER_METRICS, from the spans of the traced rounds.

    Times are multiplied by `scale`, the traced rounds' factor to the
    reference speed (see timing.py); counts are not.
    """
    each = [s * scale for s in span_self(spans)]
    own: dict[str, float] = defaultdict(float)
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        own[span[0]] += each[i]
        by_name[span[0]].append((i, span))
    lp = by_name["bounds.lp"]
    lp_parents = {span[1] for _, span in lp}
    aggregates = by_name["bounds.aggregate"]
    greedy_s = {"matrix": 0.0, "stream": 0.0}
    for i, span in by_name["search.greedy"]:
        greedy_s["stream" if span[5]["candidates"] > STREAM_ABOVE else "matrix"] += each[i]
    greedy_wall = scale * sum(s[4] - s[3] for _, s in by_name["search.greedy"])
    restarts = sum(s[5]["restarts"] for _, s in by_name["search.greedy"])
    return {
        "bounds.lp_s": own["bounds.lp"],
        "bounds.lp_calls": len(lp),
        "bounds.lp_vertex_pairs": sum(math.comb(s[5]["n"] + 2, 2) for _, s in lp),
        "bounds.closed_form_s": own["bounds.closed_form"],
        "krawtchouk.kraw_eval_calls": len(by_name["krawtchouk.kraw_eval"]),
        "krawtchouk.kraw_eval_s": own["krawtchouk.kraw_eval"],
        "feasibility.screen_s": own["feasibility.screen"],
        "feasibility.short_circuit_frac": (
            sum(i not in lp_parents for i, _ in aggregates) / len(aggregates) if aggregates else 0.0
        ),
        "feasibility.short_circuit_base": len(aggregates),
        "feasibility.linear_screens_s": own["feasibility.linear_screens"],
        "constructions.catalog_s": own["constructions.catalog"],
        "constructions.build_s": own["constructions.build"],
        "constructions.words_built": sum(
            s[5]["words"] for _, s in by_name["constructions.build"] if s[5]
        ),
        "tables.compute_cell_self_s": own["tables.compute_cell"],
        "tables.render_s": own["tables.render"],
        "search.greedy_matrix_s": greedy_s["matrix"],
        "search.greedy_stream_s": greedy_s["stream"],
        "search.restarts_run": restarts,
        "search.restarts_per_s": restarts / greedy_wall if greedy_wall else 0.0,
        "search.oracle_s": own["search.oracle"],
        "search.oracle_vertices": sum(s[5]["vertices"] for _, s in by_name["search.oracle"]),
        "core.verify_s": own["core.verify"],
        "core.pairs_compared": sum(
            s[5]["words"] * (s[5]["words"] - 1) // 2 for _, s in by_name["core.verify"]
        ),
        "core.strength_s": own["core.strength"],
        "core.moments_s": own["core.moments"],
        "core.antipodal_s": own["core.antipodal"],
        "core.io_s": own["core.io"],
        "trace.overhead_frac": overhead_frac,
    }
