"""Traced `griglab` runs: spans around calls into each module, from outside.

Run as a script, this file is one traced operation:

    python bench/tracing.py SPANS_PATH OP_ID <griglab arguments...>

It wraps public module attributes of griglab, calls `griglab.cli.main` with
the arguments, keeps one span per wrapped call in memory and writes them to
SPANS_PATH at exit.  A span is (name, start, end, parent index, value,
error, operation id), where value is a count taken from the result
(elements of a ball, a conjugator found, ...).  Recursive hot functions
(`core.multiply`, `level_action`, `depth_invariant`) are not wrapped; the
memo table sizes read at exit stand in for them.

Imported, it turns span files into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

WRAPPED = {
    "core": ("load_preset", "word_leaf_permutation"),
    "words": ("enumerate_reduced",),
    "enumeration": ("ball", "independent_gamma"),
    "conjugacy": (
        "class_partition",
        "conjugator_search",
        "quotient_separated",
        "quotient_class_table",
    ),
    "constructions": (
        "branching_data",
        "image_coverage_report",
        "comm_k_product",
        "comm_g_decompose",
    ),
    "expressions": ("Expression.verify",),
    "width": (
        "commutator_set",
        "conjugate_set",
        "conjugate_pair_set",
        "conjugate_width",
        "commutator_width",
        "palindromic_width",
        "palindrome_conjugate_check",
    ),
    "bounds": ("grig_recursion_audit", "assembly_audit", "estimate_T"),
    "cli": ("main",),
}

# span name -> the count a call contributes, taken from its result
VALUES = {
    "enumeration.ball": len,
    "width.commutator_set": len,
    "width.conjugate_pair_set": len,
    "conjugacy.conjugator_search": lambda z: int(z is not None),
    "conjugacy.quotient_separated": lambda sep: int(bool(sep)),
}

# Per-layer metrics read off the spans of one operation: <span name>.<field>.
# calls: spans; s: time inside outermost spans; self_s: time minus child
# spans; words/elements/hits/separated: sum of span values; hit_ratio:
# hits / calls; budget_exhausted: calls that raised OrbitBudgetError.
SPAN_METRICS = (
    "core.load_preset.s",
    "core.word_leaf_permutation.calls",
    "core.word_leaf_permutation.s",
    "words.enumerate_reduced.words",
    "words.enumerate_reduced.self_s",
    "enumeration.ball.calls",
    "enumeration.ball.s",
    "enumeration.ball.elements",
    "enumeration.independent_gamma.s",
    "conjugacy.class_partition.calls",
    "conjugacy.class_partition.s",
    "conjugacy.conjugator_search.calls",
    "conjugacy.conjugator_search.hits",
    "conjugacy.conjugator_search.hit_ratio",
    "conjugacy.conjugator_search.s",
    "conjugacy.quotient_separated.calls",
    "conjugacy.quotient_separated.separated",
    "conjugacy.quotient_separated.budget_exhausted",
    "conjugacy.quotient_separated.s",
    "conjugacy.quotient_class_table.s",
    "constructions.branching_data.calls",
    "constructions.branching_data.s",
    "constructions.image_coverage_report.s",
    "constructions.comm_k_product.calls",
    "constructions.comm_k_product.s",
    "constructions.comm_g_decompose.calls",
    "constructions.comm_g_decompose.s",
    "expressions.Expression.verify.calls",
    "expressions.Expression.verify.s",
    "width.commutator_set.s",
    "width.commutator_set.elements",
    "width.conjugate_set.s",
    "width.conjugate_pair_set.s",
    "width.conjugate_pair_set.elements",
    "width.conjugate_width.s",
    "width.commutator_width.s",
    "width.palindromic_width.calls",
    "width.palindromic_width.s",
    "width.palindrome_conjugate_check.s",
    "bounds.grig_recursion_audit.s",
    "bounds.assembly_audit.s",
    "bounds.estimate_T.s",
    "cli.main.self_s",
)
# read once at exit from the preset's memo tables; -1 when a table is gone
MEMO_METRICS = {"core.interned_elements": "_intern", "core.mul_memo_entries": "_mul_memo"}
VALUE_FIELDS = ("words", "elements", "hits", "separated")


def metric_unit(name):
    field = name.rsplit(".", 1)[1]
    return "s" if field in ("s", "self_s") else "ratio" if field == "hit_ratio" else "count"


# ----------------------------------------------------------------------
# the traced process


class Tracer:
    def __init__(self, op_id):
        self.op_id = op_id
        self.spans = []  # [name, start, end, parent, value, error, op_id]
        self.stack = []
        self.presets = []

    def _open(self, name):
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, 0, None, self.op_id]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        value_of = VALUES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if value_of is not None:
                span[4] = value_of(result)
            if name == "core.load_preset":
                self.presets.append(result)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        """One span per item produced; the span's value is 1 per item."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                span = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                span[4] = 1
                yield item

        return traced

    def install(self):
        for module_name, attrs in WRAPPED.items():
            module = importlib.import_module(f"griglab.{module_name}")
            for attr in attrs:
                owner_path, _, leaf = f"{module_name}.{attr}".rpartition(".")
                owner = module
                for part in owner_path.split(".")[1:]:
                    owner = getattr(owner, part)
                setattr(owner, leaf, self.wrap(f"{module_name}.{attr}", getattr(owner, leaf)))

    def memo_sizes(self):
        preset = self.presets[-1] if self.presets else None
        return {
            metric: len(getattr(preset, attr)) if hasattr(preset, attr) else -1
            for metric, attr in MEMO_METRICS.items()
        }

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "memo": self.memo_sizes()}, fh)


def main():
    spans_path, op_id, *argv = sys.argv[1:]
    tracer = Tracer(int(op_id))
    tracer.install()
    from griglab import cli

    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)
    sys.exit(code)


# ----------------------------------------------------------------------
# span files -> per-layer metrics


def operation_metrics(dumps):
    """Per-layer metrics of one operation from its processes' span dumps."""
    calls, total, self_s, values, budget = Counter(), Counter(), Counter(), Counter(), Counter()
    memo = Counter()
    for dump in dumps:
        spans = dump["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, *_ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, value, error, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - covered[i]
            values[name] += value
            budget[name] += error == "OrbitBudgetError"
            if not _nested_in_same(spans, parent, name):
                total[name] += end - start
        for metric, size in dump["memo"].items():
            memo[metric] = -1 if size < 0 or memo[metric] < 0 else memo[metric] + size
    out = {}
    for metric in SPAN_METRICS:
        name, field = metric.rsplit(".", 1)
        if field == "calls":
            out[metric] = calls[name]
        elif field == "s":
            out[metric] = total[name]
        elif field == "self_s":
            out[metric] = self_s[name]
        elif field in VALUE_FIELDS:
            out[metric] = values[name]
        elif field == "hit_ratio":
            out[metric] = values[name] / calls[name] if calls[name] else 0.0
        elif field == "budget_exhausted":
            out[metric] = budget[name]
        else:
            raise ValueError(f"unknown span metric {metric!r}")
    out.update((metric, memo[metric]) for metric in MEMO_METRICS)
    return out


def _nested_in_same(spans, parent, name):
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


if __name__ == "__main__":
    main()
