"""Span tracing of recgrow's public functions, installed from outside the package.

Each target is a binding as its caller looks it up: `recgrow.cli.evaluate`,
`recgrow.bounds.evaluate` and `recgrow.growth.evaluate` are separate names for
one function, and each is wrapped where it is bound.  A span records the
wrapped name, its metric stem (`kind`), start, end, parent span and the id of
the top-level invocation it belongs to.  A layer's time is the self time of
its spans: duration minus the time covered by wrapped callees.  A binding
that no longer exists is skipped and listed in `Tracer.missing`, so its
layer reports zero calls instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional


def _bits(x) -> int:
    return x.numerator.bit_length() + x.denominator.bit_length()


def _count_exit(code) -> dict:
    return {"cli.errors": int(code != 0)}


def _count_table(table) -> dict:
    return {"recurrence.max_bits": max(_bits(v) for v in table.values)}


def _count_certificates(certs) -> dict:
    fields = (x for c in certs for x in (c.q_l, c.lower, c.upper, c.actual, c.ratio))
    return {"bounds.certificates": len(certs), "bounds.max_operand_bits": max(map(_bits, fields), default=0)}


def _count_profile(profile) -> dict:
    fields = (x for _, r, g in profile.rows for x in (r, g))
    return {"bounds.max_operand_bits": max(map(_bits, fields), default=0)}


def _count_enclosure(enc) -> dict:
    return {"growth.digits": enc.digits, "growth.radicand_digits": 2**enc.l * enc.digits}


def _count_value(text) -> dict:
    return {"serialize.max_value_digits": len(text)}


def _count_document(data) -> dict:
    return {"serialize.bytes_out": len(data)}


#: (module, attribute path, kind, counter).  The kind names the layer and the
#: time metric `<kind>_s`; the counter maps a call's result to count metrics.
TARGETS = [
    ("recgrow.cli", "run", "cli.self", _count_exit),
    ("recgrow.cli", "build_parser", "cli.parse", None),
    ("recgrow.cli", "_ArgumentParser.parse_args", "cli.parse", None),
    ("recgrow.cli", "evaluate", "recurrence.evaluate", _count_table),
    ("recgrow.bounds", "evaluate", "recurrence.evaluate", _count_table),
    ("recgrow.growth", "evaluate", "recurrence.evaluate", _count_table),
    ("recgrow.nsmodel", "evaluate", "recurrence.evaluate", _count_table),
    ("recgrow.bounds", "certify", "bounds.certify", _count_certificates),
    ("recgrow.bounds", "convergence_profile", "bounds.converge", _count_profile),
    ("recgrow.growth", "growth_enclosure", "growth.enclosure", _count_enclosure),
    ("recgrow.growth", "log_log_index", "growth.loglog", None),
    ("recgrow.growth", "nth_root_lower", "roots.root", None),
    ("recgrow.growth", "nth_root_upper", "roots.root", None),
    # general's pow_lower/pow_upper reach the roots through these globals
    ("recgrow.roots", "nth_root_lower", "roots.root", None),
    ("recgrow.roots", "nth_root_upper", "roots.root", None),
    ("recgrow.cli", "frac_str", "serialize.render", _count_value),
    ("recgrow.cli", "decimal_str", "serialize.render", _count_value),
    ("recgrow.cli", "canonical_json_bytes", "serialize.render", _count_document),
    ("recgrow.general", "envelope", "general.envelope", None),
    ("recgrow.matrixrec", "evaluate_matrix", "matrixrec.evaluate", None),
    ("recgrow.matrixrec", "scalar_envelope", "matrixrec.evaluate", None),
    ("recgrow.nsmodel", "cost_projection", "nsmodel.projection", None),
]

LAYERS = ("cli", "recurrence", "bounds", "growth", "roots", "serialize", "general", "matrixrec", "nsmodel")

#: Count metrics taken from span counts, with how spans combine within a pass.
COUNT_RULES = {
    "recurrence.max_bits": max,
    "bounds.certificates": sum,
    "bounds.max_operand_bits": max,
    "growth.digits": sum,
    "growth.radicand_digits": sum,
    "serialize.bytes_out": sum,
    "serialize.max_value_digits": max,
}

#: Call counts: number of spans of a kind in a pass.
CALL_COUNTS = {"recurrence.calls": "recurrence.evaluate", "roots.calls": "roots.root", "serialize.calls": "serialize.render"}

_ABSENT = object()


@dataclass
class Span:
    id: int
    kind: str
    name: str
    invocation: int
    parent: Optional[int]
    start: float
    end: float = 0.0
    error: bool = False
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records a span for every call through the wrapped bindings while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._saved: list = []
        self._started = 0
        self._invocation = 0

    def install(self) -> None:
        self.missing = []
        for module_name, path, kind, counter in TARGETS:
            name = f"{module_name}.{path}"
            *outer, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            self._saved.append((owner, attr, vars(owner).get(attr, _ABSENT)))
            setattr(owner, attr, self._wrap(original, kind, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, saved = self._saved.pop()
            if saved is _ABSENT:
                delattr(owner, attr)  # the attribute was inherited
            else:
                setattr(owner, attr, saved)

    def _wrap(self, original: Callable, kind: str, name: str, counter: Optional[Callable]) -> Callable:
        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self._stack:
                self._invocation += 1
            parent = self._stack[-1].id if self._stack else None
            self._started += 1
            span = Span(self._started, kind, name, self._invocation, parent, time.perf_counter())
            self._stack.append(span)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
            if counter is not None:
                span.counts = counter(result)
            return result

        return traced


def time_metrics() -> list[str]:
    return sorted({f"{kind}_s" for _, _, kind, _ in TARGETS})


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass: self times, call counts, work counts, errors."""
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    metrics = dict.fromkeys(time_metrics(), 0.0)
    for s in spans:
        metrics[f"{s.kind}_s"] += (s.end - s.start) - covered[s.id]
    for metric, kind in CALL_COUNTS.items():
        metrics[metric] = sum(s.kind == kind for s in spans)
    for metric, combine in COUNT_RULES.items():
        metrics[metric] = combine([s.counts[metric] for s in spans if metric in s.counts] or [0])
    digits = metrics["growth.digits"]
    metrics["growth.radicand_per_digit"] = metrics["growth.radicand_digits"] / digits if digits else 0
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = sum(s.error for s in spans if s.kind.startswith(layer + "."))
    metrics["cli.errors"] += sum(s.counts.get("cli.errors", 0) for s in spans)
    return metrics
