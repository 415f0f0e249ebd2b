"""Per-layer tracing of bhqc from outside, by wrapping names where callers look them up.

A ``Probe`` names one public function and the place its caller finds it: a
module global (``bhqc.circuit.embed`` is what ``circuit.run`` calls) or a
class attribute (``bhqc.states:Ket.__str__``).  ``Tracer`` swaps each for a
wrapper that records a span (name, parent span, operation, start, end) and
the probe's counters, and restores the originals on exit.  A probe whose
name no longer exists is skipped and its metrics are reported absent.

``ScalarCounter`` is the separate counting pass: it wraps the arithmetic
operators of ``GaussianRational`` and ``SymbolicAmplitude`` and counts
outermost calls exactly.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable


def _products(op, state) -> int:
    """Input terms times the gate entries in their column: apply's inner-loop work."""
    per_col = Counter(c for _, c in op.entries)
    return sum(per_col[int(b, 2)] for b in state.terms)


@dataclass(frozen=True)
class Probe:
    name: str                   # span name, "<layer>.<function>"
    owner: str                  # "module" or "module:Class" where the caller looks it up
    attr: str
    counter: str | None = None  # counter added to on every call, from (args, result)
    count: Callable | None = None


PROBES = (
    Probe("cli.main", "bhqc.cli", "main"),
    Probe("cli.build_parser", "bhqc.cli", "build_parser"),
    Probe("dsl.parse_ket", "bhqc.cli", "parse_ket", "dsl.chars", lambda a, r: len(a[0])),
    Probe("dsl.parse_circuit", "bhqc.cli", "parse_circuit", "dsl.chars", lambda a, r: len(a[0])),
    Probe("claims.verify_claims", "bhqc.cli", "verify_claims", "claims.records",
          lambda a, r: len(r)),
    Probe("circuit.run", "bhqc.cli", "run", "circuit.instructions",
          lambda a, r: len(a[0].instructions)),
    Probe("circuit.run", "bhqc.claims", "run", "circuit.instructions",
          lambda a, r: len(a[0].instructions)),
    Probe("circuit.compare_kets", "bhqc.circuit", "compare_kets"),
    Probe("circuit.compare_kets", "bhqc.claims", "compare_kets"),
    Probe("operators.embed", "bhqc.circuit", "embed", "operators.embed.entries",
          lambda a, r: len(r.entries)),
    Probe("operators.apply", "bhqc.circuit", "apply", "operators.apply.products",
          lambda a, r: _products(*a[:2])),
    Probe("states.project", "bhqc.states:Ket", "project"),
    Probe("states.render", "bhqc.states:Ket", "__str__", "states.terms_out",
          lambda a, r: len(a[0].terms)),
    Probe("classify.classify", "bhqc.cli", "classify"),
)


def _resolve(owner: str):
    """The module or class named by ``owner``, or None if it is gone."""
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return vars(obj).get(class_name) if class_name else obj


@dataclass
class Span:
    name: str
    parent: int | None
    op: int
    t0: float
    t1: float        # end of the wrapped call
    t_end: float     # end of the span's own bookkeeping (counters)


class Tracer:
    """Context manager that installs the probes and collects spans and counts."""

    def __init__(self, probes=PROBES) -> None:
        self.probes = probes
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.op = 0
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        installed: set[str] = set()
        for probe in self.probes:
            owner = _resolve(probe.owner)
            if owner is None or probe.attr not in vars(owner):
                continue
            original = vars(owner)[probe.attr]
            setattr(owner, probe.attr, self._wrap(probe, original))
            self._undo.append((owner, probe.attr, original))
            installed.update((probe.name, probe.counter))
        for probe in self.probes:
            self.absent.update({probe.name, probe.counter} - installed - {None})
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, probe: Probe, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            sid = len(self.spans)
            self.spans.append(None)
            self._stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
            if probe.counter is not None:
                try:
                    self.counts[probe.counter] += probe.count(args, result)
                except (AttributeError, TypeError, IndexError, ValueError):
                    self.absent.add(probe.counter)
            self.spans[sid] = Span(probe.name, parent, self.op, t0, t1, perf_counter())
            return result
        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration less its children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s is not None and s.parent is not None:
                child[s.parent] += s.t_end - s.t0
        out: Counter = Counter()
        for sid, s in enumerate(self.spans):
            if s is not None:
                out[s.name] += (s.t1 - s.t0) - child[sid]
        return dict(out)

    def calls(self) -> Counter:
        return Counter(s.name for s in self.spans if s is not None)


def _den1(x) -> bool:
    if isinstance(x, int):
        return True
    if isinstance(x, Fraction):
        return x.denominator == 1
    re, im = getattr(x, "re", None), getattr(x, "im", None)
    return (isinstance(re, (int, Fraction)) and isinstance(im, (int, Fraction))
            and _den1(re) and _den1(im))


# class attribute -> counter name; "gr" counts also feed the integer share
_SCALAR_OPS = {
    ("bhqc.scalars:GaussianRational", "gr"): {
        "__add__": "gr_add", "__radd__": "gr_add", "__sub__": "gr_add", "__rsub__": "gr_add",
        "__mul__": "gr_mul", "__rmul__": "gr_mul", "__truediv__": "gr_mul"},
    ("bhqc.scalars:SymbolicAmplitude", "amp"): {
        "__add__": "amp_add", "__radd__": "amp_add", "__sub__": "amp_add", "__rsub__": "amp_add",
        "__mul__": "amp_mul", "__rmul__": "amp_mul"},
}


class ScalarCounter:
    """Context manager counting outermost scalar operations per class.

    An operation that a method of the same class performs internally (a
    subtraction implemented as addition of a negation) is not counted again.
    """

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self._depth: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> ScalarCounter:
        for (owner_name, key), ops in _SCALAR_OPS.items():
            owner = _resolve(owner_name)
            for attr, counter in ops.items():
                if owner is None or attr not in vars(owner):
                    continue
                original = vars(owner)[attr]
                setattr(owner, attr, self._wrap(key, counter, original))
                self._undo.append((owner, attr, original))
            if owner is None:
                self.absent.update(ops.values())
                if key == "gr":
                    self.absent.add("int_share")
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, key: str, counter: str, fn):
        @functools.wraps(fn)
        def counted(a, b):
            if self._depth[key]:
                return fn(a, b)
            self._depth[key] += 1
            try:
                result = fn(a, b)
            finally:
                self._depth[key] -= 1
            if result is not NotImplemented:
                self.counts[counter] += 1
                if key == "gr":
                    self.counts["gr_ops"] += 1
                    self.counts["gr_int_ops"] += _den1(a) and _den1(b)
            return result
        return counted
