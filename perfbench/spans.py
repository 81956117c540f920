"""Spans around the calls the package's modules make into each other.

``Tracer.install`` replaces every public function of the traced modules, in
every package namespace that holds it, with a wrapper that records a span
(name, start, end, parent). Calls within a module go through its globals,
so they are caught too. ``rational`` functions are called millions of times
per extraction; they are only counted, and their time stays with the caller.
``bounds`` is not wrapped: its closed-form arithmetic takes microseconds.

A few spans also feed counters through post-hooks (breakpoints produced,
rational bit lengths, per-layer figures). The hooks run outside the span
they describe and are recorded as ``trace.stats`` spans, and the samples of
the speed probe as ``trace.probe`` spans, so that module self times stay
clean and every second of the traced round is accounted for: the self
times of all spans, the benchmark's own ``bench.round`` root included, add
up to the round's wall time.
"""

from __future__ import annotations

import contextlib
import inspect
from bisect import bisect_right
from collections import Counter, defaultdict
from itertools import accumulate
from statistics import median
from time import perf_counter

TRACED = ("cli", "jsonio", "construct", "network", "spline", "canonical", "verify")
COUNTED = ("rational",)
MAX_LAYERS = 5


def _bits(xs) -> int:
    return max((max(x.numerator.bit_length(), x.denominator.bit_length()) for x in xs), default=0)


class Tracer:
    """Spans and counters for one traced round; ``layer_shape`` names the
    network whose extractions are split into per-hidden-layer rows."""

    def __init__(self, modules: dict, layer_shape: tuple[int, ...]):
        self.modules = modules  # module name -> module object, package root included
        self.layer_shape = layer_shape
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.max_bits = 0
        self.layers: list[list[dict]] = []  # per extraction of layer_shape: one dict per layer
        self._layer_ctx: dict | None = None
        self._last_knot_total = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for module in self.modules.values():
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                home = fn.__module__.rpartition(".")[2]
                if not fn.__module__.startswith("relu_knots.") or home not in TRACED + COUNTED:
                    continue
                if id(fn) not in wrappers:
                    qual = f"{home}.{fn.__name__}"
                    wrappers[id(fn)] = (
                        self._counter(qual, fn) if home in COUNTED else self._span(qual, fn)
                    )
                self._saved.append((module, name, fn))
                setattr(module, name, wrappers[id(fn)])

    def remove(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def _counter(self, qual, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[qual] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, qual, fn):
        pre = getattr(self, "_pre_" + qual.replace(".", "_"), None)
        post = getattr(self, "_post_" + qual.replace(".", "_"), None)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [qual, 0.0, 0.0, parent]
            spans.append(span)
            if pre is not None:
                pre(args)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if post is not None:
                stats = ["trace.stats", perf_counter(), 0.0, parent]
                post(args, result, span)
                stats[2] = perf_counter()
                spans.append(stats)
            return result

        return wrapper

    @contextlib.contextmanager
    def root(self):
        """The benchmark's own span around one round."""
        span = ["bench.round", perf_counter(), 0.0, -1]
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.stack.pop()
            span[2] = perf_counter()

    def bounds(self) -> tuple[float, float]:
        """Start and end of the recorded round."""
        return next((s, e) for name, s, e, _ in self.spans if name == "bench.round")

    def probe_span(self, start: float, end: float) -> None:
        """A speed-probe sample, as a span of its own (see speed.py)."""
        self.spans.append(["trace.probe", start, end, self.stack[-1] if self.stack else -1])

    # -- hooks --------------------------------------------------------------

    def _pre_network_extract(self, args) -> None:
        widths = args[0].widths
        self._layer_ctx = None
        if widths == self.layer_shape:
            self._layer_ctx = {
                "ends": list(accumulate(widths)),
                "relu": 0,
                "affine": 0,
                "rows": [
                    {"affine_s": 0.0, "relu_s": 0.0, "knots": set()} for _ in widths
                ],
            }

    def _post_network_extract(self, args, result, span) -> None:
        if self._layer_ctx is not None:
            rows = self._layer_ctx["rows"]
            self._layer_ctx = None
            self.layers.append(
                [
                    {"affine_s": r["affine_s"], "relu_s": r["relu_s"],
                     "knots": len(r["knots"]), "max_bits": _bits(r["knots"])}
                    for r in rows
                ]
            )
        if span[3] >= 0 and self.spans[span[3]][0] == "verify.oracle_agreement":
            self._last_knot_total = len(result.output_knot_union())

    def _unit_layer(self, unit: int) -> int | None:
        ends = self._layer_ctx["ends"]
        layer = bisect_right(ends, unit)
        return layer if layer < len(ends) else None

    def _spline_out(self, result) -> None:
        self.counts["spline.breakpoints_out"] += len(result.breakpoints)
        self.max_bits = max(self.max_bits, _bits(x for x, _ in result.breakpoints))

    def _post_spline_relu(self, args, result, span) -> None:
        self._spline_out(result)
        ctx = self._layer_ctx
        if ctx is not None:
            layer = self._unit_layer(ctx["relu"])
            ctx["relu"] += 1
            if layer is not None:
                row = ctx["rows"][layer]
                row["relu_s"] += span[2] - span[1]
                row["knots"].update(x for x, _ in result.breakpoints)

    def _post_spline_affine_combine(self, args, result, span) -> None:
        self._spline_out(result)
        ctx = self._layer_ctx
        if ctx is not None:
            # the first layer applies relu to the input line directly, so
            # affine call j combines for unit j + n_1; the rest are outputs
            layer = self._unit_layer(ctx["affine"] + ctx["ends"][0])
            ctx["affine"] += 1
            if layer is not None:
                ctx["rows"][layer]["affine_s"] += span[2] - span[1]

    def _post_verify_oracle_agreement(self, args, result, span) -> None:
        self.counts["verify.samples"] += args[1].samples
        self.counts["verify.exact_outside_interval"] += self._last_knot_total - len(result.exact)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer figures for the recorded round."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        calls = Counter()
        self_s = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            calls[name] += 1
            self_s[name.partition(".")[0]] += end - start - child[i]
        m: dict[str, float] = {
            "spline.relu_s": total["spline.relu"],
            "spline.relu_calls": calls["spline.relu"],
            "spline.affine_s": total["spline.affine_combine"],
            "spline.affine_calls": calls["spline.affine_combine"],
            "spline.breakpoints_out": self.counts["spline.breakpoints_out"],
            "spline.max_bits": self.max_bits,
            "rational.as_rational_calls": self.counts["rational.as_rational"],
            "network.extract_s": total["network.extract"],
            "network.extract_calls": calls["network.extract"],
            "network.evaluate_s": total["network.evaluate"],
            "network.evaluate_calls": calls["network.evaluate"],
            "canonical.forward_facing_s": total["canonical.to_forward_facing"],
            "canonical.eval_s": total["canonical.eval_canonical"],
            "canonical.eval_calls": calls["canonical.eval_canonical"],
            "verify.sampling_s": total["verify.detect_knots_by_sampling"],
            "verify.samples": self.counts["verify.samples"],
            "verify.stress_s": total["verify.stress_bound"],
            "verify.random_network_s": total["verify.random_network"],
            "verify.exact_outside_interval": self.counts["verify.exact_outside_interval"],
            "jsonio.load_s": total["jsonio.load_network"],
            "jsonio.save_s": total["jsonio.save_network"],
            "cli.commands": calls["cli.main"],
        }
        for module in TRACED + ("bench", "trace"):
            m[f"{module}.self_s"] = self_s[module]
        for n in range(1, MAX_LAYERS + 1):
            # layer 1 applies relu to the input line: it has no affine step
            for key in ("affine_s", "relu_s", "knots", "max_bits")[n == 1:]:
                values = [ex[n - 1][key] for ex in self.layers if n <= len(ex)]
                m[f"layer{n}.{key}"] = median(values) if values else 0
        return m
