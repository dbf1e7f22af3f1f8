"""Per-layer tracing from outside the package.

:class:`Tracer` replaces a layer's public functions with timing wrappers in
the modules where their callers look them up (``svgforge.pipeline.
parse_document``, ``svgforge.rewards.path_count``, ...) and puts the
originals back on :meth:`Tracer.uninstall`. The package source is never
edited. Each call becomes a span (name, start, end, parent); spans live in
memory until :meth:`Tracer.dump`. A layer's self time is its spans'
durations minus the parts covered by their child spans.

Spans nest per thread, so traced runs use ``--jobs 1``: with threads, a
worker's spans would have no parent in the ``run_*`` span that caused them.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from pathlib import Path

# (module where callers look the function up, attribute, span name)
WRAPPED = (
    ("svgforge.pipeline", "run_normalize", "pipeline.normalize"),
    ("svgforge.pipeline", "run_classify", "pipeline.classify"),
    ("svgforge.pipeline", "run_stats", "pipeline.stats"),
    ("svgforge.pipeline", "run_curriculum", "pipeline.curriculum"),
    ("svgforge.pipeline", "run_augment", "pipeline.augment"),
    ("svgforge.pipeline", "run_verify", "pipeline.verify"),
    ("svgforge.pipeline", "run_score", "pipeline.score"),
    ("svgforge.pipeline", "parse_document", "parser.parse"),
    ("svgforge.pipeline", "serialize_document", "parser.serialize"),
    ("svgforge.pipeline", "normalize_document", "normalizer.normalize"),
    ("svgforge.pipeline", "classify", "classifier.classify"),
    ("svgforge.pipeline", "replace_colors", "augment.recolor"),
    ("svgforge.pipeline", "swap_paths", "augment.swap"),
    ("svgforge.pipeline", "verify_normalization", "verifier.verify"),
    ("svgforge.pipeline", "total_reward", "rewards.total_reward"),
    ("svgforge.rewards", "path_count", "rewards.path_count"),
    ("svgforge.rewards", "parse_document", "parser.parse"),
    ("svgforge.rewards", "normalize_document", "normalizer.normalize"),
    ("svgforge.parser", "parse_path_data", "pathdata.parse"),
    ("svgforge.verifier", "sample_outline", "verifier.sample"),
    ("svgforge.verifier", "_transform_polys", "verifier.sample"),
    ("svgforge.verifier", "_flatten_path", "verifier.flatten"),
    ("svgforge.verifier", "set_deviation", "verifier.deviation"),
)


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.failed: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.parsed_texts: set[int] = set()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
            stack.append(index)
            if before is not None:
                before(*args)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                self.failed[name] = self.failed.get(name, 0) + 1
                raise
            else:
                end = time.perf_counter()
                if after is not None:
                    after(result, *args)
                return result
            finally:
                stack.pop()
                self.spans[index] = (name, start, end, parent)

        return traced

    def _add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- counters at the wrapped boundaries ------------------------------------

    def _before_parser_parse(self, text, *_):
        self._add("parse_bytes", len(text.encode("utf-8")) if isinstance(text, str) else len(text))
        self.parsed_texts.add(hash(text))

    def _after_pathdata_parse(self, commands, *_):
        self._add("pathdata_commands", len(commands))

    def _after_normalizer_normalize(self, result, *_):
        self._add("normalizer_commands_out", sum(len(p.commands) for p in result[0].paths))

    def _before_rewards_total_reward(self, generated, reference, *_):
        self._local.reference = reference

    def _before_rewards_path_count(self, text, *_):
        if text is getattr(self._local, "reference", None):
            self._add("reference_path_counts")

    def _before_verifier_deviation(self, polys_a, polys_b, *_):
        points_a = sum(len(pl.points) for pl in polys_a)
        points_b = sum(len(pl.points) for pl in polys_b)
        one_sided = (points_a * (points_b - len(polys_b)), points_b * (points_a - len(polys_a)))
        self._add("point_segment_pairs", sum(one_sided))
        self.counts["max_point_segment_pairs"] = max(
            self.counts.get("max_point_segment_pairs", 0), *one_sided)

    def _after_verifier_deviation(self, report, *_):
        self._add("verifier_samples", report.samples_used)

    # -- summaries ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def totals(self) -> dict[str, tuple[int, float]]:
        """(calls, seconds of inclusive time) per span name."""
        out: dict[str, tuple[int, float]] = {}
        for name, start, end, _ in self.spans:
            calls, secs = out.get(name, (0, 0.0))
            out[name] = (calls + 1, secs + end - start)
        return out

    def dump(self, path: Path) -> None:
        """Write every span as one JSON list per line: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer figures a traced pass reports (times in ms)."""
    self_s = tracer.self_times()
    totals = tracer.totals()

    def calls(*names: str) -> int:
        return sum(totals.get(n, (0, 0.0))[0] for n in names)

    def self_ms(*names: str) -> float:
        return 1000.0 * sum(self_s.get(n, 0.0) for n in names)

    def incl_ms(name: str) -> float:
        return 1000.0 * totals.get(name, (0, 0.0))[1]

    c = tracer.counts
    parse_calls = calls("parser.parse")
    run_spans = [span for _, _, span in WRAPPED if span.startswith("pipeline.")]
    verifier = ("verifier.verify", "verifier.sample", "verifier.flatten", "verifier.deviation")
    return {
        "pathdata.calls": calls("pathdata.parse"),
        "pathdata.self_ms": self_ms("pathdata.parse"),
        "pathdata.commands": c.get("pathdata_commands", 0),
        "parser.parse_calls": parse_calls,
        "parser.parse_self_ms": self_ms("parser.parse"),
        "parser.parse_failed": tracer.failed.get("parser.parse", 0),
        "parser.parse_bytes": c.get("parse_bytes", 0),
        "parser.parse_distinct_ratio": len(tracer.parsed_texts) / parse_calls if parse_calls else 0.0,
        "parser.serialize_calls": calls("parser.serialize"),
        "parser.serialize_self_ms": self_ms("parser.serialize"),
        "normalizer.calls": calls("normalizer.normalize"),
        "normalizer.self_ms": self_ms("normalizer.normalize"),
        "normalizer.failed": tracer.failed.get("normalizer.normalize", 0),
        "normalizer.commands_out": c.get("normalizer_commands_out", 0),
        "classifier.calls": calls("classifier.classify"),
        "classifier.self_ms": self_ms("classifier.classify"),
        "augment.calls": calls("augment.recolor", "augment.swap"),
        "augment.self_ms": self_ms("augment.recolor", "augment.swap"),
        "verifier.calls": calls("verifier.verify"),
        "verifier.self_ms": self_ms(*verifier),
        "verifier.sample_self_ms": self_ms("verifier.sample"),
        "verifier.flatten_self_ms": self_ms("verifier.flatten"),
        "verifier.deviation_self_ms": self_ms("verifier.deviation"),
        "verifier.samples": c.get("verifier_samples", 0),
        "verifier.point_segment_pairs": c.get("point_segment_pairs", 0),
        "verifier.max_point_segment_pairs": c.get("max_point_segment_pairs", 0),
        "rewards.calls": calls("rewards.total_reward"),
        "rewards.self_ms": self_ms("rewards.total_reward", "rewards.path_count"),
        "rewards.path_count_calls": calls("rewards.path_count"),
        "rewards.reference_path_counts": c.get("reference_path_counts", 0),
        "pipeline.self_ms": self_ms(*run_spans),
        "pipeline.normalize_ms": incl_ms("pipeline.normalize"),
        "pipeline.classify_ms": incl_ms("pipeline.classify"),
        "pipeline.augment_ms": incl_ms("pipeline.augment"),
        "pipeline.verify_ms": incl_ms("pipeline.verify"),
        "pipeline.score_ms": incl_ms("pipeline.score"),
    }
