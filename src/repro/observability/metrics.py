"""A small metrics registry: counters, gauges, histograms, Prometheus text.

The registry is fed by the simulated cluster (per-device memory high-water
marks, link bytes), the fault gate (retries, timeouts, worker losses), and
the RLHF pipeline (per-role dispatch latencies, tokens generated).  Metric
instances are keyed by ``(name, labels)``; ``set`` on gauges is idempotent,
so re-collecting after a recovery re-placement never double-counts.

Exposition follows the Prometheus text format closely enough to be scraped
(``# HELP`` / ``# TYPE`` headers, ``name{label="v"} value`` samples,
``_bucket``/``_sum``/``_count`` series for histograms) while staying
dependency-free.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.serialization import json_safe

#: Default histogram buckets (simulated seconds).
DEFAULT_BUCKETS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey) -> str:
    if not key:
        return ""
    parts = []
    for name, value in key:
        escaped = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        parts.append(f'{name}="{escaped}"')
    return "{" + ",".join(parts) + "}"


def _fmt(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Counter:
    """A monotonically increasing value."""

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        self.value += amount

    def samples(self, name: str, key: LabelKey) -> List[Tuple[str, LabelKey, float]]:
        return [(name, key, self.value)]


class Gauge:
    """A value that can be set arbitrarily (idempotent under re-collection)."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def set_max(self, value: float) -> None:
        """High-water-mark update: keep the max of current and ``value``."""
        self.value = max(self.value, float(value))

    def samples(self, name: str, key: LabelKey) -> List[Tuple[str, LabelKey, float]]:
        return [(name, key, self.value)]


class Histogram:
    """Cumulative-bucket histogram with sum and count."""

    kind = "histogram"

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * len(self.buckets)
        #: Observations above the largest finite bucket — the implicit
        #: ``le="+Inf"`` bucket Prometheus requires.  Tracked explicitly so
        #: they appear in ``as_dict`` too, not only implicitly via ``count``.
        self.overflow = 0
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += float(value)
        # bucket_counts are per-bucket; samples() accumulates them into the
        # cumulative series Prometheus expects
        for i, le in enumerate(self.buckets):
            if value <= le:
                self.bucket_counts[i] += 1
                break
        else:
            self.overflow += 1

    def samples(self, name: str, key: LabelKey) -> List[Tuple[str, LabelKey, float]]:
        out: List[Tuple[str, LabelKey, float]] = []
        cumulative = 0
        for le, n in zip(self.buckets, self.bucket_counts):
            cumulative += n
            out.append((f"{name}_bucket", key + (("le", _fmt(le)),), cumulative))
        # +Inf is cumulative-over-everything: finite buckets plus overflow,
        # which by construction equals count
        out.append(
            (f"{name}_bucket", key + (("le", "+Inf"),), cumulative + self.overflow)
        )
        out.append((f"{name}_sum", key, self.sum))
        out.append((f"{name}_count", key, self.count))
        return out


class MetricsRegistry:
    """Named metric families, each a set of label-keyed children."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelKey], Any] = {}
        self._families: Dict[str, Tuple[str, str]] = {}  # name -> (kind, help)

    # -- creation / lookup -------------------------------------------------------------

    def _child(self, cls, name: str, help_text: str, labels: Dict[str, Any], **kwargs):
        kind = cls.kind
        known = self._families.get(name)
        if known is not None and known[0] != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {known[0]}, "
                f"not a {kind}"
            )
        if known is None or (help_text and not known[1]):
            self._families[name] = (kind, help_text or (known[1] if known else ""))
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(**kwargs)
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self._child(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self._child(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
        **labels: Any,
    ) -> Histogram:
        return self._child(
            Histogram, name, help, labels, buckets=buckets or DEFAULT_BUCKETS
        )

    def get(self, name: str, **labels: Any) -> Optional[Any]:
        """The existing metric for ``(name, labels)``, or ``None``."""
        return self._metrics.get((name, _label_key(labels)))

    def value(self, name: str, **labels: Any) -> float:
        """Counter/gauge value (0.0 when the child does not exist yet)."""
        metric = self.get(name, **labels)
        if metric is None:
            return 0.0
        return metric.value

    def total(self, name: str) -> float:
        """Sum of a counter/gauge family across all label sets."""
        return sum(
            m.value
            for (n, _), m in self._metrics.items()
            if n == name and hasattr(m, "value")
        )

    def labelsets(self, name: str) -> List[Dict[str, str]]:
        return [
            dict(key)
            for (n, key) in sorted(self._metrics)
            if n == name
        ]

    def families(self) -> List[str]:
        return sorted(self._families)

    # -- exposition --------------------------------------------------------------------

    def render_prometheus(self) -> str:
        """Prometheus text exposition, deterministically ordered."""
        lines: List[str] = []
        for name in sorted(self._families):
            kind, help_text = self._families[name]
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            children = sorted(
                (key, metric)
                for (n, key), metric in self._metrics.items()
                if n == name
            )
            for key, metric in children:
                for sample_name, sample_key, value in metric.samples(name, key):
                    lines.append(
                        f"{sample_name}{_render_labels(sample_key)} {_fmt(value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe nested dump: family -> [{labels, value(s)}]."""
        out: Dict[str, Any] = {}
        for name in sorted(self._families):
            kind, help_text = self._families[name]
            children = []
            for (n, key), metric in sorted(self._metrics.items()):
                if n != name:
                    continue
                entry: Dict[str, Any] = {"labels": dict(key)}
                if isinstance(metric, Histogram):
                    entry.update(
                        {
                            "count": metric.count,
                            "sum": metric.sum,
                            "buckets": [
                                [le, c]
                                for le, c in zip(
                                    metric.buckets, metric.bucket_counts
                                )
                            ]
                            + [["+Inf", metric.overflow]],
                        }
                    )
                else:
                    entry["value"] = metric.value
                children.append(entry)
            out[name] = {"kind": kind, "help": help_text, "children": children}
        return json_safe(out, "metrics")

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({len(self._families)} families, "
            f"{len(self._metrics)} series)"
        )


class _NullMetrics(MetricsRegistry):
    """The registry of a component nobody observes: every ``counter`` /
    ``gauge`` / ``histogram`` call returns a fresh child that is never
    registered, so updates land nowhere and every query reads empty."""

    def _child(self, cls, name: str, help_text: str, labels: Dict[str, Any], **kwargs):
        return cls(**kwargs)


#: What ``group.metrics`` resolves to without a controller, and the default
#: of every component that takes an optional registry.
NULL_METRICS = _NullMetrics()
