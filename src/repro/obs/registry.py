"""Metrics registry: counters, gauges, histograms keyed by component/name.

Hardware models and the protocol publish into one registry per
`Observer`.  Gauges are callback-based: registering one costs nothing on
the hot path — the `Sampler` invokes the callback at fixed simulated-time
intervals and appends ``(t_us, value)`` to the gauge's series.  All
containers are insertion-ordered dicts, so iteration (and therefore
every export) is deterministic.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..sim.core import Simulator
from ..sim.stats import LogHistogram

__all__ = ["MetricKey", "CounterMetric", "GaugeMetric", "HistogramMetric",
           "MetricsRegistry", "Sampler"]

MetricKey = Tuple[str, str, Tuple[Tuple[str, str], ...]]


def _key(component: str, name: str, labels: Dict[str, object]) -> MetricKey:
    return (component, name,
            tuple(sorted((k, str(v)) for k, v in labels.items())))


class CounterMetric:
    """A monotonically increasing count."""

    __slots__ = ("component", "name", "labels", "value")

    def __init__(self, component: str, name: str,
                 labels: Tuple[Tuple[str, str], ...]):
        self.component = component
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        self.value += n


class GaugeMetric:
    """A sampled read-callback; `Sampler` fills ``series``."""

    __slots__ = ("component", "name", "labels", "fn", "series")

    def __init__(self, component: str, name: str,
                 labels: Tuple[Tuple[str, str], ...],
                 fn: Callable[[], float]):
        self.component = component
        self.name = name
        self.labels = labels
        self.fn = fn
        self.series: List[Tuple[float, float]] = []

    def read(self) -> float:
        return float(self.fn())

    def last(self) -> float:
        return self.series[-1][1] if self.series else self.read()


class HistogramMetric:
    """A log-scale distribution (probe lengths, vector sizes, ...)."""

    __slots__ = ("component", "name", "labels", "hist")

    def __init__(self, component: str, name: str,
                 labels: Tuple[Tuple[str, str], ...]):
        self.component = component
        self.name = name
        self.labels = labels
        self.hist = LogHistogram()

    def observe(self, x: float) -> None:
        self.hist.add(x)


class MetricsRegistry:
    """Holds every metric for one observed cluster run."""

    def __init__(self):
        self.counters: Dict[MetricKey, CounterMetric] = {}
        self.gauges: Dict[MetricKey, GaugeMetric] = {}
        self.histograms: Dict[MetricKey, HistogramMetric] = {}

    def counter(self, component: str, name: str, **labels) -> CounterMetric:
        key = _key(component, name, labels)
        metric = self.counters.get(key)
        if metric is None:
            metric = self.counters[key] = CounterMetric(component, name, key[2])
        return metric

    def gauge(self, component: str, name: str, fn: Callable[[], float],
              **labels) -> GaugeMetric:
        key = _key(component, name, labels)
        if key in self.gauges:
            raise ValueError("gauge already registered: %r" % (key,))
        metric = self.gauges[key] = GaugeMetric(component, name, key[2], fn)
        return metric

    def histogram(self, component: str, name: str, **labels) -> HistogramMetric:
        key = _key(component, name, labels)
        metric = self.histograms.get(key)
        if metric is None:
            metric = self.histograms[key] = HistogramMetric(
                component, name, key[2])
        return metric

    def __len__(self) -> int:
        return len(self.counters) + len(self.gauges) + len(self.histograms)

    def as_dict(self) -> dict:
        """JSON-ready dump of every metric (gauges include final value
        and series length; full series ship with the Chrome trace)."""
        def label_str(labels):
            return ",".join("%s=%s" % kv for kv in labels)

        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for m in self.counters.values():
            name = "%s/%s" % (m.component, m.name)
            if m.labels:
                name += "{%s}" % label_str(m.labels)
            out["counters"][name] = m.value
        for m in self.gauges.values():
            name = "%s/%s" % (m.component, m.name)
            if m.labels:
                name += "{%s}" % label_str(m.labels)
            series = m.series
            out["gauges"][name] = {
                "last": series[-1][1] if series else None,
                "samples": len(series),
                "max": max((v for _, v in series), default=None),
                "mean": (sum(v for _, v in series) / len(series)
                         if series else None),
            }
        for m in self.histograms.values():
            name = "%s/%s" % (m.component, m.name)
            if m.labels:
                name += "{%s}" % label_str(m.labels)
            h = m.hist
            out["histograms"][name] = {
                "count": h.count,
                "mean": h.mean,
                "min": h.min if h.count else None,
                "max": h.max if h.count else None,
                "p50": h.percentile(50) if h.count else None,
                "p99": h.percentile(99) if h.count else None,
                "p999": h.percentile(99.9) if h.count else None,
            }
        return out


class Sampler:
    """Periodic simulated-time snapshotter for every registered gauge.

    A chain of queue entries: it starts at an entry at now, then each
    tick is a ``call_after`` entry that reads every gauge and appends to
    its series.  It stops itself when the rest of the simulation goes
    quiescent (its own entry was the only scheduled one) and is bounded by
    ``max_ticks`` besides, so an open-ended ``sim.run()`` still
    terminates.  It only *reads* model state — it draws no randomness
    and never blocks a model site, so enabling it cannot change
    simulated results (same-timestamp FIFO ordering is preserved for all
    other events).
    """

    def __init__(self, sim: Simulator, registry: MetricsRegistry,
                 interval_us: float = 20.0, max_ticks: int = 100_000):
        self.sim = sim
        self.registry = registry
        self.interval_us = float(interval_us)
        self.max_ticks = max_ticks
        self.ticks = 0
        self._stopped = False
        self._started = False

    def start(self) -> None:
        if not self._started:
            self._started = True
            sim = self.sim
            sim.call_at(sim.now, self._next)

    def stop(self) -> None:
        self._stopped = True

    def sample_now(self) -> None:
        now = self.sim.now
        for gauge in self.registry.gauges.values():
            gauge.series.append((now, gauge.read()))

    def _next(self, _arg: None) -> None:
        if not self._stopped and self.ticks < self.max_ticks:
            self.sim.call_after(self.interval_us, self._tick)

    def _tick(self, _arg: None) -> None:
        if self._stopped:
            return
        self.sample_now()
        self.ticks += 1
        if self.sim.pending_events == 0:
            # Our entry was the only thing left: the rest of the
            # simulation is quiescent and sampling further ticks
            # would just stretch the run (and the trace) with a
            # constant idle tail.
            return
        self._next(None)
