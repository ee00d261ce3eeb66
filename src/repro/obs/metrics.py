"""Typed metrics: counters, gauges, and log-bucketed histograms.

* :class:`Counter` — monotonically increasing total (``inc``);
* :class:`Gauge` — last-value-wins measurement (``set``);
* :class:`Histogram` — distribution over **fixed log-scale buckets**
  (default: powers of 4 seconds from 1 µs), cheap enough for hot paths.

A :class:`MetricsRegistry` owns instruments by name; :meth:`snapshot`
flattens everything into the plain ``dict[str, float]`` that
:class:`~repro.pipeline.driver.CompileDiagnostics` carries, keeping the
engine's cached-result schema a stable surface. :meth:`scoped` returns
a namespacing view (``registry.scoped("partition").counter("x")`` owns
``"partition.x"``) so two pipeline passes can never silently clobber
each other's counters.

Each compile counts into its own registry. :func:`use_registry` makes a
registry *current* in a context variable for the length of a ``with``
block, and :func:`current_registry` returns it, so code that no compile
argument reaches — the relaxation kernels and the analysis memo, which
run under ``mii()``, coarsening and the pseudo-schedule — counts into
the compile that runs it. Each compile runs in its own context, in a
pool worker process or in a caller's thread, so concurrent compiles
never see each other's counts. Outside every ``with`` block
the current registry is one that nothing reads, so counting code never
checks for "no compile".
"""

from __future__ import annotations

import bisect
import contextlib
import contextvars
import threading

#: Default histogram bounds: log-scale (powers of 4) seconds, 1 µs .. ~4.4 ks.
LOG_SECONDS_BOUNDS: tuple[float, ...] = tuple(1e-6 * 4**i for i in range(17))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add a non-negative amount."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """A last-value-wins measurement."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """A distribution over fixed log-scale buckets.

    ``counts[i]`` counts observations ``<= bounds[i]``; the final slot
    is the overflow bucket. ``count``/``total``/``max`` are exact;
    quantiles are bucket upper-bound approximations, never above ``max``.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "max")

    def __init__(self, name: str, bounds: tuple[float, ...] | None = None) -> None:
        self.name = name
        self.bounds = tuple(bounds) if bounds is not None else LOG_SECONDS_BOUNDS
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError(f"histogram {self.name!r} bounds must be sorted")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the covering bucket,
        or the largest observation when that is smaller."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        for index, bucket in enumerate(self.counts):
            running += bucket
            if running >= target and bucket:
                if index < len(self.bounds):
                    return min(self.bounds[index], self.max)
                return self.max
        return self.max

    def to_wire(self) -> dict:
        """Lossless JSON form: buckets + exact count/sum/max + quantiles.

        The typed counterpart of the :meth:`MetricsRegistry.snapshot`
        flatten (which drops the bucket vector): ``bounds``/``counts``
        carry the full distribution, and p50/p95/p99 come precomputed.
        """
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Named instruments behind one typed, thread-safe API."""

    def __init__(self) -> None:
        self._instruments: dict[str, object] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, kind, *args):
        # Hit path without the lock: a dict read is atomic, and an
        # instrument, once registered, is never replaced.
        instrument = self._instruments.get(name)
        if type(instrument) is kind:
            return instrument
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = kind(name, *args)
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise TypeError(
                    f"metric {name!r} is a {type(instrument).__name__}, "
                    f"not a {kind.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get(name, Gauge)

    def histogram(
        self, name: str, bounds: tuple[float, ...] | None = None
    ) -> Histogram:
        """Get or create the histogram ``name``."""
        return self._get(name, Histogram, bounds)

    def scoped(self, prefix: str) -> "ScopedRegistry":
        """A namespacing view: instrument ``x`` becomes ``<prefix>.x``."""
        return ScopedRegistry(self, prefix)

    def instruments(self) -> dict[str, object]:
        """Name → instrument, in registration order."""
        with self._lock:
            return dict(self._instruments)

    def snapshot(self) -> dict[str, float]:
        """Flatten to the ``CompileDiagnostics.counters`` dict shape.

        Counters and gauges contribute their value under their own
        name; histograms contribute ``<name>.count``, ``<name>.sum``
        and ``<name>.max`` (bucket vectors stay internal).
        """
        flat: dict[str, float] = {}
        for name, instrument in self.instruments().items():
            if isinstance(instrument, Histogram):
                flat[f"{name}.count"] = float(instrument.count)
                flat[f"{name}.sum"] = instrument.total
                flat[f"{name}.max"] = instrument.max
            else:
                flat[name] = instrument.value  # type: ignore[attr-defined]
        return flat

    def export(self) -> dict[str, dict]:
        """Typed, lossless snapshot: name → tagged wire dict.

        Counters become ``{"type": "counter", "value": v}``, gauges
        ``{"type": "gauge", "value": v}``, histograms their full
        :meth:`Histogram.to_wire` form (buckets + count/sum/max +
        p50/p95/p99). This is the ``/stats`` wire shape — unlike
        :meth:`snapshot` nothing is flattened away.
        """
        out: dict[str, dict] = {}
        for name, instrument in self.instruments().items():
            if isinstance(instrument, Histogram):
                out[name] = instrument.to_wire()
            elif isinstance(instrument, Counter):
                out[name] = {"type": "counter", "value": instrument.value}
            else:
                out[name] = {"type": "gauge", "value": instrument.value}
        return out


class ScopedRegistry:
    """A prefix view over a :class:`MetricsRegistry` (no own storage)."""

    def __init__(self, registry: MetricsRegistry, prefix: str) -> None:
        self.registry = registry
        self.prefix = prefix

    def _name(self, name: str) -> str:
        return f"{self.prefix}.{name}"

    def counter(self, name: str) -> Counter:
        return self.registry.counter(self._name(name))

    def gauge(self, name: str) -> Gauge:
        return self.registry.gauge(self._name(name))

    def histogram(
        self, name: str, bounds: tuple[float, ...] | None = None
    ) -> Histogram:
        return self.registry.histogram(self._name(name), bounds)

    def scoped(self, prefix: str) -> "ScopedRegistry":
        return ScopedRegistry(self.registry, self._name(prefix))


#: The registry counting code writes to; see :func:`use_registry`. The
#: default is a registry nothing reads, for code run outside a compile.
_CURRENT: contextvars.ContextVar[MetricsRegistry] = contextvars.ContextVar(
    "repro_obs_metrics_registry", default=MetricsRegistry()
)


def current_registry() -> MetricsRegistry:
    """The registry of the compile running in this context."""
    return _CURRENT.get()


@contextlib.contextmanager
def use_registry(registry: MetricsRegistry):
    """Make ``registry`` current for the ``with`` block.

    The previous registry comes back on exit, also on an exception: a
    pool worker runs job after job in one context, and a later job must
    not count into an earlier job's registry.
    """
    token = _CURRENT.set(registry)
    try:
        yield registry
    finally:
        _CURRENT.reset(token)
