"""Campaign execution: fan a set of scenario variants out over workers.

The runner executes each :class:`~repro.campaign.grid.GridVariant` in its own
:class:`~repro.sim.flight.FlightSimulation` and collects one
:class:`VariantOutcome` per variant.  Execution is embarrassingly parallel —
every variant carries its full configuration (including its seed) in the
pickled scenario, so results are identical whether the campaign runs serially
or on a process pool, and independent of completion order.

Three orthogonal concerns are layered here:

* **Backends** — *how* variants are mapped to outcomes is delegated to an
  :class:`~repro.campaign.backends.ExecutorBackend` (serial, batch, process
  pool, or a campaign service's worker fleet).  ``mode``/``max_workers`` remain as
  the convenient policy knobs that pick between the built-in backends.
* **Caching** — with a :class:`~repro.store.CampaignStore` attached, every
  variant's content hash is looked up first and only misses are dispatched;
  completed flights are persisted as they complete — for backends that
  report completions out of order (process pool, distributed) the moment
  they finish, even when an earlier variant is still flying — so a killed
  campaign resumes from disk with nothing lost.  ``record_arrays=True``
  additionally captures each flight's trajectory and persists it via
  :meth:`~repro.store.CampaignStore.put_arrays`; warm runs then serve the
  arrays from the store without re-flying.
* **Fallback** — a variant that raises is captured as an outcome with an
  ``error`` traceback string; the rest of the campaign keeps running.  If
  the backend itself fails (no fork support, pickling failure, broken pool,
  dead distributed workers), the runner finishes the remaining variants
  serially — consulting the store first, so flights the failed backend
  already persisted are not re-flown — and records *why* in
  :attr:`CampaignResult.fallback_reason` instead of silently degrading.
"""

from __future__ import annotations

import functools
import inspect
import logging
import os
import time
import traceback
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ..obs import SpanCollector, default_registry, emit, span
from ..sim.flight import FlightResult, run_scenario
from ..sim.scenario import FlightScenario
from .backends import ExecutorBackend, ProcessPoolBackend, SerialBackend
from .grid import RESERVED_AXIS_NAMES, GridVariant, ScenarioGrid
from .results import CampaignResult, VariantOutcome

if TYPE_CHECKING:
    from ..store import CampaignStore

logger = logging.getLogger(__name__)

__all__ = ["CampaignRunner", "run_campaign", "trajectory_arrays"]


def _summarise(variant: GridVariant, result: FlightResult) -> dict[str, Any]:
    """Build the per-variant summary dictionary shipped back to the parent.

    Summaries (not full results) cross the process boundary: they are small,
    cheap to pickle and enough for the aggregation layer.  ``recovery_latency``
    is the time from the first attack to the Simplex switch, the paper's
    "how fast does the defence react" quantity.
    """
    from ..analysis.export import result_to_dict

    summary = result_to_dict(result)
    attack_time = variant.scenario.first_attack_time()
    if attack_time is not None and summary["switch_time"] is not None:
        summary["recovery_latency"] = summary["switch_time"] - attack_time
    else:
        summary["recovery_latency"] = None
    return summary


def trajectory_arrays(result: FlightResult) -> dict[str, Any]:
    """Named trajectory arrays of one flight, shaped for ``put_arrays``.

    The keys mirror the telemetry CSV schema (see
    :func:`repro.analysis.export.trajectory_to_rows`, which inverts this):
    ``time`` (N,), ``position``/``setpoint``/``velocity`` (N, 3) NED [m],
    ``attitude`` (N, 3) roll/pitch/yaw [rad], ``active_source`` (N,) str,
    ``crashed`` (N,) bool.
    """
    import numpy as np

    recorder = result.recorder
    samples = recorder.samples
    return {
        "time": recorder.times(),
        "position": recorder.positions(),
        "setpoint": recorder.setpoints(),
        "velocity": np.array([sample.velocity for sample in samples]),
        "attitude": recorder.attitudes(),
        "active_source": np.array(recorder.sources()),
        "crashed": np.array([sample.crashed for sample in samples], dtype=bool),
    }


def _execute_variant(
    variant: GridVariant, record_arrays: bool = False
) -> VariantOutcome | tuple[VariantOutcome, dict[str, Any] | None]:
    """Run one variant, capturing any failure as data (module-level so
    process pools and queue workers can pickle it).

    With ``record_arrays`` the return value is ``(outcome, arrays)`` —
    trajectory arrays ride back to the parent alongside the summary so the
    runner can persist them (``None`` for failed flights).
    """
    start = time.perf_counter()
    arrays = None
    try:
        with span("campaign.variant"):
            result = run_scenario(variant.scenario)
        summary = _summarise(variant, result)
        if record_arrays:
            arrays = trajectory_arrays(result)
        error = None
    except Exception:
        summary = None
        error = traceback.format_exc()
    outcome = VariantOutcome(
        name=variant.name,
        axes=variant.axes,
        seed=variant.scenario.seed,
        summary=summary,
        error=error,
        wall_time=time.perf_counter() - start,
    )
    return (outcome, arrays) if record_arrays else outcome


def _split_result(raw: Any) -> tuple[VariantOutcome, dict[str, Any] | None]:
    """Normalise a backend result to ``(outcome, arrays)``.

    Fake/test backends fabricate bare :class:`VariantOutcome`s without going
    through the worker function, so both shapes must be accepted.
    """
    if isinstance(raw, tuple):
        outcome, arrays = raw
        return outcome, arrays
    return raw, None


def _as_variants(
    campaign: ScenarioGrid | Iterable[GridVariant | FlightScenario],
) -> list[GridVariant]:
    if isinstance(campaign, ScenarioGrid):
        return campaign.variants()
    variants: list[GridVariant] = []
    seen: set[str] = set()
    for entry in campaign:
        if isinstance(entry, FlightScenario):
            entry = GridVariant(name=entry.name, axes=(), scenario=entry)
        elif not isinstance(entry, GridVariant):
            raise TypeError(
                f"expected FlightScenario or GridVariant, got {type(entry).__name__}"
            )
        if entry.name in seen:
            raise ValueError(f"duplicate variant name {entry.name!r}")
        # Hand-built variants bypass ScenarioGrid.add_axis, so enforce its
        # guards here too: reserved names would be silently overwritten by
        # the summary fields in exports, and unhashable values would only
        # blow up in cell aggregation after the whole campaign has flown.
        for axis_name, axis_value in entry.axes:
            if axis_name in RESERVED_AXIS_NAMES:
                raise ValueError(
                    f"variant {entry.name!r} uses reserved axis name "
                    f"{axis_name!r} (it would collide with a summary-export "
                    "column)"
                )
            try:
                hash(axis_value)
            except TypeError:
                raise TypeError(
                    f"variant {entry.name!r} axis {axis_name!r} value "
                    f"{axis_value!r} is not hashable; cell aggregation "
                    "groups on axis values"
                ) from None
            if axis_name == "seed" and axis_value != entry.scenario.seed:
                # The summary's seed column reports the scenario's seed; a
                # declared seed axis that disagrees would silently vanish.
                raise ValueError(
                    f"variant {entry.name!r} declares seed axis value "
                    f"{axis_value!r} but its scenario flies with seed "
                    f"{entry.scenario.seed}"
                )
        seen.add(entry.name)
        variants.append(entry)
    return variants


@dataclass(frozen=True)
class CampaignRunner:
    """Executes a campaign of scenario variants.

    Attributes
    ----------
    max_workers:
        Process-pool size; ``None`` uses the CPU count (capped at the number
        of variants).  Ignored when an explicit ``backend`` is given.
    mode:
        ``"auto"`` picks the process pool when the machine has more than one
        core and the campaign more than one uncached variant; ``"parallel"``
        and ``"serial"`` force the choice.  Ignored when an explicit
        ``backend`` is given.
    backend:
        Explicit :class:`~repro.campaign.backends.ExecutorBackend`; overrides
        the ``mode``/``max_workers`` policy and is used unconditionally.
    store:
        Optional :class:`~repro.store.CampaignStore`.  When attached, cached
        outcomes are served without flying and fresh outcomes are persisted.
    record_arrays:
        Capture each flight's trajectory arrays and persist them alongside
        the summary cell (requires ``store``).  A cached summary whose
        arrays are missing or corrupt is re-flown so the warm store always
        serves both.
    telemetry:
        Assemble the :attr:`CampaignResult.telemetry` block (store deltas,
        span summaries, queue counters).  ``False`` leaves it ``None`` —
        the instrumentation itself stays on; use
        :func:`repro.obs.set_enabled` to silence that too.
    """

    max_workers: int | None = None
    mode: str = "auto"
    backend: ExecutorBackend | None = None
    store: "CampaignStore | None" = None
    record_arrays: bool = False
    telemetry: bool = True

    _MODES = ("auto", "parallel", "serial")

    def __post_init__(self) -> None:
        if self.mode not in self._MODES:
            raise ValueError(f"mode must be one of {self._MODES}")
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if self.record_arrays and self.store is None:
            raise ValueError(
                "record_arrays requires a store: trajectory arrays are "
                "persisted via CampaignStore.put_arrays"
            )

    def run(
        self, campaign: ScenarioGrid | Iterable[GridVariant | FlightScenario]
    ) -> CampaignResult:
        """Execute every variant and return the aggregated campaign result.

        Outcome order always matches variant (grid-expansion) order, never
        completion order — with or without cache hits interleaved.
        """
        variants = _as_variants(campaign)
        start = time.perf_counter()
        store_before = (
            self.store.stats.as_dict() if self.store is not None else None
        )
        emit("campaign-start", "campaign.runner", variants=len(variants))
        logger.info("campaign starting: %d variant(s)", len(variants))

        # A per-run collector isolates this run's span summaries from other
        # campaigns in the same process (the default registry's histogram
        # keeps accumulating across runs, as a process-wide metric should).
        collector = SpanCollector()
        with collector:
            cached: dict[int, VariantOutcome] = {}
            if self.store is not None:
                with span("campaign.lookup"):
                    for index, variant in enumerate(variants):
                        hit = self._cached_outcome(variant)
                        if hit is not None:
                            cached[index] = hit
            to_run = [
                variant
                for index, variant in enumerate(variants)
                if index not in cached
            ]

            with span("campaign.execute"):
                (
                    flown, fallback_reason, scale_events,
                    backend_name, queue_stats,
                ) = self._execute(to_run)

        # Merge cache hits and fresh flights back into expansion order.
        merged: list[VariantOutcome] = []
        fresh = iter(flown)
        for index in range(len(variants)):
            merged.append(cached[index] if index in cached else next(fresh))

        # Count hits from the outcomes, not the pre-dispatch lookup: the
        # serial fallback may serve store cells the failed backend persisted.
        hits = sum(1 for outcome in merged if outcome.cached)
        variant_counter = default_registry().counter(
            "repro_campaign_variants_total",
            "Campaign variants by disposition (cached/flown/failed).",
        )
        wall_histogram = default_registry().histogram(
            "repro_variant_wall_seconds",
            "Wall time of individual flown variants.",
        )
        for outcome in merged:
            if outcome.cached:
                variant_counter.inc(status="cached")
            elif outcome.ok:
                variant_counter.inc(status="flown")
                wall_histogram.observe(outcome.wall_time)
            else:
                variant_counter.inc(status="failed")
                wall_histogram.observe(outcome.wall_time)

        wall_time = time.perf_counter() - start
        telemetry = None
        if self.telemetry:
            store_delta = None
            if store_before is not None:
                after = self.store.stats.as_dict()
                store_delta = {
                    key: after[key] - store_before[key] for key in after
                }
            telemetry = {
                "schema": 1,
                "backend": backend_name,
                "store": store_delta,
                "spans": collector.summaries(),
                "queue": queue_stats or None,
            }
        emit(
            "campaign-end", "campaign.runner",
            variants=len(variants),
            cache_hits=hits,
            wall_time_s=round(wall_time, 6),
            fallback=fallback_reason,
        )
        logger.info(
            "campaign finished: %d variant(s), %d cached, %.2fs",
            len(variants), hits, wall_time,
        )
        return CampaignResult(
            outcomes=tuple(merged),
            wall_time=wall_time,
            cache_hits=hits,
            cache_misses=len(variants) - hits if self.store is not None else 0,
            fallback_reason=fallback_reason,
            scale_events=scale_events,
            telemetry=telemetry,
        )

    # ------------------------------------------------------------------ internal --

    def _cached_outcome(self, variant: GridVariant) -> VariantOutcome | None:
        """Store lookup honouring the ``record_arrays`` policy: a summary
        cell without (valid) trajectory arrays — flown before
        ``record_arrays``, or a corrupt ``.npz`` — is treated as a miss and
        re-flown to backfill, so the warm store always serves both."""
        if self.store is None:
            return None
        hit = self.store.get(variant)
        if (
            hit is not None
            and self.record_arrays
            and not self.store.has_arrays(variant)
        ):
            return None
        return hit

    def select_backend(self, variants: Sequence[GridVariant]) -> ExecutorBackend:
        """Backend that will execute ``variants`` (explicit one wins)."""
        if self.backend is not None:
            return self.backend
        if self._use_parallel(variants):
            return ProcessPoolBackend(max_workers=self.max_workers)
        return SerialBackend()

    def _use_parallel(self, variants: Sequence[GridVariant]) -> bool:
        if self.mode == "serial" or len(variants) < 2:
            return False
        if self.max_workers == 1:
            # A one-worker pool pays spawn + pickling for zero concurrency.
            return False
        if self.mode == "parallel":
            return True
        return (os.cpu_count() or 1) > 1

    def _worker_fn(self):
        """The per-variant function shipped to the backend (picklable)."""
        if self.record_arrays:
            return functools.partial(_execute_variant, record_arrays=True)
        return _execute_variant

    @staticmethod
    def _supports_on_complete(backend: ExecutorBackend) -> bool:
        try:
            return "on_complete" in inspect.signature(backend.map).parameters
        except (TypeError, ValueError):
            return False

    def _execute(
        self, variants: Sequence[GridVariant]
    ) -> tuple[
        list[VariantOutcome],
        str | None,
        tuple[dict[str, Any], ...],
        str | None,
        dict[str, Any],
    ]:
        """Map the worker over ``variants``; on backend failure keep what
        completed, finish serially and report why.  Beyond the outcomes and
        fallback reason it returns the backend's autoscaling record, its
        name, and its work-queue counter snapshot (both empty/None when no
        variant had to fly or the backend records none)."""
        if not variants:
            return [], None, (), None, {}
        backend = self.select_backend(variants)
        fn = self._worker_fn()
        outcomes: list[VariantOutcome] = []
        persisted: set[int] = set()

        def _on_complete(index: int, raw: Any) -> None:
            # Completion-order persistence: a flight that finished while an
            # earlier variant is still flying reaches the store immediately,
            # so an interrupt (or dead coordinator) loses nothing.
            outcome, arrays = _split_result(raw)
            self._persist(variants[index], outcome, arrays)
            persisted.add(index)

        if self._supports_on_complete(backend):
            iterator = backend.map(fn, variants, on_complete=_on_complete)
        else:
            iterator = backend.map(fn, variants)
        try:
            for raw in iterator:
                outcome, arrays = _split_result(raw)
                outcomes.append(outcome)
                index = len(outcomes) - 1
                if index not in persisted:
                    self._persist(variants[index], outcome, arrays)
                emit(
                    "variant-complete", "campaign.runner",
                    variant=outcome.name,
                    ok=outcome.ok,
                    wall_time_s=round(outcome.wall_time, 6),
                )
        except Exception as exc:
            # Backend-level failure (fork unavailable, pickling, broken pool,
            # dead distributed workers): keep what already completed, finish
            # the rest serially, and record why the speedup is gone.  The
            # store is consulted first — completions the backend persisted
            # out of order (or a previous coordinator wrote) are not re-flown.
            reason = repr(exc)
            emit(
                "campaign-fallback", "campaign.runner",
                backend=backend.name,
                completed=len(outcomes),
                total=len(variants),
                reason=reason,
            )
            logger.warning(
                "backend %s failed after %d/%d variants; finishing serially",
                backend.name, len(outcomes), len(variants),
            )
            warnings.warn(
                f"campaign executor backend {backend.name!r} failed after "
                f"{len(outcomes)}/{len(variants)} variants ({reason}); "
                "finishing the remaining variants serially",
                RuntimeWarning,
                stacklevel=3,
            )
            with span("campaign.fallback"):
                for index in range(len(outcomes), len(variants)):
                    variant = variants[index]
                    outcome = self._cached_outcome(variant)
                    arrays = None
                    if outcome is None:
                        outcome, arrays = _split_result(fn(variant))
                    outcomes.append(outcome)
                    if index not in persisted:
                        self._persist(variant, outcome, arrays)
            return (
                outcomes, reason, self._scale_events(backend),
                backend.name, self._queue_stats(backend),
            )
        return (
            outcomes, None, self._scale_events(backend),
            backend.name, self._queue_stats(backend),
        )

    @staticmethod
    def _scale_events(backend: ExecutorBackend) -> tuple[dict[str, Any], ...]:
        """Autoscaling decisions the backend recorded during this run, if
        it records any (see ``DistributedBackend.scale_events``)."""
        return tuple(
            dict(event) for event in getattr(backend, "scale_events", ()) or ()
        )

    @staticmethod
    def _queue_stats(backend: ExecutorBackend) -> dict[str, Any]:
        """Work-queue counter snapshot the backend recorded during this run,
        if it records one (see ``DistributedBackend.queue_stats``)."""
        return dict(getattr(backend, "queue_stats", {}) or {})

    def _persist(
        self,
        variant: GridVariant,
        outcome: VariantOutcome,
        arrays: dict[str, Any] | None = None,
    ) -> None:
        """Best-effort store write: the store is a cache, never an authority,
        so an unwritable directory must not cost the campaign its results."""
        if self.store is None:
            return
        try:
            written = self.store.put(variant, outcome)
            if written and arrays is not None:
                self.store.put_arrays(variant, **arrays)
        except Exception as exc:
            # Any write failure (read-only dir, serialisation, a broken
            # custom store) is only a lost cache cell — it must neither be
            # misread as a backend failure nor abort the campaign.
            warnings.warn(
                f"campaign store write failed for {variant.name!r} "
                f"({exc!r}); continuing without caching this cell",
                RuntimeWarning,
                stacklevel=2,
            )


def run_campaign(
    campaign: ScenarioGrid | Iterable[GridVariant | FlightScenario],
    max_workers: int | None = None,
    mode: str = "auto",
    backend: ExecutorBackend | None = None,
    store: "CampaignStore | None" = None,
    record_arrays: bool = False,
    telemetry: bool = True,
) -> CampaignResult:
    """Convenience helper: run ``campaign`` with a fresh :class:`CampaignRunner`."""
    return CampaignRunner(
        max_workers=max_workers,
        mode=mode,
        backend=backend,
        store=store,
        record_arrays=record_arrays,
        telemetry=telemetry,
    ).run(campaign)
