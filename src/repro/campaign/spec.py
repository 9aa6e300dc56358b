"""Declarative campaign specs: JSON/TOML files describing a grid or search.

A spec file makes a campaign runnable without writing a script (see
``python -m repro.campaign``).  It has up to four tables:

``[scenario]``
    Base scenario.  ``figure`` picks a canonical constructor (``baseline``,
    ``figure4`` ... ``figure7``); remaining keys are constructor arguments
    (e.g. ``attack_start``) or direct ``FlightScenario`` field overrides
    (``duration``, ``seed``, ``record_hz``, ``geofence_radius``, ...).

``[axes]``
    Grid sweep: axis name -> list of values (any axis a
    :class:`~repro.campaign.grid.ScenarioGrid` accepts, including
    ``attack.<param>``).  Mutually exclusive with ``[adaptive]``.

``[adaptive]``
    Boundary search: ``axis``, ``lo``, ``hi``, ``tolerance``, and optionally
    ``predicate`` (a :func:`repro.adaptive.resolve_predicate` name, default
    ``crashed``), ``batch`` and ``integral``.

``[runner]``
    Execution policy: ``mode``/``max_workers`` or an explicit ``backend``
    registry name plus ``backend_options`` — e.g. ``{workers = 2}``,
    ``{workers = 0, port = 9100, auth_token = "..."}`` (an external fleet)
    or ``{workers = 0, max_workers = 4}`` (autoscaling) for the distributed
    backend, see ``docs/distributed.md`` — an optional ``store`` directory for cached
    results (with an optional generation ``salt``), ``record_arrays``
    to persist trajectory arrays alongside the summary cells, and
    ``telemetry = false`` to drop the result's telemetry block.

Example (TOML)::

    [scenario]
    figure = "figure5"
    duration = 12.0

    [axes]
    memguard_budget = [1000, 3000]
    seed = [0, 1, 2]

    [runner]
    store = ".campaign-store"
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import warnings
from pathlib import Path
from typing import Any, Mapping

from ..sim.scenario import FlightScenario
from .backends import get_backend
from .grid import ScenarioGrid
from .runner import CampaignRunner

__all__ = [
    "build_grid",
    "build_runner",
    "build_scenario",
    "build_search",
    "load_spec",
]

_CONSTRUCTORS = {
    "baseline": FlightScenario.baseline,
    "figure4": FlightScenario.figure4,
    "figure5": FlightScenario.figure5,
    "figure6": FlightScenario.figure6,
    "figure7": FlightScenario.figure7,
}

_SCENARIO_FIELDS = {spec.name for spec in dataclasses.fields(FlightScenario)}


def _as_integral(label: str, value: Any) -> int:
    """Coerce to int, rejecting values that truncation would silently change
    (``3.0`` is fine, ``3.5`` is a spec error, not seed 3)."""
    try:
        coerced = int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{label} value {value!r} is not an integer") from None
    if coerced != value:
        raise ValueError(
            f"{label} value {value!r} is not integral (would be truncated "
            f"to {coerced})"
        )
    return coerced


def load_spec(path: str | Path) -> dict[str, Any]:
    """Load a campaign spec from a ``.json`` or ``.toml`` file."""
    path = Path(path)
    if path.suffix.lower() == ".toml":
        import tomllib

        with open(path, "rb") as handle:
            spec = tomllib.load(handle)
    else:
        spec = json.loads(path.read_text())
    if not isinstance(spec, Mapping):
        raise ValueError(f"spec {path} must contain a table/object at top level")
    has_axes = "axes" in spec
    has_adaptive = "adaptive" in spec
    if has_axes == has_adaptive:
        raise ValueError(
            "spec must contain exactly one of 'axes' (grid sweep) or "
            "'adaptive' (boundary search)"
        )
    return dict(spec)


def build_scenario(section: Mapping[str, Any] | None) -> FlightScenario:
    """Build the base scenario of a spec's ``[scenario]`` table."""
    options = dict(section or {})
    kind = options.pop("figure", None)
    if kind is None:
        constructor: Any = FlightScenario
    else:
        try:
            constructor = _CONSTRUCTORS[kind]
        except KeyError:
            raise ValueError(
                f"unknown scenario figure {kind!r} "
                f"(available: {sorted(_CONSTRUCTORS)})"
            ) from None
    if "seed" in options:
        # Coerce before the constructor-kwarg split: a seed absorbed as a
        # constructor argument must get the same integral coercion as one
        # applied via dataclasses.replace, or a JSON spec's `"seed": 3.0`
        # flies with a float seed and caches under a different key than 3.
        options["seed"] = _as_integral("seed", options["seed"])
    parameters = inspect.signature(constructor).parameters
    constructor_kwargs = {
        name: options.pop(name) for name in list(options) if name in parameters
    }
    scenario = constructor(**constructor_kwargs)

    unknown = set(options) - _SCENARIO_FIELDS
    if unknown:
        raise ValueError(
            f"unknown scenario option(s) {sorted(unknown)}; valid keys are "
            f"'figure', constructor arguments and FlightScenario fields "
            f"({sorted(_SCENARIO_FIELDS)})"
        )
    if options:
        scenario = dataclasses.replace(scenario, **options)
    return scenario


def build_grid(spec: Mapping[str, Any]) -> ScenarioGrid:
    """Build the sweep grid of a grid spec."""
    axes = spec.get("axes")
    if not isinstance(axes, Mapping) or not axes:
        raise ValueError("grid spec needs a non-empty 'axes' table")
    return ScenarioGrid(build_scenario(spec.get("scenario")), axes=axes)


def build_search(spec: Mapping[str, Any]) -> "Any":
    """Build the boundary search of an adaptive spec."""
    from ..adaptive import BoundarySearch, resolve_predicate

    section = spec.get("adaptive")
    if not isinstance(section, Mapping):
        raise ValueError("adaptive spec needs an 'adaptive' table")
    options = dict(section)
    try:
        axis = options.pop("axis")
        lo = float(options.pop("lo"))
        hi = float(options.pop("hi"))
        tolerance = float(options.pop("tolerance"))
    except KeyError as exc:
        raise ValueError(f"adaptive spec is missing {exc.args[0]!r}") from None
    predicate = resolve_predicate(options.pop("predicate", "crashed"))
    batch = int(options.pop("batch", 1))
    integral = options.pop("integral", None)
    if options:
        raise ValueError(f"unknown adaptive option(s) {sorted(options)}")
    return BoundarySearch(
        scenario=build_scenario(spec.get("scenario")),
        axis=axis,
        lo=lo,
        hi=hi,
        tolerance=tolerance,
        predicate=predicate,
        batch=batch,
        integral=None if integral is None else bool(integral),
    )


def build_runner(
    spec: Mapping[str, Any],
    store_dir: str | Path | None = None,
    mode: str | None = None,
    max_workers: int | None = None,
    backend: str | None = None,
    record_arrays: bool | None = None,
    backend_options: Mapping[str, Any] | None = None,
) -> CampaignRunner:
    """Build the runner of a spec's ``[runner]`` table.

    ``store_dir``/``mode``/``max_workers``/``backend``/``record_arrays`` are
    command-line overrides that win over the spec.  ``mode``/``max_workers``
    win over an explicit spec ``backend`` too: an explicit backend would be
    used unconditionally by the runner, so when the command line forces an
    execution policy the spec's backend is dropped (with a warning — the
    override is deliberate, the silence would not be) in favour of the
    built-in ``mode``/``max_workers`` selection.  A ``backend`` override
    names a registry backend; it keeps the spec's ``backend_options`` only
    when the spec configured the *same* backend (options for a different
    backend would be meaningless or wrong).  The ``backend_options``
    *parameter* carries command-line additions for the override (e.g. the
    service URL of ``--connect-http``) and wins key-by-key over the spec's.
    """
    section = dict(spec.get("runner") or {})
    spec_backend = section.pop("backend", None)
    spec_backend_options = dict(section.pop("backend_options", {}) or {})
    if spec_backend is None and spec_backend_options:
        raise ValueError(
            "runner option 'backend_options' requires a 'backend' name"
        )
    if backend_options and backend is None:
        raise ValueError(
            "backend_options overrides require an explicit backend override"
        )
    chosen_backend = None
    if backend is not None:
        if mode is not None or max_workers is not None:
            raise ValueError(
                "an explicit backend override cannot be combined with "
                "--serial/--max-workers; configure it via backend_options"
            )
        if spec_backend_options and spec_backend != backend:
            warnings.warn(
                f"--backend {backend!r} discards the spec's backend_options "
                f"(they configure backend {spec_backend!r})",
                RuntimeWarning,
                stacklevel=2,
            )
        options = dict(
            spec_backend_options if spec_backend == backend else {}
        )
        options.update(backend_options or {})
        chosen_backend = get_backend(backend, **options)
    elif spec_backend is not None:
        if mode is not None or max_workers is not None:
            warnings.warn(
                f"command-line execution override (--serial/--max-workers) "
                f"discards the spec's explicit backend {spec_backend!r}",
                RuntimeWarning,
                stacklevel=2,
            )
        else:
            chosen_backend = get_backend(spec_backend, **spec_backend_options)

    # 'salt' and 'store' pop unconditionally: a salt without a store must be
    # a clear error, not an "unknown runner option(s) ['salt']" tail-raise.
    store_path = store_dir if store_dir is not None else section.pop("store", None)
    section.pop("store", None)
    salt = section.pop("salt", None)
    store = None
    if store_path is not None:
        from ..store import CampaignStore

        store = (
            CampaignStore(Path(store_path))
            if salt is None
            else CampaignStore(Path(store_path), salt=salt)
        )
    elif salt is not None:
        raise ValueError(
            "runner option 'salt' requires a 'store' directory (the salt "
            "partitions store generations and does nothing without one)"
        )

    arrays = section.pop("record_arrays", False)
    if record_arrays is not None:
        arrays = record_arrays
    telemetry = bool(section.pop("telemetry", True))
    if arrays and store is None:
        raise ValueError(
            "runner option 'record_arrays' requires a 'store' directory "
            "(trajectory arrays are persisted via the store)"
        )
    runner_mode = mode if mode is not None else section.pop("mode", "auto")
    workers = max_workers if max_workers is not None else section.pop("max_workers", None)
    section.pop("mode", None)
    section.pop("max_workers", None)
    if section:
        raise ValueError(f"unknown runner option(s) {sorted(section)}")
    return CampaignRunner(
        max_workers=workers,
        mode=runner_mode,
        backend=chosen_backend,
        store=store,
        record_arrays=bool(arrays),
        telemetry=telemetry,
    )
