"""Turn a submitted job payload into a concrete list of ScenarioSpecs.

The service accepts two payload shapes:

* ``{"points": [<spec dict>, ...]}`` — explicit specs, run verbatim;
* ``{"base": <spec dict>, "grid": {<field>: [values...]}}`` — the
  cartesian product of the named axes over a base spec, in the same
  deterministic order :func:`repro.analysis.parallel.grid_from_axes`
  produces.

Either way every planned point carries an explicit ``seed``: points
that did not name one get a deterministic seed derived from the job's
``base_seed`` and the point's own content — the same SHA-256 discipline
:func:`repro.analysis.parallel.point_seed` uses — so resubmitting the
same payload plans bit-identical specs and the cache dedupes them.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..analysis.parallel import grid_from_axes, point_seed
from ..analysis.spec import SPEC_SWEEP_NAME, ScenarioSpec, SpecError

#: Largest grid one submission may plan (a runaway-product guard; the
#: limit is per-job, the store accepts any number of jobs).
MAX_POINTS = 4096


class PlanError(ValueError):
    """A job payload cannot be planned into specs (client error)."""


def _expand(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The raw spec dicts a payload describes, before seeding."""
    if "points" in payload:
        points = payload["points"]
        if not isinstance(points, list) or not points:
            raise PlanError('"points" must be a non-empty list of spec dicts')
        if not all(isinstance(point, dict) for point in points):
            raise PlanError('every entry of "points" must be a spec dict')
        return [dict(point) for point in points]
    if "grid" in payload:
        base = payload.get("base")
        if not isinstance(base, dict):
            raise PlanError('grid payloads need a "base" spec dict')
        axes = payload["grid"]
        if not isinstance(axes, dict) or not axes:
            raise PlanError('"grid" must map spec fields to value lists')
        for name, values in axes.items():
            if not isinstance(values, list) or not values:
                raise PlanError(f"grid axis {name!r} must be a non-empty list")
        return [
            {**base, **combo} for combo in grid_from_axes(**axes)
        ]
    raise PlanError('payload needs either "points" or "base"+"grid"')


def plan_points(
    payload: Dict[str, Any], *, base_seed: int = 0
) -> List[ScenarioSpec]:
    """Validate *payload* and return its fully seeded ScenarioSpecs.

    Raises :class:`PlanError` for malformed payloads and re-raises the
    spec layer's :class:`~repro.analysis.spec.SpecError` for dicts that
    fail spec validation — both map to HTTP 400 in the API layer.
    """
    if not isinstance(payload, dict):
        raise PlanError("job payload must be a JSON object")
    raw = _expand(payload)
    if len(raw) > MAX_POINTS:
        raise PlanError(
            f"grid plans {len(raw)} points; the per-job limit is {MAX_POINTS}"
        )
    seeded: List[Dict[str, Any]] = []
    for point in raw:
        if "seed" not in point or point["seed"] is None:
            point = dict(point)
            point.pop("seed", None)
            point["seed"] = point_seed(SPEC_SWEEP_NAME, point, base_seed)
        seeded.append(point)
    return specs_from_dicts(seeded)


def specs_from_dicts(raw: List[Dict[str, Any]]) -> List[ScenarioSpec]:
    """Validate already-seeded spec dicts into ScenarioSpecs.

    The tail of :func:`plan_points`, exposed on its own because journal
    recovery replays exactly this shape: the spec dicts a previous
    process journaled are already seeded, and revalidating them guards
    recovery against schema drift between service versions (a journal
    written by an older spec schema fails here as :class:`PlanError`
    instead of resurrecting an undefined job).  Trees read from files
    (``@path`` tree specs) are rejected: a service must not open paths
    its clients name.
    """
    specs: List[ScenarioSpec] = []
    for point in raw:
        try:
            spec = ScenarioSpec.from_dict(point)
        except (SpecError, KeyError, TypeError, ValueError) as exc:
            raise PlanError(f"invalid spec {point!r}: {exc}") from exc
        if isinstance(spec.tree, str) and spec.tree.startswith("@"):
            # A worker would open that path on the server, and the cache
            # would key the row on the path rather than the tree.
            raise PlanError(
                f"invalid spec {point!r}: file trees ({spec.tree!r}) are "
                "not accepted; name the tree by its generator spec"
            )
        specs.append(spec)
    return specs
