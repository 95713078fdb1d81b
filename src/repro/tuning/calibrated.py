"""The versioned calibration artifact (``calibrated.json``).

``repro tune`` writes — and :class:`~repro.analysis.experiments.
ExperimentRunner` reads by default — a small JSON artifact mapping
workload scales to tuned :class:`~repro.core.tunables.Tunables`:

.. code-block:: json

    {
      "schema": 1,
      "generated_by": "repro tune",
      "entries": {
        "0.4": {
          "tunables": { "min_miss_rate": 0.45, ... },
          "seed": 0,
          "score": {"violations": 0, "distance": 0.61},
          "geomeans": {"algorithm-1": 0.63, ...},
          "date": "2026-08-06"
        }
      }
    }

``tunables`` stores only the *diff* from the defaults (the loader
applies it on top of ``Tunables()``), so a default-reproducing entry is
explicitly empty and the artifact stays readable.  Scales are formatted
with ``format(scale, 'g')`` — ``0.4`` and ``0.40`` are the same key.

The in-tree artifact lives next to this module; loaders fall back to
``None`` (the historical hand calibration) when the file or the scale
entry is absent, so shipping no calibration for a scale is always safe
— in particular the golden headline pin at scale 0.1 runs under the
defaults unless a 0.1 entry is deliberately added.

A scale entry may additionally carry a ``"schemes"`` sub-dict of
per-scheme-label refinements (Calibration v2 prep)::

    "0.4": {
      "tunables": { ... },
      "schemes": { "nmpo": {"tunables": {"nmpo_hit_rate": 0.7}} }
    }

``calibrated_tunables(scale, scheme="nmpo")`` prefers the per-scheme
diff when present and falls back to the scale's base entry otherwise —
a label with no refinement (every new scheme, initially) resolves to
the base calibration (or the defaults), never a ``KeyError``.  The
sub-dict is additive: schema-1 readers that never ask for a scheme
ignore it entirely.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

from repro.core.tunables import Tunables

#: Artifact schema version (bump on layout changes).
CALIBRATION_SCHEMA = 1

#: The in-tree artifact written by ``repro tune`` (and shipped in git).
CALIBRATED_PATH = Path(__file__).with_name("calibrated.json")


def scale_key(scale: float) -> str:
    """Canonical JSON key for a workload scale."""
    return format(float(scale), "g")


def load_calibrations(
    path: Union[str, Path, None] = None,
) -> Dict[str, dict]:
    """All calibration entries, keyed by canonical scale string.

    Returns ``{}`` when the artifact does not exist.  Raises
    ``ValueError`` on a schema mismatch (an artifact from a different
    layout must not be silently misread).
    """
    p = Path(path) if path is not None else CALIBRATED_PATH
    if not p.exists():
        return {}
    data = json.loads(p.read_text())
    schema = data.get("schema")
    if schema != CALIBRATION_SCHEMA:
        raise ValueError(
            f"calibration artifact {p} has schema {schema!r}; "
            f"this build reads schema {CALIBRATION_SCHEMA}"
        )
    return dict(data.get("entries", {}))


def calibrated_tunables(
    scale: float,
    path: Union[str, Path, None] = None,
    scheme: Optional[str] = None,
) -> Optional[Tunables]:
    """The shipped calibration for ``scale``, or ``None`` if absent.

    ``None`` means "use the historical defaults" — callers treat it as
    :data:`~repro.core.tunables.DEFAULT_TUNABLES` without forking cache
    keys.

    ``scheme`` asks for that label's per-scheme refinement (the
    entry's optional ``"schemes"`` sub-dict).  A label without a
    refinement — every newly registered scheme, until a dedicated
    ``repro tune`` run lands one — falls back to the scale's base
    calibration exactly as if ``scheme`` had not been passed; nothing
    here ever raises ``KeyError`` on an unknown label.
    """
    entries = load_calibrations(path)
    entry = entries.get(scale_key(scale))
    if entry is None:
        return None
    if scheme is not None:
        refined = entry.get("schemes", {}).get(scheme)
        if refined is not None:
            return Tunables().replace(**refined.get("tunables", {}))
    diff = entry.get("tunables", {})
    return Tunables().replace(**diff)


def resolve_tunables(
    tunables: Optional[Tunables], scale: float
) -> Optional[Tunables]:
    """The tunables a job at ``scale`` actually compiles under.

    ``None`` means the shipped calibration for the scale (itself
    ``None`` when absent).  A record equal to the defaults normalizes
    to ``None``, so job keys (and the persistent cache) cannot fork on
    a no-op calibration.
    """
    if tunables is None:
        tunables = calibrated_tunables(scale)
    if tunables is not None and tunables.is_default:
        return None
    return tunables


def save_calibration(
    scale: float,
    tunables: Tunables,
    *,
    seed: int,
    score: Mapping[str, object],
    geomeans: Mapping[str, float],
    date: str,
    path: Union[str, Path, None] = None,
    extra: Optional[Mapping[str, object]] = None,
    scheme: Optional[str] = None,
) -> Path:
    """Insert/overwrite the entry for ``scale`` and write the artifact.

    Existing entries for other scales are preserved, so repeated tuning
    runs accumulate per-scale winners in one file.  ``scheme`` writes
    the winner as that label's refinement under the scale entry's
    ``"schemes"`` sub-dict instead of replacing the base entry (a base
    entry is created empty if the scale had none).
    """
    p = Path(path) if path is not None else CALIBRATED_PATH
    entries = load_calibrations(p) if p.exists() else {}
    entry: Dict[str, object] = {
        "tunables": tunables.diff(),
        "seed": seed,
        "score": dict(score),
        "geomeans": {k: round(float(v), 4) for k, v in geomeans.items()},
        "date": date,
    }
    if extra:
        entry.update(extra)
    if scheme is not None:
        base = dict(entries.get(scale_key(scale), {"tunables": {}}))
        schemes = dict(base.get("schemes", {}))
        schemes[scheme] = entry
        base["schemes"] = dict(sorted(schemes.items()))
        entries[scale_key(scale)] = base
    else:
        prior = entries.get(scale_key(scale), {})
        if "schemes" in prior:  # keep refinements across base re-tunes
            entry["schemes"] = prior["schemes"]
        entries[scale_key(scale)] = entry
    payload = {
        "schema": CALIBRATION_SCHEMA,
        "generated_by": "repro tune",
        "entries": dict(sorted(entries.items())),
    }
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return p
