"""Declarative system specifications: Table I as data, not prose.

The paper's contribution is a classification — which privacy, integrity
and search mechanism each surveyed DOSN composes.  A :class:`SystemSpec`
is that classification for one system, written down next to the code that
implements it: an ordered tuple of :class:`LayerSpec` entries, each
naming the mechanism and the Table I row(s) it instantiates.

Every runnable system model (``repro.systems.*`` and
:class:`repro.dosn.api.DosnNetwork`) registers its spec here at import
time, and builds its runtime :class:`~repro.stack.pipeline.ProtectionStack`
*against* the spec — the stack constructor refuses a layer sequence that
does not match, so the declared classification and the executed pipeline
cannot drift apart.  The Table I matrix artifact
(``docs/table1_matrix.md``) is generated from this registry by
:mod:`repro.stack.table1`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.exceptions import ReproError

__all__ = ["LAYER_KINDS", "LayerSpec", "SystemSpec", "register_system",
           "registered_systems", "unregister_system"]

#: The pipeline order every stack follows on the write path; the read
#: path runs the same layers in reverse.
LAYER_KINDS = ("integrity", "acl", "placement")


@dataclass(frozen=True)
class LayerSpec:
    """One declared layer of a system's content pipeline."""

    #: one of :data:`LAYER_KINDS`
    kind: str
    #: the mechanism, e.g. ``"CP-ABE hybrid encryption"``
    mechanism: str
    #: Table I row(s) this layer instantiates (empty for pure transport)
    table1_rows: Tuple[str, ...] = ()
    #: free-form elaboration for docs / the generated matrix
    detail: str = ""

    def __post_init__(self) -> None:
        if self.kind not in LAYER_KINDS:
            raise ReproError(
                f"unknown layer kind {self.kind!r}; pick from {LAYER_KINDS}")


@dataclass(frozen=True)
class SystemSpec:
    """A system's whole content pipeline, declaratively."""

    name: str
    #: the surveyed system's citation tag, e.g. ``"Nilizadeh et al. [18]"``
    citation: str = ""
    #: the overlay/organization carrying the content (Section II)
    overlay: str = ""
    #: write-path layer order; the read path is the reverse
    layers: Tuple[LayerSpec, ...] = ()
    notes: str = ""

    def layer(self, kind: str) -> Optional[LayerSpec]:
        """The first declared layer of ``kind`` (None when absent)."""
        for layer in self.layers:
            if layer.kind == kind:
                return layer
        return None

    def rows_covered(self) -> Tuple[str, ...]:
        """Table I rows this system instantiates, in layer order."""
        rows = []
        for layer in self.layers:
            for row in layer.table1_rows:
                if row not in rows:
                    rows.append(row)
        return tuple(rows)


#: system name -> its registered spec, in registration order
SYSTEM_REGISTRY: Dict[str, SystemSpec] = {}


def register_system(spec: SystemSpec) -> SystemSpec:
    """Register a system's spec (idempotent for identical re-registration).

    Registering a *different* spec under an existing name is an error —
    the registry is the single source of truth for the generated Table I
    matrix, so silent replacement would let the matrix lie.
    """
    existing = SYSTEM_REGISTRY.get(spec.name)
    if existing is not None and existing != spec:
        raise ReproError(
            f"system {spec.name!r} is already registered with a different "
            "spec; unregister_system() first if this is intentional")
    SYSTEM_REGISTRY[spec.name] = spec
    return spec


def registered_systems() -> Dict[str, SystemSpec]:
    """A copy of the registry (name -> spec, registration order)."""
    return dict(SYSTEM_REGISTRY)


def unregister_system(name: str) -> None:
    """Remove a spec (test helper; no-op when absent)."""
    SYSTEM_REGISTRY.pop(name, None)
