"""The Table I mechanism registry: rows claim their implementations.

The paper's Table I maps each security aspect/solution row to concrete
mechanisms.  Implementation modules register themselves here through
:func:`register_mechanism` — the lifecycle ACL schemes are read from
``repro.acl.SCHEME_REGISTRY`` instead — and the matrix generator
(:mod:`repro.stack.table1`) reads the registry instead of a
hand-maintained list in the benchmark.  Adding a mechanism therefore
means one registration at its definition site, and it appears in the
regenerated matrix everywhere.

This module deliberately imports nothing from the implementation
packages, so they can all import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = ["MechanismEntry", "register_mechanism", "mechanisms",
           "unregister_mechanism"]


@dataclass(frozen=True)
class MechanismEntry:
    """One implementation claiming one Table I row."""

    category: str
    row: str
    #: display name (class/function name for real implementations)
    name: str
    #: the implementing object itself (class, function, or scheme class)
    implementation: object = None
    detail: str = ""


#: (category, row) -> entries, in registration order
_MECHANISMS: Dict[Tuple[str, str], List[MechanismEntry]] = {}


def register_mechanism(category: str, row: str, *implementations: object,
                       detail: str = "") -> None:
    """Claim a Table I row for one or more implementations (idempotent).

    Repeated registration of the same name under the same row is a
    no-op, so modules can register at import time without guarding
    against re-imports.
    """
    entries = _MECHANISMS.setdefault((category, row), [])
    for impl in implementations:
        name = getattr(impl, "__name__", str(impl))
        if any(entry.name == name for entry in entries):
            continue
        entries.append(MechanismEntry(category=category, row=row, name=name,
                                      implementation=impl, detail=detail))


def unregister_mechanism(category: str, row: str, name: str) -> None:
    """Remove one named entry from a row (test helper; no-op when absent)."""
    entries = _MECHANISMS.get((category, row))
    if entries is not None:
        entries[:] = [entry for entry in entries if entry.name != name]


def mechanisms() -> Dict[Tuple[str, str], List[MechanismEntry]]:
    """A copy of the registry ((category, row) -> entries)."""
    return {key: list(entries) for key, entries in _MECHANISMS.items()}
