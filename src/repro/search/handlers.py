"""Privacy of the searched data owner: resource handlers (Section V-C).

"One solution is to define resource handler for data.  In this way, every
data item has a handler as a reference to that data.  For example 'Alice's
birthday' instead of '26 October 1990'.  When one is interested in knowing
the content of that handler, he must prove himself to the data owner and
then get access to the real content."

The public :class:`HandlerDirectory` is searchable — but contains only
handler labels.  Dereferencing goes through the owner's approval policy;
owners also control *which* of their handlers are searchable at all ("to
determine to which extent their data would be available for the system's
searches").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import AccessDeniedError, SearchError

#: An approval policy: (requester, handler label) -> allowed?
ApprovalPolicy = Callable[[str, str], bool]


@dataclass
class Handler:
    """A public reference to private data."""

    owner: str
    label: str            # e.g. "alice/birthday" — this is all that's public
    searchable: bool = True


class DataOwner:
    """A user exposing handlers instead of data."""

    def __init__(self, name: str,
                 policy: Optional[ApprovalPolicy] = None) -> None:
        self.name = name
        self._data: Dict[str, bytes] = {}
        self._handlers: Dict[str, Handler] = {}
        self._policy: ApprovalPolicy = policy or (lambda req, label: False)
        self.request_log: List[Tuple[str, str, bool]] = []

    def register(self, label: str, content: bytes,
                 searchable: bool = True) -> Handler:
        """Create a handler for a private datum."""
        handler = Handler(owner=self.name, label=label,
                          searchable=searchable)
        self._handlers[label] = handler
        self._data[label] = content
        return handler

    def handlers(self) -> List[Handler]:
        """All handlers (for publishing into a directory)."""
        return list(self._handlers.values())

    def dereference(self, requester: str, label: str) -> bytes:
        """Prove-yourself-then-read: the owner-side approval check."""
        if label not in self._handlers:
            raise SearchError(f"{self.name!r} has no handler {label!r}")
        allowed = self._policy(requester, label)
        self.request_log.append((requester, label, allowed))
        if not allowed:
            raise AccessDeniedError(
                f"{self.name!r} declined {requester!r}'s request for "
                f"{label!r}")
        return self._data[label]


class HandlerDirectory:
    """The searchable public directory: labels only, never content."""

    def __init__(self) -> None:
        self._entries: Dict[str, Handler] = {}

    def publish(self, owner: DataOwner) -> int:
        """Index an owner's *searchable* handlers; returns how many."""
        count = 0
        for handler in owner.handlers():
            if handler.searchable:
                self._entries[f"{handler.owner}/{handler.label}"] = handler
                count += 1
        return count

    def search(self, term: str) -> List[Handler]:
        """Substring search over handler labels."""
        term = term.lower()
        return [h for key, h in sorted(self._entries.items())
                if term in key.lower()]

    def directory_view(self) -> List[str]:
        """Everything an observer of the directory learns: label strings."""
        return sorted(self._entries)


def friends_only_policy(friends: set) -> ApprovalPolicy:
    """The canonical policy: approve requests from friends."""
    def policy(requester: str, label: str) -> bool:
        return requester in friends
    return policy
