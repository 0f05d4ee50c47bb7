"""The ProtectionStack: one composable content pipeline for every DOSN.

Before this module, each system model hand-rolled its own
encrypt → integrity-protect → place sequence inline in ``post()``
and the inverse in ``read()``.  The stack makes that sequence explicit:

* :class:`IntegrityLayer` — signatures / envelopes / hash chains / comment
  keys (:mod:`repro.integrity`);
* :class:`AclLayer`      — the access-control cryptography (any
  :class:`~repro.acl.base.AccessControlScheme`, or a system's own hybrid);
* :class:`PlacementLayer` — where ciphertext physically goes (a
  :class:`~repro.dosn.storage.StorageBackend`, an overlay publish path,
  mirrors, storekeepers, …).

A post flows through the layers in declaration order; a read runs them in
reverse (fetch, then decrypt, then verify).  Each layer can open a span
on the owning :class:`~repro.fabric.Fabric`'s tracer and bump a counter
on its metrics registry, so per-layer cost breakdowns (experiment E13
style) come for free wherever the stack is installed.

The stack is built *against* a declarative
:class:`~repro.stack.spec.SystemSpec` and refuses a layer sequence that
does not match it — the classification the Table I generator reads and
the pipeline that actually runs are machine-checked to agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Collection, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ReproError
from repro.obs.trace import NOOP_TRACER
from repro.stack.spec import LAYER_KINDS, LayerSpec, SystemSpec

__all__ = ["AclLayer", "ContentItem", "IntegrityLayer", "Layer",
           "PlacementLayer", "ProtectionStack"]

#: layer hook signature: mutate the item in place
Hook = Callable[["ContentItem"], None]


def _skip(*_: object) -> None:
    """A hook not given, or the counter of a stack without metrics."""


@dataclass
class ContentItem:
    """The unit of work flowing through a :class:`ProtectionStack`.

    ``payload`` is the evolving wire representation: plaintext going into
    the ACL layer on the write path, ciphertext coming out of it, the
    fetched blob on the read path.  Layers stash whatever else they need
    (headers, epochs, fetch results) in ``meta``; the read path leaves
    its final verified/decrypted value in ``result``.
    """

    author: str
    cid: Optional[str] = None
    payload: Optional[bytes] = None
    reader: Optional[str] = None
    recipients: Tuple[str, ...] = ()
    meta: Dict[str, object] = field(default_factory=dict)
    result: object = None


class Layer:
    """One stage of the pipeline, wrapping a post hook and a read hook.

    Systems express their genuinely unique behavior as the hooks; the
    layer contributes the uniform parts — its declared
    :class:`~repro.stack.spec.LayerSpec` (checked against the system's
    spec), optional tracer span names, and metrics accounting.
    ``span_post``/``span_read`` default to ``None`` (no span) so call
    sites with committed trace baselines keep their exact span trees.
    """

    kind: str = "layer"

    def __init__(self, post: Optional[Hook] = None,
                 read: Optional[Hook] = None, *,
                 spec: Optional[LayerSpec] = None, mechanism: str = "",
                 span_post: Optional[str] = None,
                 span_read: Optional[str] = None,
                 span_attrs: Optional[Dict[str, object]] = None) -> None:
        if spec is not None and spec.kind != self.kind:
            raise ReproError(
                f"layer kind {self.kind!r} built from a {spec.kind!r} spec")
        self._post = post or _skip
        self._read = read or _skip
        self.spec = spec
        self.mechanism = mechanism or (spec.mechanism if spec else "")
        self.span_post = span_post
        self.span_read = span_read
        self.span_attrs = dict(span_attrs or {})

    def on_post(self, item: ContentItem) -> None:
        """Write-path transformation (no-op when no hook was given)."""
        self._post(item)

    def on_read(self, item: ContentItem) -> None:
        """Read-path transformation (no-op when no hook was given)."""
        self._read(item)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.mechanism!r})"


class IntegrityLayer(Layer):
    """Owner/content/history/relation integrity (:mod:`repro.integrity`)."""

    kind = "integrity"


class AclLayer(Layer):
    """Access-control cryptography: who can read what (Section III)."""

    kind = "acl"


class PlacementLayer(Layer):
    """Where (cipher)text physically lives: backend/overlay/mirrors."""

    kind = "placement"


class ProtectionStack:
    """An ordered layer pipeline with spec validation and instrumentation.

    ``post(item)`` runs the layers in declaration order; ``read(item)``
    runs them in reverse.  ``only=`` restricts a run to a subset of layer
    kinds — the feed path uses it to fetch through the placement layer
    first and open blobs (ACL + integrity) per item afterwards.
    """

    def __init__(self, layers: Sequence[Layer], *,
                 spec: Optional[SystemSpec] = None, tracer=None,
                 metrics=None, name: str = "") -> None:
        self.layers: List[Layer] = list(layers)
        self.spec = spec
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.metrics = metrics
        self.name = name or (spec.name if spec is not None else "stack")
        for layer in self.layers:
            if layer.kind not in LAYER_KINDS:
                raise ReproError(f"unknown layer kind {layer.kind!r}")
        if spec is not None:
            declared = [(ls.kind, ls.mechanism) for ls in spec.layers]
            actual = [(l.kind, l.mechanism) for l in self.layers]
            if declared != actual:
                raise ReproError(
                    f"stack for {spec.name!r} does not match its declared "
                    f"spec: declared {declared}, built {actual}")
        #: each layer's run per op, resolved once (the read path reversed)
        self._post_steps = [self._step(l, "post") for l in self.layers]
        self._read_steps = [self._step(l, "read") for l in self.layers[::-1]]

    def _step(self, layer: Layer, op: str) -> Tuple[str, Hook]:
        """``(kind, run)``: ``run`` calls the layer's hook by name (so a
        profiler may wrap ``Layer.on_post`` / ``on_read`` at any time),
        inside the layer's span if it names one, and counts the op."""
        hook, span = "on_" + op, getattr(layer, "span_" + op)
        count = _skip if self.metrics is None else partial(
            self.metrics.inc, "stack_layer_ops_total", system=self.name,
            layer=layer.kind, op=op)

        def run(item: ContentItem) -> None:
            getattr(layer, hook)(item)
            count()

        def spanned(item: ContentItem) -> None:
            with self.tracer.span(span, **layer.span_attrs):
                run(item)
        return layer.kind, run if span is None else spanned

    # -- running the pipeline ------------------------------------------------

    def post(self, item: ContentItem,
             only: Collection[str] = LAYER_KINDS) -> ContentItem:
        """Run the write path: integrity → acl → placement."""
        return self._run(item, self._post_steps, only)

    def read(self, item: ContentItem,
             only: Collection[str] = LAYER_KINDS) -> ContentItem:
        """Run the read path: the same layers, in reverse."""
        return self._run(item, self._read_steps, only)

    @staticmethod
    def _run(item: ContentItem, steps: Sequence[Tuple[str, Hook]],
             only: Collection[str]) -> ContentItem:
        for kind, run in steps:
            if kind in only:
                run(item)
        return item

    # -- introspection -------------------------------------------------------

    def layer(self, kind: str) -> Layer:
        """The first layer of ``kind``; raises when the stack has none."""
        for layer in self.layers:
            if layer.kind == kind:
                return layer
        raise ReproError(f"stack {self.name!r} has no {kind!r} layer")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = "+".join(layer.kind for layer in self.layers)
        return f"ProtectionStack({self.name}: {kinds})"
