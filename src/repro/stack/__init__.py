"""The unified content-protection pipeline (the paper's Table I as code).

``repro.stack`` turns the survey's classification into an executable
architecture: every DOSN model routes its post/read path through an
explicit :class:`ProtectionStack` of
:class:`IntegrityLayer` → :class:`AclLayer` → :class:`PlacementLayer`,
declares the composition as a
:class:`SystemSpec`, and registers it so the Table I matrix can be
regenerated from code (:mod:`repro.stack.table1`).

Quick tour::

    from repro.stack import (AclLayer, ContentItem, LayerSpec,
                             PlacementLayer, ProtectionStack, SystemSpec,
                             register_system)

    SPEC = register_system(SystemSpec(
        name="toy", overlay="one box",
        layers=(LayerSpec("acl", "symmetric",
                          table1_rows=("Symmetric key encryption",)),
                LayerSpec("placement", "dict"))))

    store = {}
    stack = ProtectionStack([
        AclLayer(post=lambda i: scheme.publish("friends", i.cid, i.payload),
                 spec=SPEC.layers[0]),
        PlacementLayer(post=lambda i: store.__setitem__(i.cid, i.payload),
                       read=lambda i: i.meta.update(rec=store[i.cid]),
                       spec=SPEC.layers[1]),
    ], spec=SPEC)
    stack.post(ContentItem(author="alice", cid="c1", payload=b"hi"))
"""

from repro.stack.pipeline import (AclLayer, ContentItem, IntegrityLayer,
                                  Layer, PlacementLayer, ProtectionStack)
from repro.stack.registry import (MechanismEntry, mechanisms,
                                  register_mechanism)
from repro.stack.spec import (LAYER_KINDS, LayerSpec, SystemSpec,
                              register_system, registered_systems,
                              unregister_system)

__all__ = [
    "AclLayer", "ContentItem", "IntegrityLayer",
    "LAYER_KINDS", "Layer", "LayerSpec", "MechanismEntry",
    "PlacementLayer", "ProtectionStack", "SystemSpec", "mechanisms",
    "register_mechanism", "register_system",
    "registered_systems", "unregister_system",
]
