"""ProtectionStack pipeline semantics: order, filtering, validation."""

import pytest

from repro.exceptions import ReproError
from repro.fabric import Fabric
from repro.stack import (AclLayer, ContentItem, IntegrityLayer, LayerSpec,
                         PlacementLayer, ProtectionStack, SystemSpec)


def _trace_layer(cls, kind_log, tag):
    return cls(post=lambda item: kind_log.append(("post", tag)),
               read=lambda item: kind_log.append(("read", tag)))


class TestLayerOrder:
    def test_post_runs_layers_in_declaration_order(self):
        log = []
        stack = ProtectionStack([
            _trace_layer(IntegrityLayer, log, "integrity"),
            _trace_layer(AclLayer, log, "acl"),
            _trace_layer(PlacementLayer, log, "placement"),
        ])
        stack.post(ContentItem(author="a"))
        assert log == [("post", "integrity"), ("post", "acl"),
                       ("post", "placement")]

    def test_read_runs_layers_reversed(self):
        log = []
        stack = ProtectionStack([
            _trace_layer(IntegrityLayer, log, "integrity"),
            _trace_layer(AclLayer, log, "acl"),
            _trace_layer(PlacementLayer, log, "placement"),
        ])
        stack.read(ContentItem(author="a"))
        assert log == [("read", "placement"), ("read", "acl"),
                       ("read", "integrity")]

    def test_only_filter_restricts_kinds(self):
        log = []
        stack = ProtectionStack([
            _trace_layer(IntegrityLayer, log, "integrity"),
            _trace_layer(AclLayer, log, "acl"),
            _trace_layer(PlacementLayer, log, "placement"),
        ])
        stack.read(ContentItem(author="a"), only=("placement",))
        assert log == [("read", "placement")]
        log.clear()
        stack.read(ContentItem(author="a"), only=("acl", "integrity"))
        assert log == [("read", "acl"), ("read", "integrity")]

    def test_missing_hook_is_noop(self):
        stack = ProtectionStack([AclLayer(post=None, read=None)])
        stack.post(ContentItem(author="a"))
        stack.read(ContentItem(author="a"))


class TestSpecValidation:
    SPEC = SystemSpec(name="toy-spec", layers=(
        LayerSpec("acl", "sym"), LayerSpec("placement", "dict")))

    def test_matching_spec_accepted(self):
        stack = ProtectionStack([
            AclLayer(mechanism="sym"),
            PlacementLayer(mechanism="dict"),
        ], spec=self.SPEC)
        assert stack.name == "toy-spec"
        assert [l.kind for l in stack.layers] == ["acl", "placement"]

    def test_wrong_order_rejected(self):
        with pytest.raises(ReproError, match="does not match"):
            ProtectionStack([
                PlacementLayer(mechanism="dict"),
                AclLayer(mechanism="sym"),
            ], spec=self.SPEC)

    def test_wrong_mechanism_rejected(self):
        with pytest.raises(ReproError, match="does not match"):
            ProtectionStack([
                AclLayer(mechanism="other"),
                PlacementLayer(mechanism="dict"),
            ], spec=self.SPEC)

    def test_layer_spec_kind_must_match_layer_class(self):
        with pytest.raises(ReproError, match="built from"):
            AclLayer(spec=LayerSpec("placement", "dict"))

    def test_unknown_layer_kind_rejected(self):
        class WeirdLayer(AclLayer):
            kind = "weird"

        with pytest.raises(ReproError, match="unknown layer kind"):
            ProtectionStack([WeirdLayer()])

    def test_layer_lookup_and_capabilities(self):
        spec = SystemSpec(name="caps", layers=(
            LayerSpec("acl", "sym", table1_rows=("Symmetric key encryption",)),
            LayerSpec("placement", "dict")))
        stack = ProtectionStack([
            AclLayer(spec=spec.layers[0]),
            PlacementLayer(spec=spec.layers[1]),
        ], spec=spec)
        assert stack.layer("acl").mechanism == "sym"
        with pytest.raises(ReproError):
            stack.layer("integrity")
        assert spec.rows_covered() == ("Symmetric key encryption",)


class TestInstrumentation:
    def test_span_names_emitted_when_configured(self):
        fabric = Fabric.create(seed=1, tracing=True)
        stack = ProtectionStack([
            PlacementLayer(post=lambda item: None,
                           span_post="storage.put", span_read="storage.get",
                           span_attrs={"backend": "local"}),
        ], tracer=fabric.tracer)
        stack.post(ContentItem(author="a"))
        assert [s.name for s in fabric.tracer.spans] == ["storage.put"]
        assert fabric.tracer.spans[0].attrs["backend"] == "local"

    def test_no_spans_by_default(self):
        fabric = Fabric.create(seed=1, tracing=True)
        stack = ProtectionStack([PlacementLayer(post=lambda item: None)],
                                tracer=fabric.tracer)
        stack.post(ContentItem(author="a"))
        assert fabric.tracer.spans == []

    def test_metrics_counter_per_layer_op(self):
        fabric = Fabric.create(seed=1)
        stack = ProtectionStack([
            AclLayer(post=lambda item: None, read=lambda item: None),
            PlacementLayer(post=lambda item: None, read=lambda item: None),
        ], metrics=fabric.metrics, name="sys")
        stack.post(ContentItem(author="a"))
        stack.read(ContentItem(author="a"))
        stack.read(ContentItem(author="a"), only=("placement",))
        assert fabric.metrics.get_counter_value(
            "stack_layer_ops_total", system="sys", layer="acl",
            op="post") == 1
        assert fabric.metrics.get_counter_value(
            "stack_layer_ops_total", system="sys", layer="placement",
            op="read") == 2

    def test_hooks_resolve_by_name_on_every_run(self, monkeypatch):
        """A run looks ``Layer.on_post`` / ``on_read`` up when it runs, so
        a class-level wrapper installed after the stack was built still
        sees every hook; a layer given no hook runs a no-op."""
        from repro.stack.pipeline import Layer
        log = []
        stack = ProtectionStack([AclLayer(),
                                 _trace_layer(PlacementLayer, log, "p")])
        seen = []
        for name in ("on_post", "on_read"):
            original = getattr(Layer, name)
            monkeypatch.setattr(Layer, name, lambda self, item, _o=original,
                                _n=name: (seen.append((_n, self.kind)),
                                          _o(self, item))[1])
        stack.post(ContentItem(author="a"))
        stack.read(ContentItem(author="a"), only=("acl",))
        assert seen == [("on_post", "acl"), ("on_post", "placement"),
                        ("on_read", "acl")]
        assert log == [("post", "p")]
