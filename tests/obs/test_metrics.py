"""MetricsRegistry: labelled counters and gauges."""

from repro.obs.metrics import MetricsRegistry


class TestRegistry:
    def test_counter_identity_by_name_and_labels(self):
        reg = MetricsRegistry()
        reg.inc("net.drops", kind="chord_step", cause="loss")
        reg.inc("net.drops", kind="chord_step", cause="loss")
        reg.inc("net.drops", kind="chord_step", cause="partition")
        assert reg.get_counter_value("net.drops", kind="chord_step",
                                     cause="loss") == 2
        assert reg.get_counter_value("net.drops", kind="chord_step",
                                     cause="partition") == 1
        assert reg.get_counter_value("net.drops", kind="other",
                                     cause="loss") == 0

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        reg.inc("x", a=1, b=2)
        reg.inc("x", b=2, a=1)
        assert reg.get_counter_value("x", a=1, b=2) == 2

    def test_gauge(self):
        reg = MetricsRegistry()
        g = reg.gauge("ring.size")
        g.set(10)
        g.add(-3)
        assert g.value == 7

    def test_iteration_is_deterministic(self):
        reg = MetricsRegistry()
        reg.inc("b")
        reg.inc("a", kind="z")
        reg.inc("a", kind="c")
        names = [(m.name, m.labels) for m in reg]
        assert names == sorted(names)

