"""ReadResult: the typed read API."""

import warnings

import pytest

from repro.dosn import READ_SOURCES, DosnConfig, DosnNetwork, ReadResult
from repro.dosn.user import VerifiedPost


def _post(**overrides):
    fields = dict(author="alice", sequence=0, text="hello",
                  tags=("#hi",), content_id="cid-1")
    fields.update(overrides)
    return VerifiedPost(**fields)


class TestTypedFields:
    def test_defaults(self):
        result = ReadResult(_post())
        assert result.post.text == "hello"
        assert result.verified is True
        assert result.degraded is False
        assert result.source == "bare"

    @pytest.mark.parametrize("source", sorted(READ_SOURCES))
    def test_all_declared_sources_accepted(self, source):
        assert ReadResult(_post(), source=source).source == source

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError, match="source"):
            ReadResult(_post(), source="carrier-pigeon")


class TestDeprecationShim:
    """Old call sites wrote `net.read(...).text`; the one-release proxy
    for that is gone — the post's fields live under ``.post`` only."""

    def test_typed_access_does_not_warn(self):
        result = ReadResult(_post())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert result.post.text == "hello"
            assert result.source == "bare"
            assert result.verified and not result.degraded

    def test_unproxied_attribute_is_a_plain_error(self):
        with pytest.raises(AttributeError):
            ReadResult(_post()).no_such_field
        with pytest.raises(AttributeError):
            ReadResult(_post()).text


class TestNetworkReturnsReadResult:
    def test_read_returns_typed_result(self):
        net = DosnNetwork(config=DosnConfig(architecture="local", seed=3))
        for name in ["alice", "bob"]:
            net.add_user(name)
        net.befriend("alice", "bob")
        cid = net.post("alice", "typed now")
        result = net.read("bob", "alice", cid)
        assert isinstance(result, ReadResult)
        assert result.post.text == "typed now"

    def test_feed_items_carry_results(self):
        net = DosnNetwork(config=DosnConfig(architecture="local", seed=3))
        for name in ["alice", "bob"]:
            net.add_user(name)
        net.befriend("alice", "bob")
        net.post("alice", "in the feed")
        report = net.feed("bob")
        assert report.items
        for item in report.items:
            assert isinstance(item.result, ReadResult)
            assert item.result.source in READ_SOURCES
            assert item.result.post is item.post
