"""Mechanism/system registries and the generated Table I artifact."""

from pathlib import Path

import pytest

from repro.acl import SCHEME_REGISTRY
from repro.acl.base import AccessControlScheme
from repro.exceptions import ReproError
from repro.stack import (LayerSpec, SystemSpec, mechanisms,
                         register_mechanism, register_system,
                         registered_systems, unregister_system)
from repro.stack.registry import unregister_mechanism
from repro.stack.table1 import (PAPER_TABLE1, build_registry, render_matrix,
                                verify_coverage)

REPO = Path(__file__).resolve().parent.parent.parent


class ToyXorACL(AccessControlScheme):
    scheme_name = "toy-xor"
    table1_row = "Symmetric key encryption"

    def _provision_user(self, user):  # pragma: no cover
        pass

    def _setup_group(self, group):  # pragma: no cover
        pass

    def _on_member_added(self, group, user):  # pragma: no cover
        pass

    def _on_member_revoked(self, group, user):  # pragma: no cover
        pass

    def _encrypt_item(self, group, plaintext):  # pragma: no cover
        return plaintext

    def _decrypt_item(self, group, record, user):  # pragma: no cover
        return record


class TestMechanismRegistry:
    def test_registration_is_idempotent_by_name(self):
        class Thing:
            pass

        before = len(mechanisms().get(("Data privacy",
                                       "Hybrid encryption"), ()))
        try:
            register_mechanism("Data privacy", "Hybrid encryption", Thing)
            register_mechanism("Data privacy", "Hybrid encryption", Thing)
            after = mechanisms()[("Data privacy", "Hybrid encryption")]
            assert sum(1 for e in after if e.name == "Thing") == 1
            assert len(after) == before + 1
        finally:
            unregister_mechanism("Data privacy", "Hybrid encryption",
                                 "Thing")

    def test_entries_carry_category_row_and_implementation(self):
        entries = mechanisms()[("Data integrity", "Historical integrity")]
        names = {entry.name for entry in entries}
        assert {"Timeline", "EntanglementGraph", "FortClient"} <= names


class TestSystemRegistry:
    def test_identical_reregistration_is_idempotent(self):
        spec = SystemSpec(name="test-idem", layers=(
            LayerSpec("placement", "dict"),))
        try:
            assert register_system(spec) is spec
            assert register_system(SystemSpec(
                name="test-idem",
                layers=(LayerSpec("placement", "dict"),))) == spec
        finally:
            unregister_system("test-idem")

    def test_conflicting_reregistration_rejected(self):
        try:
            register_system(SystemSpec(name="test-conflict", layers=(
                LayerSpec("placement", "dict"),)))
            with pytest.raises(ReproError, match="different"):
                register_system(SystemSpec(name="test-conflict", layers=(
                    LayerSpec("placement", "other"),)))
        finally:
            unregister_system("test-conflict")

    def test_bad_layer_kind_rejected_at_declaration(self):
        with pytest.raises(ReproError, match="unknown layer kind"):
            LayerSpec("transport", "tcp")

    def test_all_eight_systems_registered(self):
        import repro.dosn  # noqa: F401
        import repro.systems  # noqa: F401
        assert {"cachet", "cuckoo", "diaspora", "peerson", "prpl",
                "repro.dosn", "safebook",
                "supernova"} <= set(registered_systems())


class TestTable1Generation:
    def test_every_paper_row_is_covered(self):
        rows = verify_coverage(build_registry())
        assert len(rows) == sum(len(a) for a in PAPER_TABLE1.values())

    def test_toy_scheme_appears_with_no_benchmark_edits(self):
        """The acceptance test: drop a scheme in, it shows up generated."""
        SCHEME_REGISTRY["toy-xor"] = ToyXorACL
        try:
            registry = build_registry()
            row = registry[("Data privacy", "Symmetric key encryption")]
            assert "ToyXorACL" in row
            assert "ToyXorACL" in render_matrix()
        finally:
            del SCHEME_REGISTRY["toy-xor"]
        # gone again once the scheme is removed — nothing was cached
        registry = build_registry()
        assert "ToyXorACL" not in registry[
            ("Data privacy", "Symmetric key encryption")]

    def test_scheme_without_a_table1_row_is_left_out(self):
        class UnlistedACL(ToyXorACL):
            scheme_name = "unlisted"
            table1_row = ""

        SCHEME_REGISTRY["unlisted"] = UnlistedACL
        try:
            registry = build_registry()
        finally:
            del SCHEME_REGISTRY["unlisted"]
        assert ("Data privacy", "") not in registry
        assert not any("UnlistedACL" in names for names in registry.values())

    def test_committed_artifact_is_up_to_date(self):
        """docs/table1_matrix.md must match what the code generates."""
        committed = (REPO / "docs" / "table1_matrix.md").read_text()
        assert committed == render_matrix(), (
            "docs/table1_matrix.md is stale; regenerate with "
            "PYTHONPATH=src python scripts/gen_table1.py")

    def test_matrix_marks_system_rows(self):
        matrix = render_matrix()
        assert "## Systems × Table I rows" in matrix
        assert "### cachet" in matrix
        assert "### repro.dosn" in matrix
