from __future__ import annotations

import hashlib
import shutil
from pathlib import Path

import pytest

import flowevo
from flowevo.registry import (
    NodeTypeSchema,
    PortSpec,
    Registry,
    RegistryError,
    default_registry,
    load_registry,
    port_accepts,
)

SHIPPED_REGISTRY = Path(flowevo.__file__).with_name("registry.cfg")


def test_default_kinds_present():
    registry = default_registry()
    for kind in (
        "Interface",
        "CustomOp",
        "ProgrammerOp",
        "ScEnsembleOp",
        "TestOp",
        "CustomCodeGenerateOp",
        "DecisionOp",
    ):
        assert kind in registry


def test_case_insensitive_alias():
    registry = default_registry()
    # published sources spell the ensemble class both ways
    assert registry.resolve_kind("ScEnSembleOp") == "ScEnsembleOp"
    assert registry.resolve_kind("scensembleop") == "ScEnsembleOp"
    assert registry.resolve_kind("NoSuchOp") is None


def test_interface_schema_shape():
    schema = default_registry().get("Interface")
    assert schema.is_interface
    assert schema.input_ports == ()
    assert schema.output_port is None


def test_ensemble_minimum_fan_in():
    schema = default_registry().get("ScEnsembleOp")
    port = schema.input_ports[0]
    assert port.variadic and port.min_count == 2


def test_domain_restrictions():
    registry = default_registry()
    assert registry.get("ProgrammerOp").domain_restriction == "math"
    assert registry.get("TestOp").domain_restriction == "code"
    assert registry.get("CustomCodeGenerateOp").domain_restriction == "code"
    assert registry.get("CustomOp").domain_restriction is None


def test_port_accepts():
    port = PortSpec("problem", accepts=("problem", "solution"))
    assert port_accepts(port, "problem")
    assert port_accepts(port, "solution")
    assert not port_accepts(port, "entry_point")
    assert port_accepts(port, "any")
    assert not port_accepts(port, None)


def test_duplicate_kind_rejected():
    with pytest.raises(RegistryError, match="duplicate kind"):
        Registry([NodeTypeSchema(kind="X"), NodeTypeSchema(kind="X")])


def test_config_round_trip(tmp_path):
    # a copy of the shipped table, the documented starting point for
    # --registry, loads to the default registry
    path = tmp_path / "registry.cfg"
    shutil.copyfile(SHIPPED_REGISTRY, path)
    loaded = load_registry(path)
    original = default_registry()
    kinds = tuple(s.kind for s in original.schemas())
    assert tuple(s.kind for s in loaded.schemas()) == kinds
    for kind in kinds:
        assert loaded.get(kind) == original.get(kind)


def test_default_registry_digest_golden():
    # pinned from the Python literal the shipped registry.cfg replaced, and
    # again when OutputSpec lost its unread label field
    registry = default_registry()
    text = repr(registry.schemas()) + repr(tuple(s.kind for s in registry.schemas()))
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "564383898e8ac45a9c610692424aa3e55a3b806b6d9c062d7930de0a0c8678d0"
    )


def test_default_registry_is_shared():
    assert default_registry() is default_registry()


def test_load_missing_file(tmp_path):
    with pytest.raises(RegistryError, match="cannot read"):
        load_registry(tmp_path / "nope.cfg")


def test_load_custom_kind(tmp_path):
    path = tmp_path / "custom.cfg"
    path.write_text(
        "[kind:ReviewOp]\n"
        "display = Review\n"
        "style_class = ReviewOp\n"
        "domain = math\n"
        "inputs = \n"
        "    draft accepts=solution\n"
        "output = solution\n"
        "attributes = role required prompt\n",
        encoding="utf-8",
    )
    registry = load_registry(path)
    schema = registry.get("ReviewOp")
    assert schema.domain_restriction == "math"
    assert schema.input_ports[0].accepts == ("solution",)
    assert schema.attribute_keys[0].required and schema.attribute_keys[0].prompt_ref


def test_percent_in_style_is_literal(tmp_path):
    # styles are CSS, so '%' is not interpolation syntax
    path = tmp_path / "percent.cfg"
    text = SHIPPED_REGISTRY.read_text(encoding="utf-8")
    path.write_text(text + "\n[kind:WideOp]\nstyle = fill:#fff,stroke-width:50%\n", encoding="utf-8")
    assert load_registry(path).get("WideOp").style == "fill:#fff,stroke-width:50%"


@pytest.mark.parametrize(
    "text",
    [
        b"style = fill:#fff\n",
        b"[kind:A]\ndisplay = a\n[kind:A]\ndisplay = b\n",
        b"[kind:A]\ndisplay = \xff\n",
        b"[kind:A]\ninsertable = maybe\n",
        b"[kind:A]\ninputs = input min=two\n",
    ],
    ids=["no-section-header", "duplicate-section", "not-utf8", "insertable-not-boolean", "min-not-integer"],
)
def test_malformed_file_is_registry_error(tmp_path, text):
    path = tmp_path / "bad.cfg"
    path.write_bytes(text)
    with pytest.raises(RegistryError, match="bad registry config"):
        load_registry(path)


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("[kind:Interface]\ndomain = maths\n", "bad domain 'maths' for Interface"),
        ("[kind:A]\noutput = solution bogus\n", "unknown output token 'bogus' for A"),
        ("[kind:A]\noutput = solution label=x\n", "unknown output token 'label=x' for A"),
    ],
    ids=["unknown-domain", "output-extra-token", "output-label"],
)
def test_bad_value_is_registry_error(tmp_path, text, message):
    path = tmp_path / "bad.cfg"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(RegistryError, match=message):
        load_registry(path)
