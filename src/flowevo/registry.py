"""Node-type schema registry.

Every workflow node carries a kind tag; the registry maps kind tags to
schemas describing input ports, output payload type, attribute keys, the
style class used in flowchart sources, and an optional domain restriction.
The table lives in one place, the config file: the default registry is the
``registry.cfg`` shipped next to this module, and a copy of it, with kinds
added or restyled, can stand in for it wherever ``--registry`` is accepted.
"""

from __future__ import annotations

import configparser
import functools
from collections.abc import Mapping
from dataclasses import dataclass, replace
from pathlib import Path
from types import MappingProxyType


class RegistryError(Exception):
    """Raised for malformed registry definitions or config files."""


@dataclass(frozen=True)
class PortSpec:
    """One input port of a node kind.

    ``label`` doubles as the port's semantic type name (the payload it
    carries). ``accepts`` lists payload types the port tolerates; ``"any"``
    matches everything. Ambient ports may be fed from workflow entry
    payloads instead of an incoming edge, so they never demand an edge.
    """

    label: str
    required: bool = True
    min_count: int = 1
    variadic: bool = False
    ambient: bool = False
    accepts: tuple[str, ...] = ("any",)


@dataclass(frozen=True)
class OutputSpec:
    type: str


@dataclass(frozen=True)
class AttrSpec:
    key: str
    required: bool = False
    prompt_ref: bool = False  # identifier values name prompt-table entries


@dataclass(frozen=True)
class NodeTypeSchema:
    kind: str
    input_ports: tuple[PortSpec, ...] = ()
    output_port: OutputSpec | None = None
    attribute_keys: tuple[AttrSpec, ...] = ()
    style_class: str = ""
    style: str = ""
    domain_restriction: str | None = None  # "math" | "code" | None (any)
    interface_role: str | None = None  # "entry" | "exit" | "auto" | None
    display_name: str = ""
    insertable: bool = True  # eligible target for the node-addition rewrite

    @property
    def is_interface(self) -> bool:
        return self.interface_role is not None

    def primary_input(self) -> PortSpec | None:
        """First non-ambient input port; the type an inserted node consumes."""
        for port in self.input_ports:
            if not port.ambient:
                return port
        return None

    # the port table edge-to-port binding reads, computed on first use and kept
    # (a racing first use computes an equal value)

    @functools.cached_property
    def ports_by_label(self) -> Mapping[str, PortSpec]:
        return MappingProxyType({p.label: p for p in self.input_ports})

    @functools.cached_property
    def fillable_ports(self) -> tuple[PortSpec, ...]:
        """Ports an unlabeled edge may fill, in schema order."""
        return tuple(p for p in self.input_ports if not p.ambient and not p.variadic)

    @functools.cached_property
    def variadic_port(self) -> PortSpec | None:
        """The port that absorbs surplus edges."""
        return next((p for p in self.input_ports if p.variadic), None)

    @functools.cached_property
    def fan_in_ports(self) -> tuple[PortSpec, ...]:
        """Variadic ports with a fan-in minimum of two or more, which W5 checks."""
        return tuple(p for p in self.input_ports if p.variadic and p.min_count >= 2)

    @functools.cached_property
    def prompt_ref_keys(self) -> tuple[str, ...]:
        """The keys of the attributes that name a prompt, in schema order."""
        return tuple(a.key for a in self.attribute_keys if a.prompt_ref)

    @functools.cached_property
    def required_ports(self) -> tuple[PortSpec, ...]:
        """Ports an edge must feed; fan-in minimums belong to W5."""
        return tuple(
            p for p in self.input_ports if p.required and not p.ambient and p not in self.fan_in_ports
        )


def port_accepts(port: PortSpec, payload_type: str | None) -> bool:
    """Whether ``payload_type`` may flow into ``port``."""
    if payload_type is None:
        return False
    if payload_type == "any" or "any" in port.accepts:
        return True
    return payload_type in port.accepts


class Registry:
    """Lookup table of node-type schemas with case-insensitive aliasing.

    Published workflow sources spell the ensemble class both ``ScEnsembleOp``
    and ``ScEnSembleOp``; ``resolve_kind`` folds such variants onto the
    registered spelling.
    """

    def __init__(self, schemas):
        self._schemas: dict[str, NodeTypeSchema] = {}
        self._folded: dict[str, NodeTypeSchema] = {}  # lower-case kind -> schema
        for schema in schemas:
            if schema.kind in self._schemas:
                raise RegistryError(f"duplicate kind {schema.kind!r}")
            self._schemas[schema.kind] = self._folded[schema.kind.lower()] = schema

    def schemas(self) -> tuple[NodeTypeSchema, ...]:
        return tuple(self._schemas.values())

    def resolve_kind(self, name: str) -> str | None:
        schema = self.get(name)
        return None if schema is None else schema.kind

    def get(self, kind: str) -> NodeTypeSchema | None:
        try:
            return self._schemas[kind]
        except KeyError:  # not a registered spelling
            return self._folded.get(kind.lower())

    def __contains__(self, kind: str) -> bool:
        return self.get(kind) is not None


# The classDef order of serialized sources, which differs from the table's
# kind order.
STANDARD_CLASSES = (
    "CustomOp",
    "ProgrammerOp",
    "ScEnsembleOp",
    "TestOp",
    "CustomCodeGenerateOp",
    "Interface",
)


@functools.lru_cache(maxsize=1)
def default_registry() -> Registry:
    """The table in the shipped ``registry.cfg``, loaded once per process.

    A Registry has no mutators, so every caller shares the one instance.
    """
    return load_registry(Path(__file__).with_name("registry.cfg"))


# ---------------------------------------------------------------------------
# Config-file format
#
# One [kind:NAME] section per schema. ``inputs`` holds one port per line:
#     <label> [accepts=a,b] [optional] [variadic] [ambient] [min=N]
# ``attributes`` holds one entry per line:
#     <key> [required] [prompt]
# ``output`` is ``<type>``. ``interface`` is one of entry/exit/auto.
# ``domain`` is math/code/any.
# ---------------------------------------------------------------------------


def _parse_port(line: str) -> PortSpec:
    tokens = line.split()
    if not tokens:
        raise RegistryError("empty port definition")
    label = tokens[0]
    spec = PortSpec(label)
    for tok in tokens[1:]:
        if tok == "optional":
            spec = replace(spec, required=False)
        elif tok == "required":
            spec = replace(spec, required=True)
        elif tok == "variadic":
            spec = replace(spec, variadic=True)
        elif tok == "ambient":
            spec = replace(spec, ambient=True, required=False)
        elif tok.startswith("accepts="):
            spec = replace(spec, accepts=tuple(tok[8:].split(",")))
        elif tok.startswith("min="):
            spec = replace(spec, min_count=int(tok[4:]))
        else:
            raise RegistryError(f"unknown port token {tok!r}")
    return spec


def _parse_attr(line: str) -> AttrSpec:
    tokens = line.split()
    if not tokens:
        raise RegistryError("empty attribute definition")
    spec = AttrSpec(tokens[0])
    for tok in tokens[1:]:
        if tok == "required":
            spec = replace(spec, required=True)
        elif tok == "prompt":
            spec = replace(spec, prompt_ref=True)
        else:
            raise RegistryError(f"unknown attribute token {tok!r}")
    return spec


def load_registry(path) -> Registry:
    parser = configparser.ConfigParser(interpolation=None)  # styles are CSS: '%' is literal
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise RegistryError(f"bad registry config {path!r}: {exc}") from None
    if not read:
        raise RegistryError(f"cannot read registry config {path!r}")
    try:
        schemas = _schemas_of(parser)
    except ValueError as exc:  # a non-boolean ``insertable``, a non-integer ``min=``
        raise RegistryError(f"bad registry config {path!r}: {exc}") from None
    if not schemas:
        raise RegistryError(f"no [kind:*] sections in {path!r}")
    return Registry(schemas)


def _schemas_of(parser) -> list[NodeTypeSchema]:
    schemas = []
    for section in parser.sections():
        if not section.startswith("kind:"):
            continue
        kind = section[len("kind:") :].strip()
        sec = parser[section]
        inputs = tuple(
            _parse_port(line) for line in sec.get("inputs", "").splitlines() if line.strip()
        )
        attrs = tuple(
            _parse_attr(line) for line in sec.get("attributes", "").splitlines() if line.strip()
        )
        tokens = sec.get("output", "").split()
        if len(tokens) > 1:
            raise RegistryError(f"unknown output token {tokens[1]!r} for {kind}")
        output = OutputSpec(tokens[0]) if tokens else None
        domain = sec.get("domain", "any").strip()
        if domain not in ("math", "code", "any"):
            raise RegistryError(f"bad domain {domain!r} for {kind}")
        role = sec.get("interface", "").strip() or None
        if role not in (None, "entry", "exit", "auto"):
            raise RegistryError(f"bad interface role {role!r} for {kind}")
        schemas.append(
            NodeTypeSchema(
                kind=kind,
                input_ports=inputs,
                output_port=output,
                attribute_keys=attrs,
                style_class=sec.get("style_class", kind).strip(),
                style=sec.get("style", "").strip(),
                domain_restriction=None if domain == "any" else domain,
                interface_role=role,
                display_name=sec.get("display", "").strip(),
                insertable=sec.getboolean("insertable", fallback=True),
            )
        )
    return schemas
