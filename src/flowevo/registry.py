"""Node-type schema registry.

Every workflow node carries a kind tag; the registry maps kind tags to
schemas describing input ports, output payload type, attribute keys, the
style class used in flowchart sources, and an optional domain restriction.
The registry is data-driven so new kinds can be added through a config file
without touching code.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace


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

    @property
    def type(self) -> str:
        return self.label


@dataclass(frozen=True)
class OutputSpec:
    type: str
    label: str | None = None  # label convention for auto-created edges


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

    def required_attrs(self) -> tuple[AttrSpec, ...]:
        return tuple(a for a in self.attribute_keys if a.required)


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
        self._aliases: dict[str, str] = {}
        for schema in schemas:
            if schema.kind in self._schemas:
                raise RegistryError(f"duplicate kind {schema.kind!r}")
            self._schemas[schema.kind] = schema
            self._aliases[schema.kind.lower()] = schema.kind

    def kinds(self) -> tuple[str, ...]:
        return tuple(self._schemas)

    def schemas(self) -> tuple[NodeTypeSchema, ...]:
        return tuple(self._schemas.values())

    def resolve_kind(self, name: str) -> str | None:
        if name in self._schemas:
            return name
        return self._aliases.get(name.lower())

    def get(self, kind: str) -> NodeTypeSchema | None:
        resolved = self.resolve_kind(kind)
        return self._schemas[resolved] if resolved else None

    def __contains__(self, kind: str) -> bool:
        return self.resolve_kind(kind) is not None


# Style palette matching the published classDef block; kept verbatim so
# serialized sources render identically to the reference corpus.
_STYLES = {
    "CustomOp": "fill:#d0e1f9,stroke:#4378a2,stroke-width:2px",
    "ProgrammerOp": "fill:#f9c2c2,stroke:#c23737,stroke-width:2px",
    "ScEnsembleOp": "fill:#f9e4b7,stroke:#b99b37,stroke-width:2px",
    "TestOp": "fill:#d8f0d8,stroke:#2e8b57,stroke-width:2px",
    "CustomCodeGenerateOp": "fill:#f9c2c2,stroke:#c23737,stroke-width:2px",
    "Interface": "fill:#e2e2f2,stroke:#6a6ab2,stroke-width:2px",
    "DecisionOp": "fill:#ffffff,stroke:#444444,stroke-width:1px,stroke-dasharray:2 2",
}

STANDARD_CLASSES = (
    "CustomOp",
    "ProgrammerOp",
    "ScEnsembleOp",
    "TestOp",
    "CustomCodeGenerateOp",
    "Interface",
)


def default_registry() -> Registry:
    """The six documented kinds plus the optional code-domain DecisionOp."""
    return Registry(
        [
            NodeTypeSchema(
                kind="Interface",
                style_class="Interface",
                style=_STYLES["Interface"],
                interface_role="auto",
                insertable=False,
            ),
            NodeTypeSchema(
                kind="CustomOp",
                input_ports=(PortSpec("input", accepts=("any",)),),
                output_port=OutputSpec("solution"),
                attribute_keys=(AttrSpec("role", required=True, prompt_ref=True),),
                style_class="CustomOp",
                style=_STYLES["CustomOp"],
                display_name="Custom",
            ),
            NodeTypeSchema(
                kind="ProgrammerOp",
                input_ports=(
                    PortSpec("problem", accepts=("problem", "solution")),
                    PortSpec("analysis", required=False, accepts=("solution", "analysis")),
                ),
                output_port=OutputSpec("solution"),
                attribute_keys=(AttrSpec("analysis"),),
                style_class="ProgrammerOp",
                style=_STYLES["ProgrammerOp"],
                domain_restriction="math",
                display_name="Programmer",
            ),
            NodeTypeSchema(
                kind="ScEnsembleOp",
                input_ports=(
                    PortSpec("solution", min_count=2, variadic=True, accepts=("solution",)),
                ),
                output_port=OutputSpec("solution"),
                style_class="ScEnsembleOp",
                style=_STYLES["ScEnsembleOp"],
                display_name="ScEnsemble",
                insertable=False,
            ),
            NodeTypeSchema(
                kind="TestOp",
                input_ports=(
                    PortSpec("solution", accepts=("solution",)),
                    PortSpec("problem", required=False, ambient=True, accepts=("problem",)),
                    PortSpec("entry_point", required=False, ambient=True, accepts=("entry_point",)),
                ),
                output_port=OutputSpec("solution"),
                style_class="TestOp",
                style=_STYLES["TestOp"],
                domain_restriction="code",
                display_name="Test",
                insertable=False,
            ),
            NodeTypeSchema(
                kind="CustomCodeGenerateOp",
                input_ports=(
                    PortSpec("problem", accepts=("problem", "solution")),
                    PortSpec("entry_point", required=False, ambient=True, accepts=("entry_point",)),
                ),
                output_port=OutputSpec("solution"),
                attribute_keys=(AttrSpec("instruction", required=True, prompt_ref=True),),
                style_class="CustomCodeGenerateOp",
                style=_STYLES["CustomCodeGenerateOp"],
                domain_restriction="code",
                display_name="CustomCodeGenerate",
            ),
            # Declared by published code-domain sources but absent from the
            # documented kind list; registered with the pass/fail fan-out
            # shape only.
            NodeTypeSchema(
                kind="DecisionOp",
                input_ports=(PortSpec("condition", accepts=("any",)),),
                output_port=OutputSpec("any"),
                style_class="DecisionOp",
                style=_STYLES["DecisionOp"],
                domain_restriction="code",
                display_name="Decision",
                insertable=False,
            ),
        ]
    )


# ---------------------------------------------------------------------------
# Config-file format
#
# One [kind:NAME] section per schema. ``inputs`` holds one port per line:
#     <label> [accepts=a,b] [optional] [variadic] [ambient] [min=N]
# ``attributes`` holds one entry per line:
#     <key> [required] [prompt]
# ``output`` is ``<type> [label=<edge label>]``. ``interface`` is one of
# entry/exit/auto. ``domain`` is math/code/any.
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
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise RegistryError(f"cannot read registry config {path!r}")
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
        output = None
        if sec.get("output", "").strip():
            tokens = sec["output"].split()
            label = None
            for tok in tokens[1:]:
                if tok.startswith("label="):
                    label = tok[6:]
            output = OutputSpec(tokens[0], label)
        domain = sec.get("domain", "any").strip()
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
    if not schemas:
        raise RegistryError(f"no [kind:*] sections in {path!r}")
    return Registry(schemas)


def save_registry(registry: Registry, path) -> None:
    parser = configparser.ConfigParser()
    for schema in registry.schemas():
        section = f"kind:{schema.kind}"
        parser.add_section(section)
        sec = parser[section]
        if schema.input_ports:
            lines = []
            for port in schema.input_ports:
                tokens = [port.label]
                if port.accepts != ("any",):
                    tokens.append("accepts=" + ",".join(port.accepts))
                if port.ambient:
                    tokens.append("ambient")
                elif not port.required:
                    tokens.append("optional")
                if port.variadic:
                    tokens.append("variadic")
                if port.min_count != 1:
                    tokens.append(f"min={port.min_count}")
                lines.append(" ".join(tokens))
            sec["inputs"] = "\n" + "\n".join(lines)
        if schema.output_port is not None:
            value = schema.output_port.type
            if schema.output_port.label:
                value += f" label={schema.output_port.label}"
            sec["output"] = value
        if schema.attribute_keys:
            lines = []
            for attr in schema.attribute_keys:
                tokens = [attr.key]
                if attr.required:
                    tokens.append("required")
                if attr.prompt_ref:
                    tokens.append("prompt")
                lines.append(" ".join(tokens))
            sec["attributes"] = "\n" + "\n".join(lines)
        sec["style_class"] = schema.style_class or schema.kind
        if schema.style:
            sec["style"] = schema.style
        sec["domain"] = schema.domain_restriction or "any"
        if schema.interface_role:
            sec["interface"] = schema.interface_role
        if schema.display_name:
            sec["display"] = schema.display_name
        sec["insertable"] = "yes" if schema.insertable else "no"
    with open(path, "w", encoding="utf-8") as handle:
        parser.write(handle)
