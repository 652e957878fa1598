"""flowevo: typed declarative workflow graphs with verified evolution.

Parse a flowchart-dialect workflow language into typed graphs, statically
verify them, evolve them with constraint-preserving rewrite operators under
a closure guarantee, and deterministically emit executable program text.
"""

from .diagnostics import Diagnostic, SourceSpan, Verdict
from .graph import (
    Edge,
    GraphConstructionError,
    MissingInterfaceError,
    Node,
    PromptTable,
    WorkflowGraph,
    type_of_output,
)
from .mermaid import (
    LoweringError,
    MermaidDocument,
    hard_check,
    infer_domain,
    lower_to_graph,
    parse_workflow,
    serialize_workflow,
)
from .registry import (
    NodeTypeSchema,
    PortSpec,
    Registry,
    default_registry,
    load_registry,
)
from .validator import soft_check, validate

__version__ = "0.1.0"

__all__ = [
    "Diagnostic",
    "Edge",
    "GraphConstructionError",
    "LoweringError",
    "MermaidDocument",
    "MissingInterfaceError",
    "Node",
    "NodeTypeSchema",
    "PortSpec",
    "PromptTable",
    "Registry",
    "SourceSpan",
    "Verdict",
    "WorkflowGraph",
    "default_registry",
    "hard_check",
    "infer_domain",
    "load_registry",
    "lower_to_graph",
    "parse_workflow",
    "serialize_workflow",
    "soft_check",
    "type_of_output",
    "validate",
    "__version__",
]
