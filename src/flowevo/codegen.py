"""Deterministic emission of executable program text from a validated graph.

Lowering produces a typed intermediate form: one awaited operator call per
executable node in topological order, with a single branch construct for
the test/repair fan-out used by code-domain workflows. Emission is pure
text substitution against pluggable templates, so identical inputs yield
byte-identical outputs, and ``structural_diff`` re-extracts the call graph
from the emitted text to audit the node/call bijection and dataflow.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

from .graph import WorkflowGraph
from .validator import bind_input_ports, validate

EXECUTABLE_KINDS = (
    "CustomOp",
    "ProgrammerOp",
    "ScEnsembleOp",
    "TestOp",
    "CustomCodeGenerateOp",
)


class EmissionError(Exception):
    pass


class InvalidGraphError(EmissionError):
    """Lowering refused: the graph does not validate."""

    def __init__(self, verdict):
        super().__init__(
            "refusing to lower an invalid graph: "
            + "; ".join(d.render() for d in verdict.errors[:4])
        )
        self.verdict = verdict


@dataclass(frozen=True)
class ArgRef:
    """A value available inside the emitted program."""

    kind: str  # "binding" | "entry" | "literal" | "prompt"
    value: str

    def render(self) -> str:
        if self.kind == "binding":
            return self.value
        if self.kind == "entry":
            return self.value
        if self.kind == "prompt":
            return f"prompt_custom.{self.value}"
        return json.dumps(self.value)


@dataclass(frozen=True)
class CallStep:
    node_id: str
    kind: str
    binding: str
    args: dict = field(default_factory=dict)  # hole name -> ArgRef | tuple[ArgRef, ...]
    output_expr: str = ""


@dataclass(frozen=True)
class BranchStep:
    """Test fan-out: keep the solution, or repair and re-test once."""

    test: CallStep
    repair: CallStep
    retest: CallStep
    result_binding: str
    fallback: ArgRef


@dataclass(frozen=True)
class ProgramIR:
    steps: tuple
    terminal: str
    prompts: dict
    domain: str
    entry_args: tuple[str, ...]

    def call_steps(self):
        out = []
        for step in self.steps:
            if isinstance(step, CallStep):
                out.append(step)
            else:
                out.extend([step.test, step.repair, step.retest])
        return out

    def node_call_count(self) -> int:
        """Calls corresponding to graph nodes (branch re-test is sugar)."""
        return sum(1 if isinstance(s, CallStep) else 2 for s in self.steps)


def _prompt_module_name(name: str) -> str:
    return name.upper()


def _binding_names(node_ids) -> dict:
    taken = set()
    names = {}
    for nid in node_ids:
        base = f"{nid.lower()}_result"
        candidate = base
        counter = 2
        while candidate in taken:
            candidate = f"{base}_{counter}"
            counter += 1
        taken.add(candidate)
        names[nid] = candidate
    return names


def lower_to_ir(graph: WorkflowGraph) -> ProgramIR:
    """Order executable nodes, wire arguments, and lower test fan-outs."""
    verdict = validate(graph)
    if verdict.q != 1:
        raise InvalidGraphError(verdict)
    roles = graph.interface_roles()
    interface_ids = set(roles.entries) | set(roles.exits)
    order = [nid for nid in graph.topological_order() if nid not in interface_ids]
    if not order:
        raise EmissionError("exit fed directly by entry; nothing to emit")
    for nid in order:
        kind = graph.registry.resolve_kind(graph.node(nid).kind)
        if kind not in EXECUTABLE_KINDS:
            raise EmissionError(f"kind {graph.node(nid).kind!r} has no emission semantics")

    bindings = _binding_names(order)
    exit_id = roles.exits[0]
    uses_entry_point = bool(roles.aux_entries)
    prompts: dict = {}

    # classify test fan-outs: fail arm -> repair node handled as branch sugar
    branch_of: dict[str, dict] = {}
    sugar_nodes: set[str] = set()
    for nid in order:
        if graph.registry.resolve_kind(graph.node(nid).kind) != "TestOp":
            continue
        fail_targets = [t for t, label in graph.successors(nid) if label == "fail"]
        if not fail_targets:
            continue
        if len(fail_targets) > 1:
            raise EmissionError(f"test node {nid} has multiple fail arms")
        repair = fail_targets[0]
        if repair in interface_ids:
            raise EmissionError(f"test node {nid} fails directly into an interface node")
        repair_kind = graph.registry.resolve_kind(graph.node(repair).kind)
        if repair_kind == "TestOp":
            raise EmissionError("repair chains deeper than one level are not lowerable")
        onward = [t for t, _ in graph.successors(repair)]
        pass_targets = [
            t for t, label in graph.successors(nid) if label != "fail"
        ]
        if any(t not in set(pass_targets) | {exit_id} for t in onward):
            raise EmissionError(
                f"repair node {repair} must rejoin the pass arm or the exit"
            )
        branch_of[nid] = {"repair": repair}
        sugar_nodes.add(repair)

    def output_ref(nid: str) -> ArgRef:
        if nid in roles.problem_entries:
            return ArgRef("entry", "problem")
        if nid in roles.aux_entries:
            return ArgRef("entry", "entry_point")
        node_kind = graph.registry.resolve_kind(graph.node(nid).kind)
        if node_kind == "TestOp" and nid in branch_of:
            result_binding = branch_of[nid].get("result")
            if result_binding is None:
                # still building this test's own repair arm: the repair
                # consumes the failed solution, i.e. the test's input
                return _test_solution_ref(nid)
            return ArgRef("binding", result_binding)
        return ArgRef("binding", f"{bindings[nid]}{_OUTPUT_FIELD[node_kind]}")

    def _test_solution_ref(nid: str) -> ArgRef:
        result = bind_input_ports(graph, nid)
        for (source, _label), port in sorted(result.bindings, key=lambda b: (b[0][0], b[0][1] or "")):
            if port.label == "solution":
                return output_ref(source)
        return ArgRef("literal", "")

    def prompt_ref(value: str | None) -> ArgRef:
        if value is None:
            return ArgRef("literal", "")
        if value in graph.prompts:
            module_name = _prompt_module_name(value)
            prompts[module_name] = graph.prompts.get(value)
            return ArgRef("prompt", module_name)
        return ArgRef("literal", "")

    def build_call(nid: str, solution_override: ArgRef | None = None) -> CallStep:
        node = graph.node(nid)
        kind = graph.registry.resolve_kind(node.kind)
        result = bind_input_ports(graph, nid)
        by_port: dict[str, list[ArgRef]] = {}
        for (source, _label), port in sorted(result.bindings, key=lambda b: (b[0][0], b[0][1] or "")):
            by_port.setdefault(port.label, []).append(output_ref(source))
        binding = bindings[nid]
        if kind == "CustomOp":
            args = {
                "input": _single(by_port, "input", ArgRef("entry", "problem")),
                "instruction": prompt_ref(node.attributes.get("role")),
                "role": ArgRef("literal", node.attributes.get("role", "")),
            }
        elif kind == "ProgrammerOp":
            analysis = by_port.get("analysis")
            args = {
                "problem": _single(by_port, "problem", ArgRef("entry", "problem")),
                "analysis": analysis[0] if analysis else ArgRef("literal", node.attributes.get("analysis", "")),
            }
        elif kind == "ScEnsembleOp":
            args = {
                "solutions": tuple(by_port.get("solution", ())),
                "problem": ArgRef("entry", "problem"),
            }
        elif kind == "TestOp":
            solution = solution_override or _single(by_port, "solution", ArgRef("literal", ""))
            args = {
                "problem": _single(by_port, "problem", ArgRef("entry", "problem")),
                "solution": solution,
                "entry_point": _single(by_port, "entry_point", ArgRef("entry", "entry_point")),
            }
        else:  # CustomCodeGenerateOp
            args = {
                "problem": _single(by_port, "problem", ArgRef("entry", "problem")),
                "entry_point": _single(by_port, "entry_point", ArgRef("entry", "entry_point")),
                "instruction": prompt_ref(node.attributes.get("instruction")),
            }
        if kind in ("TestOp", "CustomCodeGenerateOp"):
            uses = any(
                ref.kind == "entry" and ref.value == "entry_point"
                for ref in args.values()
                if isinstance(ref, ArgRef)
            )
            nonlocal_state["entry_point"] = nonlocal_state["entry_point"] or uses
        return CallStep(nid, kind, binding, args, f"{binding}{_OUTPUT_FIELD[kind]}")

    nonlocal_state = {"entry_point": uses_entry_point}
    steps = []
    for nid in order:
        if nid in sugar_nodes:
            continue
        kind = graph.registry.resolve_kind(graph.node(nid).kind)
        call = build_call(nid)
        if kind == "TestOp" and nid in branch_of:
            repair_id = branch_of[nid]["repair"]
            repair_call = build_call(repair_id)
            result_binding = f"{bindings[nid]}_solution"
            retest_binding = f"{bindings[nid]}_retest"
            repair_value = ArgRef("binding", repair_call.output_expr)
            retest = CallStep(
                nid,
                "TestOp",
                retest_binding,
                {**call.args, "solution": repair_value},
                f"{retest_binding}['solution']",
            )
            fallback = call.args["solution"]
            branch_of[nid]["result"] = result_binding
            steps.append(BranchStep(call, repair_call, retest, result_binding, fallback))
        else:
            steps.append(call)

    exit_feeders = [src for src, _ in graph.predecessors(exit_id) if src not in interface_ids]
    ordered_feeders = [nid for nid in order if nid in set(exit_feeders) and nid not in sugar_nodes]
    if ordered_feeders:
        terminal = output_ref(ordered_feeders[-1]).render()
    else:
        # exit fed only by branch sugar (repair arm); fall back to its branch result
        sugar_feeders = [nid for nid in order if nid in set(exit_feeders)]
        if not sugar_feeders:
            raise EmissionError("no executable node feeds the exit")
        repair_id = sugar_feeders[-1]
        owner = next(t for t, b in branch_of.items() if b["repair"] == repair_id)
        terminal = ArgRef("binding", branch_of[owner]["result"]).render()

    entry_args = ("problem", "entry_point") if nonlocal_state["entry_point"] else ("problem",)
    return ProgramIR(tuple(steps), terminal, prompts, graph.domain, entry_args)


_OUTPUT_FIELD = {
    "CustomOp": "['response']",
    "ProgrammerOp": "['output']",
    "ScEnsembleOp": "['response']",
    "TestOp": "['solution']",
    "CustomCodeGenerateOp": "['response']",
}


def _single(by_port, label, default: ArgRef) -> ArgRef:
    refs = by_port.get(label)
    return refs[0] if refs else default


# -- templates ---------------------------------------------------------------------


@dataclass(frozen=True)
class CallTemplate:
    init: str
    call: str


@dataclass(frozen=True)
class EmissionTemplate:
    program: str
    prompts_module: str
    branch: str
    calls: MappingProxyType  # kind -> CallTemplate


_HOLE_RE = re.compile(r"\{\{(\w+)\}\}")


def fill(template: str, values: dict) -> str:
    def replace(match):
        name = match.group(1)
        if name not in values:
            raise EmissionError(f"missing template hole value {name!r}")
        return values[name]

    return _HOLE_RE.sub(replace, template)


def _parse_sections(text: str) -> dict:
    sections: dict[str, list[str]] = {}
    current = None
    for line in text.splitlines():
        if line.startswith("[") and line.rstrip().endswith("]"):
            current = line.strip()[1:-1]
            sections[current] = []
        elif current is not None:
            sections[current].append(line)
    return {name: "\n".join(lines).strip("\n") for name, lines in sections.items()}


def load_templates(directory) -> EmissionTemplate:
    directory = Path(directory)
    calls = {}
    for path in sorted(directory.glob("call_*.tmpl")):
        kind = path.stem[len("call_") :]
        sections = _parse_sections(path.read_text(encoding="utf-8"))
        for required in ("init", "call"):
            if required not in sections:
                raise EmissionError(f"template {path.name} lacks [{required}] section")
        calls[kind] = CallTemplate(sections["init"], sections["call"])
    program = (directory / "program.tmpl").read_text(encoding="utf-8")
    prompts_module = (directory / "prompts.tmpl").read_text(encoding="utf-8")
    branch = (directory / "branch.tmpl").read_text(encoding="utf-8")
    return EmissionTemplate(program, prompts_module, branch, MappingProxyType(calls))


@functools.cache
def default_templates() -> EmissionTemplate:
    """The shipped template set, read once per process."""
    return load_templates(Path(__file__).parent / "templates" / "default")


# -- emission ----------------------------------------------------------------------


def _render_call(step: CallStep, templates: EmissionTemplate) -> str:
    template = templates.calls.get(step.kind)
    if template is None:
        raise EmissionError(f"no template for kind {step.kind!r}")
    values = {"binding": step.binding}
    for name, ref in step.args.items():
        if isinstance(ref, tuple):
            values[name] = ", ".join(r.render() for r in ref)
        else:
            values[name] = ref.render()
    return fill(template.call, values)


def emit(ir: ProgramIR, templates: EmissionTemplate | None = None) -> tuple[str, str]:
    """Render (program text, prompt module text); pure and byte-stable."""
    templates = templates or default_templates()
    for step in ir.call_steps():
        if step.kind not in templates.calls:
            raise EmissionError(f"no template for kind {step.kind!r}")

    init_lines = []
    seen_kinds = []
    for step in ir.call_steps():
        if step.kind not in seen_kinds:
            seen_kinds.append(step.kind)
            init_lines.append("        " + templates.calls[step.kind].init)

    body_lines = []
    for step in ir.steps:
        if isinstance(step, CallStep):
            body_lines.append("        " + _render_call(step, templates))
        else:
            block = fill(
                templates.branch,
                {
                    "result": step.result_binding,
                    "fallback": step.fallback.render(),
                    "test_call": _render_call(step.test, templates),
                    "test_binding": step.test.binding,
                    "repair_call": _render_call(step.repair, templates),
                    "retest_call": _render_call(step.retest, templates),
                    "retest_binding": step.retest.binding,
                    "repair_value": step.repair.output_expr,
                },
            )
            body_lines.extend("        " + line if line else "" for line in block.splitlines())

    program = fill(
        templates.program,
        {
            "inits": "\n".join(init_lines),
            "entry_args": ", ".join(f"{name}: str" for name in ir.entry_args),
            "body": "\n".join(body_lines),
            "terminal": ir.terminal,
        },
    )

    if ir.prompts:
        entries = []
        for name in sorted(ir.prompts):
            text = ir.prompts[name].replace('"""', '\\"\\"\\"')
            entries.append(f'{name} = """{text}"""')
        prompt_module = fill(templates.prompts_module, {"entries": "\n\n".join(entries)})
    else:
        prompt_module = ""
    return program, prompt_module


# -- structural diff ------------------------------------------------------------------


_CALL_LINE_RE = re.compile(r"^\s*(\w+) = await self\.(\w+)\((.*)\)\s*$")
_IF_LINE_RE = re.compile(r"^\s*if not (\w+)\[")


@dataclass
class DiffReport:
    missing_calls: list = field(default_factory=list)
    orphan_calls: list = field(default_factory=list)
    flow_mismatches: list = field(default_factory=list)
    arity_mismatches: list = field(default_factory=list)

    def is_empty(self) -> bool:
        return not (
            self.missing_calls or self.orphan_calls or self.flow_mismatches or self.arity_mismatches
        )

    def to_dict(self) -> dict:
        return {
            "missing_calls": self.missing_calls,
            "orphan_calls": self.orphan_calls,
            "flow_mismatches": self.flow_mismatches,
            "arity_mismatches": self.arity_mismatches,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def structural_diff(program_text: str, graph: WorkflowGraph) -> DiffReport:
    """Re-extract the call graph from emitted text and compare with the graph.

    Checks the node/call bijection (branch re-test lines are known sugar),
    dataflow consumption along every executable edge, and ensemble arity.
    """
    ir = lower_to_ir(graph)
    report = DiffReport()

    found: dict[str, str] = {}
    branch_conditions: list[str] = []
    for line in program_text.splitlines():
        match = _CALL_LINE_RE.match(line)
        if match:
            found[match.group(1)] = match.group(3)
        match = _IF_LINE_RE.match(line)
        if match:
            branch_conditions.append(match.group(1))

    expected: dict[str, CallStep] = {}
    sugar_bindings = set()
    for step in ir.steps:
        if isinstance(step, CallStep):
            expected[step.binding] = step
        else:
            expected[step.test.binding] = step.test
            expected[step.repair.binding] = step.repair
            sugar_bindings.add(step.retest.binding)

    for binding, step in expected.items():
        if binding not in found:
            report.missing_calls.append(f"{step.node_id} ({binding})")
    for binding in found:
        if binding not in expected and binding not in sugar_bindings:
            report.orphan_calls.append(binding)

    binding_of_node = {step.node_id: binding for binding, step in expected.items()}
    roles = graph.interface_roles()
    interface_ids = set(roles.entries) | set(roles.exits)
    for edge in graph.edges:
        if edge.source in interface_ids or edge.target in interface_ids:
            continue
        source_binding = binding_of_node.get(edge.source)
        target_binding = binding_of_node.get(edge.target)
        if source_binding is None or target_binding is None:
            continue  # already reported as missing
        consumer_args = found.get(target_binding, "")
        consumed = source_binding in consumer_args
        if not consumed and edge.label in ("fail", "pass"):
            consumed = source_binding in branch_conditions
        if not consumed and source_binding in branch_conditions:
            # branch result feeds downstream through its result variable
            owner = next(
                (s for s in ir.steps if not isinstance(s, CallStep) and s.test.binding == source_binding),
                None,
            )
            if owner is not None:
                consumed = owner.result_binding in consumer_args
        if not consumed:
            report.flow_mismatches.append(
                f"{edge.source}->{edge.target}: {target_binding} does not consume {source_binding}"
            )

    for step in ir.call_steps():
        if step.kind != "ScEnsembleOp":
            continue
        args_text = found.get(step.binding)
        if args_text is None:
            continue
        solutions = step.args.get("solutions", ())
        rendered = args_text.split("solutions=[", 1)
        if len(rendered) != 2:
            report.arity_mismatches.append(f"{step.node_id}: no solutions list in call")
            continue
        depth = 1
        top_commas = 0
        body_len = 0
        for ch in rendered[1]:
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
                if depth == 0:
                    break
            elif ch == "," and depth == 1:
                top_commas += 1
            body_len += 1
        emitted_count = (top_commas + 1) if body_len else 0
        expected_count = graph.in_degree(step.node_id)
        if emitted_count != len(solutions) or emitted_count != expected_count:
            report.arity_mismatches.append(
                f"{step.node_id}: {emitted_count} solutions emitted, in-degree {expected_count}"
            )
    return report
