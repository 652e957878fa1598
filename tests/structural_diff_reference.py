"""Frozen copy of ``codegen.structural_diff`` as it was before it scanned the call lines' words in one pass.

``reference_structural_diff`` runs the call-line and branch-condition
regexes on every line, strips the string literals of each call line and
tests every word of it; the differential test compares its reports with
the current function's on emitted and tampered program texts. One rule has
changed since it was frozen: an edge's source counts as consumed only where
its binding is a word of the consumer's arguments with string literals taken
out, not wherever it occurs in their text.
"""

from __future__ import annotations

import re

from flowevo.codegen import CallStep, DiffReport, lower_to_ir
from flowevo.graph import WorkflowGraph

_CALL_LINE_RE = re.compile(r"^\s*(\w+) = await self\.(\w+)\((.*)\)\s*$")
_IF_LINE_RE = re.compile(r"^\s*if not (\w+)\[")
_STRING_RE = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"')  # a double-quoted literal with backslash escapes
_WORD_RE = re.compile(r"\w+")


def reference_structural_diff(program_text: str, graph: WorkflowGraph) -> DiffReport:
    """Re-extract the call graph from emitted text and compare with the graph.

    Checks the node/call bijection (branch re-test lines are known sugar),
    dataflow consumption along every executable edge, and ensemble arity.
    """
    ir = lower_to_ir(graph)
    report = DiffReport()

    call_lines: list[tuple[str, str]] = []  # (binding, argument text) in program order
    branch_conditions: list[str] = []
    for line in program_text.splitlines():
        match = _CALL_LINE_RE.match(line)
        if match:
            call_lines.append((match.group(1), match.group(3)))
        match = _IF_LINE_RE.match(line)
        if match:
            branch_conditions.append(match.group(1))
    found = dict(call_lines)

    expected: dict[str, CallStep] = {}
    sugar_bindings = set()
    result_of_test: dict[str, str] = {}  # branch test binding -> the branch's result variable
    for step in ir.steps:
        if isinstance(step, CallStep):
            expected[step.binding] = step
        else:
            expected[step.test.binding] = step.test
            expected[step.repair.binding] = step.repair
            sugar_bindings.add(step.retest.binding)
            result_of_test[step.test.binding] = step.result_binding

    for binding, step in expected.items():
        if binding not in found:
            report.missing_calls.append(f"{step.node_id} ({binding})")
    for binding in found:
        if binding not in expected and binding not in sugar_bindings:
            report.orphan_calls.append(binding)
    # each call line assigns a fresh binding, and reads only bindings assigned above it
    assigned: set[str] = set()
    for binding, args_text in call_lines:
        for name in _WORD_RE.findall(_STRING_RE.sub("", args_text)):
            if name in found and name not in assigned:
                report.flow_mismatches.append(f"{binding} reads {name} before any line assigns it")
        if binding in assigned:
            report.orphan_calls.append(f"{binding} (assigned twice)")
        assigned.add(binding)

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
        consumer_words = _WORD_RE.findall(_STRING_RE.sub("", found.get(target_binding, "")))
        consumed = source_binding in consumer_words
        if not consumed and edge.label in ("fail", "pass"):
            consumed = source_binding in branch_conditions
        if not consumed and source_binding in branch_conditions and source_binding in result_of_test:
            # branch result feeds downstream through its result variable
            consumed = result_of_test[source_binding] in consumer_words
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
