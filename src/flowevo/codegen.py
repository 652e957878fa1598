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
from itertools import chain
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from types import MappingProxyType

from .graph import WorkflowGraph
from .validator import bind_input_ports, validate

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
        if self.kind in ("binding", "entry"):
            return self.value
        if self.kind == "prompt":
            return f"prompt_custom.{self.value}"
        return json.dumps(self.value)


def _plain_repr(obj) -> str:
    """A dataclass repr that shows read-only mappings as the dicts they copy."""
    parts = []
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, MappingProxyType):
            value = dict(value)
        parts.append(f"{f.name}={value!r}")
    return f"{type(obj).__qualname__}({', '.join(parts)})"


@dataclass(frozen=True)
class CallStep:
    """One awaited call; ``args`` is a read-only copy, since lowerings, and steps, are shared."""

    node_id: str
    kind: str
    binding: str
    args: Mapping = field(default_factory=dict)  # hole name -> ArgRef | tuple[ArgRef, ...]
    output_expr: str = ""

    def __post_init__(self):
        object.__setattr__(self, "args", MappingProxyType(dict(self.args)))
        object.__setattr__(self, "_rendered", {})  # id(templates) -> (templates, line), see _render_call

    __repr__ = _plain_repr


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
    """A graph's lowering; ``prompts`` is a read-only copy, since lowerings are shared."""

    steps: tuple
    terminal: str
    prompts: Mapping
    domain: str
    entry_args: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "prompts", MappingProxyType(dict(self.prompts)))

    __repr__ = _plain_repr

    def call_steps(self):
        out = []
        for step in self.steps:
            if isinstance(step, CallStep):
                out.append(step)
            else:
                out.extend([step.test, step.repair, step.retest])
        return out


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


_PROBLEM = ArgRef("entry", "problem")
_ENTRY_POINT = ArgRef("entry", "entry_point")
_EMPTY = ArgRef("literal", "")

# the executable kinds, each with the result field its call returns
_OUTPUT_FIELD = {
    "CustomOp": "['response']",
    "ProgrammerOp": "['output']",
    "ScEnsembleOp": "['response']",
    "TestOp": "['solution']",
    "CustomCodeGenerateOp": "['response']",
}
_ENTRY_POINT_KINDS = frozenset({"TestOp", "CustomCodeGenerateOp"})  # the kinds with an entry_point port


class _PlainBindings:
    """Binding names when no two ids differ only by case: ``<id>_result`` for every id."""

    def __getitem__(self, nid: str) -> str:
        return f"{nid.lower()}_result"


def _inputs(graph: WorkflowGraph, node_id: str) -> dict:
    """Port label -> the sources bound to it, in the graph's predecessor order."""
    by_port: dict[str, list[str]] = {}
    for (source, _label), port in bind_input_ports(graph, node_id).bindings:
        by_port.setdefault(port.label, []).append(source)
    return by_port


def lower_to_ir(graph: WorkflowGraph) -> ProgramIR:
    """Order executable nodes, wire arguments, and lower test fan-outs.

    A graph's lowering is computed once and kept on the graph value, so
    ``structural_diff`` reads the IR that ``emit`` was given. A refusal is
    not kept: a graph that cannot be lowered raises on every call.
    """
    # the write is idempotent: a racing caller stores an equal IR
    if graph._ir is None:
        graph._ir = _lower(graph)
    return graph._ir


def _lower(graph: WorkflowGraph) -> ProgramIR:
    verdict = validate(graph)
    if verdict.q != 1:
        raise InvalidGraphError(verdict)
    roles = graph.interface_roles()
    interface_ids = {*roles.entries, *roles.exits}
    topological = graph.topological_order()
    order = [nid for nid in topological if nid not in interface_ids]
    if not order:
        raise EmissionError("exit fed directly by entry; nothing to emit")
    kinds = {nid: graph.schema(nid).kind for nid in order}  # a valid graph's kinds are all registered
    present = set(kinds.values())
    if not present <= _OUTPUT_FIELD.keys():
        nid = next(nid for nid in order if kinds[nid] not in _OUTPUT_FIELD)
        raise EmissionError(f"kind {graph.node(nid).kind!r} has no emission semantics")
    # binding names other than <id>_result depend on the order of ids that
    # differ only by case, which a rewrite of other nodes can change, so then
    # no call step is kept
    plain = len(set(map(str.lower, order))) == len(order)
    bindings = _PlainBindings() if plain else _binding_names(order)
    position = dict(zip(topological, range(len(topological))))
    exit_id = roles.exits[0]

    # classify test fan-outs: the fail arm's node is a repair, emitted inside its test's branch
    repair_of: dict[str, str] = {}
    for nid in order if "TestOp" in present else ():
        if kinds[nid] != "TestOp":
            continue
        fail_targets = [t for t, label in graph.successors(nid) if label == "fail"]
        if not fail_targets:
            continue
        if len(fail_targets) > 1:
            raise EmissionError(f"test node {nid} has multiple fail arms")
        repair = fail_targets[0]
        if repair in interface_ids:
            raise EmissionError(f"test node {nid} fails directly into an interface node")
        if kinds[repair] == "TestOp":
            raise EmissionError("repair chains deeper than one level are not lowerable")
        rejoin = {t for t, label in graph.successors(nid) if label != "fail"} | {exit_id}
        if any(t not in rejoin for t, _ in graph.successors(repair)):
            raise EmissionError(f"repair node {repair} must rejoin the pass arm or the exit")
        repair_of[nid] = repair
    test_of = {repair: test for test, repair in reversed(repair_of.items())}  # a shared repair: the first test
    # a repair is emitted at its test's step, so all else it reads must be emitted earlier
    for test, repair in repair_of.items():
        for source, _ in graph.predecessors(repair):
            if source == test or source in interface_ids:
                continue
            if position[test_of.get(source, source)] > position[test]:
                raise EmissionError(f"repair node {repair} reads {source}, which is emitted after its test {test}")

    def ref(source: str, at: str) -> ArgRef:
        """The value ``source`` hands to a call emitted at node ``at``'s step."""
        if source in roles.problem_entries:
            return _PROBLEM
        if source in roles.aux_entries:
            return _ENTRY_POINT
        if source not in repair_of:
            return ArgRef("binding", f"{bindings[source]}{_OUTPUT_FIELD[kinds[source]]}")
        if position[source] < position[at]:
            return ArgRef("binding", f"{bindings[source]}_solution")
        # the branch is still being emitted: its repair reads the failed solution, the test's input
        return port_ref(source, "solution", _EMPTY, at)

    def port_ref(nid: str, port: str, default: ArgRef, at: str) -> ArgRef:
        sources = _inputs(graph, nid).get(port)
        return ref(sources[0], at) if sources else default

    looked_up: list[str] = []  # the prompt names the call being built reads
    resolved: list[tuple] = []  # and the (module name, text) entries they add

    def prompt_ref(value: str | None) -> ArgRef:
        if value is None:
            return _EMPTY
        looked_up.append(value)
        if value not in graph.prompts:
            return _EMPTY
        module_name = value.upper()
        resolved.append((module_name, graph.prompts.get(value)))
        return ArgRef("prompt", module_name)

    def build_call(nid: str, at: str) -> tuple:
        """(node ``nid``'s call, emitted at node ``at``'s step, the prompt names it looked up, the entries they add)."""
        looked_up.clear()
        resolved.clear()
        attributes = graph.node(nid).attributes
        kind = kinds[nid]
        if kind == "CustomOp":
            args = {
                "input": port_ref(nid, "input", _PROBLEM, at),
                "instruction": prompt_ref(attributes.get("role")),
                "role": ArgRef("literal", attributes.get("role", "")),
            }
        elif kind == "ProgrammerOp":
            args = {
                "problem": port_ref(nid, "problem", _PROBLEM, at),
                "analysis": port_ref(nid, "analysis", ArgRef("literal", attributes.get("analysis", "")), at),
            }
        elif kind == "ScEnsembleOp":
            args = {
                "solutions": tuple(ref(source, at) for source in _inputs(graph, nid).get("solution", ())),
                "problem": _PROBLEM,
            }
        elif kind == "TestOp":
            args = {
                "problem": port_ref(nid, "problem", _PROBLEM, at),
                "solution": port_ref(nid, "solution", _EMPTY, at),
                "entry_point": port_ref(nid, "entry_point", _ENTRY_POINT, at),
            }
        else:  # CustomCodeGenerateOp
            args = {
                "problem": port_ref(nid, "problem", _PROBLEM, at),
                "entry_point": port_ref(nid, "entry_point", _ENTRY_POINT, at),
                "instruction": prompt_ref(attributes.get("instruction")),
            }
        binding = bindings[nid]
        return CallStep(nid, kind, binding, args, f"{binding}{_OUTPUT_FIELD[kind]}"), tuple(looked_up), tuple(resolved)

    # a plain call step is taken from the graph's memo when it has one; a branched
    # test and its readers are always built
    memo = graph._calls if plain else {}
    built = {*repair_of, *(t for test in repair_of for t, _ in graph.successors(test))}
    emitted = [nid for nid in order if nid not in test_of] if test_of else order  # a repair is emitted in its test's branch
    # per emitted node: (plain call step, the prompt names it looked up, the entries they added)
    entries = [None if nid in built else memo.get(nid) for nid in emitted] if built else list(map(memo.get, emitted))
    for i in [i for i, entry in enumerate(entries) if entry is None]:
        entries[i] = build_call(emitted[i], emitted[i])
    kept = dict(zip(emitted, entries))
    steps = [entry[0] for entry in entries]
    added = [entry[2] for entry in entries]  # the prompt entries, in emission order
    for i, nid in enumerate(emitted) if repair_of else ():
        if nid not in repair_of:
            continue
        del kept[nid]
        call = steps[i]
        repair, _, repair_added = build_call(repair_of[nid], nid)
        added[i] += repair_added
        retest_binding = f"{bindings[nid]}_retest"
        retest = CallStep(
            nid,
            "TestOp",
            retest_binding,
            {**call.args, "solution": ArgRef("binding", repair.output_expr)},
            f"{retest_binding}['solution']",
        )
        steps[i] = BranchStep(call, repair, retest, f"{bindings[nid]}_solution", call.args["solution"])
    prompts = dict(chain.from_iterable(added))

    # the exit returns its last plain feeder, else the branch of its last repair feeder
    feeders = [src for src, _ in graph.predecessors(exit_id) if src not in interface_ids]
    last = max(feeders, key=lambda nid: (nid not in test_of, position[nid]))
    terminal = ref(test_of.get(last, last), exit_id).render()

    uses_entry_point = bool(roles.aux_entries)
    if not uses_entry_point and not present.isdisjoint(_ENTRY_POINT_KINDS):
        # only these kinds have an entry_point port, and a re-test reads what its test reads
        calls = chain.from_iterable((s,) if isinstance(s, CallStep) else (s.test, s.repair) for s in steps)
        uses_entry_point = any(c.args.get("entry_point") is _ENTRY_POINT for c in calls if c.kind in _ENTRY_POINT_KINDS)
    entry_args = ("problem", "entry_point") if uses_entry_point else ("problem",)
    # ref and port_ref call each other; clearing one breaks that cycle, so the
    # tables above are freed on return instead of at the next garbage collection
    del port_ref
    graph._calls = kept if plain else {}
    return ProgramIR(tuple(steps), terminal, prompts, graph.domain, entry_args)


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


def _read_template(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise EmissionError(f"template {path}: not valid UTF-8 ({exc})") from None


def load_templates(directory) -> EmissionTemplate:
    directory = Path(directory)
    calls = {}
    for path in sorted(directory.glob("call_*.tmpl")):
        kind = path.stem[len("call_") :]
        sections = _parse_sections(_read_template(path))
        for required in ("init", "call"):
            if required not in sections:
                raise EmissionError(f"template {path.name} lacks [{required}] section")
        calls[kind] = CallTemplate(sections["init"], sections["call"])
    program, prompts_module, branch = (
        _read_template(directory / name) for name in ("program.tmpl", "prompts.tmpl", "branch.tmpl")
    )
    return EmissionTemplate(program, prompts_module, branch, MappingProxyType(calls))


@functools.lru_cache(maxsize=1)
def default_templates() -> EmissionTemplate:
    """The shipped template set, read once per process."""
    return load_templates(Path(__file__).parent / "templates" / "default")


# -- emission ----------------------------------------------------------------------


def _render_call(step: CallStep, templates: EmissionTemplate) -> str:
    # an entry holds its template set, so no other set can have that id while the entry lives
    known = step._rendered.get(id(templates))
    if known is not None:
        return known[1]
    template = templates.calls[step.kind]  # emit checked every kind has one
    values = {"binding": step.binding}
    for name, ref in step.args.items():
        if isinstance(ref, tuple):
            values[name] = ", ".join(r.render() for r in ref)
        else:
            values[name] = ref.render()
    line = fill(template.call, values)
    step._rendered[id(templates)] = (templates, line)
    return line


@functools.lru_cache(maxsize=1024)
def _prompt_entry(name: str, text: str) -> str:
    """The prompt module's assignment of ``text`` to ``name``, in a literal Python reads back as ``text``."""
    # backslashes first, so that the escapes added after them stay escapes;
    # then a final quote, which would end the literal, and three in a row.
    # Python reads a carriage return in a literal as a newline and refuses a NUL
    text = text.replace("\\", "\\\\")
    if text.endswith('"'):
        text = text[:-1] + '\\"'
    text = text.replace('"""', '\\"\\"\\"').replace("\r", "\\r").replace("\0", "\\x00")
    return f'{name} = """{text}"""'


def emit(ir: ProgramIR, templates: EmissionTemplate | None = None) -> tuple[str, str]:
    """Render (program text, prompt module text); pure and byte-stable."""
    templates = templates or default_templates()
    kinds = dict.fromkeys(step.kind for step in ir.call_steps())  # in first-call order: one init line each
    for kind in kinds:
        if kind not in templates.calls:
            raise EmissionError(f"no template for kind {kind!r}")

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
            "inits": "\n".join("        " + templates.calls[kind].init for kind in kinds),
            "entry_args": ", ".join(f"{name}: str" for name in ir.entry_args),
            "body": "\n".join(body_lines),
            "terminal": ir.terminal,
        },
    )

    if ir.prompts:
        entries = "\n\n".join([_prompt_entry(name, ir.prompts[name]) for name in sorted(ir.prompts)])
        prompt_module = fill(templates.prompts_module, {"entries": entries})
    else:
        prompt_module = ""
    return program, prompt_module


# -- structural diff ------------------------------------------------------------------


_CALL_LINE_RE = re.compile(r"^\s*(\w+) = await self\.(\w+)\((.*)\)\s*$")
_IF_LINE_RE = re.compile(r"^\s*if not (\w+)\[")
# a double-quoted literal with backslash escapes, within one line
_STRING_RE = re.compile(r'"[^"\\\n]*(?:\\.[^"\\\n]*)*"')
_WORD_RE = re.compile(r"\w+")
_LIST_PUNCTUATION_RE = re.compile(r"[\[\],]")


@functools.lru_cache(maxsize=1024)
def _read_line(line: str):
    """What ``structural_diff`` reads in a line: a call line's (binding, argument text, argument
    words with string literals taken out, in order, and as a set), a branch condition's tested
    binding, or None; a chain's products share most lines, so each is read once while cached."""
    match = _CALL_LINE_RE.match(line)
    if match is None:
        match = _IF_LINE_RE.match(line)
        return match[1] if match else None
    binding, args_text = match.group(1, 3)
    stripped = _STRING_RE.sub("", args_text)  # no literal spans two lines
    words = tuple(_WORD_RE.findall(stripped))
    return binding, args_text, words, frozenset(words)


@dataclass
class DiffReport:
    missing_calls: list = field(default_factory=list)
    orphan_calls: list = field(default_factory=list)
    flow_mismatches: list = field(default_factory=list)
    arity_mismatches: list = field(default_factory=list)

    def is_empty(self) -> bool:
        return not any(self.to_dict().values())

    def to_dict(self) -> dict:
        return asdict(self)


def structural_diff(program_text: str, graph: WorkflowGraph) -> DiffReport:
    """Re-extract the call graph from emitted text and compare with the graph.

    Checks the node/call bijection (branch re-test lines are known sugar),
    dataflow consumption along every executable edge, and ensemble arity.
    """
    ir = lower_to_ir(graph)
    report = DiffReport()

    call_lines: list[tuple] = []  # _read_line's reading of each call line, in program order
    branch_conditions: list[str] = []
    for read in map(_read_line, program_text.splitlines()):
        if type(read) is tuple:
            call_lines.append(read)
        elif read is not None:
            branch_conditions.append(read)
    found = {read[0]: read for read in call_lines}  # binding -> its (last) call line's reading

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
    # each call line assigns a fresh binding, and reads only bindings assigned
    # above it: no word of its arguments, string literals taken out, is one
    # that no line above assigns
    pending = set(found)  # the bindings no line above assigns
    for binding, _, words, word_set in call_lines:
        if not pending.isdisjoint(word_set):
            report.flow_mismatches += [f"{binding} reads {name} before any line assigns it" for name in words if name in pending]
        if binding not in pending:
            report.orphan_calls.append(f"{binding} (assigned twice)")
        pending.discard(binding)

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
        consumer_words = found[target_binding][3] if target_binding in found else ()
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
        if step.binding not in found:
            continue
        args_text = found[step.binding][1]
        solutions = step.args.get("solutions", ())
        rendered = args_text.split("solutions=[", 1)
        if len(rendered) != 2:
            report.arity_mismatches.append(f"{step.node_id}: no solutions list in call")
            continue
        depth = 1
        top_commas = 0
        for ch in _LIST_PUNCTUATION_RE.findall(rendered[1]):
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
                if depth == 0:
                    break
            elif depth == 1:
                top_commas += 1
        emitted_count = 0 if rendered[1][:1] in ("", "]") else top_commas + 1  # the list is empty or not
        expected_count = graph.in_degree(step.node_id)
        if emitted_count != len(solutions) or emitted_count != expected_count:
            report.arity_mismatches.append(
                f"{step.node_id}: {emitted_count} solutions emitted, in-degree {expected_count}"
            )
    return report
