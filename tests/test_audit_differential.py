"""``structural_diff`` against the frozen copy of the function it replaced.

Both must give equal reports on every program text: the programs emitted for
the golden chains' graphs, tampered copies of them, and randomly edited ones.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowevo.codegen import EmissionError, _read_line, emit, lower_to_ir, structural_diff

from conftest import load_corpus_graph
from structural_diff_reference import reference_structural_diff
from test_codegen import _codegen_graphs


def assert_same_report(text: str, graph) -> None:
    """The audit's report equals the reference's, with every line read afresh and then from the cache."""
    expected = reference_structural_diff(text, graph)
    _read_line.cache_clear()
    assert structural_diff(text, graph) == expected, ("cold", text)
    assert structural_diff(text, graph) == expected, ("warm", text)


@pytest.fixture(scope="module")
def emitted():
    """(program, graph) for every graph of the golden chains that lowers."""
    out = []
    for graph in _codegen_graphs():
        try:
            out.append((emit(lower_to_ir(graph))[0], graph))
        except EmissionError:
            continue
    return out


def _tampered(program: str, rng: random.Random) -> list:
    """Copies of ``program``, each with one defect or oddity the audit must read as the reference did."""
    lines = program.split("\n")
    calls = [i for i, line in enumerate(lines) if " = await self." in line]
    first, last = lines[calls[0]], lines[calls[-1]]
    binding = first.split(" = ", 1)[0].strip()
    later = last.split(" = ", 1)[0].strip()

    def with_line(i: int, line) -> str:
        return "\n".join(lines[:i] + ([] if line is None else [line]) + lines[i + 1 :])

    i = rng.choice(calls)
    line = lines[i]
    head, _, args = line.partition("(")
    out = [
        with_line(i, line[:-1] + ', note="unterminated)'),  # an unterminated literal
        with_line(i, line[:-1] + ', note="a\\"b\\\\")'),  # escaped quotes and a final backslash
        with_line(i, f'{head}({later[:2]}"x"{later[2:]}, {args}'),  # a literal between two words
        with_line(i, f'{head}(x="{later}", y="{binding}", {args}'),  # binding names inside literals
        with_line(calls[0], first[:-1] + f", a={later}, b={later})"),  # one pending binding read twice
        with_line(i, line[:-1] + f", né={later})"),  # a non-ASCII word
        with_line(i, line[:-1] + f", n=\u2014{later}\xa0)"),  # non-ASCII characters that are not word characters
        program.replace(binding, binding.replace("_", "_é", 1)),  # a non-ASCII binding
        program.replace("\n", "\r\n"),
        with_line(i, line.replace(", ", ",\x0b ", 1)),
        with_line(i, line.replace("(", "(\x85", 1)),
        with_line(i, line.replace("=", "\u2028=", 1)),
        "\n".join(lines[: calls[-1]] + [last, last] + lines[calls[-1] + 1 :]),  # a duplicate assignment
        "\n".join(lines[: calls[0]] + [last] + lines[calls[0] : calls[-1]] + lines[calls[-1] + 1 :]),  # a read before assignment
        with_line(calls[0], None),  # a missing call
    ]
    for i in calls:
        if "solutions=[" in lines[i]:
            head, _, rest = lines[i].partition("solutions=[")
            out.append(with_line(i, f"{head}solutions=[{_without_first_item(rest)}"))  # one solution dropped
    return out


def _without_first_item(rest: str) -> str:
    """``rest``, the text after a list's opening bracket, without the list's first item."""
    depth = 0
    for j, ch in enumerate(rest):
        if ch == "[":
            depth += 1
        elif ch == "]":
            if depth == 0:
                return rest[j:]  # it was the only item
            depth -= 1
        elif ch == "," and depth == 0:
            return rest[j + 2 :]
    return rest


def test_reports_match_on_emitted_and_tampered_programs(emitted):
    rng = random.Random(0)
    flagged = 0
    for program, graph in emitted:
        assert_same_report(program, graph)
        for text in _tampered(program, rng):
            assert_same_report(text, graph)
            flagged += not structural_diff(text, graph).is_empty()
    assert len(emitted) > 400 and flagged > 5 * len(emitted)


_FRAGMENTS = st.sampled_from(
    ['"', "\\", '\\"', "[", "]", ", ", "(", ")", "=", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85",
     "\u2028", "é", "\xa0", "\u2014", " ", "_result", "c_result", "p1_result", "await self.", "if not "]
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["gsm8k_round16", "humaneval_round5"]),
    st.lists(st.tuples(st.floats(0, 1), st.integers(0, 12), _FRAGMENTS), min_size=1, max_size=6),
)
def test_reports_match_on_edited_programs(name, edits):
    graph = load_corpus_graph(name)
    text = emit(lower_to_ir(graph))[0]
    for where, cut, fragment in edits:
        at = int(where * len(text))
        text = text[:at] + fragment + text[at + cut :]
    assert_same_report(text, graph)
