"""The one-alternation parser against the frozen regex cascade it replaced.

Both parsers must build ``repr``-identical documents: the same statement
tables, spans and diagnostics, in the same order, with every statement line
classified afresh and then read from the line cache.
"""

from __future__ import annotations

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowevo import parse_workflow
from flowevo.mermaid import _classify_line

from conftest import load_workflow_gen
from parse_reference import reference_parse_workflow


def assert_same_parse(text: str) -> None:
    expected = repr(reference_parse_workflow(text))
    _classify_line.cache_clear()
    assert repr(parse_workflow(text)) == expected, ("cold", text)
    assert repr(parse_workflow(text)) == expected, ("warm", text)


def assert_same_parses(*texts: str) -> None:
    """Each text parses as the reference does, read in turn with one cache, so later texts hit earlier lines."""
    _classify_line.cache_clear()
    for text in texts:
        assert repr(parse_workflow(text)) == repr(reference_parse_workflow(text)), text


# ids that are identifiers, that are \w but not identifiers (digits first,
# non-ASCII letters), and that are statement keywords
_IDS = st.sampled_from(["A", "B1", "_x", "1b", "é", "Ωmega", "日本", "class", "flowchart", "TD"])
_FRAGMENTS = st.sampled_from(
    [
        "class", "classDef", "flowchart", "-->", "--", '["', '"]', "([", "])", "{", "}",
        "|", "<prompt>", "</prompt>", "%%", "%", "#", ",", ":", "=", '"', "(", ")", "[", "]",
        "<br/>", "&amp;", "&#124;", "'", "fill:#fff;", "CustomOp",
    ]
)
_SPACE = st.sampled_from(["", " ", "  ", "\t"])
_LABELS = st.sampled_from(
    ["", " ", "x", "Custom<br/>(role: r)", "P<br/>(a: 'b c', d: e)", "a|b", "&amp;", "x --> y", "]) ", "é"]
)


@st.composite
def _statement(draw) -> str:
    """A statement in one of the dialect's forms, from loosely drawn parts."""
    a, b, c = draw(_IDS), draw(_IDS), draw(_IDS)
    label, s, fragment = draw(_LABELS), draw(_SPACE), draw(_FRAGMENTS)
    return draw(
        st.sampled_from(
            [
                f"flowchart{s} {a}",
                f"classDef {a}{s} fill:#fff;",
                f"class {a}{s},{b} {c}",
                f"class {a}{s}{fragment}{b} {c}",
                f"{a}{s}-->{s}{b}",
                f"{a} -->{s}|{label}|{s}{b}",
                f"{a}{s}-- {label} -->{s}{b}",
                f'{a}["{label}"]{s}',
                f"{a}([{label}]){s}",
                f"{a}{{{label}}}",
                f'{a}{s}={s}"{label}"',
                "<prompt>",
                "</prompt>",
                f"%% {label}",
            ]
        )
    )


@st.composite
def _line(draw) -> str:
    kind = draw(st.integers(0, 2))
    if kind == 0:
        line = draw(_statement())
    else:
        parts = draw(st.lists(st.one_of(_IDS, _FRAGMENTS, _SPACE), max_size=7))
        line = "".join(parts)
        if kind == 2:
            # a fragment spliced into a well-formed statement
            line = draw(_statement())
            cut = draw(st.integers(0, len(line)))
            line = line[:cut] + draw(_SPACE) + "".join(parts) + draw(_SPACE) + line[cut:]
    return draw(_SPACE) + line + draw(_SPACE)


@st.composite
def _line_soup(draw) -> str:
    lines = draw(st.lists(_line(), max_size=12))
    if lines and draw(st.booleans()):
        # a truncated or duplicated line
        index = draw(st.integers(0, len(lines) - 1))
        line = lines[index]
        if draw(st.booleans()):
            lines[index] = line[: draw(st.integers(0, len(line)))]
        else:
            lines.insert(index, line)
    if draw(st.booleans()):
        lines.insert(0, "flowchart TD")
    return "\n".join(lines)


@given(_line_soup())
@example("flowchart TD\nclass A --> B\nclass A[x B\nclass A(x) B\nclass A{ B")
@example("flowchart TD x\nflowchart LR\n%x\n%% c\n# c")
@example('A -->|a|b| B\nA -- a|b --> B\nA -->|&amp;| B\nA(["x"])\nA(["x"]) B')
@example('flowchart TD\n<prompt>\n1x="a"\né="b"\nok="c"\n</prompt>')
@example('flowchart TD\nA["Custom<br/>(role: r)"]\nB["Custom <br/>(role: r)"]\nC["x<br/>(k: \'v\')]"]')
@settings(max_examples=1000, deadline=None)
def test_parse_matches_reference_on_line_soups(text):
    assert_same_parse(text)


@given(st.integers(0, 2**32), st.integers(0, 99), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_parse_matches_reference_on_check_stream_batches(seed, index, rng):
    workflow_gen = load_workflow_gen()
    batch = workflow_gen.check_stream_batch(random.Random(f"{seed}/{index}"), index, 4, high=60)
    for source in batch:
        assert_same_parse(source.text)
        lines = source.text.split("\n")
        k = rng.randrange(len(lines))
        assert_same_parse("\n".join(lines[:k] + [lines[k][: rng.randrange(len(lines[k]) + 1)]] + lines[k + 1 :]))
        assert_same_parse("\n".join(lines[:k] + [lines[k]] + lines[k:]))


def test_parse_matches_reference_on_a_check_stream_window():
    # the sources the benchmark's check_stream windows 0-2 validate for seed 1
    workflow_gen = load_workflow_gen()
    for window in range(3):
        for source in workflow_gen.check_stream_batch(random.Random(f"1/{window}"), window, 60):
            assert_same_parse(source.text)


# a cached line still gets its own span and the findings of its position
def test_a_repeated_declaration_is_a_duplicate_on_a_cache_hit():
    line = 'A["Custom<br/>(role: r)"]'
    doc = parse_workflow(f"flowchart TD\n{line}\n{line}")
    assert [d.message for d in doc.diagnostics] == ["duplicate node declaration 'A'"]
    assert_same_parses(f"flowchart TD\n{line}", f"flowchart TD\n{line}\n  {line}\n{line}")


def test_a_cached_class_line_conflicts_with_an_earlier_assignment():
    texts = ("flowchart TD\nclass A,B CustomOp", "flowchart TD\nclass B TestOp\nclass A,B CustomOp\nclass A,B CustomOp")
    assert_same_parses(*texts)
    doc = parse_workflow(texts[1])
    assert [d.span.line for d in doc.diagnostics] == [3, 4]
    assert doc.diagnostics[0].message == "conflicting class assignment for B: TestOp vs CustomOp"


def test_a_cached_line_takes_the_span_of_where_it_sits():
    first = parse_workflow("flowchart TD\nA --> B")
    second = parse_workflow("flowchart TD\n\n    A --> B")
    assert first.edges[0][1:] == second.edges[0][1:]
    assert (first.edges[0].span.line, first.edges[0].span.column) == (2, 1)
    assert (second.edges[0].span.line, second.edges[0].span.column) == (3, 5)
    assert_same_parses("flowchart TD\nA --> B\nflowchart LR", "flowchart TD\n\n    A --> B\n  flowchart LR")


def test_a_bad_id_line_is_a_finding_each_time_it_is_read():
    text = 'flowchart TD\n1x["a"]\nA --> 2y\nclass é CustomOp'
    assert_same_parses(text, text, "flowchart TD\n\n  1x[\"a\"]")
    assert len(parse_workflow(text).diagnostics) == 3
