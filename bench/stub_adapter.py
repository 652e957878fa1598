"""Deterministic stand-in for an external proposer, judge and evaluator.

Speaks the adapter protocol of ``flowevo.adapters``: one JSON request per
line on stdin, one JSON response per line on stdout. It serves all three
request kinds, so the benchmark starts one copy per role.

- propose: a seeded text edit of the first parent. Three edits in four keep
  the workflow valid (reword a Programmer, add or drop an ensemble branch,
  extend a prompt); one in four breaks it (drop a ``class`` line, or drop
  the closing bracket of a declaration), so the engine's retry-with-feedback
  path runs.
- judge: fixed rubric plus small, deterministic bonuses per candidate.
- evaluate: a score in [0, 1] peaking at five ensemble branches.

Standard library only, and it expects sources in the canonical serialized
form (one statement per line), which is what the engine sends.
"""

import json
import random
import re
import sys

PHRASES = (
    "Calculate step by step",
    "Check edge cases first",
    "Execute code for precise arithmetic",
    "Verify intermediate results",
    "Explore an alternative method",
    "Estimate, then compute exactly",
)
TARGET_BRANCHES = 5

_DECL = re.compile(r'\s*(\w+)(\(\[|\[|\{)')
_CLASS = re.compile(r"\s*class (\w+) (\w+)$")
_EDGE = re.compile(r"\s*(\w+) --> (?:\|([^|]*)\|)?(\w+)$")
_PROMPT = re.compile(r'(\w+)="(.*)"$')


def _ensemble(lines):
    for line in lines:
        match = _CLASS.match(line)
        if match and match.group(2).lower() == "scensembleop":
            return match.group(1)
    return None


def _edges(lines):
    return [(i, m.group(1), m.group(3)) for i, line in enumerate(lines) if (m := _EDGE.match(line))]


def _branches(lines, ensemble):
    return sorted({src for _, src, dst in _edges(lines) if dst == ensemble})


def _reword(lines, rng):
    sites = [i for i, line in enumerate(lines) if "(analysis: '" in line]
    if not sites:
        return None
    i = rng.choice(sites)
    lines[i] = re.sub(r"\(analysis: '[^']*'\)", f"(analysis: '{rng.choice(PHRASES)}')", lines[i])
    return f"reword analysis of {_DECL.match(lines[i]).group(1)}"


def _add_branch(lines, rng):
    ensemble = _ensemble(lines)
    if ensemble is None:
        return None
    taken = {m.group(1) for line in lines if (m := _DECL.match(line))}
    k = 1
    while f"P{k}" in taken:
        k += 1
    node = f"P{k}"
    lines.insert(1, f"  {node}[\"Programmer<br/>(analysis: '{rng.choice(PHRASES)}')\"]")
    last_class = max(i for i, line in enumerate(lines) if _CLASS.match(line))
    lines.insert(last_class + 1, f"  class {node} ProgrammerOp")
    last_edge = max(i for i, _, _ in _edges(lines))
    lines[last_edge + 1:last_edge + 1] = [f"  PROBLEM --> |problem|{node}", f"  {node} --> {ensemble}"]
    return f"add ensemble branch {node}"


def _drop_branch(lines, rng):
    ensemble = _ensemble(lines)
    if ensemble is None:
        return None
    edges = _edges(lines)
    branches = _branches(lines, ensemble)
    if len(branches) <= 2:
        return None
    simple = [
        b for b in branches
        if sorted((s, d) for _, s, d in edges if b in (s, d)) == sorted([(b, ensemble), ("PROBLEM", b)])
    ]
    if not simple:
        return None
    node = rng.choice(simple)
    lines[:] = [
        line for line in lines
        if not ((m := _DECL.match(line)) and m.group(1) == node)
        and not ((m := _CLASS.match(line)) and m.group(1) == node)
        and not ((m := _EDGE.match(line)) and node in (m.group(1), m.group(3)))
    ]
    return f"delete ensemble branch {node}"


def _extend_prompt(lines, rng):
    sites = [i for i, line in enumerate(lines) if _PROMPT.match(line)]
    if not sites:
        return None
    i = rng.choice(sites)
    lines[i] = lines[i][:-1] + f" Step {rng.randint(1, 9)}: {rng.choice(PHRASES).lower()}.\""
    return f"substitute prompt {_PROMPT.match(lines[i]).group(1)}"


def _break(lines, rng):
    if rng.random() < 0.5:
        sites = [i for i, line in enumerate(lines) if (m := _CLASS.match(line)) and m.group(2) != "Interface"]
        i = rng.choice(sites)
        del lines[i]
        return "broken: class line dropped"
    sites = [i for i, line in enumerate(lines) if line.rstrip().endswith('"]')]
    i = rng.choice(sites)
    lines[i] = lines[i].rstrip()[:-1]
    return "broken: closing bracket dropped"


def propose(request):
    rng = random.Random(request["seed"])
    lines = request["parents"][0]["source"].split("\n")
    if rng.random() < 0.25:
        note = _break(lines, rng)
    else:
        edits = [_reword, _add_branch, _drop_branch, _extend_prompt]
        rng.shuffle(edits)
        note = next(n for edit in edits if (n := edit(lines, rng)) is not None)
    return {"text": "\n".join(lines), "modification": f"<modification>{note}</modification>"}


def judge(request):
    scores = []
    for i, candidate in enumerate(request["candidates"]):
        lines = candidate["source"].split("\n")
        ensemble = _ensemble(lines)
        branches = len(_branches(lines, ensemble)) if ensemble else 0
        scores.append({
            "workflow_coherence": 8 if ensemble else 4,
            "innovation": 5 + (len(candidate["modification"]) + i) % 4,
            "complexity_balance": max(1, 10 - 2 * abs(branches - TARGET_BRANCHES)),
            "prompt_quality": 6,
            "modification_rationale": 7 if "branch" in candidate["modification"] else 5,
        })
    return {"scores": scores}


def evaluate(request):
    lines = request["source"].split("\n")
    ensemble = _ensemble(lines)
    if ensemble is None:
        return {"score": 0.1}
    branches = len(_branches(lines, ensemble))
    prompt_chars = sum(len(line) for line in lines if _PROMPT.match(line))
    score = 1.0 - 0.15 * abs(branches - TARGET_BRANCHES) - (prompt_chars % 97) / 1000.0
    return {"score": round(min(1.0, max(0.0, score)), 6)}


HANDLERS = {"propose": propose, "judge": judge, "evaluate": evaluate}


def main():
    for line in sys.stdin:
        request = json.loads(line)
        sys.stdout.write(json.dumps(HANDLERS[request["kind"]](request)) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
