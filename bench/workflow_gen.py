"""Seeded workflow-source generator for the benchmark.

Produces valid-by-construction workflow text of a target node count in the
flowchart dialect: Custom/Programmer chains fanning into one ScEnsemble,
followed by a Custom refine node, with class assignments and a prompt table.
``inject_defect`` adds exactly one defect whose failing rule is known by
construction. Pure standard library: the generator never calls the package
under test, so its inputs do not depend on the code being measured.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

ANALYSES = (
    "Calculate step by step",
    "Check edge cases",
    "Execute code for precise arithmetic",
    "Verify intermediate results",
    "Try an alternative method",
    "Simplify the expression first",
)

WORDS = (
    "problem", "solution", "answer", "careful", "verify", "reason", "format",
    "boxed", "latex", "step", "compute", "explain", "result", "check", "final",
)

# defect name -> rules among the verdict's errors, known by construction
DEFECT_RULES = {
    "syntax": ("SYNTAX",),
    # an edge out of the exit leaves no exit (W1, W3) and closes a cycle
    # through every node, since each one reaches the exit (STRUCT)
    "exit_edge": ("W1", "W3", "STRUCT"),
    "cycle": ("STRUCT",),
    "duplicate_edge": ("STRUCT",),
    "class_drop": ("W4",),
}
DEFECTS = tuple(DEFECT_RULES)

MIN_NODES = 6


@dataclass(frozen=True)
class Workflow:
    """Generated source plus the facts the benchmark checks it against."""

    text: str
    nodes: int
    defect: str | None = None

    @property
    def expected_q(self) -> int:
        return 1 if self.defect is None else 0

    @property
    def expected_rules(self) -> tuple[str, ...]:
        return () if self.defect is None else DEFECT_RULES[self.defect]


class _Lines:
    """Source split into its sections, so a defect can edit one of them."""

    def __init__(self, decls, classes, edges, prompts, chains):
        self.decls = decls
        self.classes = classes
        self.edges = edges
        self.prompts = prompts
        self.chains = chains  # worker ids per branch, entry side first

    def render(self) -> str:
        out = ["flowchart TD"]
        out += ["  " + line for line in self.decls]
        out.append("")
        out += [
            "  classDef CustomOp fill:#d0e1f9,stroke:#4378a2,stroke-width:2px;",
            "  classDef ProgrammerOp fill:#f9c2c2,stroke:#c23737,stroke-width:2px;",
            "  classDef ScEnsembleOp fill:#f9e4b7,stroke:#b99b37,stroke-width:2px;",
            "  classDef Interface fill:#e2e2f2,stroke:#6a6ab2,stroke-width:2px;",
            "",
        ]
        out += ["  " + line for line in self.classes]
        out.append("")
        out += ["  " + line for line in self.edges]
        out += ["", "<prompt>"] + self.prompts + ["</prompt>"]
        return "\n".join(out) + "\n"


def _sentence(rng: random.Random, tag: str) -> str:
    words = [rng.choice(WORDS) for _ in range(rng.randint(8, 16))]
    return f"[{tag}] " + " ".join(words).capitalize() + "."


def _build(nodes: int, rng: random.Random, tag: str) -> _Lines:
    if nodes < MIN_NODES:
        raise ValueError(f"a generated workflow needs at least {MIN_NODES} nodes")
    workers = nodes - 4  # PROBLEM, ENSEMBLE, REFINE and RETURN are fixed
    branches = max(2, min(workers, round(math.sqrt(workers))))
    lengths = [workers // branches + (1 if b < workers % branches else 0) for b in range(branches)]

    decls = ["PROBLEM([Problem])"]
    classes = []
    edges = []
    prompts = []
    chains = []
    for b, length in enumerate(lengths):
        chain = []
        for i in range(length):
            if rng.random() < 0.5:
                node_id = f"C{b}_{i}"
                role = f"role_{b}_{i}"
                decls.append(f'{node_id}["Custom<br/>(role: {role})"]')
                classes.append(f"class {node_id} CustomOp")
                prompts.append(f'{role}="{_sentence(rng, tag)}\\nAnswer in \\\\boxed{{}}."')
                entry_label = "input"
            else:
                node_id = f"P{b}_{i}"
                decls.append(f"{node_id}[\"Programmer<br/>(analysis: '{rng.choice(ANALYSES)}')\"]")
                classes.append(f"class {node_id} ProgrammerOp")
                entry_label = "problem"
            if i == 0:
                edges.append(f"PROBLEM --> |{entry_label}|{node_id}")
            else:
                edges.append(f"{chain[-1]} --> {node_id}")
            chain.append(node_id)
        edges.append(f"{chain[-1]} --> ENSEMBLE")
        chains.append(chain)
    decls += ['ENSEMBLE["ScEnsemble<br/>"]', 'REFINE["Custom<br/>(role: refine)"]', "RETURN([Return response & cost])"]
    classes += ["class ENSEMBLE ScEnsembleOp", "class REFINE CustomOp", "class PROBLEM Interface", "class RETURN Interface"]
    edges += ["ENSEMBLE --> REFINE", "REFINE --> RETURN"]
    prompts.append(f'refine="{_sentence(rng, tag)}"')
    return _Lines(decls, classes, edges, prompts, chains)


def _worker(lines: _Lines, rng: random.Random) -> str:
    return rng.choice([w for chain in lines.chains for w in chain])


def inject_defect(lines: _Lines, defect: str, rng: random.Random) -> None:
    """Edit ``lines`` in place so that exactly ``DEFECT_RULES[defect]`` fail."""
    if defect == "syntax":
        # drop the closing bracket of one worker declaration
        worker = _worker(lines, rng)
        idx = next(i for i, d in enumerate(lines.decls) if d.startswith(worker + "["))
        lines.decls[idx] = lines.decls[idx][:-1]
    elif defect == "exit_edge":
        lines.edges.append(f"RETURN --> {_worker(lines, rng)}")
    elif defect == "cycle":
        chain = rng.choice(lines.chains)
        lines.edges.append(f"{chain[-1]} --> {chain[0]}" if len(chain) > 1 else "ENSEMBLE --> " + chain[0])
    elif defect == "duplicate_edge":
        lines.edges.append(rng.choice(lines.edges))
    elif defect == "class_drop":
        worker = _worker(lines, rng)
        lines.classes.remove(next(c for c in lines.classes if c.split()[1] == worker))
    else:
        raise ValueError(f"unknown defect {defect!r}")


def generate(nodes: int, rng: random.Random, tag: str, defect: str | None = None) -> Workflow:
    """One workflow of exactly ``nodes`` nodes, optionally with one defect."""
    lines = _build(nodes, rng, tag)
    if defect is not None:
        inject_defect(lines, defect, rng)
    return Workflow(lines.render(), nodes, defect)


def check_stream_batch(rng: random.Random, batch: int, size: int, low: int = 10, high: int = 200) -> list[Workflow]:
    """``size`` sources spread evenly over [low, high] nodes; half carry one defect.

    Sizes are stratified and defects dealt in a fixed rotation, so every
    batch has the same size profile and defect mix whatever the seed; the
    seed only moves content, chain shapes and defect sites.
    """
    out = []
    for k in range(size):
        nodes = low + round((high - low) * (k + rng.random()) / size)
        defect = DEFECTS[(k // 2) % len(DEFECTS)] if k % 2 else None
        out.append(generate(min(nodes, high), rng, f"b{batch}.{k}", defect))
    rng.shuffle(out)
    return out
