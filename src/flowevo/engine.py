"""Evolution loop: history buffer, candidate generation, judging, scoring.

The loop keeps an append-only buffer of scored workflows. Each round samples
parents from the buffer, asks a proposer for candidate sources (retrying
with checker feedback), picks the best candidate with a judge, scores the
winner with an evaluator, and appends it. The proposer, judge, and
evaluator are pluggable; the shipped implementations are deterministic so
whole runs replay byte-identically from a seed.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .graph import GraphConstructionError, WorkflowGraph, prompt_refs
from .mermaid import lower_to_graph, parse_workflow, serialize_workflow
from .operators import OperatorKind, apply_random, check_site_budget, default_operator_weights
from .sampling import sample_parent, sample_parent_pair
from .validator import bound_fan_in, validate

JUDGE_DIMENSIONS = (
    "workflow_coherence",
    "innovation",
    "complexity_balance",
    "prompt_quality",
    "modification_rationale",
)


class EvolutionError(Exception):
    pass


@dataclass(frozen=True)
class EvolutionConfig:
    """Knobs for one run; field names mirror the config-file keys.

    ``operator_weights`` is stored as a read-only copy keyed by
    ``OperatorKind`` (string keys are converted).
    """

    lambda_: float = 0.3
    alpha: float = 5.0
    candidate_pool: int = 4
    max_rounds: int = 20
    num_tries: int = 3
    seed: int = 0
    crossover_rate: float = 0.10
    operator_weights: Mapping | None = None
    site_budget: int = 8
    domain: str = "math"
    scenario: str = "math_ensemble_refine"

    def __post_init__(self):
        if not 0.0 <= self.lambda_ <= 1.0:
            raise ValueError("lambda must lie in [0, 1]")
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError("alpha must be finite and nonnegative")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must lie in [0, 1]")
        if self.candidate_pool < 1:
            raise ValueError("candidate_pool must be >= 1")
        if self.max_rounds < 0:
            raise ValueError("max_rounds must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.num_tries < 1:
            raise ValueError("num_tries must be >= 1")
        check_site_budget(self.site_budget)
        if self.domain not in ("math", "code"):
            raise ValueError(f"domain must be math or code (got {self.domain!r})")
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; known: {', '.join(SCENARIOS)}")
        if self.operator_weights is not None:
            frozen = MappingProxyType({OperatorKind(k): v for k, v in self.operator_weights.items()})
            object.__setattr__(self, "operator_weights", frozen)
        weights = self.weights()
        for kind, weight in weights.items():
            if not 0.0 <= weight < math.inf:
                raise ValueError(f"operator weight {kind.value} must be finite and nonnegative (got {weight})")
        total = sum(weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"operator weights must sum to 1 (got {total})")

    def weights(self) -> dict:
        if self.operator_weights is not None:
            return dict(self.operator_weights)
        return default_operator_weights(self.crossover_rate)


@dataclass(frozen=True)
class HistoryEntry:
    """One scored workflow in the append-only buffer."""

    workflow: WorkflowGraph
    source: str
    score: float
    round: int
    parents: tuple[int, ...] = ()
    modification: str = ""

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError("score must lie in [0, 1]")


@dataclass(frozen=True)
class PrevAttempt:
    text: str
    errors: tuple


@dataclass(frozen=True)
class ProposalRequest:
    parents: tuple
    domain: str
    prev_attempt: PrevAttempt | None = None


@dataclass(frozen=True)
class Proposal:
    """A proposer's answer to one request.

    ``graph`` is set only by a proposer that built the workflow in process
    and checked it already (the closure guard); ``text`` is then
    ``serialize_workflow(graph)``. A proposal without a graph is text to be
    checked, such as an external proposer's reply.
    """

    text: str
    modification: str
    applied: OperatorKind | None = None
    graph: WorkflowGraph | None = None


@dataclass(frozen=True)
class Candidate:
    graph: WorkflowGraph
    text: str
    modification: str
    applied: OperatorKind | None = None


@dataclass(frozen=True)
class JudgeScore:
    """The five rubric dimensions of one candidate, stored as a read-only copy."""

    dims: Mapping

    def __post_init__(self):
        object.__setattr__(self, "dims", MappingProxyType(dict(self.dims)))
        for name in JUDGE_DIMENSIONS:
            value = self.dims.get(name)
            if isinstance(value, bool) or not isinstance(value, int) or not 1 <= value <= 10:
                raise ValueError(f"judge dimension {name} must be an int in [1, 10], got {value!r}")

    @property
    def total(self) -> int:
        return sum(self.dims[name] for name in JUDGE_DIMENSIONS)


@dataclass(frozen=True)
class RoundRecord:
    """What the CLI reports of one round; the round's parents and modification are in its history entry."""

    round: int
    status: str  # "ok" | "skipped"
    operator: str
    judge_total: int
    score: float


@dataclass(frozen=True)
class EvolutionResult:
    history: tuple[HistoryEntry, ...]
    rounds: tuple[RoundRecord, ...]

    def best(self) -> HistoryEntry:
        return max(self.history, key=lambda e: (e.score, -e.round))


# -- shipped proposer ----------------------------------------------------------


class OperatorProposer:
    """Deterministic proposer backed by the rewrite operators.

    Each proposal carries the graph it serializes, a product that already
    passed the closure guard, so the loop checks it by reading that graph's
    memoized verdict and keeps it without parsing the text. When no rewrite
    applies anywhere it re-proposes the primary parent unchanged rather than
    failing the round.
    """

    def __init__(self, weights=None, site_budget: int = 8):
        check_site_budget(site_budget)
        self.weights = weights
        self.site_budget = site_budget

    def propose(self, request: ProposalRequest, rng) -> Proposal:
        graphs = [p.workflow for p in request.parents]
        target = graphs[0] if len(graphs) == 1 else (graphs[0], graphs[1])
        outcome = apply_random(target, rng, self.weights, self.site_budget)
        if outcome is None:
            graph, applied = graphs[0], None
            modification = "<modification>no applicable rewrite; parent reproposed</modification>"
        else:
            graph, applied = outcome.graphs[0], outcome.applied
            modification = outcome.modification_record()
        return Proposal(serialize_workflow(graph), modification, applied, graph)


# -- shipped judge ----------------------------------------------------------------

COMPLEXITY_BAND = (6, 14)  # node counts the judge scores as well balanced
PROMPT_LENGTH_BAND = (10, 1200)  # prompt text lengths it scores as well formed


class StructuralJudge:
    """Deterministic surrogate for rubric-based candidate selection.

    Scores the same five dimensions an external judge would: coherence from
    validation findings and near-minimum ensemble fan-in, innovation from
    edit distance against the nearest parent, complexity from a triangular
    node-count band, prompt quality from reference resolution, and rationale
    from the modification record.
    """

    def score_candidates(self, candidates, parents, history) -> list[JudgeScore]:
        parent_shapes = [_shape(p.workflow) for p in parents]
        return [self._score(c, parent_shapes) for c in candidates]

    def _score(self, candidate: Candidate, parent_shapes) -> JudgeScore:
        graph = candidate.graph
        dims = {
            "workflow_coherence": self._coherence(graph),
            "innovation": self._innovation(graph, parent_shapes),
            "complexity_balance": self._complexity(graph),
            "prompt_quality": self._prompt_quality(graph),
            "modification_rationale": self._rationale(candidate),
        }
        return JudgeScore(dims)

    def _coherence(self, graph) -> int:
        verdict = validate(graph)
        score = 10 - 2 * len(verdict.errors) - len(verdict.warnings)
        for node in graph.nodes:
            schema = graph.schema(node.id)
            if schema is None:
                continue
            for port in schema.fan_in_ports:
                if bound_fan_in(graph, node.id, port) == port.min_count:
                    score -= 2  # structurally legal but one lost edge from invalid
        return max(1, min(10, score))

    def _innovation(self, graph, parent_shapes) -> int:
        if not parent_shapes:
            return 5
        shape = _shape(graph)
        ratio = min(_edit_ratio(shape, parent) for parent in parent_shapes)
        return max(1, min(10, 1 + round(9 * min(1.0, 2.0 * ratio))))

    def _complexity(self, graph) -> int:
        low, high = COMPLEXITY_BAND
        count = len(graph.nodes)
        if low <= count <= high:
            return 10
        distance = (low - count) if count < low else (count - high)
        return max(1, 10 - 2 * distance)

    def _prompt_quality(self, graph) -> int:
        refs = resolved = in_band = 0
        low, high = PROMPT_LENGTH_BAND
        for _, _, name in prompt_refs(graph):
            refs += 1
            text = graph.prompts.get(name)
            if text is not None:
                resolved += 1
                if low <= len(text) <= high:
                    in_band += 1
        if refs == 0:
            return 5
        quality = 0.7 * (resolved / refs) + 0.3 * (in_band / refs)
        return max(1, min(10, 1 + round(9 * quality)))

    def _rationale(self, candidate: Candidate) -> int:
        text = candidate.modification.strip()
        if not text:
            return 1
        score = 3
        keywords = ("substitute", "add", "rewire", "delete", "mutate", "crossover")
        if any(k in text.lower() for k in keywords):
            score += 2
        if any(nid in text for nid in candidate.graph.node_ids()):
            score += 2
        if len(text) >= 40:
            score += 2
        if len(text) >= 80:
            score += 1
        return max(1, min(10, score))


def _shape(graph: WorkflowGraph) -> tuple:
    """Node signatures and edge keys. The judge scores only checked graphs, where a repeated
    edge is a STRUCT error, so each edge has its own key."""
    nodes = frozenset((n.id, n.kind, tuple(n.attributes.items())) for n in graph.nodes)
    return nodes, frozenset(e.key() for e in graph.edges)


def _edit_ratio(shape1: tuple, shape2: tuple) -> float:
    (n1, e1), (n2, e2) = shape1, shape2
    numerator = len(n1 ^ n2) + len(e1 ^ e2)
    denominator = len(n1) + len(n2) + len(e1) + len(e2)
    return numerator / denominator if denominator else 0.0


# -- shipped evaluator ---------------------------------------------------------------


@dataclass(frozen=True)
class TargetProfile:
    """Hidden structural target a synthetic scenario rewards."""

    name: str
    want_ensemble: bool
    branch_count: int
    want_refine_tail: bool
    depth: int
    weights: tuple[float, float, float, float] = (0.3, 0.3, 0.2, 0.2)


SCENARIOS = {
    "math_ensemble_refine": TargetProfile("math_ensemble_refine", True, 4, True, 4),
    "math_wide_ensemble": TargetProfile("math_wide_ensemble", True, 6, False, 3),
    "code_test_tail": TargetProfile("code_test_tail", True, 3, True, 4),
}


def _feeds_a_non_interface(graph: WorkflowGraph, node_id: str) -> bool:
    """Whether a non-interface node lies strictly downstream; walked in adjacency order, stopping at the first."""
    seen, stack = {node_id}, [node_id]
    while stack:
        for succ, _ in graph.successors(stack.pop()):
            if succ not in seen:
                schema = graph.schema(succ)
                if schema is None or not schema.is_interface:
                    return True
                seen.add(succ)
                stack.append(succ)
    return False


def graph_features(graph: WorkflowGraph) -> dict:
    """Structural features the synthetic evaluator scores against."""
    ensembles = [
        n.id
        for n in graph.nodes
        if (s := graph.schema(n.id)) is not None and s.kind == "ScEnsembleOp"
    ]
    has_ensemble = bool(ensembles)
    if ensembles:
        branch_count = max(graph.in_degree(nid) for nid in ensembles)
    else:
        roles = graph.interface_roles()
        branch_count = max(
            (graph.out_degree(nid) for nid in roles.problem_entries), default=0
        )
    refine_tail = any(_feeds_a_non_interface(graph, nid) for nid in ensembles)
    depth = 0
    try:
        order = graph.topological_order()
        roles = graph.interface_roles()
        dist = {nid: (0 if nid in roles.entries else None) for nid in graph.node_ids()}
        for nid in order:
            if dist[nid] is None:
                continue
            for succ, _ in graph.successors(nid):
                candidate = dist[nid] + 1
                if dist[succ] is None or candidate > dist[succ]:
                    dist[succ] = candidate
        depth = max((dist[nid] or 0) for nid in roles.exits) if roles.exits else 0
    except GraphConstructionError:  # a cycle: no topological order
        depth = 0
    return {
        "has_ensemble": has_ensemble,
        "branch_count": branch_count,
        "refine_tail": refine_tail,
        "depth": depth,
    }


class SyntheticTaskEvaluator:
    """Deterministic score in [0, 1]: structural similarity to a target profile."""

    def __init__(self, profile: TargetProfile | str = "math_ensemble_refine"):
        if isinstance(profile, str):
            profile = SCENARIOS[profile]
        self.profile = profile

    def evaluate(self, graph: WorkflowGraph) -> float:
        features = graph_features(graph)
        profile = self.profile
        w_ens, w_branch, w_refine, w_depth = profile.weights
        distance = 0.0
        distance += w_ens * (0.0 if features["has_ensemble"] == profile.want_ensemble else 1.0)
        if profile.branch_count > 0:
            distance += w_branch * min(
                1.0, abs(features["branch_count"] - profile.branch_count) / profile.branch_count
            )
        distance += w_refine * (0.0 if features["refine_tail"] == profile.want_refine_tail else 1.0)
        if profile.depth > 0:
            distance += w_depth * min(1.0, abs(features["depth"] - profile.depth) / profile.depth)
        return round(max(0.0, min(1.0, 1.0 - distance)), 6)


# -- optimization loop ------------------------------------------------------------------


def optimize_workflow(parents, cfg: EvolutionConfig, proposer, checker, rng) -> tuple[Candidate | None, tuple]:
    """Propose, check, and retry with error feedback up to ``num_tries``.

    Returns the first candidate passing both the hard and soft checks (None
    on exhaustion) and every attempt's (text, verdict). A proposal that
    carries its graph is checked by ``validate(graph)``, which reads the
    verdict the closure guard memoized, and keeps the proposer's text.
    Other proposals go to the text ``checker``; a passing verdict must carry
    the graph it lowered, which the candidate keeps and serializes once.
    """
    prev: PrevAttempt | None = None
    attempts = []
    for _ in range(cfg.num_tries):
        proposal = proposer.propose(
            ProposalRequest(parents=tuple(parents), domain=cfg.domain, prev_attempt=prev), rng
        )
        graph = proposal.graph
        verdict = checker(proposal.text) if graph is None else validate(graph)
        attempts.append((proposal.text, verdict))
        if verdict.q == 1:
            text = proposal.text
            if graph is None:
                if verdict.graph is None:
                    raise EvolutionError("checker passed a proposal without the graph it checked")
                graph = verdict.graph
                text = serialize_workflow(graph)
            return Candidate(graph, text, proposal.modification, proposal.applied), tuple(attempts)
        prev = PrevAttempt(text=proposal.text, errors=verdict.diagnostics)
    return None, tuple(attempts)


def generate_candidates(parents, cfg: EvolutionConfig, proposer, checker, seed_sequence) -> list[Candidate]:
    """Run ``candidate_pool`` independent checked proposals on split rng streams.

    Duplicate candidates (by canonical text) are resampled once; slots whose
    tries all fail are dropped. An empty result is the round-failure signal.
    """
    streams = seed_sequence.spawn(cfg.candidate_pool * 2)
    candidates: list[Candidate | None] = [
        optimize_workflow(parents, cfg, proposer, checker, np.random.default_rng(streams[i]))[0]
        for i in range(cfg.candidate_pool)
    ]
    seen: dict[str, int] = {}
    for i, candidate in enumerate(candidates):
        if candidate is None:
            continue
        if candidate.text in seen:
            retry, _ = optimize_workflow(
                parents, cfg, proposer, checker, np.random.default_rng(streams[cfg.candidate_pool + i])
            )
            if retry is not None:
                candidates[i] = retry
        else:
            seen[candidate.text] = i
    return [c for c in candidates if c is not None]


def judge_select(candidates, parents, history, judge) -> tuple[int, list[JudgeScore]]:
    """Score every candidate and pick the argmax total; ties go to the first."""
    if not candidates:
        raise EvolutionError("judge_select needs at least one candidate")
    scores = judge.score_candidates(candidates, parents, history)
    totals = [s.total for s in scores]
    for total in totals:
        if not 5 <= total <= 50:
            raise EvolutionError(f"judge total {total} outside [5, 50]")
    best = max(range(len(totals)), key=lambda i: (totals[i], -i))
    return best, scores


def run_evolution(seeds, cfg: EvolutionConfig, proposer, judge, evaluator, checker=None) -> EvolutionResult:
    """The end-to-end loop; fully reproducible from (seeds, cfg.seed)."""
    if not seeds:
        raise EvolutionError("at least one seed workflow required")
    if checker is None:
        registry = seeds[0].registry
        checker = lambda text: validate(text, registry=registry, domain=cfg.domain)  # noqa: E731

    history: list[HistoryEntry] = []
    for seed_graph in seeds:
        verdict = validate(seed_graph)
        if verdict.q != 1:
            raise EvolutionError(
                "seed workflow does not validate: "
                + "; ".join(d.render() for d in verdict.errors[:3])
            )
        history.append(
            HistoryEntry(
                workflow=seed_graph,
                source=serialize_workflow(seed_graph),
                score=evaluator.evaluate(seed_graph),
                round=0,
                parents=(),
                modification="seed",
            )
        )

    rounds: list[RoundRecord] = []
    master = np.random.SeedSequence(cfg.seed)
    round_seeds = master.spawn(max(cfg.max_rounds, 1))
    for round_no in range(1, cfg.max_rounds + 1):
        seed_seq = round_seeds[round_no - 1]
        sampler_rng = np.random.default_rng(seed_seq)
        if len(history) >= 2:
            parent_indices = sample_parent_pair(history, cfg, sampler_rng)
        else:
            parent_indices = (sample_parent(history, cfg, sampler_rng),)
        parents = [history[i] for i in parent_indices]
        candidates = generate_candidates(parents, cfg, proposer, checker, seed_seq.spawn(1)[0])
        if not candidates:
            rounds.append(RoundRecord(round_no, "skipped", "-", 0, 0.0))
            continue
        best, scores = judge_select(candidates, parents, history, judge)
        winner = candidates[best]
        if validate(winner.graph).q != 1:
            raise EvolutionError("winner failed validation on insert")
        score = evaluator.evaluate(winner.graph)
        history.append(
            HistoryEntry(
                workflow=winner.graph,
                source=winner.text,
                score=score,
                round=round_no,
                parents=tuple(parent_indices),
                modification=winner.modification,
            )
        )
        rounds.append(
            RoundRecord(
                round_no,
                "ok",
                winner.applied.value if winner.applied else "none",
                scores[best].total,
                score,
            )
        )
    return EvolutionResult(tuple(history), tuple(rounds))


# -- persistence ----------------------------------------------------------------------


def history_to_jsonl(history) -> str:
    lines = []
    for entry in history:
        lines.append(
            json.dumps(
                {
                    "round": entry.round,
                    "score": entry.score,
                    "parents": list(entry.parents),
                    "modification": entry.modification,
                    "source": entry.source,
                },
                ensure_ascii=False,
            )
        )
    return "\n".join(lines) + "\n"


def save_history(history, path) -> None:
    Path(path).write_text(history_to_jsonl(history), encoding="utf-8")


def load_history(path, registry=None, domain=None):
    entries = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        graph, _ = lower_to_graph(parse_workflow(record["source"]), registry=registry, domain=domain)
        entries.append(
            HistoryEntry(
                workflow=graph,
                source=record["source"],
                score=record["score"],
                round=record["round"],
                parents=tuple(record["parents"]),
                modification=record["modification"],
            )
        )
    return entries
