"""The four benchmark workloads.

Each workload is a closed loop: one caller, one thread, the next op sent
only after the previous one returned. Constructing a workload is its set-up
(parse and lower its seeds, start its adapters); ``window(index)`` runs one
fixed, seeded slice of work, times the ops, checks every output and returns
a ``Window``. Windows with the same index do the same work, so their digests
must match. The package under test is reached only through its public
functions, always looked up on the module at call time so that the traced
run sees every call; the proposer, judge, evaluator and checker the engine
calls are this file's own objects, passed through its pluggable interfaces.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import speed
import workflow_gen

BENCH_DIR = Path(__file__).resolve().parent
ROUNDS = 50  # rounds per evolution window; the history grows to ROUNDS + 1


@dataclass
class Window:
    ops: int = 0  # ops completed
    latencies: list = field(default_factory=list)  # scaled seconds per op (see speed.py)
    failed: int = 0  # ops that failed a correctness check
    digest: str = ""  # digest of every output, for the replay check

    @property
    def throughput(self) -> float:
        return self.ops / sum(self.latencies)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


# -- evolution loop: the benchmark's own pluggable objects ------------------------
#
# The engine calls each object's interface method, which first splits the
# running round's timing (speed.OpTimer) and then calls ``run``. The traced
# run records ``run`` as the engine.<role> span, so probe time stays out of it.


class BenchProposer:
    def __init__(self, inner, timer):
        self.inner = inner
        self.timer = timer

    def propose(self, request, rng):
        self.timer.split()
        return self.run(request, rng)

    def run(self, request, rng):
        return self.inner.propose(request, rng)


class BenchChecker:
    """Hard plus soft check of proposal text, as the engine's default checker."""

    def __init__(self, fe, registry, domain, timer):
        self.fe = fe
        self.registry = registry
        self.domain = domain
        self.timer = timer

    def __call__(self, text):
        self.timer.split()
        return self.run(text)

    def run(self, text):
        return self.fe.validator.validate(text, registry=self.registry, domain=self.domain)


class BenchJudge:
    def __init__(self, inner, timer):
        self.inner = inner
        self.timer = timer

    def score_candidates(self, candidates, parents, history):
        self.timer.split()
        return self.run(candidates, parents, history)

    def run(self, candidates, parents, history):
        return self.inner.score_candidates(candidates, parents, history)


class BenchEvaluator:
    """Times rounds from one evaluator call to the next."""

    def __init__(self, inner, timer):
        self.inner = inner
        self.timer = timer
        self.calls = 0
        self.tracer = None
        self.window = 0

    def evaluate(self, graph):
        self.timer.lap()
        score = self.run(graph)
        self.calls += 1
        if self.tracer is not None:
            # scoring ends a round (the seeds count as round 0): later calls belong to the next
            self.tracer.op = f"{self.window}.{self.calls}"
        return score

    def run(self, graph):
        return self.inner.evaluate(graph)


class _Evolve:
    name = ""
    why = ""

    def __init__(self, fe, root: Path, seed: int):
        self.fe = fe
        self.seed = seed
        self.config = fe.runconfig.load_run_config(root / "configs" / "demo_math.cfg", {"max_rounds": ROUNDS})
        self.registry = fe.registry.default_registry()
        self.domain = self.config.evolution.domain
        # every call into a pluggable object splits the running round for scaling (speed.py)
        self.timer = speed.OpTimer()
        self.checker = BenchChecker(fe, self.registry, self.domain, self.timer)

    def _lower(self, path: Path):
        doc = self.fe.mermaid.parse_workflow(path.read_text(encoding="utf-8"))
        graph, _ = self.fe.mermaid.lower_to_graph(doc, registry=self.registry, domain=self.domain)
        return graph

    def evolution_seed(self, index: int) -> int:
        return self.seed * 7919 + index

    def window(self, index: int, tracer=None) -> Window:
        fe = self.fe
        cfg = dataclasses.replace(self.config.evolution, seed=self.evolution_seed(index))
        self.timer.reset()
        evaluator = self.evaluator
        evaluator.calls = 0
        evaluator.tracer = tracer
        evaluator.window = index
        if tracer is not None:
            tracer.op = f"{index}.0"
        try:
            result = fe.engine.run_evolution(self.seeds, cfg, self.proposer, self.judge, evaluator, self.checker)
        finally:
            if tracer is not None:
                tracer.op = None
        # the first lap times the scoring of all but the last seed
        out = Window(ops=len(result.rounds), latencies=self.timer.latencies[len(self.seeds) - 1:])
        if tracer is not None:
            tracer.counts["engine.rounds_skipped"] += sum(r.status == "skipped" for r in result.rounds)
        for entry in result.history[len(self.seeds):]:
            if fe.validator.validate(entry.source, registry=self.registry, domain=self.domain).q != 1:
                out.failed += 1
        out.digest = _digest([fe.engine.history_to_jsonl(result.history)])
        return out

    def close(self):
        pass


class EvolveDemo(_Evolve):
    name = "evolve_demo"
    why = ("The user-facing loop of `flowevo evolve` on the demo config with the in-process "
           "proposer, judge and evaluator: small graphs, growing history, parse and soft_check heavy.")

    def __init__(self, fe, root: Path, seed: int):
        super().__init__(fe, root, seed)
        base = root / "configs"
        self.seeds = [self._lower((base / path).resolve()) for path in self.config.seeds]
        evolution = self.config.evolution
        self.proposer = BenchProposer(fe.engine.OperatorProposer(evolution.weights(), evolution.site_budget), self.timer)
        self.judge = BenchJudge(fe.engine.StructuralJudge(), self.timer)
        self.evaluator = BenchEvaluator(fe.engine.SyntheticTaskEvaluator(evolution.scenario), self.timer)


class EvolveAdapters(_Evolve):
    name = "evolve_adapters"
    why = ("The same loop with proposer, judge and evaluator as external processes: the only "
           "workload that weighs process round trips and the full text check of proposals that can fail.")

    def __init__(self, fe, root: Path, seed: int):
        super().__init__(fe, root, seed)
        self.seeds = [self._lower(root / "corpus" / "gsm8k_round16.mmd")]
        command = [sys.executable, str(BENCH_DIR / "stub_adapter.py")]
        adapters = fe.adapters
        self._adapters = []
        try:
            for cls in (adapters.SubprocessProposer, adapters.SubprocessJudge, adapters.SubprocessEvaluator):
                self._adapters.append(cls(command))
            proposer, judge, evaluator = self._adapters
            # one call each starts the three processes before the first timed round
            seed_entry = fe.engine.HistoryEntry(self.seeds[0], fe.mermaid.serialize_workflow(self.seeds[0]), 0.5, 0)
            candidate = fe.engine.Candidate(self.seeds[0], seed_entry.source, "<modification>seed</modification>")
            proposer.propose(fe.engine.ProposalRequest((seed_entry,), self.domain), np.random.default_rng(seed))
            judge.score_candidates([candidate], [seed_entry], [seed_entry])
            evaluator.evaluate(self.seeds[0])
        except BaseException:
            self.close()
            raise
        self.proposer = BenchProposer(proposer, self.timer)
        self.judge = BenchJudge(judge, self.timer)
        self.evaluator = BenchEvaluator(evaluator, self.timer)

    def close(self):
        for adapter in self._adapters:
            adapter.close()


# -- checker stream ------------------------------------------------------------------


class CheckStream:
    name = "check_stream"
    why = ("validate(text) on generated sources of 10-200 nodes, half with one seeded defect: all "
           "parse, lower and soft_check with no operators, and syntax errors stop before lowering.")
    BATCH = 60

    def __init__(self, fe, root: Path, seed: int):
        self.fe = fe
        self.seed = seed
        self.registry = fe.registry.default_registry()

    def window(self, index: int, tracer=None) -> Window:
        sources = workflow_gen.check_stream_batch(random.Random(f"{self.seed}/{index}"), index, self.BATCH)
        verdicts = []
        timer = speed.OpTimer()
        for k, source in enumerate(sources):
            if tracer is not None:
                tracer.op = f"{index}.{k}"
            timer.begin()
            verdicts.append(self.fe.validator.validate(source.text, registry=self.registry))
            timer.end()
        if tracer is not None:
            tracer.op = None
        out = Window(ops=len(sources), latencies=timer.latencies)
        for source, verdict in zip(sources, verdicts):
            rules = {d.rule for d in verdict.errors}
            if verdict.q != source.expected_q or rules != set(source.expected_rules):
                out.failed += 1
        out.digest = _digest(verdict.render() for verdict in verdicts)
        return out

    def close(self):
        pass


# -- rewrite chains on large graphs ----------------------------------------------------


class LargeRewrite:
    name = "large_rewrite"
    why = ("Chains of apply_random on generated 100- and 300-node workflows, each product serialized "
           "and emitted: size-dependent operator costs and codegen dominate, parse barely runs.")
    # one window: five chains at 100 nodes and one at 300. Per-op times are
    # lumpy: at 300 nodes some rewrites pay for the rewiring site list (~6x a
    # plain rewrite), at 100 nodes a third of them cost 1.5-4x the rest. With
    # this mix the median falls among plain 100-node rewrites and the 90th
    # percentile among plain 300-node ones, both where ops are dense, so
    # neither moves much with how many slow ops a run happens to draw
    CHAINS = (100, 100, 100, 100, 100, 300)
    CHAIN_LENGTH = 10

    def __init__(self, fe, root: Path, seed: int):
        self.fe = fe
        self.seed = seed
        self.registry = fe.registry.default_registry()

    def _graph(self, nodes, rng, tag):
        mermaid = self.fe.mermaid
        text = workflow_gen.generate(nodes, rng, tag).text
        return mermaid.lower_to_graph(mermaid.parse_workflow(text), registry=self.registry)[0]

    def window(self, index: int, tracer=None) -> Window:
        fe = self.fe
        rng = random.Random(f"{self.seed}/{index}")
        out = Window()
        timer = speed.OpTimer()
        products = []
        for c, nodes in enumerate(self.CHAINS):
            graph = self._graph(nodes, rng, f"w{index}.{c}")
            partner = self._graph(nodes, rng, f"w{index}.{c}.partner")
            op_rng = np.random.default_rng(rng.getrandbits(63))
            for step in range(self.CHAIN_LENGTH):
                if tracer is not None:
                    tracer.op = f"{index}.{c}.{step}"
                timer.begin()
                outcome = fe.operators.apply_random((graph, partner), op_rng)
                if outcome is not None:
                    product = outcome.graphs[0]
                    timer.split()
                    text = fe.mermaid.serialize_workflow(product)
                    timer.split()
                    program, _ = fe.codegen.emit(fe.codegen.lower_to_ir(product))
                    timer.split()
                    diff = fe.codegen.structural_diff(program, product)
                timer.end()
                if tracer is not None:
                    tracer.op = None
                if outcome is None:
                    # no rewrite applied anywhere: the chain keeps its graph
                    products.append("none")
                    continue
                if not self._product_ok(product, text, diff):
                    out.failed += 1
                products.append(text)
                graph = product
        out.latencies = timer.latencies
        out.ops = len(timer.latencies)
        out.digest = _digest(products)
        return out

    def _product_ok(self, product, text, diff) -> bool:
        mermaid = self.fe.mermaid
        doc = mermaid.parse_workflow(text)
        if not doc.ok:
            return False
        again, _ = mermaid.lower_to_graph(doc, registry=self.registry, domain=product.domain)
        return diff.is_empty() and again == product and self.fe.validator.validate(product).q == 1

    def close(self):
        pass


WORKLOADS = {w.name: w for w in (EvolveDemo, EvolveAdapters, CheckStream, LargeRewrite)}


# -- traced run: where each layer is bound ---------------------------------------------


def _count_applied(tracer, args, outcome):
    tracer.counts["operators." + (outcome.applied.value if outcome is not None else "none")] += 1


def _count_accept(key):
    def hook(tracer, args, verdict):
        tracer.counts[key] += verdict.q == 1
    return hook


def _count_nodes(tracer, args, result):
    tracer.sums["graph.nodes"] += len(args[0].nodes)


def _count_candidates(tracer, args, result):
    tracer.sums["engine.candidates"] += len(args[1])


def install_tracing(tracer, fe) -> None:
    """Rebind each layer's public functions where their callers look them up."""
    m = fe
    bindings = [
        ("mermaid.parse", "parse_workflow", (m.mermaid, m.engine, m.validator), None),
        ("mermaid.lower", "lower_to_graph", (m.mermaid, m.engine, m.validator), None),
        ("mermaid.serialize", "serialize_workflow", (m.mermaid, m.engine), None),
        ("validator.soft_check", "soft_check", (m.validator,), _count_nodes),
        ("validator.validate", "validate", (m.validator, m.engine, m.codegen), _count_accept("validator.accept")),
        ("operators.guard_validate", "validate", (m.operators,), None),
        ("operators.apply_random", "apply_random", (m.operators, m.engine), _count_applied),
        ("graph.with_changes", "with_changes", (m.graph.WorkflowGraph,), None),
        ("sampling", "sample_parent", (m.engine,), None),
        ("sampling", "sample_parent_pair", (m.engine,), None),
        ("codegen.lower_to_ir", "lower_to_ir", (m.codegen,), None),
        ("codegen.emit", "emit", (m.codegen,), None),
        ("codegen.structural_diff", "structural_diff", (m.codegen,), None),
        ("adapters.propose", "propose", (m.adapters.SubprocessProposer,), None),
        ("adapters.judge", "score_candidates", (m.adapters.SubprocessJudge,), None),
        ("adapters.evaluate", "evaluate", (m.adapters.SubprocessEvaluator,), None),
        ("engine.propose", "run", (BenchProposer,), None),
        ("engine.check", "run", (BenchChecker,), _count_accept("engine.check.accept")),
        ("engine.judge", "run", (BenchJudge,), _count_candidates),
        ("engine.evaluate", "run", (BenchEvaluator,), None),
    ]
    for name, attr, owners, hook in bindings:
        for owner in owners:
            tracer.patch(owner, attr, name, hook)
