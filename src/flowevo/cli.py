"""Command-line surface: validate, mutate, evolve, emit, export-dot.

Exit codes: 0 success, 1 domain failure (invalid workflow, failed run,
nonempty structural diff), 2 unreadable input, unwritable output or bad
configuration, 3 no applicable rewrite. Every command honors ``--json``.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from pathlib import Path

import numpy as np

from .adapters import AdapterError, SubprocessEvaluator, SubprocessJudge, SubprocessProposer
from .codegen import EmissionError, default_templates, emit, load_templates, lower_to_ir, structural_diff
from .dot import export_dot
from .engine import (
    EvolutionError,
    OperatorProposer,
    StructuralJudge,
    SyntheticTaskEvaluator,
    run_evolution,
    save_history,
)
from .graph import WorkflowGraph
from .mermaid import LoweringError, lower_to_graph, parse_workflow, serialize_workflow
from .operators import OperatorKind, apply_random
from .registry import RegistryError, default_registry, load_registry
from .runconfig import ConfigError, load_run_config, write_manifest
from .validator import validate

EXIT_OK = 0
EXIT_DOMAIN_FAILURE = 1
EXIT_INPUT_FAILURE = 2
EXIT_NO_REWRITE = 3

_OP_CHOICES = [k.value.replace("_", "-") for k in OperatorKind] + ["random"]


def _fail(message: str, code: int) -> int:
    print(f"flowevo: {message}", file=sys.stderr)
    return code


def _read_text(path: str) -> str:
    """The UTF-8 text of ``path`` (``-`` for stdin), without one leading byte-order mark."""
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise OSError(f"{path}: input is not valid UTF-8 ({exc})") from exc
    return text.removeprefix("\ufeff")


def _registry_from(args):
    if getattr(args, "registry", None):
        return load_registry(args.registry)
    return default_registry()


def _split_command(command: str) -> list[str]:
    """Shell-style words, so quoted paths with spaces stay one argument."""
    try:
        return shlex.split(command)
    except ValueError as exc:
        raise ConfigError(f"bad command {command!r}: {exc}") from None


def _load_graph(path: str, registry, domain) -> WorkflowGraph:
    graph, _ = lower_to_graph(parse_workflow(_read_text(path)), registry=registry, domain=domain)
    return graph


# -- commands ----------------------------------------------------------------------


def cmd_validate(args) -> int:
    try:
        text = _read_text(args.path)
        registry = _registry_from(args)
    except (OSError, RegistryError) as exc:
        return _fail(str(exc), EXIT_INPUT_FAILURE)
    verdict = validate(text, registry=registry, domain=args.domain)
    if args.json:
        print(verdict.to_json())
    elif verdict.diagnostics:
        print(verdict.render(), file=sys.stderr)
    return EXIT_OK if verdict.q == 1 else EXIT_DOMAIN_FAILURE


def cmd_mutate(args) -> int:
    if args.seed < 0:
        return _fail("seed must be >= 0", EXIT_INPUT_FAILURE)
    try:
        registry = _registry_from(args)
        graph = _load_graph(args.path, registry, args.domain)
        partner = None
        if args.path2:
            partner = _load_graph(args.path2, registry, args.domain)
    except (OSError, RegistryError, LoweringError) as exc:
        return _fail(str(exc), EXIT_INPUT_FAILURE)
    for i, g in enumerate((graph, partner)):
        if g is not None and validate(g).q != 1:
            return _fail(f"input workflow {i + 1} does not validate", EXIT_INPUT_FAILURE)

    if args.op == "random":
        weights = None
    else:
        kind = OperatorKind(args.op.replace("-", "_"))
        weights = {kind: 1.0}
    if args.op == "crossover" and partner is None:
        return _fail("crossover requires two input workflows", EXIT_INPUT_FAILURE)

    rng = np.random.default_rng(args.seed)
    target = graph if partner is None else (graph, partner)
    outcome = apply_random(target, rng, weights)
    if outcome is None:
        return _fail("no applicable rewrite", EXIT_NO_REWRITE)
    outputs = [serialize_workflow(g) for g in outcome.graphs]
    if args.json:
        print(
            json.dumps(
                {
                    "operator": outcome.applied.value,
                    "modification": outcome.description,
                    "outputs": outputs,
                },
                ensure_ascii=False,
            )
        )
    else:
        print(("\n%% --- child 2 ---\n").join(outputs), end="")
        print(outcome.modification_record(), file=sys.stderr)
    return EXIT_OK


def cmd_evolve(args) -> int:
    try:
        overrides = {
            "seed": args.seed,
            "max_rounds": args.max_rounds,
            "lambda": getattr(args, "lambda_", None),
            "alpha": args.alpha,
        }
        config = load_run_config(args.config, overrides)
        if not config.seeds:
            raise ConfigError("config must list at least one seed workflow ('seeds = path.mmd')")
        registry = load_registry(config.registry) if config.registry else default_registry()
        base = Path(args.config).parent if args.config else Path.cwd()
        seeds = []
        for seed_path in config.seeds:
            resolved = Path(seed_path)
            if not resolved.is_absolute():
                resolved = base / resolved
            try:
                seeds.append(_load_graph(str(resolved), registry, config.evolution.domain))
            except LoweringError as exc:
                raise ConfigError(f"seed {seed_path}: {exc}") from None
        evo = config.evolution
        proposer = (
            SubprocessProposer(_split_command(config.proposer_cmd))
            if config.proposer_cmd
            else OperatorProposer(evo.weights(), evo.site_budget)
        )
        judge = SubprocessJudge(_split_command(config.judge_cmd)) if config.judge_cmd else StructuralJudge()
        evaluator = (
            SubprocessEvaluator(_split_command(config.evaluator_cmd))
            if config.evaluator_cmd
            else SyntheticTaskEvaluator(evo.scenario)
        )
        out_dir = Path(args.out) if args.out else Path.cwd()
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ConfigError, RegistryError) as exc:
        return _fail(str(exc), EXIT_INPUT_FAILURE)

    try:
        result = run_evolution(seeds, evo, proposer, judge, evaluator)
    except (AdapterError, EvolutionError) as exc:
        return _fail(str(exc), EXIT_DOMAIN_FAILURE)
    finally:
        for role in (proposer, judge, evaluator):
            if hasattr(role, "close"):
                role.close()

    history_path = out_dir / config.history
    manifest_path = out_dir / config.manifest
    try:
        save_history(result.history, history_path)
        write_manifest(config, manifest_path)
    except OSError as exc:
        return _fail(str(exc), EXIT_INPUT_FAILURE)

    ok_rounds = [r for r in result.rounds if r.status == "ok"]
    if args.json:
        print(
            json.dumps(
                {
                    "history": str(history_path),
                    "manifest": str(manifest_path),
                    "rounds": [
                        {
                            "round": r.round,
                            "status": r.status,
                            "operator": r.operator,
                            "judge_total": r.judge_total,
                            "score": r.score,
                        }
                        for r in result.rounds
                    ],
                    "best_score": result.best().score,
                },
                ensure_ascii=False,
            )
        )
    else:
        for r in result.rounds:
            print(
                f"round {r.round}: {r.status} op={r.operator} "
                f"judge={r.judge_total} score={r.score:.4f}"
            )
        print(f"history written to {history_path}")
        print(f"manifest written to {manifest_path}")
        print(f"best score: {result.best().score:.4f}")
    if config.evolution.max_rounds > 0 and not ok_rounds:
        return _fail("all rounds failed", EXIT_DOMAIN_FAILURE)
    return EXIT_OK


def cmd_emit(args) -> int:
    try:
        registry = _registry_from(args)
        graph = _load_graph(args.path, registry, args.domain)
        templates = load_templates(args.templates) if args.templates else default_templates()
    except (OSError, RegistryError, LoweringError, EmissionError) as exc:
        return _fail(str(exc), EXIT_INPUT_FAILURE)
    try:
        ir = lower_to_ir(graph)
        program, prompts = emit(ir, templates)
    except EmissionError as exc:
        return _fail(str(exc), EXIT_DOMAIN_FAILURE)
    report = structural_diff(program, graph)
    out_dir = Path(args.out) if args.out else Path.cwd()
    program_path = out_dir / "workflow.py"
    prompts_path = out_dir / "prompt_custom.py"
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        program_path.write_text(program, encoding="utf-8")
        prompts_path.write_text(prompts, encoding="utf-8")
    except OSError as exc:
        return _fail(str(exc), EXIT_INPUT_FAILURE)
    if args.json:
        print(
            json.dumps(
                {
                    "program": str(program_path),
                    "prompts": str(prompts_path),
                    "structural_diff": report.to_dict(),
                },
                ensure_ascii=False,
            )
        )
    else:
        print(f"program written to {program_path}")
        print(f"prompt module written to {prompts_path}")
    if not report.is_empty():
        return _fail("structural diff is not empty: " + report.to_json(), EXIT_DOMAIN_FAILURE)
    return EXIT_OK


def cmd_export_dot(args) -> int:
    try:
        registry = _registry_from(args)
        graph = _load_graph(args.path, registry, args.domain)
    except (OSError, RegistryError, LoweringError) as exc:
        return _fail(str(exc), EXIT_INPUT_FAILURE)
    dot = export_dot(graph)
    if args.json:
        print(json.dumps({"dot": dot}, ensure_ascii=False))
    else:
        print(dot, end="")
    return EXIT_OK


# -- argument parsing -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowevo",
        description="Typed workflow graphs: validate, mutate, evolve, emit, export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--registry", help="node-type registry config file")
        p.add_argument("--domain", choices=["math", "code"], help="task domain (default: inferred)")

    p = sub.add_parser("validate", help="hard + soft check a workflow source")
    p.add_argument("path", help="workflow file or - for stdin")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("mutate", help="apply one rewrite operator")
    p.add_argument("path", help="workflow file")
    p.add_argument("path2", nargs="?", default=None, help="second parent (crossover)")
    p.add_argument("--op", required=True, choices=_OP_CHOICES)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("evolve", help="run the evolution loop from a config file")
    p.add_argument("--config", required=True, help="run config file")
    p.add_argument("--out", help="output directory (default: cwd)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-rounds", type=int, default=None, dest="max_rounds")
    p.add_argument("--lambda", type=float, default=None, dest="lambda_")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("emit", help="emit program + prompt module from a workflow")
    p.add_argument("path")
    p.add_argument("--templates", help="emission template directory")
    p.add_argument("--out", help="output directory (default: cwd)")
    common(p)
    p.set_defaults(func=cmd_emit)

    p = sub.add_parser("export-dot", help="export a workflow as DOT")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=cmd_export_dot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
