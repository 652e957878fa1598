"""Command-line surface: validate, mutate, evolve, emit, export-dot.

Exit codes: 0 success, 1 domain failure, 2 bad input, output or configuration,
3 no applicable rewrite. Commands raise, and ``main`` alone picks each failure's
code: from ``_EXIT_CODES``, or from an ``_Exit``. Each command but ``validate``, whose
findings are its verdict, reads its workflows through ``_load_graph``. Every command
honors ``--json``.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from dataclasses import asdict
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

# ``--op`` value -> the operator weights apply_random draws from (None: its defaults)
_OP_WEIGHTS = {k.value.replace("_", "-"): {k: 1.0} for k in OperatorKind} | {"random": None}


# The exit code of each failure class a command may raise.
_EXIT_CODES = {
    **dict.fromkeys((OSError, RegistryError, LoweringError, ConfigError), EXIT_INPUT_FAILURE),
    **dict.fromkeys((AdapterError, EvolutionError, EmissionError), EXIT_DOMAIN_FAILURE),
}


class _Exit(Exception):
    """``_Exit(message, code)``: a failure that no exception class names."""


def _read_text(path: str, name: str) -> str:
    """The UTF-8 text of ``path`` (``-`` for stdin), without one leading byte-order mark; a
    file that cannot be read raises an ``OSError`` whose message starts with ``name``."""
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{name}: input is not valid UTF-8 ({exc})") from None
    except OSError as exc:  # "No such file or directory", without the errno and path again
        raise OSError(f"{name}: {exc.strerror or exc}") from None
    return text.removeprefix("\ufeff")


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, ensure_ascii=False))


def _registry(path):
    return load_registry(path) if path else default_registry()


def _split_command(command: str) -> list[str]:
    """Shell-style words, so quoted paths with spaces stay one argument."""
    try:
        return shlex.split(command)
    except ValueError as exc:
        raise ConfigError(f"bad command {command!r}: {exc}") from None


def _load_graph(path: str, registry, domain, name: str = "", validated: bool = True) -> WorkflowGraph:
    """The graph of workflow file ``path``, read, lowered and, if ``validated``, validated.
    Each failure is bad input, on one line that starts with ``name`` (default ``input <path>``)."""
    name = name or f"input {path}"
    try:
        graph, _ = lower_to_graph(parse_workflow(_read_text(path, name)), registry=registry, domain=domain)
    except LoweringError as exc:
        raise LoweringError(f"{name}: {exc}") from None
    errors = validate(graph).errors if validated else ()
    if errors:
        raise _Exit(f"{name}: does not validate: " + "; ".join(d.render() for d in errors[:3]), EXIT_INPUT_FAILURE)
    return graph


# -- commands ----------------------------------------------------------------------


def cmd_validate(args) -> int:
    text = _read_text(args.path, f"input {args.path}")
    registry = _registry(args.registry)
    verdict = validate(text, registry=registry, domain=args.domain)
    if args.json:
        print(verdict.to_json())
    elif verdict.diagnostics:
        print(verdict.render(), file=sys.stderr)
    return EXIT_OK if verdict.q == 1 else EXIT_DOMAIN_FAILURE


def cmd_mutate(args) -> int:
    if args.seed < 0:
        raise _Exit("seed must be >= 0", EXIT_INPUT_FAILURE)
    registry = _registry(args.registry)
    graph = _load_graph(args.path, registry, args.domain)
    partner = None
    if args.path2:
        partner = _load_graph(args.path2, registry, args.domain)
    if args.op == "crossover" and partner is None:
        raise _Exit("crossover requires two input workflows", EXIT_INPUT_FAILURE)

    rng = np.random.default_rng(args.seed)
    target = graph if partner is None else (graph, partner)
    outcome = apply_random(target, rng, _OP_WEIGHTS[args.op])
    if outcome is None:
        raise _Exit("no applicable rewrite", EXIT_NO_REWRITE)
    outputs = [serialize_workflow(g) for g in outcome.graphs]
    if args.json:
        _print_json(
            {
                "operator": outcome.applied.value,
                "modification": outcome.description,
                "outputs": outputs,
            }
        )
    else:
        print(("\n%% --- child 2 ---\n").join(outputs), end="")
        print(outcome.modification_record(), file=sys.stderr)
    return EXIT_OK


def cmd_evolve(args) -> int:
    overrides = {
        "seed": args.seed,
        "max_rounds": args.max_rounds,
        "lambda": args.lambda_,
        "alpha": args.alpha,
    }
    config = load_run_config(args.config, overrides)
    if not config.seeds:
        raise ConfigError("config must list at least one seed workflow ('seeds = path.mmd')")
    registry = _registry(config.registry)
    base = Path(args.config).parent  # ``base / path`` is ``path`` when it is absolute
    # each verdict is memoized on its graph: run_evolution's own check reads it
    seeds = [_load_graph(str(base / path), registry, config.evolution.domain, f"seed {path}") for path in config.seeds]
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
    history_path = out_dir / config.history
    manifest_path = out_dir / config.manifest
    for directory in (out_dir, history_path.parent, manifest_path.parent):  # fail before round 1
        directory.mkdir(parents=True, exist_ok=True)

    try:
        result = run_evolution(seeds, evo, proposer, judge, evaluator)
    finally:
        for role in (proposer, judge, evaluator):
            if hasattr(role, "close"):
                role.close()

    save_history(result.history, history_path)
    write_manifest(config, manifest_path)

    ok_rounds = [r for r in result.rounds if r.status == "ok"]
    if args.json:
        _print_json(
            {
                "history": str(history_path),
                "manifest": str(manifest_path),
                "rounds": [asdict(r) for r in result.rounds],
                "best_score": result.best().score,
            }
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
        raise _Exit("all rounds failed", EXIT_DOMAIN_FAILURE)
    return EXIT_OK


def cmd_emit(args) -> int:
    registry = _registry(args.registry)
    graph = _load_graph(args.path, registry, args.domain)
    try:
        templates = load_templates(args.templates) if args.templates else default_templates()
    except EmissionError as exc:  # an unusable template set is bad input; emit's EmissionError is not
        raise ConfigError(str(exc)) from None
    ir = lower_to_ir(graph)
    program, prompts = emit(ir, templates)
    report = structural_diff(program, graph)
    out_dir = Path(args.out) if args.out else Path.cwd()
    program_path = out_dir / "workflow.py"
    prompts_path = out_dir / "prompt_custom.py"
    out_dir.mkdir(parents=True, exist_ok=True)
    program_path.write_text(program, encoding="utf-8")
    prompts_path.write_text(prompts, encoding="utf-8")
    if args.json:
        _print_json(
            {
                "program": str(program_path),
                "prompts": str(prompts_path),
                "structural_diff": report.to_dict(),
            }
        )
    else:
        print(f"program written to {program_path}")
        print(f"prompt module written to {prompts_path}")
    if not report.is_empty():
        raise _Exit("structural diff is not empty: " + json.dumps(report.to_dict()), EXIT_DOMAIN_FAILURE)
    return EXIT_OK


def cmd_export_dot(args) -> int:
    registry = _registry(args.registry)
    graph = _load_graph(args.path, registry, args.domain, validated=False)  # an invalid graph exports too
    dot = export_dot(graph)
    if args.json:
        _print_json({"dot": dot})
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
    p.add_argument("--op", required=True, choices=_OP_WEIGHTS)
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
    try:
        return args.func(args)
    except _Exit as exc:
        message, code = exc.args
    except tuple(_EXIT_CODES) as exc:
        message = str(exc)
        code = next(c for cls, c in _EXIT_CODES.items() if isinstance(exc, cls))
    print(f"flowevo: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
