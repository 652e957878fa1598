"""Subprocess adapters for external proposer/judge/evaluator processes.

Protocol: the adapter starts the external command once and exchanges one
JSON object per call over its standard streams, newline-delimited. Request
objects carry a ``kind`` field (``propose`` / ``judge`` / ``evaluate``);
each response is a single JSON object on one line.
"""

from __future__ import annotations

import json
import subprocess

from . import mermaid  # read per call, so a rebinding of mermaid.serialize_workflow (bench tracing) applies
from .engine import JudgeScore, Proposal, ProposalRequest


# seconds an adapter may take to exit once its input is closed
CLOSE_GRACE_S = 5.0


class AdapterError(Exception):
    pass


class _Adapter:
    """One external role: the command is started on first use, and again if it has exited."""

    def __init__(self, command):
        self.command = list(command)
        self._process = None

    def _ensure(self):
        if self._process is None or self._process.poll() is not None:
            try:
                self._process = subprocess.Popen(
                    self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1
                )
            except OSError as exc:
                raise AdapterError(f"cannot start adapter {self.command[0]!r}: {exc}") from exc
        return self._process

    def _call(self, request: dict) -> dict:
        process = self._ensure()
        try:
            process.stdin.write(json.dumps(request, ensure_ascii=False) + "\n")
            process.stdin.flush()
            line = process.stdout.readline()
        except (BrokenPipeError, OSError) as exc:
            raise AdapterError(f"adapter {self.command[0]!r} pipe failure: {exc}") from exc
        if not line:
            raise AdapterError(f"adapter {self.command[0]!r} closed its stream")
        try:
            response = json.loads(line)
        except json.JSONDecodeError as exc:
            raise AdapterError(f"adapter returned invalid JSON: {line[:200]!r}") from exc
        if not isinstance(response, dict):
            raise AdapterError(f"adapter response is not a JSON object: {line[:200]!r}")
        return response

    def close(self):
        """Close the child's input; a child still running after the grace period is killed."""
        process, self._process = self._process, None
        if process is None or process.poll() is not None:
            return
        try:
            process.stdin.close()
            process.wait(timeout=CLOSE_GRACE_S)
        except (OSError, subprocess.TimeoutExpired):
            process.kill()
            process.wait()


class SubprocessProposer(_Adapter):
    """External proposer: receives parents plus previous-attempt errors."""

    def propose(self, request: ProposalRequest, rng) -> Proposal:
        payload = {
            "kind": "propose",
            "domain": request.domain,
            "seed": int(rng.integers(2**31 - 1)),
            "parents": [
                {"source": p.source, "score": p.score, "modification": p.modification}
                for p in request.parents
            ],
            "prev_attempt": None
            if request.prev_attempt is None
            else {
                "text": request.prev_attempt.text,
                "errors": [d.render() for d in request.prev_attempt.errors],
            },
        }
        response = self._call(payload)
        text, modification = response.get("text"), response.get("modification", "")
        if not isinstance(text, str):
            raise AdapterError("proposer response lacks a string 'text'")
        if not isinstance(modification, str):
            raise AdapterError(f"proposer 'modification' is not a string: {modification!r}")
        return Proposal(text, modification)


class SubprocessJudge(_Adapter):
    """External judge: returns the five rubric dimensions per candidate."""

    def score_candidates(self, candidates, parents, history) -> list[JudgeScore]:
        payload = {
            "kind": "judge",
            "candidates": [
                {"source": c.text, "modification": c.modification} for c in candidates
            ],
            "parents": [
                {"source": p.source, "score": p.score} for p in parents
            ],
            "history": [
                {"round": h.round, "score": h.score} for h in history
            ],
        }
        response = self._call(payload)
        scores = response.get("scores")
        if not isinstance(scores, list) or len(scores) != len(candidates):
            raise AdapterError("judge response must score every candidate")
        try:
            return [JudgeScore(dims) for dims in scores]
        except (TypeError, ValueError) as exc:  # not a mapping, or a dimension not an int in [1, 10]
            raise AdapterError(f"bad judge scores: {exc}") from None


class SubprocessEvaluator(_Adapter):
    """External evaluator: maps a workflow source to a score in [0, 1]."""

    def evaluate(self, graph) -> float:
        response = self._call({"kind": "evaluate", "source": mermaid.serialize_workflow(graph)})
        score = response.get("score")
        if isinstance(score, bool) or not isinstance(score, (int, float)) or not 0.0 <= score <= 1.0:
            raise AdapterError(f"evaluator score is not a number in [0, 1]: {score!r}")
        return float(score)
