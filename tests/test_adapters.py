from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from flowevo import serialize_workflow
from flowevo.adapters import (
    AdapterError,
    SubprocessEvaluator,
    SubprocessJudge,
    SubprocessProposer,
)
from flowevo.engine import Candidate, HistoryEntry, ProposalRequest, PrevAttempt

STUB = [sys.executable, str(Path(__file__).parent / "data" / "stub_adapter.py")]
BROKEN = [sys.executable, str(Path(__file__).parent / "data" / "broken_adapter.py")]


def entry_for(graph, score=0.5):
    return HistoryEntry(workflow=graph, source=serialize_workflow(graph), score=score, round=0)


def test_subprocess_proposer_round_trip(gsm8k):
    proposer = SubprocessProposer(STUB)
    try:
        request = ProposalRequest(parents=(entry_for(gsm8k),), domain="math")
        proposal = proposer.propose(request, np.random.default_rng(0))
        assert proposal.text == serialize_workflow(gsm8k)
        assert "stub" in proposal.modification
        # the channel stays usable across calls
        again = proposer.propose(request, np.random.default_rng(1))
        assert again.text == proposal.text
    finally:
        proposer.close()


def test_subprocess_proposer_receives_prev_attempt(gsm8k):
    proposer = SubprocessProposer(STUB)
    try:
        request = ProposalRequest(
            parents=(entry_for(gsm8k),),
            domain="math",
            prev_attempt=PrevAttempt("bad text", ()),
        )
        proposal = proposer.propose(request, np.random.default_rng(0))
        assert proposal.text
    finally:
        proposer.close()


def test_subprocess_judge_scores_all(gsm8k, math_graph):
    judge = SubprocessJudge(STUB)
    try:
        candidates = [
            Candidate(gsm8k, serialize_workflow(gsm8k), "<modification>a</modification>"),
            Candidate(math_graph, serialize_workflow(math_graph), "<modification>b</modification>"),
        ]
        scores = judge.score_candidates(candidates, [entry_for(gsm8k)], [])
        assert len(scores) == 2
        assert all(5 <= s.total <= 50 for s in scores)
    finally:
        judge.close()


def test_subprocess_evaluator(gsm8k):
    evaluator = SubprocessEvaluator(STUB)
    try:
        score = evaluator.evaluate(gsm8k)
        assert 0.0 <= score <= 1.0
        assert score == evaluator.evaluate(gsm8k)
    finally:
        evaluator.close()


def test_broken_adapter_raises(gsm8k):
    evaluator = SubprocessEvaluator(BROKEN)
    try:
        with pytest.raises(AdapterError, match="invalid JSON"):
            evaluator.evaluate(gsm8k)
    finally:
        evaluator.close()
