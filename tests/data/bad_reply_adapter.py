"""Adapter whose replies are valid JSON but break the protocol (error-path tests).

Usage: ``bad_reply_adapter.py MODE`` with MODE one of
``judge-out-of-range`` (every dimension 11), ``judge-true`` (every
dimension ``true``), ``not-an-object`` (replies ``[0.5]``),
``score-true`` (replies ``{"score": true}``), ``text-not-a-string``
(replies ``{"text": 42}``) and ``modification-not-a-string`` (replies the
first parent's source with ``"modification": 5``).
"""
import json
import sys

DIMENSIONS = (
    "workflow_coherence",
    "innovation",
    "complexity_balance",
    "prompt_quality",
    "modification_rationale",
)

mode = sys.argv[1]
for line in sys.stdin:
    request = json.loads(line)
    if mode in ("judge-out-of-range", "judge-true"):
        value = 11 if mode == "judge-out-of-range" else True
        reply = {"scores": [dict.fromkeys(DIMENSIONS, value) for _ in request["candidates"]]}
    elif mode == "not-an-object":
        reply = [0.5]
    elif mode == "score-true":
        reply = {"score": True}
    elif mode == "modification-not-a-string":
        reply = {"text": request["parents"][0]["source"], "modification": 5}
    else:
        reply = {"text": 42}
    sys.stdout.write(json.dumps(reply) + "\n")
    sys.stdout.flush()
