"""Adapter whose replies are valid JSON but break the protocol (error-path tests).

Usage: ``bad_reply_adapter.py MODE`` with MODE one of
``judge-out-of-range`` (every dimension 11), ``not-an-object`` (replies
``[0.5]``) and ``text-not-a-string`` (replies ``{"text": 42}``).
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
    if mode == "judge-out-of-range":
        reply = {"scores": [dict.fromkeys(DIMENSIONS, 11) for _ in request["candidates"]]}
    elif mode == "not-an-object":
        reply = [0.5]
    else:
        reply = {"text": 42}
    sys.stdout.write(json.dumps(reply) + "\n")
    sys.stdout.flush()
