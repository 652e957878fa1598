"""Evaluator adapter that answers every call, then ignores end of input.

Writes its process id to the file named by its first argument, so a test
can check that the process is gone after the run.
"""
import json
import os
import sys
import time

with open(sys.argv[1], "w", encoding="utf-8") as pid_file:
    pid_file.write(str(os.getpid()))
for line in sys.stdin:
    sys.stdout.write(json.dumps({"score": 0.5}) + "\n")
    sys.stdout.flush()
time.sleep(60)
