"""The traced benchmark rebinds package functions by name; they must all exist.

``bench/spans.Tracer.patch`` reads ``owner.__dict__[attr]``, so deleting or
renaming a function the traced run rebinds breaks the benchmark; this test
makes the test suite notice.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def _flowevo_modules() -> dict:
    return {k: v for k, v in sys.modules.items() if k == "flowevo" or k.startswith("flowevo.")}


def test_traced_bench_rebinds_every_layer():
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    import run
    import spans
    import workloads

    saved = _flowevo_modules()
    try:
        tracer = spans.Tracer()
        workloads.install_tracing(tracer, run.import_flowevo())
        patched = list(tracer._patched)
        assert len(patched) == 28
        assert all(owner.__dict__[attr] is not original for owner, attr, original in patched)
        tracer.restore()
        assert all(owner.__dict__[attr] is original for owner, attr, original in patched)
    finally:
        # import_flowevo re-imported the package; give the other tests theirs back
        for name in _flowevo_modules():
            del sys.modules[name]
        sys.modules.update(saved)
