"""Every call site the benchmark tracer wraps still exists.

bench/tracer.py replaces each (module, attribute) of its LAYERS by name;
a refactor that drops one leaves that layer reading 0 calls and breaks the
benchmark's own tests, which this suite does not collect.
"""

import importlib
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import tracer  # noqa: E402


@pytest.mark.parametrize("module, attribute",
                         [(m, a) for m, a, _, _ in tracer.LAYERS])
def test_traced_name_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))
