"""The benchmark tracer's lookup sites exist in the package.

``perfbench/tracer.py`` wraps each layer function where its callers
look it up, by ``setattr`` on the named modules.  A site that a refactor
removed (an import the module no longer uses, say) makes the traced
benchmark fail with ``AttributeError``; this test names it first.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()
SITES = [
    (name, module_name)
    for name, modules, _ in (*tracer.SPANS, *tracer.COUNTED)
    for module_name in modules
]


@pytest.mark.parametrize("name, module_name", SITES)
def test_every_traced_function_is_bound_where_the_tracer_wraps_it(name, module_name):
    attr = name.split(".", 1)[1]
    defining = importlib.import_module(f"mfirank.{name.split('.', 1)[0]}")
    module = importlib.import_module(module_name)
    assert getattr(module, attr, None) is getattr(defining, attr)
