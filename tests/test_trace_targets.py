"""The benchmark's trace targets still name functions of the package.

`perfbench/spans.py` resolves each traced function by module and
qualified name.  A deletion in `src/` that removes one breaks the traced
benchmark run, so it is caught here instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize(
    "target", spans.TARGETS, ids=lambda t: f"{t.module}.{t.qualname}"
)
def test_trace_target_resolves(target):
    importlib.import_module(target.module)
    assert callable(spans.resolve(target.module, target.qualname))
