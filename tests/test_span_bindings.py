"""The benchmark's traced run wraps kssearch functions by module attribute.

perfbench/spans.py names each layer as a (module, attribute) pair; a rename
or a deletion in kssearch would only show when the traced benchmark runs.
This checks every pair resolves, without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_binding_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for mod_name, attr, *_ in spans.LAYERS:
        mod = importlib.import_module(f"kssearch.{mod_name}")
        if not callable(getattr(mod, attr, None)):
            missing.append(f"kssearch.{mod_name}.{attr}")
    assert spans.LAYERS and not missing, missing
