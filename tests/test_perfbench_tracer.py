"""The benchmark tracer (`perfbench/tracer.py`) wraps package functions and
`Cyclotomic` methods by name.  A rename in the package would only show when
`perfbench/run.py --trace 1` fails, so every name it lists is resolved here."""

import importlib
import importlib.util
import pathlib

import fuschar.cli  # noqa: F401  (the tracer wraps cli.main; not imported by fuschar)
from fuschar.cyclotomic import Cyclotomic

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    missing = []
    for mod_name, fn_name in tracer.SPANS + tracer.OBSERVED:
        module = importlib.import_module(f"fuschar.{mod_name}")
        if not callable(getattr(module, fn_name, None)):
            missing.append(f"{mod_name}.{fn_name}")
    methods = [m for names in tracer.COUNTS.values() for m in names]
    for meth in methods + list(tracer.METHOD_SPANS):
        if not callable(getattr(Cyclotomic, meth, None)):
            missing.append(f"Cyclotomic.{meth}")
    assert not missing, f"names the tracer wraps are gone: {missing}"
    assert tracer.SPANS and methods and tracer.METHOD_SPANS
