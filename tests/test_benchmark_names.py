"""The names the benchmark reaches into must exist in the package.

``guessbench/tracer.py`` wraps the functions listed in ``TRACED`` and
``guessbench/run.py`` clears and reads the cache of
``solvers.a_s_exact``; a rename would otherwise surface only when the
traced benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

from guessnum import solvers

TRACER = Path(__file__).resolve().parents[1] / "guessbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("guessbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracer = load_tracer()
    for mod_name, functions in tracer.TRACED.items():
        module = importlib.import_module(f"{tracer.PACKAGE}.{mod_name}")
        for qualname in functions:
            target = module
            for attr in qualname.split("."):
                assert hasattr(target, attr), f"{mod_name}.{qualname}"
                target = getattr(target, attr)
            assert callable(target), f"{mod_name}.{qualname}"


def test_code_size_cache_is_inspectable():
    assert callable(solvers.a_s_exact.cache_clear)
    assert callable(solvers.a_s_exact.cache_info)
