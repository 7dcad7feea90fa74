"""Load a module of the benchmark harness in ``perfbench/`` from its file,
without putting that directory on ``sys.path``."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    """``perfbench/<name>.py`` as a new module ``perfbench_<name>``."""
    module_name = f"perfbench_{name}"
    spec = importlib.util.spec_from_file_location(
        module_name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[module_name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[module_name]
    return module
