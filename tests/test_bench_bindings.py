"""The library names the benchmark harness binds by name.

``perfbench/tracing.py`` wraps the functions listed in its ``WRAPPED``
table, and ``perfbench/make_reference.py`` builds the reference outputs
through a few state-layer names.  A rename in the library would only
show up in a traced benchmark run, so each binding is resolved here.
"""

import importlib

import pytest

from perfbench_import import load


@pytest.mark.parametrize("modname, attr, clsname",
                         [entry[:3] for entry in load("tracing").WRAPPED])
def test_tracer_binding_resolves(modname, attr, clsname):
    home = importlib.import_module(modname)
    if clsname is None:
        assert callable(getattr(home, attr, None))
    else:
        # the tracer wraps the method found in the class's own namespace
        assert callable(vars(getattr(home, clsname)).get(attr))


def test_reference_builder_names_resolve():
    from qlogic import states

    assert callable(states.reduced_space)
    for attr in ("feasible", "face_rows"):
        assert callable(getattr(states.ReducedStateSpace, attr, None))
