"""The benchmark tracer (wlpbench/tracer.py) patches lefschetz functions and
methods by name; a rename in the library would break a traced run only."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "wlpbench" / "tracer.py"


def test_every_tracer_target_resolves():
    pytest.importorskip("numpy")  # the tracer imports it
    spec = importlib.util.spec_from_file_location("wlpbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for modname, attr, _, _ in tracer.TARGETS:
        owner = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            # install() patches the method in the class's own namespace
            assert callable(vars(getattr(owner, cls_name)).get(meth)), attr
        else:
            assert callable(getattr(owner, attr, None)), f"{modname}.{attr}"


def test_the_prime_the_tracer_reads_resolves():
    """The tracer names each mod_rank span by comparing p with
    lefschetz.matrices._CERT_PRIME, read only when a wrapped mod_rank runs.
    No decision calls mod_rank, so neither install() nor a traced benchmark
    run would notice the name gone."""
    import lefschetz.matrices
    assert isinstance(getattr(lefschetz.matrices, "_CERT_PRIME", None), int)
