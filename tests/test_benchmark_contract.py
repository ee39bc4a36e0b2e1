"""What the benchmark in ``perfbench/`` needs of the library.

The tracer wraps library names from outside, and the workloads write configs
for ``config.parse``; removing a traced name or a field the workloads write
breaks the benchmark, and these tests say so before it runs.  They only read
``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import ncym
import ncym.cli
from ncym import config as cfg

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 5001


def _load(name):
    """A ``perfbench`` module, imported by file path under a private name."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")

#: TARGETS plus the two names ``Tracer.install`` wraps by hand
TRACED = [(path, attr) for path, attr, _ in tracing.TARGETS]
TRACED += [("torus.TorusElement", "__mul__"), ("yangmills", "minimize")]


@pytest.mark.parametrize("path, attr", TRACED, ids=[f"{p}.{a}" for p, a in TRACED])
def test_traced_name_resolves(path, attr):
    owner = tracing._resolve(ncym, path)
    # the tracer patches the owner's own attribute, so an inherited one is not enough
    assert callable(vars(owner).get(attr))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_configs_parse(name):
    work = workloads.WORKLOADS[name](SEED)
    for exp in (work.warmup,) + tuple(work.experiments):
        cfg.parse(exp.text)
