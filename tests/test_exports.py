"""Every name a geomeans module exports in `__all__` exists, so a deletion
that leaves its export behind fails here rather than at a star import; the
exported value types compare as documented; and every binding that the
benchmark's span tracer wraps resolves."""

import copy
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import geomeans
from geomeans import (
    EUCLIDEAN,
    Bump,
    Phantom,
    SpaceSpec,
    boundary_grid,
    default_tgrid,
    forward_means,
    make_report,
)
from geomeans.phantoms import RadialField

MODULES = ["geomeans"] + [f"geomeans.{m.name}" for m in pkgutil.iter_modules(geomeans.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which {name} does not define"


def test_array_holding_value_types_compare_by_identity():
    # a generated == would compare their arrays and raise; SpaceSpec holds
    # no array and keeps value equality, which forward_means and cmd_invert use
    space = SpaceSpec(EUCLIDEAN, 2, 1.0)
    bump = Bump(np.array([0.2, 0.1]), 0.3, 1.0)
    phantom = Phantom(space, (bump,))
    boundary = boundary_grid(space, 16)
    tgrid = default_tgrid(space, 64)
    values = [bump, phantom, RadialField(space, phantom.parts), boundary, tgrid,
              forward_means(phantom, boundary, tgrid),
              make_report(np.zeros((1, 2)), [1.0], [1.0], "direct")]
    for a in values:
        b = copy.copy(a)
        assert a == a and a != b
        assert len({a, b}) == 2
    assert SpaceSpec(EUCLIDEAN, 2, 1.0) == space
    assert hash(SpaceSpec(EUCLIDEAN, 2, 1.0)) == hash(space)


def test_bench_tracer_finds_every_binding():
    # bench/spans.py wraps functions where their callers bind them; a source
    # change that drops such a binding fails here, not only in the benchmark
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)

    class Tracer:
        wrapped = 0

        def wrap(self, module, attr, layer, hook=None):
            assert callable(getattr(module, attr)), f"{module.__name__}.{attr}"
            self.wrapped += 1

    tracer = Tracer()
    spans.install(tracer)
    assert tracer.wrapped > 0
