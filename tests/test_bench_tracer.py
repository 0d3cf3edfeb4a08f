"""The bench tracer wraps names the package must keep binding.

bench/tracing.py is loaded by path and left as it is: a deleted or
renamed function, or a module that stops binding a traced name, fails
here rather than only in a traced bench run.
"""

import importlib.util
import sys
from pathlib import Path

import hassecert
import hassecert.cli  # noqa: F401 - the tracer wraps names bound in cli

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if name == "hassecert" or name.startswith("hassecert.")}


def test_tracer_installs_and_uninstalls_over_the_package():
    tracing = _load_tracing()
    before = _bindings()
    verify = hassecert.local.Witness.__dict__["verify"]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert hassecert.cli.certify_fiber is not before["hassecert.cli"]["certify_fiber"]
        assert hassecert.params.is_prime is not before["hassecert.params"]["is_prime"]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert all(after[name][k] is v for k, v in attrs.items()), name
    assert hassecert.local.Witness.__dict__["verify"] is verify


def test_traced_fiber_raises_through_no_wrapper():
    # every exception that crosses a traced boundary fails the fiber, so a
    # certified fiber leaves every error counter at 0; theta = 1/3 has a
    # reversed-chart witness at 3 and sampled points whose slots need more
    # than 6 digits
    from hassecert.family import Theta
    from hassecert.params import sieve_params

    params = sieve_params(1, 0, bound=10**7, count=1)[0]
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        out = hassecert.cli.certify_fiber(params, Theta.of(1, 3), height_bound=20)
    finally:
        tracer.uninstall()
    assert out["certified"] is True
    assert tracer.counts["local.delta_surface_point.errors"] == 0
    assert tracer.counts["brauer.evaluate_invariant_at_point.errors"] == 0
    # one evaluation per sampled point, each through the public boundary
    table = out["obstruction"]["table"]
    assert tracer.counts["brauer.evaluate_invariant_at_point.calls"] == sum(
        entry["sample_count"] for entry in table) > 0
