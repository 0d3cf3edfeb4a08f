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
