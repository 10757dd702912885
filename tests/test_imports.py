"""Imports: the package and its CLI load without scipy, and every name the
package exports resolves.

Importing ``scipy.optimize`` takes longer than the whole set-up of a
benchmark run, so only ``htpriv.oracle`` may import scipy.
"""

import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import htpriv

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_package_and_cli_import_without_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    code = ("import sys, htpriv, htpriv.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_every_exported_name_resolves():
    # a deleted function must leave no stale entry in any __all__ or in the
    # package namespace, and a module exports only its own functions and
    # classes, not names it imported from another module
    for info in pkgutil.iter_modules(htpriv.__path__):
        module = importlib.import_module(f"htpriv.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"htpriv.{info.name}.__all__ names missing {name!r}"
            obj = getattr(module, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == module.__name__, \
                    f"htpriv.{info.name}.__all__ re-exports {obj.__module__}.{name}"
    for name, obj in vars(htpriv).items():
        if name.startswith("_") or inspect.ismodule(obj):
            continue
        home = importlib.import_module(obj.__module__)
        assert getattr(home, name) is obj and name in home.__all__, name


def test_evaluators_resolve_no_axis_names_per_call():
    # the region evaluators, schemes, audits and CLI read laws by axis position;
    # the named information measures and attach_channel remain for the tests
    measures = ("conditional_entropy", "conditional_mutual_information", "mutual_information")
    call = re.compile(r"(?<!def )\b(%s|attach_channel)\(" % "|".join(measures))
    for name in ("regions", "schemes", "adversary", "cli"):
        module = importlib.import_module(f"htpriv.{name}")
        assert not [m for m in measures if hasattr(module, m)], f"htpriv.{name} imports one"
        calls = call.findall(inspect.getsource(module))
        assert not calls, f"htpriv.{name} calls {calls}"


def test_channel_rows_are_joined_to_a_law_only_by_channel_attach():
    # Channel.attach is the one join of a law to a test channel; attach_channel
    # stays as the named reference the tests compare it with.  No module
    # reaches into the private names of regions.
    broadcast = re.compile(r"rows(\[None|\[:, None|\.reshape)")
    reference = inspect.getsource(importlib.import_module("htpriv.regions").attach_channel)
    for info in pkgutil.iter_modules(htpriv.__path__):
        module = importlib.import_module(f"htpriv.{info.name}")
        if info.name != "regions":
            private = [name for name, obj in vars(module).items() if name.startswith("_")
                       and getattr(obj, "__module__", None) == "htpriv.regions"]
            assert not private, f"htpriv.{info.name} imports {private} from regions"
        source = inspect.getsource(module)
        if info.name != "probcore":
            found = broadcast.findall(source.replace(reference, ""))
            assert not found, f"htpriv.{info.name} broadcasts channel rows: {found}"


def test_cli_states_no_delta_relation():
    # delta' = delta/2, delta_hat = |U| delta and delta_tilde = 2 delta live in
    # schemes; the CLI reads each scheme's typicality radii from Scheme.boxes
    source = inspect.getsource(importlib.import_module("htpriv.cli"))
    named = [name for name in ("delta_prime", "delta_hat", "delta_tilde") if name in source]
    assert not named, f"htpriv.cli names {named}"


def test_cli_builds_no_scheme():
    # simulate and counterexample read the scheme their results carry
    # (TrialStats.scheme, CounterexamplePoint.scheme); the timeshare config of
    # the counterexample is stated once, in adversary.counterexample_curve
    source = inspect.getsource(importlib.import_module("htpriv.cli"))
    assert "make_scheme(" not in source
    assert not re.search(r"SchemeConfig\(\s*(scheme=)?[\"']", source)
