"""The README's public signatures are the code's.

Every backticked call in README.md whose dotted name resolves to a
callable of the package or one of its modules (``simulate(...)``,
``presets.initial_state(...)``, ``Stepper.advance(...)``) must read exactly as ``inspect.signature``
prints it, ``self`` and annotations left out and quotes normalized, so that a deleted
or renamed option cannot stay in the docs.
"""

import importlib
import inspect
import re
from pathlib import Path

import mgtstab as M

README = Path(__file__).resolve().parents[1] / "README.md"
# a backticked dotted name and its argument list, possibly across a line break
CALL = re.compile(r"`([A-Za-z_][\w.]*)\(([^`()]*)\)`")


MODULES = [M] + [importlib.import_module("mgtstab." + name) for name in (
    "cli", "config", "discretization", "dynamics", "energy", "geometry",
    "multiplier", "presets", "reporting", "spectral",
)]


def package_callable(dotted):
    """The package's callable that ``dotted`` names, from the package or
    one of its modules, or None (``np.dot`` is numpy's, not the package's)."""
    for obj in MODULES:
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
        if callable(obj) and (getattr(obj, "__module__", None) or "").startswith("mgtstab"):
            return obj
    return None


def printed_signature(func):
    # the README shows names and defaults, without annotations
    params = [
        p.replace(annotation=inspect.Parameter.empty)
        for p in inspect.signature(func).parameters.values()
        if p.name != "self"
    ]
    return str(inspect.Signature(params))[1:-1].replace("'", '"')


def test_readme_signatures_match_the_code():
    listed = {}
    for name, args in CALL.findall(README.read_text()):
        func = package_callable(name)
        if func is not None:
            listed.setdefault(name, set()).add(re.sub(r"\s+", " ", args))
    # the API list is what this guards: its entries must be among the checked ones
    assert {"simulate", "assemble_generator", "energy_E1", "m_transform", "record_count"} <= set(listed)
    wrong = {
        name: (sorted(args), printed_signature(package_callable(name)))
        for name, args in listed.items()
        if args != {printed_signature(package_callable(name))}
    }
    assert not wrong, wrong
