"""Every method of a report figure's accumulator runs in a report.

``tests/test_no_test_only_code.py`` matches methods by name, so a method
only tests call hides behind any reached definition that shares its name.
This guard asks the interpreter instead: it builds a ``small`` dataset
cache, drops its state entries, and runs a miss report (every chunk
scanned, every state exported and written) and then a hit report (every
state read, restored and folded) in this process under ``sys.setprofile``.
Every method an accumulator class that a :data:`repro.analysis.report.FIGURES`
spec builds resolves to — ``_reset``, ``bind_batch``, ``export_state``,
``restore_state``, ``config_signature``, ``finalize`` and its own helpers,
wherever in ``repro.analysis`` they are defined — must have been entered.
The protocol stubs of the :class:`~repro.analysis.engine.Accumulator` base
itself are not methods of a figure, so they are not asked for.
"""

from __future__ import annotations

import glob
import io
import os
import sys
from typing import Dict

from repro.analysis.clustering import StaticAccountClusterer
from repro.analysis.engine import Accumulator
from repro.analysis.report import FIGURES, FigureConfig
from repro.analysis.value import ExchangeRateOracle
from repro.cli import main


def _figure_classes():
    config = FigureConfig((0.0, 1.0), ExchangeRateOracle(), StaticAccountClusterer({}))
    built = (spec.factory(chain, config) for spec in FIGURES for chain in spec.chains)
    return {type(accumulator) for accumulator in built if accumulator is not None}


def _methods(cls) -> Dict[object, str]:
    """Code object → qualified name of every method ``cls`` resolves to
    under ``repro.analysis``, the ``Accumulator`` base excluded."""
    found = {}
    for name in dir(cls):
        owner = next(klass for klass in cls.__mro__ if name in vars(klass))
        if owner in (Accumulator, object) or not owner.__module__.startswith("repro.analysis."):
            continue
        attribute = vars(owner)[name]
        if isinstance(attribute, (staticmethod, classmethod)):
            attribute = attribute.__func__
        functions = (
            (attribute.fget, attribute.fset) if isinstance(attribute, property) else (attribute,)
        )
        for function in functions:
            code = getattr(function, "__code__", None)
            if code is not None:
                found[code] = f"{owner.__name__}.{name}"
    return found


def _report(root: str) -> None:
    argv = ["report", "--scale", "small", "--seed", "7", "--cache", root, "--json"]
    assert main(argv, out=io.StringIO()) == 0


def test_every_method_of_a_figure_accumulator_runs_in_a_report(tmp_path, capsys):
    root = str(tmp_path)
    _report(root)  # the build, untraced
    entries = glob.glob(os.path.join(root, "small-seed7", "cache", "*"))
    assert entries
    for entry in entries:
        os.remove(entry)

    wanted: Dict[object, str] = {}
    for cls in _figure_classes():
        wanted.update(_methods(cls))
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in wanted:
            entered.add(frame.f_code)

    capsys.readouterr()
    sys.setprofile(profile)
    try:
        _report(root)  # miss: scan, export, write
        _report(root)  # hit: read, restore, fold
    finally:
        sys.setprofile(None)
    stderr = capsys.readouterr().err
    assert f"0 hit(s) / {len(entries)} miss(es)" in stderr
    assert f"{len(entries)} hit(s) / 0 miss(es)" in stderr
    assert sorted(name for code, name in wanted.items() if code not in entered) == []
