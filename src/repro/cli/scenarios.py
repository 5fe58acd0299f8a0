"""``list`` and ``scenario NAME``: the scenario registry, no dataset involved."""

from __future__ import annotations

import argparse

from repro.scenarios import get_scenario
from repro.scenarios.registry import _REGISTRY as _SCENARIO_REGISTRY


def cmd_list(args: argparse.Namespace, out) -> int:
    print("Registered scenarios:", file=out)
    for name in sorted(_SCENARIO_REGISTRY):
        factory = _SCENARIO_REGISTRY[name]
        doc = (factory.__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"  {name:14s} {summary}", file=out)
    return 0


def cmd_scenario(args: argparse.Namespace, out) -> int:
    scenario = get_scenario(args.name, seed=args.seed)
    print(f"Scenario {args.name!r} (instantiated as {scenario.name!r}):", file=out)
    for label, config in (
        ("eos", scenario.eos),
        ("tezos", scenario.tezos),
        ("xrp", scenario.xrp),
    ):
        print(f"  [{label}]", file=out)
        for field_name, value in sorted(vars(config).items()):
            print(f"    {field_name} = {value!r}", file=out)
    print("  scale factors (fraction of the paper's real daily volume):", file=out)
    for chain, factor in scenario.scale_factors.items():
        print(f"    {chain:6s} {factor:.6f}", file=out)
    return 0
