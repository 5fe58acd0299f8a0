"""The one figure-for-figure identity assertion of two reports."""

from __future__ import annotations

import pytest


def assert_reports_identical(actual, expected, exact_flows: bool = True):
    """Figure-for-figure equality of two :class:`FullReport` objects.

    Walks the union of both reports' figure names, so a figure added to
    ``repro.analysis.report.FIGURES`` is compared on every execution path
    with no edit here (one missing from either side fails by name).
    Equality is exact: the finalizers are sorted folds, so none depends on
    scan or merge order.

    ``exact_flows=True`` asserts the Figure 12 value sums bit-for-bit —
    valid for the serial incremental path, which replays the serial scan
    order exactly.  Parallel catch-up adds shard subtotals, so those tests
    pass ``exact_flows=False`` and compare the sums to within rounding.
    """
    assert set(actual.chains) == set(expected.chains)
    for chain, exp in expected.chains.items():
        act = actual.chains[chain]
        for name in sorted(set(act) | set(exp)):
            if name == "value_flows" and not exact_flows and name in act and name in exp:
                act_flows, exp_flows = act[name], exp[name]
                assert [
                    (f.sender_cluster, f.receiver_cluster, f.currency, f.payment_count)
                    for f in act_flows.flows
                ] == [
                    (f.sender_cluster, f.receiver_cluster, f.currency, f.payment_count)
                    for f in exp_flows.flows
                ]
                assert act_flows.total_xrp_value == pytest.approx(
                    exp_flows.total_xrp_value, rel=1e-9
                )
            else:
                assert act.get(name) == exp.get(name), (chain, name)
    assert actual.summary().to_rows() == expected.summary().to_rows()
