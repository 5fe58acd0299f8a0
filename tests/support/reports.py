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
    valid when both sides added the same row ranges in the same order.  The
    chunk engine and a pipeline update add one subtotal per chunk (or
    task), so tests comparing them with a serial scan over other ranges
    pass ``exact_flows=False``: every flow's key and payment count still
    match exactly, and every flow's value and the total within rounding.
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
                assert [f.xrp_value for f in act_flows.flows] == pytest.approx(
                    [f.xrp_value for f in exp_flows.flows], rel=1e-9
                )
                assert act_flows.total_xrp_value == pytest.approx(
                    exp_flows.total_xrp_value, rel=1e-9
                )
            else:
                assert act.get(name) == exp.get(name), (chain, name)
    assert actual.summary().to_rows() == expected.summary().to_rows()


def store_report(pipeline):
    """The report route over ``pipeline``'s store: every committed chunk
    scanned from zero, serially, without the chunk-state cache."""
    from repro.analysis.parallel import parallel_report_from_store

    return parallel_report_from_store(
        pipeline.frames_dir, *pipeline.analysis_config(), workers=1
    )


def assert_update_identical(report, pipeline, expected):
    """A serial ``Pipeline.update``'s report against its two references.

    Bit-for-bit the report route over the same store (:func:`store_report`):
    both fold the same chunk states in chunk order, so even the Figure 12
    float sums agree exactly.  Against ``expected``, a serial
    ``full_report`` over the same rows, the value sums agree within
    rounding (``exact_flows=False``) and every other figure exactly.
    """
    assert_reports_identical(report, store_report(pipeline), exact_flows=True)
    assert_reports_identical(report, expected, exact_flows=False)
