"""Tests of the verification driver."""

from heundirac import HeunDiracError, SystemParams, verify


def test_raising_check_reports_zero_tolerance_override(monkeypatch):
    def explode(params, n_max, tol=None):
        raise HeunDiracError("synthetic check failure")

    name, _, tags = verify.ALL_CHECKS[0]
    monkeypatch.setattr(verify, "ALL_CHECKS",
                        [(name, explode, tags)] + verify.ALL_CHECKS[1:])
    results = verify.run_verification(SystemParams(0.5, 1), 0, route="standard",
                                      tol_override=0.0)
    raised = [res for res in results if res.name == name]
    assert len(raised) == 1
    assert not raised[0].passed
    assert raised[0].tolerance == 0.0
    assert "synthetic check failure" in raised[0].detail
