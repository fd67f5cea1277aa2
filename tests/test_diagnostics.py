import pytest

from deltaforge.diagnostics import Diagnostic


@pytest.mark.parametrize("code, severity", [("CC9", "error"),
                                            ("CC1", "fatal")])
def test_unknown_code_or_severity_raises(code, severity):
    # a real error, which ``python -O`` keeps, unlike an assert
    with pytest.raises(ValueError):
        Diagnostic(code=code, severity=severity, message="m")


def test_human_prints_a_position_only_where_there_is_one():
    at = Diagnostic(code="CC7", severity="error", message="m", file="d.delta",
                    line=4, column=9)
    nowhere = Diagnostic(code="DERIVE", severity="error", message="m",
                         file="g.dg")
    assert at.human() == "d.delta:4:9 CC7 m"
    assert nowhere.human() == "g.dg DERIVE m"
    assert '"line": null, "column": null' in nowhere.json_line()
