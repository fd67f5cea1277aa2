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


@pytest.mark.parametrize("code, severity, message", [
    ("CC9", "error", "unknown diagnostic code 'CC9'"),
    ("CC1", "fatal", "unknown severity 'fatal'")])
def test_the_value_errors_name_what_is_unknown(code, severity, message):
    with pytest.raises(ValueError) as err:
        Diagnostic(code, severity, "m")
    assert str(err.value) == message


def test_a_diagnostic_is_a_value_placed_after_it_is_made():
    d = Diagnostic("CC1", "warning", "m")
    assert d == Diagnostic(code="CC1", severity="warning", message="m")
    d.file, d.line = "a.delta", 3
    assert d != Diagnostic("CC1", "warning", "m")
    assert d == Diagnostic("CC1", "warning", "m", "a.delta", 3)
    with pytest.raises(TypeError):
        hash(d)
