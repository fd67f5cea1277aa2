import pytest

from deltaforge.diagnostics import Diagnostic


@pytest.mark.parametrize("code, severity", [("CC9", "error"),
                                            ("CC1", "fatal")])
def test_unknown_code_or_severity_raises(code, severity):
    # a real error, which ``python -O`` keeps, unlike an assert
    with pytest.raises(ValueError):
        Diagnostic(code=code, severity=severity, message="m")
