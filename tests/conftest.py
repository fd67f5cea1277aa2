import pytest

from deltaforge import pack, parse
from deltaforge.derive import derive
from deltaforge.model import flatten


@pytest.fixture(scope="session")
def L_grammar():
    return pack.load_grammar("statechart.dg")


@pytest.fixture(scope="session")
def L_flat(L_grammar):
    return flatten([L_grammar], "Statechart")


@pytest.fixture(scope="session")
def derived(L_flat):
    return derive(L_flat, "Statechart")


@pytest.fixture(scope="session")
def dL_flat(L_grammar, L_flat, derived):
    ext = pack.load_grammar("extended-delta-statechart.dg")
    return flatten(
        [ext, derived.grammar, pack.load_common_grammar(), L_grammar],
        "ExtendedDeltaStatechart")


@pytest.fixture(scope="session")
def core(L_flat):
    return parse(L_flat, "SCDefinition", pack.load_builtin("telephone.sc"))


@pytest.fixture(scope="session")
def voicemail(dL_flat):
    return parse(dL_flat, "Delta", pack.load_builtin("voicemail.delta"))


@pytest.fixture(scope="session")
def after_voicemail(dL_flat):
    """Two deltas that follow voicemail.delta in a chain: a clean one, and
    one that fails after an operation has already edited the model."""
    return (
        parse(dL_flat, "Delta",
              "delta Second after Voicemail { modify statechart Telephone {"
              " remove Dialing; modify state Active.Voicemail {"
              " set name Mailbox; } } }"),
        parse(dL_flat, "Delta",
              "delta Third after Voicemail { modify statechart Telephone {"
              " add state Extra; remove Nope; } }"),
    )


@pytest.fixture(scope="session")
def expected_variant(L_flat):
    return parse(L_flat, "SCDefinition",
                 pack.load_builtin("telephone-voicemail.sc"))
