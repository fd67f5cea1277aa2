import pytest

from deltaforge import pack


def test_all_assets_load():
    for asset in pack.ASSET_IDS:
        assert pack.load_builtin(asset).strip()


def test_unknown_asset():
    with pytest.raises(pack.UnknownAssetError):
        pack.load_builtin("nope.dg")


def test_asset_contents():
    assert "initial state Idle;" in pack.load_builtin("telephone.sc")
    assert "set source Dialing;" in pack.load_builtin("voicemail.delta")
    assert '= "transition";' in pack.load_builtin(
        "extended-delta-statechart.dg")
    assert "elements:DeltaElement*" in pack.load_builtin("delta-common.dg")


def test_common_grammar_shape():
    g = pack.load_common_grammar()
    assert g.name == "DeltaCommon"
    names = [p.name for p in g.productions]
    for required in ("Delta", "DeltaModify", "DeltaAdd", "DeltaSet",
                     "DeltaRemove", "DeltaRemoveOperation",
                     "ModelElementIdentifierPath",
                     "DefaultModelElementIdentifier",
                     "QualifiedModelElementName",
                     "ApplicationOrderConstraint"):
        assert required in names


def test_assets_ship_with_package():
    import deltaforge
    from pathlib import Path
    bundled = Path(deltaforge.__file__).parent / "assets"
    assert sorted(p.name for p in bundled.iterdir()) \
        == sorted(pack.ASSET_IDS)
