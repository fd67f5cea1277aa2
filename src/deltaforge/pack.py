"""Bundled grammars and the statechart case-study corpus.

Assets ship inside the package under ``assets/``.
"""

from __future__ import annotations

from pathlib import Path

from .reader import parse_grammar

ASSET_IDS = (
    "delta-common.dg",
    "statechart.dg",
    "delta-statechart.golden.dg",
    "extended-delta-statechart.dg",
    "telephone.sc",
    "voicemail.delta",
    "telephone-voicemail.sc",
)


class UnknownAssetError(KeyError):
    pass


def asset_dir():
    return Path(__file__).parent / "assets"


def load_builtin(asset_id):
    """Return the UTF-8 text of a bundled asset."""
    if asset_id not in ASSET_IDS:
        raise UnknownAssetError("unknown asset id %r" % asset_id)
    return (asset_dir() / asset_id).read_text(encoding="utf-8")


def load_grammar(asset_id):
    return parse_grammar(load_builtin(asset_id), asset_id)


def load_common_grammar():
    """The language-independent delta grammar."""
    return load_grammar("delta-common.dg")
