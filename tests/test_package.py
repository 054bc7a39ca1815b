"""The package's public surface."""

import teamopt


def test_every_exported_name_resolves():
    missing = [n for n in teamopt.__all__ if not hasattr(teamopt, n)]
    assert missing == []
    assert len(set(teamopt.__all__)) == len(teamopt.__all__)


def test_shared_decision_interface_is_exported():
    assert {"DecisionParts", "decide", "team_predict"} <= set(teamopt.__all__)
    assert callable(teamopt.DiscriminativeSystem.parts)
    assert callable(teamopt.VoiSystem.parts)
