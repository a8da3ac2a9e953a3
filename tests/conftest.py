"""Fixtures shared by the test modules."""

import json
from fractions import Fraction

import pytest

from rhoforge import cli, lens


@pytest.fixture(autouse=True)
def reports_are_json_dumps(monkeypatch):
    """Every report a test writes is the text json.dumps would give."""
    reports = []
    dumps = cli._dumps

    def recording(report):
        text = dumps(report)
        reports.append(report)
        return text

    monkeypatch.setattr(cli, "_dumps", recording)
    yield
    for report in reports:
        assert dumps(report) == json.dumps(report, indent=2, default=cli._jsonable)


@pytest.fixture
def wide_pi_bracket(monkeypatch):
    """``lens.PI_BRACKET`` rebound to [1, 4], too wide to decide a row.

    ``lens._pi_powers`` caches the bracket's powers per d, so the cache
    is cleared when the bracket is rebound and again once it is restored.
    """
    monkeypatch.setattr(lens, "PI_BRACKET", (Fraction(1), Fraction(4)))
    lens._pi_powers.cache_clear()
    yield
    monkeypatch.undo()
    lens._pi_powers.cache_clear()
