"""Helpers shared by the test modules."""

import json
from dataclasses import asdict
from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> str:
    """The path of a committed input under ``tests/fixtures``."""
    return str(FIXTURES / name)


def catalog_json(models, hardware) -> str:
    """A catalog document holding every field of each spec."""
    return json.dumps({"models": [asdict(m) for m in models], "hardware": [asdict(h) for h in hardware]})
