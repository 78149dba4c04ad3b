"""The package's top-level names are exactly the ones the README lists."""

import re
from pathlib import Path

import momentbounds

README = Path(__file__).resolve().parents[1] / "README.md"


def test_top_level_names_are_the_readme_list():
    line = next(text for text in README.read_text("utf-8").splitlines()
                if text.startswith("Top-level names:"))
    names = set(re.findall(r"`(\w+)`", line))
    assert set(momentbounds.__all__) == names
    for name in names:
        assert getattr(momentbounds, name).__module__.startswith("momentbounds."), name
