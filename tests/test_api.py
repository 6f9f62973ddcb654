"""The README's Python API section lists exactly the public names."""

import re
from pathlib import Path

import dcmkit

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_api() -> list[tuple[str, str]]:
    """(module, name) for each entry of the README's Python API section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    entries, module = [], None
    for line in section.splitlines():
        heading = re.fullmatch(r"`(dcmkit\.\w+)`", line)
        if heading:
            module = heading.group(1)
        item = re.match(r"- `(\w+)`:", line)
        if item:
            entries.append((module, item.group(1)))
    return entries


def test_readme_api_equals_all():
    entries = readme_api()
    names = [name for _, name in entries]
    assert len(names) == len(set(names))
    assert set(names) == set(dcmkit.__all__)
    for module, name in entries:
        assert getattr(dcmkit, name).__module__ == module, name
