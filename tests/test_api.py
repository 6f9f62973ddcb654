"""The README's Python API section lists exactly the public names, and its
Python quick start runs as written."""

import dataclasses
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


def test_public_values_are_frozen():
    """Every public dataclass is an immutable value except the containers of
    taps, snapshots and maps."""
    classes = [getattr(dcmkit, name) for name in dcmkit.__all__]
    mutable = {cls.__name__ for cls in classes if dataclasses.is_dataclass(cls)
               and not cls.__dataclass_params__.frozen}
    assert mutable == {"Taps", "ChannelSnapshot", "DcmMap"}


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    """Run the quick start's code block, so it cannot drift from the API."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Python quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)  # the quick start writes site.dcm
    exec(compile(code, str(README), "exec"), {})
    assert (tmp_path / "site.dcm").is_file()
