import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _layout_paths() -> set[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^- `([^`]+)`", section, re.M))


def test_readme_layout_names_every_module_and_script():
    modules = {
        p.relative_to(ROOT).as_posix()
        for pattern in ("src/rightsvocab/*.py", "scripts/*.py")
        for p in ROOT.glob(pattern) if p.name != "__init__.py"
    }
    assert modules - _layout_paths() == set()


def test_readme_layout_paths_exist():
    assert {p for p in _layout_paths() if not (ROOT / p).exists()} == set()
