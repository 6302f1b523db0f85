"""The design record in notes/ stays true to the tree.

The record holds one `## ` section per decision the code follows and,
under a final `## Superseded` heading, one line per retired one.  Every
citation of the record names an existing section, and the live sections
name only code that exists.
"""

import importlib
import json
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORD = ROOT / "notes" / "decisions.md"
# the files that cite the record: comments, docstrings, messages and prose
CITING = ("src", "tests", "README.md", ".github")
# the record's path, then one or more quoted section names
CITATION = re.compile(r'notes/decisions\.md`?(\s*[,(]\s*"[^"]+"'
                      r'(?:\s*(?:,|and|, and)\s*"[^"]+")*)?')
MODULES = sorted(path.stem for path in (ROOT / "src" / "hpsim").glob("*.py")
                 if not path.stem.startswith("__"))
NAME = re.compile(r"\b(" + "|".join(MODULES) + r")\.([A-Za-z_]\w*)")


def _sections():
    text = RECORD.read_text(encoding="utf-8")
    live, _, superseded = text.partition("\n## Superseded\n")
    return live, superseded, set(re.findall(r"^## (.+?)\s*$", text, re.M))


def _citing_texts():
    """Each citing file's text with its lines joined, comment markers and
    YAML indentation dropped, so a citation that wraps reads as one."""
    for entry in CITING:
        path = ROOT / entry
        for file in sorted(path.rglob("*") if path.is_dir() else [path]):
            if file.suffix not in (".py", ".md", ".yml", ".json"):
                continue
            lines = file.read_text(encoding="utf-8").splitlines()
            yield file.relative_to(ROOT), " ".join(
                re.sub(r"^\s*#\s?", "", line).strip() for line in lines)


def test_record_ends_with_the_superseded_list():
    _, superseded, headings = _sections()
    assert superseded and "Superseded" in headings
    assert "\n## " not in superseded, "Superseded must be the last section"


def test_every_citation_names_an_existing_section():
    headings = _sections()[2] - {"Superseded"}
    unnamed, missing = [], []
    for name, text in _citing_texts():
        for match in CITATION.finditer(text):
            if match.group(1) is None:
                unnamed.append(f"{name}: {text[match.start():match.end() + 40]}")
                continue
            missing += [f"{name}: {section}" for section
                        in re.findall(r'"([^"]+)"', match.group(1))
                        if section not in headings]
    assert not unnamed, unnamed
    assert not missing, missing


def test_live_sections_name_only_code_that_exists():
    live = _sections()[0]
    metrics = {entry["name"] for entry in json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]}
    stale = set()
    for span in re.findall(r"`([^`]+)`", live):
        for module, name in NAME.findall(span):
            if name == "py" or f"{module}.{name}" in metrics:
                continue        # a file name, or a traced benchmark metric
            if not hasattr(importlib.import_module("hpsim." + module), name):
                stale.add(f"{module}.{name}")
    assert not stale, sorted(stale)
