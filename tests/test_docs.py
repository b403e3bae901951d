"""The docs name only what the code holds.

README.md's module references resolve, its Layout table has one row per
module naming only that module's names, its subcommand table has one row
per subcommand naming registry entries, and its examples exit as it says.
Every <module>.<name> in the package's docstrings and comments resolves,
and `pmtop --help` prints the config schema of cli.py's docstring.
"""

import importlib
import json
import pkgutil
import re
import shlex
import tokenize
from pathlib import Path

import pytest

import pmtop
from pmtop import cli, falsifier

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
MODULES = tuple(sorted(info.name for info in pkgutil.iter_modules(pmtop.__path__)))
# A module of the package, optionally behind "pmtop.", then one or more attributes;
# not part of a longer dotted name such as _balls.Ball or self.balls.
REFERENCE = re.compile(r"(?<![\w.])(?:pmtop\.)?(%s)((?:\.[A-Za-z_]\w*)+)" % "|".join(MODULES))
NAME = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def resolves(module, path):
    """Whether pmtop.<module> has the attribute chain path (a dotted string)."""
    obj = importlib.import_module(f"pmtop.{module}")
    for part in path.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def references(text):
    """The (offset, module, path) of each module reference in text; a file
    name such as falsifier.py is none."""
    return [(m.start(), m.group(1), m.group(2)[1:]) for m in REFERENCE.finditer(text)
            if m.group(2) != ".py"]


def backticked(text):
    return re.findall(r"`([^`\n]+)`", text)


def table(heading):
    """The cells of each body row of the Markdown table whose header row
    starts with heading."""
    lines = README[README.index(heading):].splitlines()
    rows = []
    for line in lines[2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip().strip("|").split(" | ")])
    return rows


def test_every_readme_reference_resolves():
    refs = [ref[1:] for ref in references(README)]
    assert ("falsifier", "PREDICATES") in refs
    assert [f"{m}.{p}" for m, p in refs if not resolves(m, p)] == []


def test_the_layout_table_has_one_row_per_module():
    rows = sorted(row[0] for row in table("| module |"))
    assert rows == sorted(f"`pmtop.{module}`" for module in MODULES)


def test_every_layout_name_resolves_in_its_module():
    unresolved = []
    for module_cell, offers in table("| module |"):
        module = module_cell.strip("`")[len("pmtop."):]
        for name in backticked(offers):
            if not NAME.fullmatch(name):
                continue
            head, _, rest = name.partition(".")
            ok = resolves(head, rest) if head in MODULES and rest else resolves(module, name)
            if not ok:
                unresolved.append(f"{module}: {name}")
    assert unresolved == []


def test_the_subcommand_table_names_registry_entries():
    rows = table("| subcommand |")
    assert [row[0].strip("`") for row in rows] == list(cli.SUBCOMMANDS)
    entries = [name for _, cell in rows for name in backticked(cell) if "." not in name]
    assert "refine_ball" in entries
    assert sorted(set(entries) - set(falsifier.PREDICATE_NAMES)) == []


def test_the_readme_examples_exit_as_stated(tmp_path, monkeypatch, capsys):
    cfg = json.loads(re.search(r"`cfg\.json`:\s*```json\n(.*?)```", README, re.S).group(1))
    conv = json.loads(re.search(r"`conv\.json` is `cfg\.json` with\s*```json\n(.*?)```",
                                README, re.S).group(1))
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    (tmp_path / "conv.json").write_text(json.dumps({**cfg, **conv}))
    monkeypatch.chdir(tmp_path)
    examples = re.search(r"Examples:\s*```sh\n(.*?)```", README, re.S).group(1)
    ran = []
    for line in examples.splitlines():
        command, stated = re.fullmatch(r"pmtop (.*?)\s+# exits (\d)\b.*", line).groups()
        ran.append((command, cli.main(shlex.split(command)), int(stated)))
        capsys.readouterr()
    assert len(ran) == 4
    assert [(command, code) for command, code, _ in ran] == \
        [(command, stated) for command, _, stated in ran]


def test_help_prints_the_config_schema(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    start = cli.__doc__.index("Operation fields")
    block = cli.__doc__[start:cli.__doc__.index("\n\n", cli.__doc__.index("    falsify", start))]
    assert block in out
    assert cli.main(["no-such-command"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: pmtop")
    assert "Operation fields" not in captured.err


def source_references():
    """(file, line, module, path) of each module reference in the package's
    docstrings, other strings and comments."""
    found = []
    for path in sorted((ROOT / "src" / "pmtop").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            for tok in tokenize.generate_tokens(fh.readline):
                if tok.type in (tokenize.COMMENT, tokenize.STRING):
                    found += [(path.name, tok.start[0] + tok.string.count("\n", 0, at), m, p)
                              for at, m, p in references(tok.string)]
    return found


def test_every_source_reference_resolves():
    found = source_references()
    assert any(ref[2:] == ("distfn", "_regularity_scan") for ref in found)
    assert any(ref[2:] == ("falsifier", "Inputs.delta2") for ref in found)
    assert [f"{name}:{line}: {m}.{p}" for name, line, m, p in found if not resolves(m, p)] == []


@pytest.mark.parametrize("text, refs", [
    ("see falsifier.py and balls.sample_members.", [("balls", "sample_members")]),
    ("_balls.Ball, self.balls.x, pmtop.cli.main", [("cli", "main")]),
    ("falsifier.Inputs.delta2)", [("falsifier", "Inputs.delta2")]),
])
def test_a_reference_is_a_module_then_its_attributes(text, refs):
    assert [ref[1:] for ref in references(text)] == refs
