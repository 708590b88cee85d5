"""Record schemas are their dataclasses, and the README documents exactly
what the readers take."""

import json
import re
from pathlib import Path

from windplan import config as config_module
from windplan.cep import Line, Placement, Technology
from windplan.config import SitingConfig, load_config
from windplan.fileio import field_checks
from windplan.siting import AnnealParams

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# ---------------------------------------------------------------------------
# The README documents what the readers take
# ---------------------------------------------------------------------------

def _readme_config_keys() -> set[str]:
    """The key paths of the README's config table; a ``.name`` after a
    full path is a sibling of it."""
    table = README.split("| key | type | default |", 1)[1].split("\n\n", 1)[0]
    keys = set()
    for row in table.splitlines()[2:]:
        parent = ""
        for name in re.findall(r"`([\w.]+)`", row.split("|")[1]):
            if name.startswith("."):
                keys.add(parent + name)
            else:
                keys.add(name)
                parent = name.rsplit(".", 1)[0] if "." in name else ""
    return keys


def _config_error(tmp_path, doc) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        load_config(path)
    except ValueError as exc:
        return str(exc)
    return ""


def test_readme_config_table_lists_exactly_the_accepted_keys(tmp_path):
    documented = _readme_config_keys()
    accepted = (
        {f"paths.{key}" for key in config_module._PATH_TYPES}
        | {key for key in config_module._TOP_TYPES if key not in ("paths", "siting", "cep")}
        | {f"siting.{key}" for key in field_checks(SitingConfig) if key != "anneal"}
        | {f"siting.anneal.{key}" for key in field_checks(AnnealParams)}
        | {f"cep.{key}" for key in config_module._CEP_TYPES})
    assert documented == accepted
    # load_config itself knows each of them: a value of no type is wrong,
    # not unknown
    for key in sorted(documented) + ["siting.bogus"]:
        doc = {"paths": {}}
        *parents, name = key.split(".")
        node = doc
        for parent in parents:
            node = node.setdefault(parent, {})
        node[name] = [[]]
        assert _config_error(tmp_path, doc).startswith("unknown") == (key == "siting.bogus"), key


def test_readme_record_fields_are_the_dataclass_fields():
    for name, cls in (("technology", Technology), ("placement", Placement), ("line", Line)):
        bullet = README.split(f"\n- {name}: ", 1)[1].split("\n- ", 1)[0].split("\n\n", 1)[0]
        assert set(re.findall(r"`(\w+)`", bullet)) == set(field_checks(cls)), name


def test_readme_minimal_configuration_uses_documented_keys(tmp_path):
    block = README.split("A minimal configuration:", 1)[1].split("```json", 1)[1]
    doc = json.loads(block.split("```", 1)[0])
    assert _config_error(tmp_path, doc) == ""

    def key_paths(node, prefix=""):
        for key, value in node.items():
            if isinstance(value, dict) and key != "targets_MW":
                yield from key_paths(value, f"{prefix}{key}.")
            else:
                yield prefix + key

    assert set(key_paths(doc)) <= _readme_config_keys()
