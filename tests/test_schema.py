"""Record schemas are their dataclasses: the instance document round-trips
every JSON field, and the README documents exactly what the readers take."""

import dataclasses
import json
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from windplan import config as config_module
from windplan.cep import Bus, CepInstance, Line, Placement, SitedAsset, Technology
from windplan.config import SitingConfig, load_config
from windplan.fileio import field_checks, read_instance_json, write_instance_json
from windplan.siting import AnnealParams
from windplan.timeseries import TimeSeries

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# ---------------------------------------------------------------------------
# Round trip with every field away from its default
# ---------------------------------------------------------------------------

# Inside every bound of every record: fractions in [0, 1], efficiencies in (0, 1].
FRACTIONS = st.floats(0.01, 0.99)


@st.composite
def records(draw, cls, **given):
    """A ``cls`` with each JSON field not in ``given`` off its default: a
    fraction other than the default for a number, ``not default`` for a
    bool.  A ``potential_*`` field gets 1 more, so it lies above its legacy
    value."""
    kwargs = dict(given)
    for f in dataclasses.fields(cls):
        if f.name in given or f.name not in field_checks(cls):
            continue
        if f.type == "bool":
            kwargs[f.name] = not f.default
        elif f.type == "float | str":
            kwargs[f.name] = draw(st.one_of(FRACTIONS, st.just("computed")))
        else:
            value = draw(FRACTIONS.filter(lambda v, default=f.default: v != default))
            kwargs[f.name] = value + f.name.startswith("potential")
    return cls(**kwargs)


@st.composite
def instances(draw):
    periods = draw(st.integers(1, 4))
    series = st.builds(lambda values: TimeSeries(values, 2.0),
                       st.lists(FRACTIONS, min_size=periods, max_size=periods))
    buses = [draw(records(Bus, id=bus, demand=draw(series))) for bus in ("A", "B")]
    technologies = [draw(records(Technology, id=tech, kind=kind))
                    for tech, kind in (("gas", "dispatchable"), ("wind", "res"),
                                       ("bat", "storage"))]
    return draw(records(
        CepInstance, buses=buses, technologies=technologies,
        placements=[draw(records(Placement, bus="A", tech="bat", availability=draw(series),
                                 inflow=draw(series))),
                    draw(records(Placement, bus="B", tech="gas", availability=None,
                                 inflow=None))],
        lines=[draw(records(Line, id="AB", from_bus="A", to_bus="B", kind="DC"))],
        sited=[draw(records(SitedAsset, id=site, bus=bus, cf=draw(series)))
               for site, bus in (("s1", "A"), ("s2", "B"))],
        sited_technology="wind", firm_technologies=frozenset({"gas", "bat"})))


def _plain(value):
    """Records, series and containers as comparable tuples."""
    if dataclasses.is_dataclass(value):
        return tuple((f.name, _plain(getattr(value, f.name))) for f in dataclasses.fields(value))
    if isinstance(value, np.ndarray):
        return tuple(value.tolist())
    if isinstance(value, (tuple, list)):
        return tuple(map(_plain, value))
    if isinstance(value, frozenset):
        return tuple(sorted(value))
    return value


def _off_defaults(record):
    """The JSON fields of a record (and the records it holds) left at
    their default."""
    at_default = [f"{type(record).__name__}.{f.name}" for f in dataclasses.fields(record)
                  if f.name in field_checks(type(record)) and getattr(record, f.name) == f.default]
    for f in dataclasses.fields(record):
        if isinstance(getattr(record, f.name), tuple):
            for item in getattr(record, f.name):
                at_default += _off_defaults(item)
    return at_default


@settings(max_examples=60, deadline=None)
@given(instances())
def test_instance_document_round_trips_every_field(instance):
    assert _off_defaults(instance) == []
    with tempfile.TemporaryDirectory() as tmp:
        path = write_instance_json(Path(tmp) / "instance.json", instance)
        doc = json.loads(path.read_text(encoding="utf-8"))
        back = read_instance_json(path)
    assert _plain(back) == _plain(instance)
    for key, cls in (("buses", Bus), ("technologies", Technology), ("placements", Placement),
                     ("lines", Line), ("sited", SitedAsset)):
        series = {"demand", "cf", "availability", "inflow"}
        assert {field for record in doc[key] for field in record} - series == set(field_checks(cls))
    assert set(doc) - {"resolution_hours", "buses", "technologies", "placements", "lines",
                       "sited", "firm_technologies"} == set(field_checks(CepInstance))


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
