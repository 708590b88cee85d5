import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from windplan import fileio
from windplan.cep import build_lp, decode_solution
from windplan.hydro import HydroCountryParams
from windplan.lp import solve
from windplan.powercurve import PowerCurve
from windplan.resource import CriticalityMatrix
from windplan.siting import SitingSolution
from windplan.timeseries import TimeSeries


def test_series_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    series = {
        "a": TimeSeries(rng.uniform(0, 1, 20), 3.0),
        "b": TimeSeries(rng.normal(0, 100, 20), 3.0),
    }
    path = fileio.write_series_csv(tmp_path / "s.csv", series, comments=["config_hash=x"])
    back = fileio.read_series_csv(path, resolution_hours=3.0)
    assert list(back) == ["a", "b"]
    for key in series:
        assert np.array_equal(back[key].values, series[key].values)  # repr round trip
        assert back[key].resolution_hours == 3.0
    assert path.read_text().startswith("# config_hash=x")


def test_series_csv_rejects_ragged(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1.0,2.0\n3.0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        fileio.read_series_csv(path)


def test_catalog_round_trip(tmp_path):
    rows = [
        {"id": "s1", "lon": 1.25, "lat": 54.5, "partition": "A",
         "legacy_MW": 150.0, "potential_MW": 400.0},
        {"id": "s2", "lon": -2.0, "lat": 55.0, "partition": "B",
         "legacy_MW": 0.0, "potential_MW": 350.5},
    ]
    path = fileio.write_catalog_csv(tmp_path / "cat.csv", rows)
    back = fileio.read_catalog_csv(path)
    assert back == rows


def test_load_catalog_builds_sites(tmp_path):
    rows = [{"id": "s1", "lon": 0.0, "lat": 0.0, "partition": "A",
             "legacy_MW": 120.0, "potential_MW": 300.0}]
    path = fileio.write_catalog_csv(tmp_path / "cat.csv", rows)
    cf = {"s1": TimeSeries([0.5, 0.6])}
    catalog = fileio.load_catalog(path, cf)
    assert catalog.site("s1").is_legacy
    with pytest.raises(ValueError, match="capacity-factor"):
        fileio.load_catalog(path, {})


def test_power_curve_round_trip(tmp_path):
    curve = PowerCurve(np.array([0.0, 4.0, 15.0, 25.0]), np.array([0.0, 0.0, 1.0, 1.0]),
                       cut_in=4.0, rated_speed=15.0, cut_out=25.0)
    path = fileio.write_power_curve_csv(tmp_path / "curve.csv", curve)
    back = fileio.read_power_curve_csv(path)
    assert np.array_equal(back.speeds, curve.speeds)
    assert np.array_equal(back.powers, curve.powers)
    assert (back.cut_in, back.rated_speed, back.cut_out) == (4.0, 15.0, 25.0)
    assert not back.smoothed


def test_default_curves_load():
    curves = fileio.load_default_curves()
    assert set(curves) == {"low_wind", "high_wind"}
    for curve in curves.values():
        assert curve.powers.max() == 1.0


def test_hydro_params_round_trip(tmp_path):
    params = {
        "NO": HydroCountryParams(country="NO", flood_threshold=0.9, ror_capacity_MW=100.0,
                                 flow_multiplier=279.3, phs_power_MW=1300.0,
                                 phs_energy_MWh=472600.0),
        "DE": HydroCountryParams(country="DE", flood_threshold=0.7),
    }
    path = fileio.write_hydro_params_csv(tmp_path / "h.csv", params)
    back = fileio.read_hydro_params_csv(path)
    assert back == params
    assert back["DE"].flow_multiplier is None
    assert back["DE"].phs_energy_MWh is None


def test_runoff_manifest(tmp_path):
    series = {"c1": TimeSeries([0.001, 0.002]), "c2": TimeSeries([0.003, 0.001])}
    fileio.write_series_csv(tmp_path / "ro.csv", series)
    manifest = tmp_path / "runoff.csv"
    manifest.write_text(
        "cell_id,country,area_km2,series_path\nc1,AA,100.0,ro.csv\nc2,BB,50.0,ro.csv\n",
        encoding="utf-8",
    )
    grid = fileio.read_runoff_manifest(manifest)
    assert grid.countries() == ["AA", "BB"]
    assert grid.country_cells("AA")[0].area_km2 == 100.0
    with pytest.raises(ValueError, match="no column"):
        bad = tmp_path / "bad.csv"
        bad.write_text("cell_id,country,area_km2,series_path\ncX,AA,1.0,ro.csv\n",
                       encoding="utf-8")
        fileio.read_runoff_manifest(bad)


def test_runoff_manifest_rejects_a_repeated_cell(tmp_path):
    fileio.write_series_csv(tmp_path / "ro.csv", {"c1": TimeSeries([0.001, 0.002])})
    manifest = tmp_path / "runoff.csv"
    manifest.write_text("cell_id,country,area_km2,series_path\n"
                        "c1,AA,100.0,ro.csv\nc1,AA,100.0,ro.csv\n", encoding="utf-8")
    message = f"^{re.escape(str(manifest))}: cell_id 'c1' appears more than once$"
    with pytest.raises(ValueError, match=message):
        fileio.read_runoff_manifest(manifest)


def test_criticality_persistence(tmp_path):
    rng = np.random.default_rng(1)
    bits = rng.random((6, 19)) < 0.5
    matrix = CriticalityMatrix.from_bool(bits, 3, 2, tuple(f"s{i}" for i in range(6)))
    path = fileio.save_criticality(tmp_path / "crit.bin", matrix)
    back = fileio.load_criticality(path, matrix.site_ids)
    assert np.array_equal(back.packed_rows, matrix.packed_rows)
    assert back.threshold_c == 3 and back.window_length == 2


@pytest.mark.parametrize("size", [0, 4, 5, 20])
def test_a_truncated_criticality_file_is_refused_by_name(tmp_path, size):
    matrix = CriticalityMatrix.from_bool(np.ones((2, 5), dtype=bool), 1, 1)
    path = tmp_path / "crit.bin"
    path.write_bytes(matrix.to_bytes()[:size])
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: criticality matrix blob of "
                                         f"{size} bytes is shorter than its 21-byte header$"):
        fileio.load_criticality(path)


def test_solution_json_and_geojson(tmp_path):
    from helpers import build_catalog

    catalog = build_catalog(np.full((3, 2), 0.5), "A", legacy_MW=[150.0, 0, 0])
    solution = SitingSolution("comp", frozenset({"s00", "s02"}), {"A": 2}, 17.0, 5)
    jpath = fileio.write_solution_json(tmp_path / "sol.json", solution,
                                       extra={"config_hash": "abc"})
    doc = json.loads(jpath.read_text())
    assert doc["scheme"] == "comp"
    assert doc["site_ids"] == ["s00", "s02"]
    assert doc["objective"] == 17.0
    assert doc["seed"] == 5
    assert doc["config_hash"] == "abc"
    gpath = fileio.write_solution_geojson(tmp_path / "sol.geojson", solution, catalog,
                                          extra={"config_hash": "abc"})
    geo = json.loads(gpath.read_text())
    assert geo["type"] == "FeatureCollection"
    assert len(geo["features"]) == 3
    by_id = {f["properties"]["id"]: f["properties"] for f in geo["features"]}
    assert by_id["s00"]["selected"] and by_id["s00"]["legacy"]
    assert not by_id["s01"]["selected"]
    assert geo["properties"]["config_hash"] == "abc"


def test_technology_from_dict_rejects_unknown_field():
    with pytest.raises(ValueError, match="unknown technology fields"):
        fileio.technology_from_dict({"id": "x", "kind": "res", "bogus": 1})


def test_cep_report_csv(tmp_path):
    from test_cep import single_bus_instance

    instance = single_bus_instance()
    lp, index = build_lp(instance)
    decoded = decode_solution(solve(lp), index, instance)
    path = fileio.write_cep_report_csv(tmp_path / "report.csv", decoded, instance,
                                       comments=["config_hash=zzz"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=zzz"
    assert lines[1] == "row,capacity,production"
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert float(rows["gas"][1]) == pytest.approx(1.2, rel=1e-6)
    assert float(rows["gas"][2]) == pytest.approx(2.0, rel=1e-6)
    assert "total_cost" in rows and "W_off" in rows


# ---------------------------------------------------------------------------
# Unreadable files and malformed tables name the file (and the line)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("reader", [
    fileio.read_series_csv, fileio.read_catalog_csv, fileio.read_power_curve_csv,
    fileio.read_hydro_params_csv, fileio.read_runoff_manifest, fileio.load_criticality,
], ids=lambda reader: reader.__name__)
def test_readers_reject_missing_and_directory_paths(tmp_path, reader):
    for path, error in ((tmp_path / "missing.csv", "No such file"),
                        (tmp_path, "Is a directory")):
        with pytest.raises(ValueError, match=f"cannot read {re.escape(str(path))}: .*{error}"):
            reader(path)


def test_undecodable_file_names_its_path(tmp_path):
    path = tmp_path / "s.csv"
    path.write_bytes(b"a,b\n\xff,1.0\n")
    with pytest.raises(ValueError, match=f"cannot read {re.escape(str(path))}: 'utf-8' codec"):
        fileio.read_series_csv(path)


def test_series_csv_rejects_repeated_column(tmp_path):
    path = tmp_path / "wind_speeds.csv"
    path.write_text("s00,s01,s01\n1.0,2.0,3.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: series id 's01' appears more than once"):
        fileio.read_series_csv(path)


def test_series_csv_parse_error_names_line(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("# note\na,b\n1.0,2.0\n\n3.0,oops\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: line 5: could not convert string to float"):
        fileio.read_series_csv(path)
    path.write_text("a,b\n1.0,2.0\n3.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: line 3: expected 2 fields, got 1"):
        fileio.read_series_csv(path)


def test_hydro_params_reject_repeated_country(tmp_path):
    params = {"NO": HydroCountryParams(country="NO", flood_threshold=0.9)}
    path = fileio.write_hydro_params_csv(tmp_path / "h.csv", params)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[-1]]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: country 'NO' appears more than once"):
        fileio.read_hydro_params_csv(path)


def test_catalog_parse_error_names_line(tmp_path):
    path = tmp_path / "sites.csv"
    path.write_text("id,lon,lat,partition,legacy_MW,potential_MW\n"
                    "s01,1.0,50.0,P1,0.0,400.0\ns02,x-1.9629,50.0,P1,0.0,400.0\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: line 3: could not convert .*'x-1.9629'"):
        fileio.read_catalog_csv(path)
    path.write_text("id,lon,lat,partition,legacy_MW,potential_MW,lon\n", encoding="utf-8")
    with pytest.raises(ValueError, match="column 'lon' appears more than once"):
        fileio.read_catalog_csv(path)


def test_power_curve_row_field_count_names_line(tmp_path):
    curve = PowerCurve(np.array([0.0, 4.0, 15.0, 25.0]), np.array([0.0, 0.0, 1.0, 1.0]),
                       cut_in=4.0, rated_speed=15.0, cut_out=25.0)
    path = fileio.write_power_curve_csv(tmp_path / "curve.csv", curve)
    lines = path.read_text().splitlines()
    lines[6] += ",1.0"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: line 7: expected 2 fields, got 3"):
        fileio.read_power_curve_csv(path)


@pytest.mark.parametrize("site_id", ["a,b", 'a"b', "a\nb", "a\rb", "a\u2028b"])
def test_writers_refuse_a_cell_their_readers_would_split(tmp_path, site_id):
    row = {"id": site_id, "lon": 0.0, "lat": 0.0, "partition": "A",
           "legacy_MW": 0.0, "potential_MW": 1.0}
    with pytest.raises(ValueError, match=re.escape(repr(site_id))):
        fileio.write_catalog_csv(tmp_path / "cat.csv", [row])
    with pytest.raises(ValueError, match=re.escape(repr(site_id))):
        fileio.write_series_csv(tmp_path / "s.csv", {site_id: TimeSeries([1.0, 2.0])})
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("comment", ["a\nb", "a\rb", "line\n"])
def test_writers_refuse_a_comment_with_a_line_break(tmp_path, comment):
    with pytest.raises(ValueError, match=re.escape(repr(comment))):
        fileio.write_series_csv(tmp_path / "s.csv", {"a": TimeSeries([1.0])}, [comment])
    fileio.write_series_csv(tmp_path / "s.csv", {"a": TimeSeries([1.0])}, ["a, \"b\""])
    assert fileio.read_series_csv(tmp_path / "s.csv")["a"].values.tolist() == [1.0]


# ---------------------------------------------------------------------------
# read_table is the inverse of write_table
# ---------------------------------------------------------------------------

# stripped text of the characters the format gives a meaning to, drawn
# often, and of any other but a comma, a quote and a line break
_TEXT = st.text(st.one_of(st.sampled_from("# \t\u00a0x1.-"), st.characters(
    codec="utf-8", exclude_characters=',"' + fileio._LINE_BREAK)), max_size=6).map(str.strip)
_CELL = st.one_of(_TEXT, st.floats(), st.integers(-10 ** 6, 10 ** 6))


@st.composite
def _tables(draw):
    header = draw(st.lists(_TEXT, min_size=1, max_size=4))
    rows = draw(st.lists(st.lists(_CELL, min_size=len(header), max_size=len(header)),
                         max_size=5))
    comments = draw(st.lists(st.one_of(_TEXT, st.text(st.characters(
        codec="utf-8", exclude_characters=fileio._LINE_BREAK), max_size=8)), max_size=3))
    return header, rows, comments


@settings(max_examples=300, deadline=None)
@given(_tables())
def test_read_table_inverts_write_table(table):
    header, rows, comments = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        try:
            fileio.write_table(path, header, rows, comments)
        except ValueError:
            assume(False)
        back_comments, back_header, back_rows = fileio.read_table(path)
        back_rows = list(back_rows)
    assert back_comments == comments
    assert back_header == header
    first = len(comments) + 2
    assert [n for n, _ in back_rows] == list(range(first, first + len(rows)))
    for (_, cells), row in zip(back_rows, rows, strict=True):
        assert cells == [c if isinstance(c, str) else repr(float(c)) for c in row]


@pytest.mark.parametrize("header, rows, comments", [
    (["#x", "y"], [[1.0, 2.0]], []),     # the header would read as a comment
    (["id", "v"], [["#a", 1.0]], []),    # and so would the row
    ([" a", "b"], [[1.0, 2.0]], []),     # would read back as 'a'
    (["a", "b "], [[1.0, 2.0]], []),
    (["a"], [[1.0]], ["note "]),
    (["id"], [["a"], [""]], []),         # a blank line, which reads back as no row
    ([""], [[1.0]], []),
    (["a", "b"], [[1.0]], []),           # a row the reader would refuse
], ids=["hash-header", "hash-row", "leading-space", "trailing-space", "comment-space",
        "blank-row", "blank-header", "short-row"])
def test_write_table_refuses_what_read_table_cannot_read_back(tmp_path, header, rows, comments):
    with pytest.raises(ValueError, match="cannot write"):
        fileio.write_table(tmp_path / "t.csv", header, rows, comments)
    assert not list(tmp_path.iterdir())


def test_writers_refuse_ids_that_would_not_read_back(tmp_path):
    row = {"id": "#a", "lon": 0.0, "lat": 0.0, "partition": "A",
           "legacy_MW": 0.0, "potential_MW": 1.0}
    with pytest.raises(ValueError, match="'#a'"):
        fileio.write_catalog_csv(tmp_path / "cat.csv", [row])
    with pytest.raises(ValueError, match="'#x'"):
        fileio.write_series_csv(tmp_path / "s.csv", {"#x": TimeSeries([1.0]),
                                                     "y": TimeSeries([2.0])})
    with pytest.raises(ValueError, match="' a'"):
        fileio.write_series_csv(tmp_path / "s.csv", {" a": TimeSeries([1.0])})
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("reader, text", [
    (fileio.read_series_csv, 'a,b\n1.0,2.0\n"3.0",4.0\n'),
    (fileio.read_catalog_csv, 'id,lon,lat,partition,legacy_MW,potential_MW\n'
                              's1,0.0,0.0,A,0.0,1.0\n"s,2",0.0,0.0,A,0.0,1.0\n'),
    (fileio.read_hydro_params_csv,
     ",".join(fileio.HYDRO_HEADER) + '\n\n"N"' + "," * (len(fileio.HYDRO_HEADER) - 1) + "\n"),
], ids=["series", "catalog", "hydro"])
def test_readers_refuse_a_quote_naming_the_line(tmp_path, reader, text):
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3: a quote cannot be read$"):
        reader(path)


def test_readers_strip_every_text_cell(tmp_path):
    path = tmp_path / "sites.csv"
    path.write_text(" id , lon,lat,partition,legacy_MW,potential_MW\n"
                    " s1 , 1.5,2.0, A ,0.0, 3.0 \n", encoding="utf-8")
    assert fileio.read_catalog_csv(path) == [{"id": "s1", "lon": 1.5, "lat": 2.0,
                                             "partition": "A", "legacy_MW": 0.0,
                                             "potential_MW": 3.0}]
    params = {"NO": HydroCountryParams("NO", 0.9, phs_power_MW=5.0)}
    path = fileio.write_hydro_params_csv(tmp_path / "h.csv", params)
    header, row = path.read_text(encoding="utf-8").splitlines()
    path.write_text(f"{header}\n{','.join(f' {cell} ' for cell in row.split(','))}\n",
                    encoding="utf-8")
    assert fileio.read_hydro_params_csv(path) == params


def _curve_text(tmp_path):
    return fileio.write_power_curve_csv(tmp_path / "c.csv", fileio.load_default_curves()[
        "low_wind"]).read_text(encoding="utf-8")


def test_power_curve_reads_only_its_own_comments(tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("# config_hash=abc\n# note: made by hand\n" + _curve_text(tmp_path),
                    encoding="utf-8")
    curve = fileio.read_power_curve_csv(path)
    assert np.array_equal(curve.speeds, fileio.load_default_curves()["low_wind"].speeds)


@pytest.mark.parametrize("edit, got", [
    (lambda lines: [line for line in lines if not line.startswith("wind_speed_ms")], "0.0,0.0"),
    (lambda lines: [line.replace("power_pu", "power") for line in lines], "wind_speed_ms,power"),
], ids=["headerless", "renamed-column"])
def test_power_curve_requires_its_header(tmp_path, edit, got):
    path = tmp_path / "curve.csv"
    path.write_text("\n".join(edit(_curve_text(tmp_path).splitlines())) + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: expected the header "
                                         f"wind_speed_ms,power_pu, got '{got}'$"):
        fileio.read_power_curve_csv(path)


# ---------------------------------------------------------------------------
# A UTF-8 byte-order mark, as spreadsheet tools save, is not part of the text
# ---------------------------------------------------------------------------

def _with_bom(path):
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return path


def test_catalog_saved_with_a_byte_order_mark_reads_its_first_column(tmp_path):
    rows = [{"id": "s1", "lon": 1.25, "lat": 54.5, "partition": "A",
             "legacy_MW": 150.0, "potential_MW": 400.0}]
    path = _with_bom(fileio.write_catalog_csv(tmp_path / "cat.csv", rows))
    assert fileio.read_catalog_csv(path) == rows


def test_series_saved_with_a_byte_order_mark_keeps_its_first_id(tmp_path):
    series = {"s1": TimeSeries([0.5, 0.25], 3.0), "s2": TimeSeries([1.0, 0.0], 3.0)}
    path = _with_bom(fileio.write_series_csv(tmp_path / "s.csv", series))
    back = fileio.read_series_csv(path, resolution_hours=3.0)
    assert list(back) == ["s1", "s2"]
    assert back["s1"].values.tolist() == [0.5, 0.25]
