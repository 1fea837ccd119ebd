"""End-to-end pipeline behaviour through the command-line interface."""

import importlib.metadata
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import run_python
from ecx import InputDataError, bundled_fixture_dir, pipeline
from ecx.cli import main
from ecx.matrixio import read_matrix_csv

MANIFEST = [
    "complexity.csv", "correlations.json", "eci.csv", "fitness.csv",
    "m.csv", "mst_region.dot", "pci.csv", "rca.csv", "report.json",
    "sales.csv", "trace.csv",
]


def synth_inputs(dir_, p=12, s=18, seed=3, shape="nested"):
    assert main(["synth", "--shape", shape, "--p", str(p), "--s", str(s),
                 "--seed", str(seed), "--out", str(dir_)]) == 0
    return dir_


def run_args(src, out):
    return ["--firms", str(src / "firms.csv"),
            "--regions", str(src / "regions.csv"),
            "--sectors", str(src / "sectors.csv"),
            "--macro", str(src / "macro.csv"),
            "--out", str(out)]


def test_full_run_produces_the_manifest(tmp_path):
    src = synth_inputs(tmp_path / "in")
    out = tmp_path / "out"
    assert main(["run", *run_args(src, out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["manifest"] == MANIFEST
    for name in MANIFEST:
        assert (out / name).is_file(), name
    for stage in ("ingest", "matrix", "eci", "fitness", "mst", "correlate"):
        assert (out / f"{stage}_report.json").is_file()


def test_report_is_location_independent(tmp_path):
    src = synth_inputs(tmp_path / "in")
    out_a = tmp_path / "a"
    out_b = tmp_path / "deeply" / "nested" / "b"
    assert main(["run", *run_args(src, out_a)]) == 0
    assert main(["run", *run_args(src, out_b)]) == 0
    for name in MANIFEST:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    text = (out_a / "report.json").read_text()
    assert str(out_a) not in text
    assert str(tmp_path) not in text


def test_chained_stages_equal_single_run(tmp_path):
    src = synth_inputs(tmp_path / "in")
    whole = tmp_path / "whole"
    staged = tmp_path / "staged"
    assert main(["run", *run_args(src, whole)]) == 0
    common = run_args(src, staged)
    assert main(["ingest", *common]) == 0
    assert main(["matrix", "--out", str(staged)]) == 0
    assert main(["eci", "--out", str(staged)]) == 0
    assert main(["fitness", "--out", str(staged)]) == 0
    assert main(["mst", "--out", str(staged)]) == 0
    assert main(["correlate", "--out", str(staged)]) == 0
    assert main(["report", "--out", str(staged)]) == 0
    for name in MANIFEST:
        assert (whole / name).read_bytes() == (staged / name).read_bytes(), name


def test_report_structure(tmp_path):
    src = synth_inputs(tmp_path / "in")
    out = tmp_path / "out"
    assert main(["run", *run_args(src, out)]) == 0
    report = json.loads((out / "report.json").read_text())
    for key in ("firms", "macro", "regions", "sectors"):
        assert len(report["input_digests"][key]) == 64   # sha256 hex
    assert report["ingest"]["records"] > 0
    assert report["matrix"]["threshold"] == 1.0
    assert set(report["dropped"]) == {"zero_sales_regions",
                                      "zero_sales_sectors",
                                      "empty_regions", "empty_sectors"}
    assert "lambda2_region" in report["eci"]
    assert "iterations" in report["fitness"]
    assert report["mst"]["entity"] == "region"
    assert {c["x_name"] for c in report["correlations"]} == {"eci", "fitness"}


def test_output_table_headers(tmp_path):
    src = synth_inputs(tmp_path / "in")
    out = tmp_path / "out"
    assert main(["run", *run_args(src, out)]) == 0

    def header(name):
        return (out / name).read_text().splitlines()[0]

    assert header("eci.csv") == "region_code,eci,rank"
    assert header("pci.csv") == "sector_code,pci,rank"
    assert header("fitness.csv") == "region_code,fitness,rank"
    assert header("complexity.csv") == "sector_code,complexity,rank"
    assert header("sales.csv").startswith("region_code,")
    assert header("trace.csv").startswith("iteration,R01")
    # rank column is a permutation
    rows = (out / "eci.csv").read_text().splitlines()[1:]
    ranks = sorted(int(r.rsplit(",", 1)[1]) for r in rows)
    assert ranks == list(range(1, len(rows) + 1))


def test_binary_matrix_roundtrip(tmp_path):
    src = synth_inputs(tmp_path / "in")
    out = tmp_path / "out"
    assert main(["run", *run_args(src, out)]) == 0
    values, rcodes, scodes = read_matrix_csv(out / "m.csv")
    assert set(np.unique(values)) <= {0.0, 1.0}
    assert len(rcodes) == 12 and len(scodes) == 18


@pytest.mark.parametrize("cell", ["nan", "2", "0.5"])
def test_non_binary_m_csv_exits_2_with_one_line(tmp_path, cell):
    """A cell of m.csv other than 0 or 1 is refused before any cast, so
    stderr holds the error line and no numpy warning."""
    out = tmp_path / "out"
    assert main(["ingest", *run_args(synth_inputs(tmp_path / "in"), out)]) == 0
    assert main(["matrix", "--out", str(out)]) == 0
    header, first, *rest = (out / "m.csv").read_text().splitlines(True)
    first = ",".join([*first.split(",")[:-1], cell + "\n"])
    (out / "m.csv").write_text("".join([header, first, *rest]))
    proc = run_python("import sys, ecx.cli\n"
                      "sys.exit(ecx.cli.main(sys.argv[1:]))",
                      "eci", "--out", out)
    assert proc.returncode == 2
    assert proc.stderr == (
        "ecx: error: stage 'eci': m.csv must contain only 0/1 entries\n")


@pytest.mark.parametrize("kind,line,code", [("sector", 0, "S01"),
                                            ("region", 1, "R01")])
def test_matrix_code_outside_the_catalog_exits_2(tmp_path, capsys, kind,
                                                 line, code):
    out = tmp_path / "out"
    assert main(["ingest", *run_args(synth_inputs(tmp_path / "in"), out)]) == 0
    assert main(["matrix", "--out", str(out)]) == 0
    lines = (out / "m.csv").read_text().splitlines(True)
    assert f"{code}," in lines[line]
    lines[line] = lines[line].replace(f"{code},", "XX,", 1)
    (out / "m.csv").write_text("".join(lines))
    capsys.readouterr()
    assert main(["eci", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"ecx: error: stage 'eci': {kind} 'XX' not in catalog\n")


def test_blank_catalog_code_exits_2(tmp_path, capsys):
    """A blank catalog code is refused, so a firm row whose code field
    is blank cannot land on it."""
    src = synth_inputs(tmp_path / "in")
    with open(src / "regions.csv", "a") as fh:
        fh.write(",Nameless,Kanto\n")
    with open(src / "firms.csv", "a") as fh:
        fh.write("F1,,S01,100,3\n")
    capsys.readouterr()
    assert main(["ingest", *run_args(src, tmp_path / "out")]) == 2
    assert "region code '' is empty" in capsys.readouterr().err


@pytest.mark.parametrize("name,row,what", [
    ("regions", "R13,Region 13", "regions catalog: line 14 has 2 fields, "
     "the header has 3"),
    ("sectors", "S19,Sector 19,Fisheries", "sectors catalog: line 20 has 3 "
     "fields, the header has 4"),
], ids=["regions", "sectors"])
def test_short_catalog_row_exits_2(tmp_path, capsys, name, row, what):
    src = synth_inputs(tmp_path / "in")
    with open(src / f"{name}.csv", "a") as fh:
        fh.write(row + "\n")
    capsys.readouterr()
    assert main(["ingest", *run_args(src, tmp_path / "out")]) == 2
    assert what in capsys.readouterr().err


def _spoil_utf8(path):
    """Put a 0xE9 byte, which no UTF-8 text holds, into the last row."""
    data = path.read_bytes()
    cut = data.rindex(b"\n", 0, len(data) - 1) + 2
    path.write_bytes(data[:cut] + b"\xe9" + data[cut:])


@pytest.mark.parametrize("name", ["firms", "regions", "sectors", "macro"])
def test_non_utf8_input_exits_2_naming_the_file(tmp_path, capsys, name):
    src = synth_inputs(tmp_path / "in")
    _spoil_utf8(src / f"{name}.csv")
    capsys.readouterr()
    assert main(["ingest", *run_args(src, tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{name}.csv: not UTF-8 text: byte 0xe9" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name,stage,what", [
    ("eci.csv", "correlate", "eci.csv: not UTF-8 text: byte 0xe9"),
    ("mst_report.json", "report", "mst_report.json: 'utf-8' codec can't "
     "decode byte 0xe9"),
], ids=["index-table", "sidecar"])
def test_non_utf8_output_exits_2_naming_the_file(tmp_path, capsys, name,
                                                 stage, what):
    src = synth_inputs(tmp_path / "in")
    out = tmp_path / "out"
    assert main(["run", *run_args(src, out)]) == 0
    _spoil_utf8(out / name)
    capsys.readouterr()
    assert main([stage, "--out", str(out)]) == 2
    assert what in capsys.readouterr().err


def test_refused_fit_names_the_region(tmp_path, capsys):
    """A region whose per-capita product is 0 cannot enter a log-space
    fit; the refusal names it by code, not by its place in the fit."""
    src = synth_inputs(tmp_path / "in")
    macro = (src / "macro.csv").read_text().splitlines()
    code, pop, _, income = macro[3].split(",")
    assert code == "R03"
    macro[3] = f"{code},{pop},0,{income}"
    (src / "macro.csv").write_text("\n".join(macro) + "\n")
    capsys.readouterr()
    assert main(["run", *run_args(src, tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "exponential fit y values must be positive; offending: R03" in err


def test_missing_firms_file_exits_2(tmp_path, capsys):
    src = synth_inputs(tmp_path / "in")
    args = run_args(src, tmp_path / "out")
    args[1] = str(tmp_path / "no-such-firms.csv")
    assert main(["run", *args]) == 2
    assert "file not found" in capsys.readouterr().err


def degenerate_inputs(dir_):
    src = synth_inputs(dir_, p=3, s=3)
    # overwrite the firms table with perfectly uniform sales: every RCA
    # is exactly 1, the transition matrix loses its spectral gap
    (src / "firms.csv").write_text(
        "firm_id,region_code,sector_code,annual_sales,employees\n"
        + "".join(f"F{i}{j},R0{i},S0{j},100,5\n"
                  for i in (1, 2, 3) for j in (1, 2, 3)))
    return src


def test_degenerate_economy_exits_3(tmp_path, capsys):
    src = degenerate_inputs(tmp_path / "in")
    rc = main(["run", *run_args(src, tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "stage 'eci'" in err
    assert "degenerate spectrum" in err


def test_degenerate_economy_eci_stage_exits_3(tmp_path, capsys):
    src = degenerate_inputs(tmp_path / "in")
    out = tmp_path / "out"
    assert main(["ingest", *run_args(src, out)]) == 0
    assert main(["matrix", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["eci", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "stage 'eci'" in err
    assert "degenerate spectrum" in err


def test_out_colliding_with_file_exits_4(tmp_path, capsys):
    src = synth_inputs(tmp_path / "in")
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    assert main(["run", *run_args(src, blocker)]) == 4
    assert "i/o error" in capsys.readouterr().err


def test_stage_out_of_order_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["matrix", "--out", str(empty)]) == 2
    assert "run the 'ingest' stage first" in capsys.readouterr().err


def test_bad_threshold_exits_2(tmp_path, capsys):
    src = synth_inputs(tmp_path / "in")
    out = tmp_path / "out"
    assert main(["ingest", *run_args(src, out)]) == 0
    assert main(["matrix", "--threshold", "-1", "--out", str(out)]) == 2


@pytest.mark.parametrize("row", ["R04,abc,4", "R04"],
                         ids=["non-numeric", "short-row"])
def test_malformed_index_table_exits_2(tmp_path, capsys, row):
    src = synth_inputs(tmp_path / "in")
    out = tmp_path / "out"
    for stage in (["ingest", *run_args(src, out)],
                  ["matrix", "--out", str(out)],
                  ["eci", "--out", str(out)]):
        assert main(stage) == 0
    lines = (out / "eci.csv").read_text().splitlines()
    lines[4] = row
    (out / "eci.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["correlate", "--index", "eci", "--out", str(out)]) == 2
    assert "eci.csv: line 5: expected a code and a number" in \
        capsys.readouterr().err
    # report checks lineage first; its summary tables read eci.csv alike
    with pytest.raises(InputDataError, match="eci.csv: line 5"):
        pipeline.write_summary_tables(pipeline.RunConfig(out))


def test_ecx_out_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("ECX_OUT", str(tmp_path / "envdir"))
    assert main(["synth", "--p", "3", "--s", "4", "--seed", "1"]) == 0
    assert (tmp_path / "envdir" / "firms.csv").is_file()


def test_version_flag(capsys):
    try:
        want = importlib.metadata.version("ecx")
    except importlib.metadata.PackageNotFoundError:
        want = "unknown"
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"ecx {want}\n"


def test_fitness_ordered_exports(tmp_path):
    src = synth_inputs(tmp_path / "in")
    out = tmp_path / "out"
    for stage in (["ingest", *run_args(src, out)],
                  ["matrix", "--out", str(out)],
                  ["fitness", "--ordered", "--out", str(out)]):
        assert main(stage) == 0
    pbm = (out / "ordered_matrix.pbm").read_text()
    assert pbm.startswith("P1\n18 12\n")
    assert set(pbm.split("\n", 2)[2].split()) <= {"0", "1"}
    values, rows, cols = read_matrix_csv(out / "ordered_matrix.csv")
    assert values.shape == (12, 18)
    report = json.loads((out / "fitness_report.json").read_text())
    assert "ordered_matrix.csv" in report["files"]
    assert "diagonal_clearance" in report


def test_correlate_fit_export(tmp_path):
    src = synth_inputs(tmp_path / "in")
    out = tmp_path / "out"
    for stage in (["ingest", *run_args(src, out)],
                  ["matrix", "--out", str(out)],
                  ["eci", "--out", str(out)]):
        assert main(stage) == 0
    assert main(["correlate", "--index", "eci",
                 "--indicator", "gpp_per_capita", "--fit", "exp",
                 "--out", str(out)]) == 0
    lines = (out / "fit_eci_gpp_per_capita.csv").read_text().splitlines()
    assert lines[0] == "label,x,y,expected_y,residual"
    assert len(lines) == 13
    assert isinstance(json.loads((out / "correlations.json").read_text()), list)
    report = json.loads((out / "correlate_report.json").read_text())
    assert "fit_eci_gpp_per_capita.csv" in report["files"]
    assert report["fits"]["eci_vs_gpp_per_capita"]["model"] == "exponential"


def test_report_summary_tables(tmp_path):
    src = synth_inputs(tmp_path / "in")
    out = tmp_path / "out"
    assert main(["run", *run_args(src, out)]) == 0
    assert main(["report", "--summary", "--highlight", "R01",
                 "--out", str(out)]) == 0
    quads = (out / "quadrants.csv").read_text().splitlines()
    assert quads[0] == "region_code,k_p0,k_p1,quadrant"
    assert len(quads) == 13
    groups = (out / "regions.csv").read_text().splitlines()
    assert groups[0] == ("group,count,mean_eci,mean_gpp_per_capita,"
                         "mean_income_per_person")
    assert any(line.startswith("Region 01,1,") for line in groups[1:])
    report = json.loads((out / "report.json").read_text())
    assert "quadrants.csv" in report["manifest"]
    assert "regions.csv" in report["manifest"]


def test_mst_sector_graphml(tmp_path):
    src = synth_inputs(tmp_path / "in")
    out = tmp_path / "out"
    for stage in (["ingest", *run_args(src, out)],
                  ["matrix", "--out", str(out)],
                  ["mst", "--entity", "sector", "--format", "graphml",
                   "--out", str(out)]):
        assert main(stage) == 0
    data = (out / "mst_sector.graphml").read_text()
    assert data.startswith("<?xml")
    report = json.loads((out / "mst_report.json").read_text())
    assert report["entity"] == "sector"
    assert report["edges"] == report["nodes"] - 1


def fixture_args(out):
    fx = bundled_fixture_dir()
    return ["--firms", str(fx / "firms.csv"),
            "--regions", str(fx / "regions.csv"),
            "--sectors", str(fx / "sectors.csv"),
            "--macro", str(fx / "macro.csv"), "--out", str(out)]


def test_report_refuses_a_matrix_newer_than_its_indices(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", *fixture_args(out)]) == 0
    assert main(["matrix", "--threshold", "1.5", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "stage 'eci' is stale" in err
    assert "m.csv" in err

    for stage in ("eci", "fitness", "mst", "correlate"):
        assert main([stage, "--out", str(out)]) == 0
    assert main(["report", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    eci = json.loads((out / "eci_report.json").read_text())
    assert report["matrix"]["threshold"] == 1.5
    assert report["eci"]["lambda2_region"] == eci["lambda2_region"]


def test_report_refuses_outputs_of_other_inputs(tmp_path, capsys):
    src = synth_inputs(tmp_path / "in")
    out = tmp_path / "out"
    assert main(["run", *fixture_args(out)]) == 0
    assert main(["ingest", *run_args(src, out)]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "stage 'matrix' is stale: catalog_regions.csv has changed" in err


def test_stages_are_looked_up_by_name_at_call_time(tmp_path, monkeypatch):
    calls = Counter()

    def count(name):
        stage = getattr(pipeline, f"stage_{name}")

        def counted(*args, **kwargs):
            calls[name] += 1
            return stage(*args, **kwargs)

        monkeypatch.setattr(pipeline, f"stage_{name}", counted)

    count("eci")
    count("mst")
    src = synth_inputs(tmp_path / "in")
    out = tmp_path / "out"
    pipeline.run_pipeline(pipeline.RunConfig(
        out_dir=out, firms=src / "firms.csv", regions=src / "regions.csv",
        sectors=src / "sectors.csv", macro=src / "macro.csv"))
    assert calls == {"eci": 1, "mst": 1}
    assert main(["eci", "--out", str(out)]) == 0
    assert calls == {"eci": 2, "mst": 1}


def test_report_accepts_a_refit_that_correlate_never_read(tmp_path, capsys):
    src = synth_inputs(tmp_path / "in")
    out = tmp_path / "out"
    assert main(["run", *run_args(src, out)]) == 0
    assert main(["correlate", "--index", "eci", "--out", str(out)]) == 0
    lineage = json.loads((out / "correlate_report.json").read_text())["lineage"]
    assert "fitness.csv" not in lineage
    fitness = (out / "fitness.csv").read_bytes()
    assert main(["fitness", "--max-iter", "500", "--out", str(out)]) == 0
    assert (out / "fitness.csv").read_bytes() != fitness
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0, capsys.readouterr().err


def test_run_lineage_names_every_intermediate_a_stage_reads(tmp_path):
    src = synth_inputs(tmp_path / "in")
    out = tmp_path / "out"
    assert main(["run", *run_args(src, out)]) == 0
    catalogs = {"catalog_regions.csv", "catalog_sectors.csv"}
    reads = {
        "ingest": set(),
        "matrix": {"sales.csv", *catalogs},
        "eci": {"m.csv", *catalogs},
        "fitness": {"m.csv", *catalogs},
        "mst": {"m.csv", *catalogs},
        "correlate": {"catalog_regions.csv", "macro.csv", "eci.csv",
                      "fitness.csv"},
    }
    for stage, names in reads.items():
        sidecar = json.loads((out / f"{stage}_report.json").read_text())
        made = set(sidecar["files"]) | set(sidecar.get("intermediates", []))
        assert set(sidecar["lineage"]) == names | made, stage


@pytest.mark.parametrize("index", [[], ["--index", "eci"]])
def test_power_fit_of_eci_is_refused_before_any_read(tmp_path, capsys,
                                                     index):
    # the output directory is empty: a read would fail otherwise
    assert main(["correlate", *index, "--fit", "power",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "power fit" in err and "--index fitness" in err
    assert list(tmp_path.iterdir()) == []


def test_power_fit_of_fitness_runs(tmp_path):
    src = synth_inputs(tmp_path / "in")
    out = tmp_path / "out"
    assert main(["run", *run_args(src, out)]) == 0
    assert main(["correlate", "--index", "fitness", "--fit", "power",
                 "--out", str(out)]) == 0
    assert (out / "fit_fitness_income.csv").is_file()


def test_run_without_macro_is_refused_before_any_write(tmp_path):
    src = synth_inputs(tmp_path / "in")
    out = tmp_path / "out"
    args = run_args(src, out)
    del args[6:8]                       # --macro and its path
    with pytest.raises(SystemExit) as exc:
        main(["run", *args])
    assert exc.value.code == 2
    with pytest.raises(InputDataError, match="macro file not specified"):
        pipeline.run_pipeline(pipeline.RunConfig(
            out_dir=out, firms=src / "firms.csv",
            regions=src / "regions.csv", sectors=src / "sectors.csv"))
    assert not out.exists()


def test_correlate_without_macro_rows_names_the_fix(tmp_path, capsys):
    src = synth_inputs(tmp_path / "in")
    out = tmp_path / "out"
    args = run_args(src, out)
    del args[6:8]
    for stage in (["ingest", *args], ["matrix"], ["eci"], ["fitness"]):
        assert main([*stage, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["correlate", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--macro" in err and "'ingest'" in err
    assert not (out / "correlations.json").exists()


def test_highlight_without_summary_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", *fixture_args(out)]) == 0
    report = (out / "report.json").read_bytes()
    capsys.readouterr()
    assert main(["report", "--highlight", "XX", "--out", str(out)]) == 2
    assert "--highlight needs --summary" in capsys.readouterr().err
    assert (out / "report.json").read_bytes() == report


@pytest.mark.parametrize("tol", ["inf", "nan"])
@pytest.mark.parametrize("stage", ["eci", "fitness"])
def test_non_finite_tol_exits_2(tmp_path, capsys, stage, tol):
    out = tmp_path / "out"
    assert main(["ingest", *run_args(synth_inputs(tmp_path / "in"), out)]) == 0
    assert main(["matrix", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main([stage, "--tol", tol, "--out", str(out)]) == 2
    assert "tol must be finite and positive" in capsys.readouterr().err


def test_matrix_with_a_zero_column_is_refused_by_every_reader(tmp_path):
    """A degenerate m.csv is refused where the matrix is built, so every
    stage that reads it exits 2 with one line on stderr."""
    out = tmp_path / "out"
    assert main(["run", *run_args(synth_inputs(tmp_path / "in"), out)]) == 0
    header, *rows = (out / "m.csv").read_text().splitlines(True)
    (out / "m.csv").write_text("".join(
        [header, *(row.rsplit(",", 1)[0] + ",0\n" for row in rows)]))
    # the sidecars agree with the edited file, so report gets past its
    # lineage check to the summary tables
    digest = pipeline._digest(out / "m.csv")
    for sidecar in out.glob("*_report.json"):
        data = json.loads(sidecar.read_text())
        if "m.csv" in data["lineage"]:
            data["lineage"]["m.csv"] = digest
            sidecar.write_text(json.dumps(data))
    for stage in (["eci"], ["fitness"], ["mst"], ["report", "--summary"]):
        proc = run_python("import sys, ecx.cli\n"
                          "sys.exit(ecx.cli.main(sys.argv[1:]))",
                          *stage, "--out", out)
        assert proc.returncode == 2, stage
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert "degenerate matrix" in proc.stderr, proc.stderr


def test_traced_bench_finds_every_name_it_reads(tmp_path):
    """The bench's tracer wraps ecx functions by name and reads report
    keys and result attributes; a rename shows as an ``absent`` name or
    a None metric.  Runs one in-process pass and one staged chain, as
    the bench's two modes do."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    proc = run_python("""
        import contextlib, io, json, sys
        sys.path.insert(0, sys.argv[1])
        import ecx.cli, ecx.pipeline
        from tracing import LAYER_METRICS, Tracer

        fx, out = ecx.bundled_fixture_dir(), sys.argv[2]
        inputs = [f"--{n}={fx / (n + '.csv')}"
                  for n in ("firms", "regions", "sectors", "macro")]
        tracer = Tracer()
        tracer.install()
        ecx.pipeline.run_pipeline(ecx.pipeline.RunConfig(
            out + "/run", *(fx / f"{n}.csv"
                            for n in ("firms", "regions", "sectors", "macro"))))
        passes = [tracer.end_pass()]
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["ingest", *inputs], ["matrix"], ["eci"],
                         ["fitness", "--ordered"], ["mst", "--format", "graphml"],
                         ["correlate", "--fit", "exp"],
                         ["report", "--summary", "--highlight", "R01"]):
                assert ecx.cli.main([*argv, "--out", out + "/staged"]) == 0, argv
        passes.append(tracer.end_pass())
        names = [name for name, _, _ in LAYER_METRICS
                 if name != "trace.overhead_s"]
        print(json.dumps({"absent": tracer.absent,
                          "none": [[m for m in names if p.get(m) is None]
                                   for p in passes]}))
        """, bench, tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"absent": [], "none": [[], []]}
