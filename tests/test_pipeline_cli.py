"""End-to-end pipeline behaviour through the command-line interface."""

import json
from collections import Counter

import numpy as np
import pytest

from ecx import bundled_fixture_dir, pipeline
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


def test_ecx_out_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("ECX_OUT", str(tmp_path / "envdir"))
    assert main(["synth", "--p", "3", "--s", "4", "--seed", "1"]) == 0
    assert (tmp_path / "envdir" / "firms.csv").is_file()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "ecx" in capsys.readouterr().out


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
