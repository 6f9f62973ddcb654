"""End-to-end command line behavior: exit codes, CSV shapes, determinism."""

import json
import re

import pytest

from dcmkit.cli import main, _levels

from conftest import ROOM_SCENE

TX = "1,1,1.5"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    scene = root / "room.scene"
    scene.write_text(ROOM_SCENE)
    points = root / "points.csv"
    points.write_text("# receiver locations\n"
                      "2,2,1.5\n"
                      "\n"
                      "2.5,2,1.5\n"
                      "2,2.5,1.2\n")
    return root


@pytest.fixture(scope="module")
def built_map(workdir):
    out = workdir / "room.dcm"
    rc = main(["build", "--scene", str(workdir / "room.scene"), "--tx", TX,
               "--points", str(workdir / "points.csv"), "--max-order", "1",
               "--out", str(out)])
    assert rc == 0
    return out


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_build_writes_map_and_reports(built_map):
    text = built_map.read_text()
    assert text.startswith("DCMv2\n")
    assert text.count("[record]") == 3


def test_build_from_grid_args(workdir, capsys):
    out = workdir / "grid.dcm"
    rc, _, err = run(capsys, [
        "build", "--scene", str(workdir / "room.scene"), "--tx", TX,
        "--origin", "2,2,1.5", "--shape", "2,1,1", "--spacing", "0.5",
        "--max-order", "1", "--out", str(out)])
    assert rc == 0
    assert "traced 2 locations" in err
    assert out.read_text().count("[record]") == 2


def test_build_requires_some_locations(workdir, capsys):
    rc, _, err = run(capsys, [
        "build", "--scene", str(workdir / "room.scene"), "--tx", TX,
        "--max-order", "1", "--out", str(workdir / "none.dcm")])
    assert rc == 1
    assert err.startswith("error:")


def test_query_emits_path_table(built_map, capsys):
    rc, out, _ = run(capsys, ["query", "--map", str(built_map), "--at", "2,2,1.5"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("kind,delay_ns,power_db,aod_el_deg,aod_az_deg,"
                        "aoa_el_deg,aoa_az_deg")
    assert len(lines) == 1 + 7  # direct path plus one bounce per wall
    assert sum(1 for ln in lines[1:] if ln.startswith("los,")) == 1


def test_query_miss_is_reported(built_map, capsys):
    rc, out, err = run(capsys, ["query", "--map", str(built_map), "--at", "3.9,4.9,2.9"])
    assert rc == 1 and out == ""
    assert err.startswith("error:") and "nearest" in err


def test_update_is_deterministic(built_map, capsys):
    argv = ["update", "--map", str(built_map), "--at", "2,2,1.5",
            "--t", "0.25", "--seed", "11"]
    rc1, out1, _ = run(capsys, argv)
    rc2, out2, _ = run(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0] == "v,u,kind,delay_ns,amp_real,amp_imag"
    assert len(lines) > 7
    rc3, out3, _ = run(capsys, argv[:-1] + ["12"])
    assert rc3 == 0 and out3 != out1


def test_update_out_file_matches_stdout(built_map, workdir, capsys):
    target = workdir / "update.csv"
    argv = ["update", "--map", str(built_map), "--at", "2,2,1.5",
            "--seed", "11", "--out", str(target)]
    rc, out, _ = run(capsys, argv)
    assert rc == 0 and out == ""
    rc, out, _ = run(capsys, argv[:-2])
    assert target.read_text() == out
    assert not (workdir / "update.csv.tmp").exists()


def test_out_file_ignores_a_stale_temp_name(built_map, workdir, capsys):
    target = workdir / "stale.csv"
    (workdir / "stale.csv.tmp").mkdir()
    argv = ["update", "--map", str(built_map), "--at", "2,2,1.5", "--seed", "3"]
    rc, out, _ = run(capsys, argv + ["--out", str(target)])
    assert rc == 0 and out == ""
    assert target.read_text() == run(capsys, argv)[1]
    assert (workdir / "stale.csv.tmp").is_dir()
    assert not list(workdir.glob("stale.csv.*.tmp"))


def test_malformed_map_exits_one_with_line(built_map, workdir, capsys):
    text = built_map.read_text()
    cases = {
        "unknown gbsm key": text.replace("[gbsm]\n", "[gbsm]\nbogus_knob=3\n"),
        "bad gbsm number": text.replace("\nseed=0\n", "\nseed=zero\n"),
        "bad mpc number": text.replace(" delay=", " delay=x", 1),
        "nan delay": re.sub(r" delay=\S+", " delay=nan", text, count=1),
        "infinite power": re.sub(r" power=\S+", " power=inf", text, count=1),
        "nan rx": re.sub(r"\nrx=[^,]+,", "\nrx=nan,", text, count=1),
        "nan ks": re.sub(r"\nks=\S+", "\nks=nan", text, count=1),
    }
    for label, bad_text in cases.items():
        bad = workdir / "bad.dcm"
        bad.write_text(bad_text)
        rc, _, err = run(capsys, ["update", "--map", str(bad), "--at", "2,2,1.5",
                                  "--seed", "1"])
        assert rc == 1, label
        assert err.startswith("error: line ") and "Traceback" not in err, label


def test_v1_map_exits_one_asking_for_rebuild(built_map, workdir, capsys):
    old = workdir / "v1.dcm"
    old.write_text(built_map.read_text().replace("DCMv2\n", "DCMv1\n", 1))
    rc, out, err = run(capsys, ["query", "--map", str(old), "--at", "2,2,1.5"])
    assert rc == 1 and out == ""
    assert err.startswith("error: line 1: DCMv1 map")
    assert "rebuild it with dcmkit build" in err and "Traceback" not in err


def test_duplicate_record_exits_one(built_map, workdir, capsys):
    text = built_map.read_text()
    first = text.split("[record]\n")[1]
    bad = workdir / "dup.dcm"
    bad.write_text(text + "[record]\n" + first)
    rc, out, err = run(capsys, ["query", "--map", str(bad), "--at", "2,2,1.5"])
    assert rc == 1 and out == ""
    assert err.startswith("error: line ") and "duplicate record at rx=" in err
    assert "Traceback" not in err


def test_update_accepts_config_overrides(built_map, workdir, capsys):
    cfg = workdir / "overrides.json"
    cfg.write_text(json.dumps({"n_clusters": 2, "rays_per_cluster": 1}))
    rc, out, _ = run(capsys, ["update", "--map", str(built_map),
                              "--at", "2,2,1.5", "--seed", "1",
                              "--config", str(cfg)])
    assert rc == 0
    dyn = [ln for ln in out.splitlines() if ",dyn:" in ln]
    assert len(dyn) == 2
    bad = workdir / "bad.json"
    bad.write_text(json.dumps({"not_a_field": 3}))
    rc, _, err = run(capsys, ["update", "--map", str(built_map),
                              "--at", "2,2,1.5", "--seed", "1",
                              "--config", str(bad)])
    assert rc == 1 and "unknown config fields" in err
    bad.write_text(json.dumps({"n_clusters": "three"}))
    rc, _, err = run(capsys, ["update", "--map", str(built_map),
                              "--at", "2,2,1.5", "--seed", "1",
                              "--config", str(bad)])
    assert rc == 1 and "must be an integer" in err


def test_simulate_row_count(built_map, capsys):
    rc, out, _ = run(capsys, ["simulate", "--map", str(built_map),
                              "--at", "2,2,1.5", "--seed", "2",
                              "--duration", "0.05", "--dt", "1e-3"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t_s,h_real,h_imag,envelope"
    assert len(lines) == 1 + 50


def test_stats_fcf_starts_at_unity(built_map, capsys):
    rc, out, _ = run(capsys, ["stats", "fcf", "--map", str(built_map),
                              "--at", "2,2,1.5", "--seed", "0",
                              "--df-count", "11", "--ensemble", "5"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "df_hz,fcf_real,fcf_imag,fcf_abs"
    assert len(lines) == 12
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert abs(float(first[3]) - 1.0) < 1e-9


def test_stats_delay_psd_shape(built_map, capsys):
    rc, out, _ = run(capsys, ["stats", "delay-psd", "--map", str(built_map),
                              "--at", "2,2,1.5", "--seed", "0",
                              "--df-count", "64", "--ensemble", "5"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "delay_ns,power_db"
    assert len(lines) == 65


def test_stats_angular_cdf(built_map, capsys):
    rc, out, _ = run(capsys, ["stats", "angular-spread-cdf",
                              "--map", str(built_map), "--at", "2,2,1.5",
                              "--seed", "0", "--samples", "4",
                              "--rx-elements", "4", "--n-lags", "32"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "spread_deg,cdf"
    assert 2 <= len(lines) <= 5
    assert float(lines[-1].split(",")[1]) == 1.0


def test_stats_doppler_cdf(built_map, capsys):
    rc, out, _ = run(capsys, ["stats", "doppler-spread-cdf",
                              "--map", str(built_map), "--at", "2,2,1.5",
                              "--seed", "0", "--samples", "3",
                              "--duration", "0.256"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "spread_hz,cdf"
    assert float(lines[-1].split(",")[1]) == 1.0


def test_stats_lcr_level_sweeps(built_map, capsys):
    rc, out, _ = run(capsys, ["stats", "lcr", "--map", str(built_map),
                              "--at", "2,2,1.5", "--seed", "0",
                              "--levels=-6:2:0", "--duration", "0.5",
                              "--ensemble", "16"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "level_db,lcr_analytic,lcr_empirical"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["-6", "-4", "-2", "0"]
    assert all(float(ln.split(",")[1]) > 0.0 for ln in lines[1:])
    rc, out, _ = run(capsys, ["stats", "lcr", "--map", str(built_map),
                              "--at", "2,2,1.5", "--seed", "0",
                              "--levels=-12,-3", "--duration", "0.25",
                              "--ensemble", "8"])
    assert rc == 0
    assert len(out.strip().splitlines()) == 3


def test_levels_parser():
    assert _levels("-20:10:10") == [-20.0, -10.0, 0.0, 10.0]
    assert _levels("1,2.5") == [1.0, 2.5]
    assert _levels("0:0.5:1") == [0.0, 0.5, 1.0]
    with pytest.raises(Exception):
        _levels("5:-1:0")
    with pytest.raises(Exception):
        _levels("1:2")


def test_bench_metrics(workdir, capsys):
    rc, out, err = run(capsys, [
        "bench", "--scene", str(workdir / "room.scene"), "--tx", TX,
        "--points", str(workdir / "points.csv"), "--max-order", "1",
        "--rebuilds", "2", "--updates", "3"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "metric,samples,value"
    metrics = [ln.split(",")[0] for ln in lines[1:]]
    assert metrics == ["build_total", "rebuild_median", "update_median",
                       "update_over_rebuild"]
    assert float(lines[-1].split(",")[2]) > 0.0
    assert "facets=6" in err


def test_exit_codes(built_map, workdir, capsys):
    # missing file -> handled error
    rc, _, err = run(capsys, ["query", "--map", str(workdir / "nope.dcm"),
                              "--at", "0,0,0"])
    assert rc == 1 and err.startswith("error:")
    # malformed flag value / unknown flag / missing required -> argparse exit 2
    with pytest.raises(SystemExit) as exc:
        main(["query", "--map", str(built_map), "--at", "1,2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["update", "--map", str(built_map), "--at", "2,2,1.5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["query", "--map", str(built_map), "--at", "2,2,1.5", "--frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_help_lists_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("build", "query", "update", "simulate", "stats", "bench"):
        assert name in out


def test_points_file_validation(workdir, capsys):
    bad = workdir / "bad_points.csv"
    bad.write_text("1,2\n")
    rc, _, err = run(capsys, [
        "build", "--scene", str(workdir / "room.scene"), "--tx", TX,
        "--points", str(bad), "--out", str(workdir / "x.dcm")])
    assert rc == 1 and "expected x,y,z" in err
    empty = workdir / "empty_points.csv"
    empty.write_text("# nothing\n")
    rc, _, err = run(capsys, [
        "build", "--scene", str(workdir / "room.scene"), "--tx", TX,
        "--points", str(empty), "--out", str(workdir / "x.dcm")])
    assert rc == 1 and "no locations" in err
