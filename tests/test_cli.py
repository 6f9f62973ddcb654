"""End-to-end command line behavior: exit codes, CSV shapes, determinism."""

import argparse
import json
import os
import re
import subprocess
import sys

import pytest

import dcmkit
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
        "nan frequency": re.sub(r"\nfrequency=\S+", "\nfrequency=nan", text, count=1),
        "negative max_order": re.sub(r"\nmax_order=\S+", "\nmax_order=-3", text, count=1),
        "nan gbsm float": re.sub(r"\ncluster_speed=\S+", "\ncluster_speed=nan", text,
                                 count=1),
        "carrier mismatch": re.sub(r"\ncarrier_frequency=\S+", "\ncarrier_frequency=28e9",
                                   text, count=1),
        # only los and refl:<n>, n >= 1, are static path kinds
        "dynamic kind": text.replace("kind=refl:1", "kind=dyn:2:7", 1),
        "non-ASCII byte": text.replace("\nscene=", "\nscene=caf\u00e9", 1),
    }
    for label, bad_text in cases.items():
        bad = workdir / "bad.dcm"
        bad.write_text(bad_text)
        rc, _, err = run(capsys, ["update", "--map", str(bad), "--at", "2,2,1.5",
                                  "--seed", "1"])
        assert rc == 1, label
        assert err.startswith("error: line ") and "Traceback" not in err, label
        if label == "non-ASCII byte":  # the first byte of the UTF-8 e-acute
            assert err == "error: line 5: non-ASCII byte 0xc3\n"


def test_bad_config_override_exits_one(built_map, workdir, capsys):
    cases = {
        '{"carrier_frequency": 28e9}': "carrier_frequency=28000000000.0 differs "
                                       "from the map frequency=5500000000.0",
        '{"cluster_speed": NaN}': "cluster_speed must be finite",
    }
    for text, message in cases.items():
        cfg = workdir / "override.json"
        cfg.write_text(text)
        for cmd in (["update"], ["simulate"], ["stats", "fcf"]):
            rc, out, err = run(capsys, [*cmd, "--map", str(built_map), "--at", "2,2,1.5",
                                        "--seed", "1", "--config", str(cfg)])
            assert rc == 1 and out == "", (text, cmd)
            assert err.startswith("error: ") and message in err, (text, cmd)
            assert "Traceback" not in err, (text, cmd)


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


def test_zero_time_step_is_refused(built_map, capsys):
    for argv in (["simulate"], ["stats", "lcr"], ["stats", "doppler-spread-cdf"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--map", str(built_map), "--at", "2,2,1.5",
                  "--seed", "0", "--dt", "0"])
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert "argument --dt: expected a finite number > 0" in err, argv
        assert "Traceback" not in err


def test_levels_parser():
    assert _levels("-20:10:10") == [-20.0, -10.0, 0.0, 10.0]
    assert _levels("1,2.5") == [1.0, 2.5]
    assert _levels("0:0.5:1") == [0.0, 0.5, 1.0]
    with pytest.raises(Exception):
        _levels("5:-1:0")
    with pytest.raises(Exception):
        _levels("1:2")
    with pytest.raises(argparse.ArgumentTypeError, match="too many levels"):
        _levels("0:1e-310:1e10")


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
    assert rc == 1 and "bad_points.csv:1: expected 3 finite comma-separated" in err
    accented = workdir / "accented_points.csv"
    accented.write_bytes("2,2,1.5\n2.5,2,1.5\n# caf\u00e9\n".encode("utf-8"))
    rc, _, err = run(capsys, [
        "build", "--scene", str(workdir / "room.scene"), "--tx", TX,
        "--points", str(accented), "--out", str(workdir / "x.dcm")])
    assert (rc, err) == (1, f"error: {accented}:3: non-ASCII byte 0xc3\n")
    empty = workdir / "empty_points.csv"
    empty.write_text("# nothing\n")
    rc, _, err = run(capsys, [
        "build", "--scene", str(workdir / "room.scene"), "--tx", TX,
        "--points", str(empty), "--out", str(workdir / "x.dcm")])
    assert rc == 1 and "no locations" in err
    # a repeated point would collapse into one record
    twice = workdir / "twice_points.csv"
    twice.write_text("2,2,1.5\n2.5,2,1.5\n2,2,1.5\n")
    rc, out, err = run(capsys, [
        "build", "--scene", str(workdir / "room.scene"), "--tx", TX,
        "--points", str(twice), "--out", str(workdir / "x.dcm")])
    assert (rc, out) == (1, "")
    assert err == "error: receiver location 2.0,2.0,1.5 is given twice\n"


def test_cli_import_loads_only_what_update_and_query_run():
    """A cold `import dcmkit.cli` loads none of the modules that only other
    commands use, and the statistics names still bind on a star import."""
    src = os.path.dirname(os.path.dirname(dcmkit.__file__))
    skipped = ("scipy", "dcmkit.stats", "concurrent.futures.process",
               "multiprocessing", "hashlib", "json")
    probe = ("import sys, dcmkit.cli\n"
             f"skipped = tuple(m + '.' for m in {skipped!r})\n"
             "print(sorted(m for m in sys.modules if (m + '.').startswith(skipped)))\n"
             "names = {}\n"
             "exec('from dcmkit import *', names)\n"
             "print(sorted(set(dcmkit.__all__) - set(names)))\n")
    proc = subprocess.run([sys.executable, "-c", probe],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout == "[]\n[]\n"


def test_stats_fcf_rejects_powerless_reflections(built_map, workdir, capsys):
    text = re.sub(r"(mpc kind=refl\S* delay=\S+ power=)\S+", r"\g<1>0.0",
                  built_map.read_text())
    bad = workdir / "dark.dcm"
    bad.write_text(text)
    for cmd in (["stats", "fcf", "--df-count", "4", "--ensemble", "2"], ["update"]):
        rc, out, err = run(capsys, [*cmd, "--map", str(bad), "--at", "2,2,1.5",
                                    "--seed", "1"])
        assert rc == 1 and out == "", cmd
        assert err == "error: static reflected paths carry no power\n", cmd



def test_query_prints_minus_inf_for_a_path_of_zero_power(built_map, workdir, capsys):
    """Zero power is a valid map value: query prints it as -inf dB."""
    text = re.sub(r"(mpc kind=refl\S* delay=\S+ power=)\S+", r"\g<1>0.0",
                  built_map.read_text(), count=1)
    dim = workdir / "dim.dcm"
    dim.write_text(text)
    at = ["--map", str(dim), "--at", "2,2,1.5"]
    rc, out, err = run(capsys, ["query", *at])
    assert (rc, err) == (0, "")
    levels = [line.split(",")[2] for line in out.splitlines()[1:]]
    assert levels.count("-inf") == 1 and len(levels) == 7
    assert run(capsys, ["update", *at, "--seed", "1"])[0] == 0


def test_stats_fcf_rejects_a_second_los_line(built_map, workdir, capsys):
    lines = built_map.read_text().splitlines(keepends=True)
    first = lines.index("rx=2.0,2.0,1.5\n") + 3  # past ks= and kd=
    assert lines[first].startswith("mpc kind=los ")
    bad = workdir / "two_los.dcm"
    bad.write_text("".join(lines[:first + 1] + lines[first:]))
    for cmd in (["stats", "fcf", "--df-count", "4", "--ensemble", "2"], ["update"]):
        rc, out, err = run(capsys, [*cmd, "--map", str(bad), "--at", "2,2,1.5",
                                    "--seed", "1"])
        assert rc == 1 and out == "", cmd
        assert err == (f"error: line {first + 2}: "
                       "expected at most one line-of-sight path, got 2\n"), cmd


@pytest.mark.parametrize("cmd,option,value,message", [
    ("build", "--ks-db", "1e6", "argument --ks-db: 1e6 dB is out of range"),
    ("build", "--ks-db", "-4000", "argument --ks-db: -4000 dB is out of range"),
    # 10**-309.5 is > 0, but its reciprocal overflows
    ("build", "--ks-db", "-3095", "argument --ks-db: -3095 dB is out of range"),
    ("build", "--kd-db", "1e6", "argument --kd-db: 1e6 dB is out of range"),
    ("build", "--shape", "2.7,1,1", "argument --shape: expected three integers >= 1"),
    ("build", "--shape", "0,1,1", "argument --shape: expected three integers >= 1"),
    ("bench", "--shape", "2.7,1,1", "argument --shape: expected three integers >= 1"),
    ("bench", "--shape", "0,1,1", "argument --shape: expected three integers >= 1"),
    # a count of zero timed nothing and printed nan rows; -1 dropped a location
    ("bench", "--rebuilds", "0", "argument --rebuilds: expected an integer >= 1"),
    ("bench", "--rebuilds", "-1", "argument --rebuilds: expected an integer >= 1"),
    ("bench", "--updates", "0", "argument --updates: expected an integer >= 1"),
    ("bench", "--updates", "1.5", "argument --updates: expected an integer >= 1"),
    ("build", "--max-order", "-1", "argument --max-order: expected an integer >= 0"),
    ("bench", "--max-order", "-1", "argument --max-order: expected an integer >= 0"),
])
def test_build_options_out_of_range_are_usage_errors(workdir, capsys, cmd, option,
                                                     value, message):
    argv = [cmd, "--scene", str(workdir / "room.scene"), "--tx", TX,
            "--origin", "2,2,1.5", "--shape", "1,1,1", "--spacing", "0.5",
            "--max-order", "1", f"{option}={value}"]
    if cmd == "build":
        argv += ["--out", str(workdir / "range.dcm")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (workdir / "range.dcm").exists()


# The scene, map and points readers share one grammar (scene._fields and
# scene._floats): each key at most once, only known keys, every number
# finite, the expected count of comma-separated numbers.  Each row feeds one
# reader one defect; the reader names the line.  A repeated scene key and a
# non-finite mpc value were rejected before the grammar was shared, and
# test_scene.py / test_dcm.py cover them.
SCENE = ("[material] name=m eps_r=2.0 sigma=0.0\n"
         "[facet] material=m v=0,0,0;1,0,0;0,1,0\n")
MAP = ("DCMv2\n[map]\nfrequency=5.5e9\nmax_order=1\nscene=abc\n[gbsm]\n"
       "[record]\ntx=0,0,0\nrx=1,0,0\nks=2\nkd=4\n"
       "mpc kind=los delay=1e-07 power=1.88e-09 aod=0,0 aoa=0,0 "
       "phases=0,0,0,0 xpr=inf\n")
POINTS = "2,2,1.5\n2.5,2,1.5\n"
GRAMMAR_CASES = [
    # reader, defect, base text, (old, new), error location, message
    ("scene", "unknown key", SCENE, ("sigma=0.0", "sigma=0.0 colour=red"),
     1, "unknown field 'colour'"),
    ("scene", "non-finite", SCENE, ("eps_r=2.0", "eps_r=nan"),
     1, "expected a finite number, got 'nan'"),
    ("scene", "non-finite vertex", SCENE, ("1,0,0;", "1,inf,0;"),
     2, "expected 3 finite comma-separated numbers, got '1,inf,0'"),
    ("scene", "wrong count", SCENE, (";0,1,0", ";0,1"),
     2, "expected 3 finite comma-separated numbers, got '0,1'"),
    ("mpc", "repeated key", MAP, ("xpr=inf", "xpr=inf delay=2e-07"),
     12, "duplicate field 'delay'"),
    ("mpc", "unknown key", MAP, ("xpr=inf", "xpr=inf gain=3"),
     12, "unknown field 'gain'"),
    ("mpc", "wrong count", MAP, ("phases=0,0,0,0", "phases=0,0"),
     12, "expected 4 finite comma-separated numbers, got '0,0'"),
    ("header", "repeated key", MAP, ("scene=abc\n", "scene=abc\nfrequency=28e9\n"),
     6, "duplicate field 'frequency'"),
    ("header", "unknown key", MAP, ("scene=abc\n", "scene=abc\nowner=me\n"),
     6, "unknown field 'owner'"),
    ("gbsm", "repeated key", MAP, ("[gbsm]\n", "[gbsm]\nseed=1\nseed=2\n"),
     8, "duplicate field 'seed'"),
    ("gbsm", "unknown key", MAP, ("[gbsm]\n", "[gbsm]\nbogus_knob=3\n"),
     7, "unknown field 'bogus_knob'"),
    ("gbsm", "non-finite", MAP, ("[gbsm]\n", "[gbsm]\nanchor_range=nan,40\n"),
     7, "expected 2 finite comma-separated numbers, got 'nan,40'"),
    ("record", "repeated key", MAP, ("ks=2\n", "ks=2\nks=3\n"),
     11, "duplicate field 'ks'"),
    ("record", "unknown key", MAP, ("kd=4\n", "kd=4\nkf=3\n"),
     12, "unknown field 'kf'"),
    ("record", "wrong count", MAP, ("rx=1,0,0", "rx=1,0"),
     9, "expected 3 finite comma-separated numbers, got '1,0'"),
    ("points", "non-finite", POINTS, ("2.5,2,", "nan,2,"),
     2, "expected 3 finite comma-separated numbers, got 'nan,2,1.5'"),
    ("points", "wrong count", POINTS, ("2.5,2,1.5", "2.5,2"),
     2, "expected 3 finite comma-separated numbers, got '2.5,2'"),
    ("points", "not a number", POINTS, ("2,2,1.5", "2,x,1.5"),
     1, "expected 3 finite comma-separated numbers, got '2,x,1.5'"),
]


@pytest.mark.parametrize("reader,defect,base,edit,line,message", GRAMMAR_CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in GRAMMAR_CASES])
def test_readers_share_one_grammar(workdir, capsys, reader, defect, base, edit,
                                   line, message):
    assert edit[0] in base
    bad = workdir / f"grammar.{reader}"
    bad.write_text(base.replace(edit[0], edit[1], 1))
    scene, points = workdir / "room.scene", workdir / "points.csv"
    if reader == "scene":
        scene, where = bad, f"line {line}"
    elif reader == "points":
        points, where = bad, f"{bad}:{line}"
    else:
        where = f"line {line}"
    if reader in ("scene", "points"):
        argv = ["build", "--scene", str(scene), "--tx", TX, "--points", str(points),
                "--max-order", "1", "--out", str(workdir / "grammar.dcm")]
    else:
        argv = ["query", "--map", str(bad), "--at", "1,0,0"]
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (1, ""), err
    assert err == f"error: {where}: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (["update", "--at", "2,2,1.5", "--seed", "1", "--t", "nan"],
     "argument --t: expected a finite number, got 'nan'"),
    (["update", "--at", "2,nan,1.5", "--seed", "1"],
     "argument --at: expected 3 finite comma-separated numbers, got '2,nan,1.5'"),
    (["query", "--at", "2,2,1.5", "--tolerance", "inf"],
     "argument --tolerance: expected a finite number, got 'inf'"),
    (["simulate", "--at", "2,2,1.5", "--seed", "1", "--duration", "1e999"],
     "argument --duration: expected a finite number, got '1e999'"),
    (["stats", "fcf", "--at", "2,2,1.5", "--seed", "1", "--df-step", "x"],
     "argument --df-step: expected a finite number, got 'x'"),
    (["stats", "fcf", "--at", "2,2,1.5", "--seed", "1", "--df-count", "0"],
     "argument --df-count: expected an integer >= 1, got '0'"),
    (["stats", "delay-psd", "--at", "2,2,1.5", "--seed", "1", "--df-count", "0"],
     "argument --df-count: expected an integer >= 1, got '0'"),
    (["stats", "angular-spread-cdf", "--at", "2,2,1.5", "--seed", "1", "--n-lags", "0"],
     "argument --n-lags: expected an integer >= 1, got '0'"),
    (["stats", "angular-spread-cdf", "--at", "2,2,1.5", "--seed", "1", "--samples", "0"],
     "argument --samples: expected an integer >= 1, got '0'"),
    (["stats", "doppler-spread-cdf", "--at", "2,2,1.5", "--seed", "1", "--samples", "0"],
     "argument --samples: expected an integer >= 1, got '0'"),
    (["stats", "angular-spread-cdf", "--at", "2,2,1.5", "--seed", "1",
      "--rx-elements", "0"],
     "argument --rx-elements: expected an integer >= 1, got '0'"),
    (["stats", "fcf", "--at", "2,2,1.5", "--seed", "1", "--ensemble", "0"],
     "argument --ensemble: expected an integer >= 1, got '0'"),
    (["stats", "fcf", "--at", "2,2,1.5", "--seed", "1", "--ensemble", "-2"],
     "argument --ensemble: expected an integer >= 1, got '-2'"),
    (["stats", "delay-psd", "--at", "2,2,1.5", "--seed", "1", "--ensemble", "0"],
     "argument --ensemble: expected an integer >= 1, got '0'"),
    (["stats", "lcr", "--at", "2,2,1.5", "--seed", "1", "--ensemble", "0"],
     "argument --ensemble: expected an integer >= 1, got '0'"),
    (["simulate", "--at", "2,2,1.5", "--seed", "1", "--duration", "1e300",
      "--dt", "1e-300"],
     "--duration / --dt must be a finite number of steps, got 1e+300 / 1e-300"),
    (["stats", "lcr", "--at", "2,2,1.5", "--seed", "1", "--duration", "1e300",
      "--dt", "1e-300"],
     "--duration / --dt must be a finite number of steps, got 1e+300 / 1e-300"),
], ids=["t", "at", "tolerance", "duration", "df-step", "fcf-df-count", "psd-df-count",
        "n-lags", "angular-samples", "doppler-samples", "rx-elements",
        "fcf-ensemble", "fcf-ensemble-negative", "psd-ensemble", "lcr-ensemble",
        "simulate-steps", "lcr-steps"])
def test_bad_numeric_options_are_usage_errors(built_map, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--map", str(built_map)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
