"""Contract tests for the command-line front end."""
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from primerace import cli
from primerace.cli import RunConfig, UsageError, checkpoint_name, main


def parse(argv):
    return cli.build_parser().parse_args(argv)


def config_of(argv):
    return cli._config_from(parse(argv))


class TestRunConfig:
    def test_defaults(self):
        cfg = config_of(["bias"])
        assert (cfg.q, cfg.a, cfg.b) == (4, 3, 1)
        assert cfg.h == 0.01
        assert cfg.threads == 1
        assert cfg.finite_size is True

    @pytest.mark.parametrize("argv,fragment", [
        (["bias", "--q", "2"], "at least 3"),
        (["bias", "--a", "2"], "units"),
        (["bias", "--a", "3", "--b", "3"], "distinct"),
        (["bias", "--a", "7", "--b", "3"], "distinct"),  # 7 = 3 mod 4
        (["bias", "--xmax", "99"], "at least 100"),
        (["bias", "--grid-h", "0.2"], "(0, 0.1]"),
        (["bias", "--grid-h", "0"], "(0, 0.1]"),
        (["bias", "--eps", "-1"], "positive"),
        (["bias", "--K", "0.5"], "exceed 1"),
        (["bias", "--tail-fraction", "0.9"], "(0, 0.5]"),
        (["moments", "--k", "0,1"], "1..6"),
        (["moments", "--k", "7"], "1..6"),
        (["delta", "--T", "-5"], "positive"),
        (["bias", "--threads", "0"], "positive"),
        (["bias", "--xmax", "nan"], "at least 100"),
        (["bias", "--xmax", "inf"], "at least 100"),
        (["bias", "--grid-h", "nan"], "(0, 0.1]"),
        (["bias", "--eps", "nan"], "positive"),
        (["bias", "--eps", "inf"], "finite"),
        (["bias", "--K", "nan"], "exceed 1"),
        (["bias", "--K", "inf"], "finite"),
        (["bias", "--tail-fraction", "inf"], "(0, 0.5]"),
        (["delta", "--T", "nan"], "positive"),
        (["delta", "--T", "10,inf"], "finite"),
        (["bias", "--T", "abc"], "argument --T: 'abc' is not a number"),
        (["moments", "--k", "1,x2"], "argument --k: 'x2' is not an integer"),
    ])
    def test_validation_messages(self, argv, fragment, capsys):
        assert main([*argv, "--dry-run"]) == 2
        assert fragment in capsys.readouterr().err

    def test_threads_env_fallback(self, monkeypatch):
        monkeypatch.setenv("PRL_THREADS", "7")
        assert config_of(["bias"]).threads == 7
        assert config_of(["bias", "--threads", "2"]).threads == 2
        monkeypatch.setenv("PRL_THREADS", "not-a-number")
        assert config_of(["bias", "--threads", "2"]).threads == 2
        with pytest.raises(UsageError, match="PRL_THREADS"):
            config_of(["bias"])

    def test_mchi_flag_parsing(self):
        cfg = config_of(["bias", "--mchi", "4.1=1", "--mchi", "4.0=2"])
        assert cfg.mchi == {"4.1": 1, "4.0": 2}
        with pytest.raises(UsageError, match="LABEL=ORDER"):
            config_of(["bias", "--mchi", "4.1"])
        with pytest.raises(UsageError, match="nonnegative"):
            config_of(["bias", "--mchi", "4.1=-1"])


class TestConfigFile:
    def write(self, tmp_path, text):
        path = tmp_path / "run.conf"
        path.write_text(text)
        return str(path)

    def test_file_values_and_flag_override(self, tmp_path):
        path = self.write(tmp_path, """
            # race setup
            q = 5
            a = 2
            b = 3
            xmax = 2000      # inline comment
            grid-h = 0.02
            raw = true
            T = 10,20
            mchi = 5.1=1, 5.2=0
        """)
        cfg = config_of(["bias", "--config", path])
        assert (cfg.q, cfg.a, cfg.b) == (5, 2, 3)
        assert cfg.x_max == 2000.0
        assert cfg.h == 0.02
        assert cfg.finite_size is False
        assert cfg.T_values == (10.0, 20.0)
        assert cfg.mchi == {"5.1": 1, "5.2": 0}
        # flags win over the file
        override = config_of(["bias", "--config", path, "--xmax", "5000"])
        assert override.x_max == 5000.0

    def test_unknown_key_rejected(self, tmp_path):
        path = self.write(tmp_path, "qq = 4\n")
        with pytest.raises(UsageError, match="unknown config key"):
            config_of(["bias", "--config", path])

    def test_malformed_line_rejected(self, tmp_path):
        path = self.write(tmp_path, "just words\n")
        with pytest.raises(UsageError, match="expected key=value"):
            config_of(["bias", "--config", path])

    def test_missing_file(self):
        with pytest.raises(UsageError, match="cannot read config file"):
            config_of(["bias", "--config", "/nonexistent/run.conf"])

    # one value per option row that differs from the default and that bias accepts
    SAMPLES = {"q": "5", "a": "7", "b": "5", "xmax": "2000", "grid-h": "0.02",
               "zeros": "zeros.txt", "chi": "4.1", "eps": "0.25", "K": "3.5",
               "tail-fraction": "0.3", "T": "10,20", "k": "1,2", "threads": "2",
               "segment-odds": "4096", "out": "reports"}

    def test_every_option_row_has_one_field(self):
        names = sorted(name for _, name, _, _ in cli._OPTIONS)
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert names == sorted(fields - {"mchi", "resume", "finite_size"})
        assert sorted(self.SAMPLES) == sorted(key for key, *_ in cli._OPTIONS)

    @pytest.mark.parametrize("key", [key for key, *_ in cli._OPTIONS])
    def test_flag_and_file_key_agree(self, tmp_path, monkeypatch, key):
        monkeypatch.delenv("PRL_THREADS", raising=False)
        value = self.SAMPLES[key]
        from_flag = config_of(["bias", f"--{key}", value])
        from_file = config_of(["bias", "--config", self.write(tmp_path, f"{key} = {value}\n")])
        assert from_flag == from_file != RunConfig()

    @pytest.mark.parametrize("key,value", [("q", "abc"), ("xmax", "1e4x"), ("T", "10,x")])
    def test_malformed_value_exits_two(self, tmp_path, capsys, key, value):
        path = self.write(tmp_path, f"{key} = {value}\n")
        assert main(["bias", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key {key!r}")
        assert "Traceback" not in err


class TestUsageExits:
    def test_distinct_classes_required(self, capsys):
        assert main(["bias", "--a", "3", "--b", "3", "--xmax", "1000"]) == 2
        assert "distinct" in capsys.readouterr().err

    def test_race_classes_checked_only_where_raced(self, capsys):
        assert main(["euler", "--q", "105", "--chi", "105.1", "--dry-run"]) == 0
        assert main(["zeros-validate", "--q", "6", "--dry-run"]) == 0
        capsys.readouterr()
        assert main(["bias", "--q", "105", "--dry-run"]) == 2
        assert "race classes must be units mod 105" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["zeros-validate", "--q", "4", "--xmax", "50"],
        ["zeros-validate", "--threads", "0"],
        ["euler", "--k", "7"],
    ])
    def test_settings_checked_only_where_read(self, argv, capsys):
        assert main(argv + ["--dry-run"]) == 0

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_xmax_exits_two_under_dry_run(self, value, capsys):
        assert main(["bias", "--xmax", value, "--dry-run"]) == 2
        assert "at least 100" in capsys.readouterr().err

    def test_missing_subcommand(self):
        assert main([]) == 2

    def test_delta_needs_zeros(self, tmp_path, capsys):
        rc = main(["delta", "--xmax", "1000", "--out", str(tmp_path)])
        assert rc == 2
        assert "zero dataset" in capsys.readouterr().err

    def test_euler_rejects_principal(self, tmp_path, capsys):
        rc = main(["euler", "--xmax", "1000", "--chi", "4.0", "--out", str(tmp_path)])
        assert rc == 2
        assert "principal" in capsys.readouterr().err

    def test_euler_rejects_foreign_modulus(self, tmp_path, capsys):
        rc = main(["euler", "--xmax", "1000", "--chi", "8.1", "--out", str(tmp_path)])
        assert rc == 2
        assert "mod 4" in capsys.readouterr().err


class TestReportConfig:
    def test_euler_report_ignores_race_classes(self, tmp_path):
        docs = []
        for a in ("3", "7"):
            out = tmp_path / a
            assert main(["euler", "--chi", "4.1", "--xmax", "1000", "--a", a,
                         "--out", str(out)]) == 0
            docs.append((out / "euler_fit.json").read_bytes())
        assert docs[0] == docs[1]
        config = json.loads(docs[0])["config"]
        assert not {"a", "b", "T", "k"} & config.keys()
        assert config["chi"] == "4.1"

    def test_bias_report_keeps_race_classes(self, bias_dir):
        config = json.loads((bias_dir / "bias_fit.json").read_text())["config"]
        assert (config["a"], config["b"]) == (3, 1)
        assert not {"chi", "T", "k", "zeros"} & config.keys()


class TestDryRun:
    def test_prints_plan_and_touches_nothing(self, tmp_path, capsys):
        out = tmp_path / "never"
        rc = main(["bias", "--xmax", "1000", "--out", str(out), "--dry-run"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "plan: bias" in text
        assert "bias_fit.json" in text
        assert not out.exists()

    @pytest.mark.parametrize("dry_run", [True, False], ids=["dry-run", "run"])
    def test_resume_without_a_checkpoint_exits_two(self, tmp_path, capsys, dry_run):
        argv = ["bias", "--xmax", "1e4", "--out", str(tmp_path), "--resume"]
        assert main(argv + ["--dry-run"] * dry_run) == 2
        captured = capsys.readouterr()
        meta = (tmp_path / checkpoint_name(RunConfig(x_max=1e4))).with_suffix(".meta.json")
        assert f"no sidecar at {meta} to resume from" in captured.err
        assert captured.out == ""
        assert not any(tmp_path.iterdir())

    def test_resume_of_a_mismatched_checkpoint_exits_one(self, tmp_path, capsys):
        assert main(["bias", "--xmax", "1e4", "--segment-odds", "4096", "--out", str(tmp_path)]) == 0
        assert main(["bias", "--xmax", "1e4", "--resume", "--dry-run", "--out", str(tmp_path)]) == 0
        assert "(resume)" in capsys.readouterr().out
        assert main(["bias", "--xmax", "1e4", "--resume", "--out", str(tmp_path)]) == 1
        assert "does not match the requested configuration" in capsys.readouterr().err


@pytest.fixture(scope="module")
def bias_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("bias_out")
    rc = main(["bias", "--xmax", "30000", "--segment-odds", "4096",
               "--out", str(out)])
    assert rc == 0
    return out


class TestBiasOutputs:
    def test_files_exist(self, bias_dir):
        for name in ["bias_series.csv", "bias_fit.json",
                     "bias_envelope.json", "bias_race.json"]:
            assert (bias_dir / name).exists()
        assert (bias_dir / "checkpoints_q4_h0.01_x30000.csv").exists()

    def test_series_head(self, bias_dir):
        lines = (bias_dir / "bias_series.csv").read_text().splitlines()
        assert lines[0] == "x,y,D,delta"
        first = lines[1].split(",")
        assert float(first[0]) == 2.0
        assert float(first[2]) == 0.0
        assert float(first[3]) == -1.0

    def test_fit_json_structure(self, bias_dir):
        doc = json.loads((bias_dir / "bias_fit.json").read_text())
        assert doc["M"] == {"im": 0.0, "re": -0.5}
        assert set(doc["fits"]) == {"pointwise-tail", "via-L", "mean"}
        assert isinstance(doc["spread"], float)
        assert doc["fits"]["via-L"]["L_hat"].keys() == {"im", "re"}

    def test_envelope_json_structure(self, bias_dir):
        doc = json.loads((bias_dir / "bias_envelope.json").read_text())
        for key in ["theorem_main", "log_envelope"]:
            report = doc[key]
            assert 0.0 <= report["natural_estimate"] <= 1.0
            assert 0.0 <= report["logarithmic_estimate"] <= 1.0
            assert report["blocks"]
        assert doc["K"] > 1.0

    def test_race_json_windows(self, bias_dir):
        doc = json.loads((bias_dir / "bias_race.json").read_text())
        assert set(doc["windows"]) == {"from_2", "from_1000"}
        # mod-4 race: class 3 leads essentially everywhere at this scale
        assert doc["windows"]["from_1000"]["natural_estimate"] > 0.95

    def test_no_volatile_content(self, bias_dir):
        for name in ["bias_fit.json", "bias_envelope.json", "bias_race.json"]:
            text = (bias_dir / name).read_text()
            for forbidden in ["threads", "time", "seconds", str(bias_dir)]:
                assert forbidden not in text


class TestDeterminismAndResume:
    ARGS = ["bias", "--xmax", "25000", "--segment-odds", "2048"]

    def run_into(self, out, extra=()):
        rc = main(self.ARGS + ["--out", str(out)] + list(extra))
        assert rc == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def test_thread_count_invisible(self, tmp_path):
        one = self.run_into(tmp_path / "one", ["--threads", "1"])
        four = self.run_into(tmp_path / "four", ["--threads", "4"])
        assert one.keys() == four.keys()
        for name in one:
            assert one[name] == four[name], f"{name} differs between thread counts"

    def test_resume_of_finished_run_is_identical(self, tmp_path):
        out = tmp_path / "run"
        first = self.run_into(out)
        second = self.run_into(out, ["--resume"])
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} changed on resume"

    @pytest.mark.parametrize("command", ["bias", "moments"])
    def test_checkpoint_that_lost_rows_is_refused(self, tmp_path, capsys, command):
        # a complete sidecar over a CSV cut short: the resume names the CSV
        # and both counts instead of failing later inside the analysis
        assert main(["bias", "--xmax", "1e5", "--out", str(tmp_path)]) == 0
        csv = tmp_path / checkpoint_name(RunConfig(x_max=1e5))
        rows = len(csv.read_text().splitlines()) - 1
        csv.write_text("".join(csv.read_text().splitlines(keepends=True)[:500]))
        rc = main([command, "--xmax", "1e5", "--resume", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{csv} holds 499 rows" in err
        assert f"records {rows} for a grid of {rows} points" in err


def cell_text(value) -> str:
    """One report cell as the per-cell writer formatted it."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


class TestReportCsv:
    """The column-wise writer gives the per-cell text, row for row."""

    SPECIAL = [-0.0, 5e-324, 1e-5, 1e16, math.nan, math.inf, -math.inf, 0.1, -2.5, 1.0]

    def written(self, tmp_path, columns):
        header = [f"c{i}" for i in range(len(columns))]
        path = cli._Emitter(str(tmp_path)).csv("t.csv", header, columns)
        want = "".join(",".join(map(cell_text, row)) + "\n" for row in zip(*columns))
        assert path.read_text() == ",".join(header) + "\n" + want
        return path.read_text().splitlines()

    def test_integer_columns(self, tmp_path):
        big = np.iinfo(np.int64)
        lines = self.written(tmp_path, [np.array([0, -7, big.max, big.min], dtype=np.int64),
                                        np.arange(4, dtype=np.uint8)])
        assert lines[1:] == ["0,0", "-7,1", f"{big.max},2", f"{big.min},3"]

    def test_float_columns(self, tmp_path):
        lines = self.written(tmp_path, [np.array(self.SPECIAL), np.array(self.SPECIAL[::-1])])
        assert lines[1] == "-0.0,1.0"
        assert [line.split(",")[0] for line in lines[2:7]] == ["5e-324", "1e-05", "1e+16", "nan", "inf"]

    def test_bool_columns_are_written_as_doubles(self, tmp_path):
        lines = self.written(tmp_path, [np.array([True, False]), np.array([3, 4])])
        assert lines[1:] == ["1.0,3", "0.0,4"]

    def test_unequal_columns_stop_at_the_shortest(self, tmp_path):
        # more rows than one formatted block, so a block boundary is crossed
        n = 3 * cli._CSV_BLOCK + 5
        rng = np.random.default_rng(3)
        columns = [rng.normal(size=n + 9), np.arange(n + 1), rng.normal(size=n)]
        assert len(self.written(tmp_path, columns)) == n + 1
        assert len(self.written(tmp_path, [np.arange(5), np.arange(0.0)])) == 1
        assert self.written(tmp_path, []) == [""]


class TestFailureCleanup:
    def test_reports_removed_checkpoints_kept(self, tmp_path, monkeypatch, capsys):
        real = cli._Emitter.json

        def explode(self, name, payload):
            if name == "bias_envelope.json":
                raise RuntimeError("simulated write failure")
            return real(self, name, payload)

        monkeypatch.setattr(cli._Emitter, "json", explode)
        rc = main(["bias", "--xmax", "1000", "--out", str(tmp_path)])
        assert rc == 1
        assert "simulated write failure" in capsys.readouterr().err
        assert not (tmp_path / "bias_series.csv").exists()
        assert not (tmp_path / "bias_fit.json").exists()
        cfg = RunConfig(x_max=1000.0)
        assert (tmp_path / checkpoint_name(cfg)).exists()
        assert (tmp_path / checkpoint_name(cfg)).with_suffix(".meta.json").exists()


class TestEulerCommand:
    def test_outputs(self, tmp_path):
        rc = main(["euler", "--xmax", "20000", "--segment-odds", "4096",
                   "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "euler_series.csv").read_text().splitlines()
        assert lines[0] == "x,y,F_re,F_im"
        first = lines[1].split(",")
        # empty product at x=2 with m=0
        assert float(first[2]) == 1.0
        assert float(first[3]) == 0.0
        doc = json.loads((tmp_path / "euler_fit.json").read_text())
        assert doc["character"] == "4.1"
        assert doc["m_chi"] == 0
        assert abs(doc["ell_hat"]["re"] - 0.944) < 0.1
        assert doc["density"]["flags"] == []

    def test_mchi_override_recorded(self, tmp_path):
        rc = main(["euler", "--xmax", "1000", "--mchi", "4.1=1",
                   "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "euler_fit.json").read_text())
        assert doc["m_chi"] == 1


class TestDeltaCommand:
    def zeros_file(self, tmp_path, body):
        path = tmp_path / "zeros.txt"
        path.write_text(body)
        return str(path)

    def test_two_heights_two_column_pairs(self, tmp_path):
        zf = self.zeros_file(tmp_path, "modulus 4\n4.1 6.02 1\n4.1 10.24 1\n")
        rc = main(["delta", "--xmax", "20000", "--segment-odds", "4096",
                   "--zeros", zf, "--T", "7,12", "--out", str(tmp_path)])
        assert rc == 0
        header = (tmp_path / "delta_zero_sum.csv").read_text().splitlines()[0]
        assert header == "x,y,delta_T7_re,delta_T7_im,delta_T12_re,delta_T12_im"
        doc = json.loads((tmp_path / "delta_rms.json").read_text())
        assert [row["T"] for row in doc["rms"]] == [7.0, 12.0]
        assert doc["rms_nonincreasing"] in (True, False)

    def test_empty_dataset_warns_and_zeroes(self, tmp_path):
        zf = self.zeros_file(tmp_path, "modulus 4\n")
        rc = main(["delta", "--xmax", "1000", "--zeros", zf,
                   "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "delta_rms.json").read_text())
        assert any("empty" in w or "zero" in w for w in doc["warnings"])
        rows = (tmp_path / "delta_zero_sum.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[2]) == 0.0 for r in rows)

    def test_malformed_dataset_fails_cleanly(self, tmp_path, capsys):
        zf = self.zeros_file(tmp_path, "modulus 4\n4.1 -3.0 1\n")
        rc = main(["delta", "--xmax", "1000", "--zeros", zf,
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "zeros.txt:2" in capsys.readouterr().err
        assert not (tmp_path / "delta_rms.json").exists()


class TestMomentsCommand:
    def test_outputs(self, tmp_path):
        rc = main(["moments", "--xmax", "20000", "--segment-odds", "4096",
                   "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "moments.csv").read_text().splitlines()
        assert lines[0] == "k,Y,moment,moment_root"
        assert len(lines) == 4
        doc = json.loads((tmp_path / "moments_fit.json").read_text())
        assert doc["C_fit"] > 0
        assert [row["k"] for row in doc["rows"]] == [1, 2, 3]


class TestMeanCommand:
    def test_outputs(self, tmp_path):
        rc = main(["mean", "--xmax", "20000", "--segment-odds", "4096",
                   "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "mean_trace.csv").read_text().splitlines()
        assert lines[0] == "x,y,mean"
        assert float(lines[1].split(",")[2]) == 0.0
        doc = json.loads((tmp_path / "mean_fit.json").read_text())
        assert "fit" in doc and "fit_raw" in doc
        assert doc["fit"]["method"] == "mean"
        assert doc["mean_at_end"] > 0  # class 3 leads on average


class TestZerosValidate:
    def test_summary(self, tmp_path):
        zf = tmp_path / "z.txt"
        zf.write_text("modulus 4\nmchi 4.1 0\n4.1 6.02 1\n4.1 10.24 2\n")
        rc = main(["zeros-validate", "--zeros", str(zf), "--out", str(tmp_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "zeros_summary.json").read_text())
        assert doc["modulus"] == 4
        assert doc["entries"] == 2
        assert doc["labels"]["4.1"]["count"] == 2
        assert doc["labels"]["4.1"]["height"] == 10.24

    def test_malformed_exits_one(self, tmp_path, capsys):
        zf = tmp_path / "z.txt"
        zf.write_text("modulus 8\n")
        rc = main(["zeros-validate", "--zeros", str(zf), "--q", "4",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "modulus" in capsys.readouterr().err
