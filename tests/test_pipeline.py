"""Pipeline stages, artifacts, gating exit codes, reports and the CLI."""

import json
import math
import os
import shutil

import pytest

from steerqrng import assemblage as asm
from steerqrng import certify as cert
from steerqrng import cli
from steerqrng import pipeline as pl
from steerqrng import simulate as sim


def fast_config(**experiment_overrides):
    """Small but physical configuration, a few seconds end to end."""
    experiment = dict(
        visibility=1.0,
        eta_alice=0.543,
        eta_bob=1.0,
        pair_rate=20_000,
        duration_rng=0.5,
        trials_certification=40_000,
        rng_seed=11,
    )
    experiment.update(experiment_overrides)
    return pl.PipelineConfig.from_dict({
        "format": pl.CONFIG_FORMAT,
        "experiment": experiment,
        "extraction": {"block_bits": 2000},
    })


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    """One full successful pipeline run shared by the read-only tests."""
    out = str(tmp_path_factory.mktemp("run"))
    config = fast_config()
    report = pl.run(config, out)
    return config, out, report


class TestConfig:
    def test_file_round_trip(self, tmp_path):
        config = fast_config()
        path = tmp_path / "config.json"
        config.to_file(str(path))
        again = pl.PipelineConfig.from_file(str(path))
        assert again == config

    def test_format_field_required(self):
        with pytest.raises(pl.ConfigError):
            pl.PipelineConfig.from_dict({"experiment": {}})

    def test_unknown_section_rejected(self):
        with pytest.raises(pl.ConfigError):
            pl.PipelineConfig.from_dict({"format": pl.CONFIG_FORMAT, "detector": {}})

    def test_unknown_keys_rejected_per_section(self):
        base = fast_config().to_dict()
        base["certification"]["bootstrap"] = 5
        with pytest.raises(pl.ConfigError):
            pl.PipelineConfig.from_dict(base)

    def test_validation_tolerance_key_rejected(self, tmp_path, capsys):
        """The assemblage validation tolerance is a constant of the
        certification code, not a config key."""
        self.assert_unknown_key(tmp_path, capsys, "validation_tolerance", 1e-9)

    def test_min_entropy_floor_key_rejected(self, tmp_path, capsys):
        """The min-entropy floor of the gate is pipeline.MIN_ENTROPY_FLOOR,
        not a config key."""
        self.assert_unknown_key(tmp_path, capsys, "min_entropy_floor", 1e-6)

    @staticmethod
    def assert_unknown_key(tmp_path, capsys, key, value):
        base = fast_config().to_dict()
        base["certification"][key] = value
        with pytest.raises(pl.ConfigError):
            pl.PipelineConfig.from_dict(base)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(base))
        out = str(tmp_path / "out")
        assert cli.main(["run", "-c", str(cfg_path), "-o", out]) == pl.EXIT_IO
        assert key in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("section, key", [
        ("experiment", "pair_rate"), ("experiment", "duration_rng"),
        ("experiment", "coincidence_window"), ("experiment", "timing_jitter"),
        ("experiment", "dark_rate"), ("experiment", "trials_certification"),
        ("certification", "resamples"),
        ("extraction", "block_bits"),
    ])
    def test_non_finite_value_rejected(self, tmp_path, capsys, section, key, value):
        """JSON configs may carry NaN and Infinity; each is a config error,
        reported on one line, before anything is simulated."""
        self.assert_rejected(tmp_path, capsys, section, key, value)

    @staticmethod
    def assert_rejected(tmp_path, capsys, section, key, value):
        base = fast_config().to_dict()
        base[section][key] = value
        with pytest.raises(pl.ConfigError, match=key):
            pl.PipelineConfig.from_dict(base)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(base))
        out = str(tmp_path / "out")
        assert cli.main(["run", "-c", str(cfg_path), "-o", out]) == pl.EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and key in err[0]
        assert not os.path.exists(out)

    @pytest.mark.parametrize("section, key, value", [
        ("experiment", "rng_seed", -1), ("extraction", "seed_rng", -1),
        ("certification", "bootstrap_seed", -2), ("extraction", "block_bits", 2000.5),
        ("certification", "resamples", 100.5), ("experiment", "rng_seed", 1.5),
        ("experiment", "pair_rate", "fast"), ("extraction", "epsilon", "small"),
        ("experiment", "trials_certification", 10000.5),
        ("experiment", "trials_certification", True), ("experiment", "visibility", True),
        ("experiment", "trials_certification", 0),
        ("certification", "resamples", 50), ("certification", "resamples", 1),
    ], ids=lambda v: str(v))
    def test_wrong_type_or_sign_rejected(self, tmp_path, capsys, section, key, value):
        """Integer fields take integers only (no floats, no bools), float
        fields take numbers, seeds are non-negative, and a bootstrap has at
        least MIN_RESAMPLES resamples: each violation is a config error
        reported on one line, before anything is simulated."""
        self.assert_rejected(tmp_path, capsys, section, key, value)

    def test_negative_seed_option_rejected(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert cli.main(["run", "-o", out, "--seed", "-1"]) == pl.EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "rng_seed" in err[0]
        assert not os.path.exists(out)

    def test_setting_validation(self):
        base = fast_config().to_dict()
        base["certification"]["x_star"] = "Y"
        with pytest.raises(pl.ConfigError):
            pl.PipelineConfig.from_dict(base)
        base = fast_config().to_dict()
        base["extraction"]["epsilon"] = 2.0
        with pytest.raises(pl.ConfigError):
            pl.PipelineConfig.from_dict(base)
        base = fast_config().to_dict()
        base["measurement"] = "tetrahedron"
        with pytest.raises(pl.ConfigError):
            pl.PipelineConfig.from_dict(base)

    def test_x_star_other_than_stream_setting_rejected(self, tmp_path, capsys):
        """x_star names no setting of its own: "auto" and the stream's
        rng_setting both certify rng_setting, and any other setting is a
        config error, reported on one line, before anything is simulated."""
        base = fast_config(rng_setting="Z").to_dict()
        for accepted in ("auto", "Z"):
            base["certification"]["x_star"] = accepted
            pl.PipelineConfig.from_dict(base)
        base["certification"]["x_star"] = "X"
        with pytest.raises(pl.ConfigError, match="x_star"):
            pl.PipelineConfig.from_dict(base)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(base))
        out = str(tmp_path / "out")
        assert cli.main(["run", "-c", str(cfg_path), "-o", out]) == pl.EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "x_star" in err[0]
        assert not os.path.exists(out)

    def test_missing_file_raises_stage_input_error(self):
        with pytest.raises(pl.StageInputError):
            pl.PipelineConfig.from_file("/nonexistent/config.json")

    def test_invalid_json_raises_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(pl.ConfigError):
            pl.PipelineConfig.from_file(str(path))


class TestFullRun:
    def test_successful_run_artifacts_and_report(self, completed_run):
        _, out, report = completed_run
        assert report.exit_code == pl.EXIT_OK
        assert report.pass_flag
        for name in (
            pl.COUNTS_FILE, pl.ALICE_TAGS_FILE, pl.BOB_TAGS_FILE, pl.RAW_BITS_FILE,
            pl.ASSEMBLAGE_FILE, pl.CERTIFICATION_FILE,
            pl.SEED_FILE, pl.EXTRACTED_FILE, pl.EXTRACTOR_REPORT_FILE,
            pl.REPORT_JSON, pl.REPORT_TEXT, pl.TIMINGS_FILE,
        ):
            assert os.path.exists(os.path.join(out, name)), name
        # the fit summary is written once, in report.json
        assert not os.path.exists(os.path.join(out, "tomography.json"))
        tomography = json.loads(read(os.path.join(out, pl.REPORT_JSON)))["tomography"]
        assert {"log_likelihood", "iterations", "converged",
                "start_log_likelihoods"} <= set(tomography)
        assert report.certification["h_min"] > 0.0
        assert report.certification["p_guess"] == pytest.approx(1.5 - 0.543, abs=5e-3)
        assert report.extraction["total_bits"] > 0

    def test_report_json_matches_returned_report(self, completed_run):
        _, out, report = completed_run
        on_disk = json.loads(read(os.path.join(out, pl.REPORT_JSON)))
        assert on_disk == report.to_dict()

    def test_reruns_byte_identical(self, tmp_path):
        config = fast_config()
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        pl.run(config, out_a)
        pl.run(config, out_b)
        for name in (
            pl.RAW_BITS_FILE, pl.EXTRACTED_FILE, pl.REPORT_JSON, pl.REPORT_TEXT,
            pl.COUNTS_FILE, pl.ASSEMBLAGE_FILE, pl.CERTIFICATION_FILE, pl.SEED_FILE,
        ):
            assert read(os.path.join(out_a, name)) == read(os.path.join(out_b, name)), name


    @pytest.mark.parametrize("setting", ["X", "Z"])
    def test_certifies_the_stream_setting(self, tmp_path, setting):
        # the singlet certifies X and Z alike, so no tie rule may pick X
        out = str(tmp_path / "run")
        report = pl.run(fast_config(rng_setting=setting), out)
        assert report.exit_code == pl.EXIT_OK
        on_disk = json.loads(read(os.path.join(out, pl.REPORT_JSON)))
        assert on_disk["certification"]["x_star"] == setting
        certificate = cert.load_certification(os.path.join(out, pl.CERTIFICATION_FILE))
        assert certificate.x_star == setting


def assert_same_artifacts(out, expected):
    """Both run directories hold the same files, byte for byte, apart from
    the wall-clock timings."""
    names = sorted(set(os.listdir(expected)) - {pl.TIMINGS_FILE})
    assert sorted(set(os.listdir(out)) - {pl.TIMINGS_FILE}) == names
    for name in names:
        assert read(os.path.join(out, name)) == read(os.path.join(expected, name)), name


class TestInMemoryHandOff:
    """``run`` hands the assemblage and the certificate on in memory and
    never reads back a file it derived."""

    def test_run_reads_no_derived_artifact(self, completed_run, tmp_path, monkeypatch):
        def refuse(path):
            raise AssertionError(f"read back {path}")

        monkeypatch.setattr(asm, "load_assemblage", refuse)
        monkeypatch.setattr(cert, "load_certification", refuse)
        monkeypatch.setattr(pl, "load_certification", refuse)
        config, src, _ = completed_run
        out = str(tmp_path / "run")
        assert pl.run(config, out).exit_code == pl.EXIT_OK
        assert_same_artifacts(out, src)

    def test_foreign_certificate_in_the_directory_is_not_used(self, tmp_path):
        """A run into a directory that holds another seed's assemblage and
        certificate writes byte for byte what a run into a fresh one does."""
        foreign = str(tmp_path / "seed4")
        pl.run(fast_config(rng_seed=4), foreign)
        out = str(tmp_path / "run")
        os.makedirs(out)
        for name in (pl.ASSEMBLAGE_FILE, pl.CERTIFICATION_FILE):
            shutil.copy(os.path.join(foreign, name), out)
        fresh = str(tmp_path / "fresh")
        pl.run(fast_config(rng_seed=3), fresh)
        assert read(os.path.join(fresh, pl.CERTIFICATION_FILE)) != \
            read(os.path.join(foreign, pl.CERTIFICATION_FILE))
        pl.run(fast_config(rng_seed=3), out)
        assert_same_artifacts(out, fresh)


def _seed_file(payload: bytes):
    def use(out):
        seed = os.path.join(out, "external_seed.bin")
        with open(seed, "wb") as fh:
            fh.write(payload)
        config = fast_config().to_dict()
        config["extraction"]["seed_file"] = seed
        path = os.path.join(out, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        return ["run", "-c", path, "-o", out]
    return use


def _output_dir_number(out):
    path = os.path.join(out, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"format": pl.CONFIG_FORMAT, "output_dir": 5}, fh)
    return ["run", "-c", path]


#: case -> (set-up on a copy of a completed run returning the CLI arguments,
#:          a fragment of the one error line)
REFUSED = {
    "seed_file-3-bits": (_seed_file((3).to_bytes(8, "little") + b"\xa0"),
                         "seed file holds 3 bits"),
    "seed_file-1-byte": (_seed_file(b"\x00"), "truncated bit-count header"),
    "output_dir-5": (_output_dir_number, "output_dir"),
}


class TestRefusedInputs:
    """Inputs a command cannot use exit 4 with one error line, before the
    command writes an extraction output."""

    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_exit_io(self, completed_run, tmp_path, monkeypatch, capsys, case):
        _, src, _ = completed_run
        out = str(tmp_path / "run")
        shutil.copytree(src, out)
        written = (pl.EXTRACTED_FILE, pl.SEED_FILE, pl.EXTRACTOR_REPORT_FILE)
        for name in written:
            os.remove(os.path.join(out, name))
        set_up, fragment = REFUSED[case]
        argv = set_up(out)
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == pl.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert fragment in err
        assert not any(os.path.exists(os.path.join(out, name)) for name in written)
        assert os.listdir(tmp_path) == ["run"]


def assert_failed_report_text(out, text):
    """report.txt is the text of the returned report, of a run that failed."""
    assert read(os.path.join(out, pl.REPORT_TEXT)).decode() == text
    lines = text.splitlines()
    assert "pass              : no" in lines
    assert "extraction        : absent" in lines


class TestGate:
    def test_low_efficiency_fails_certification(self, tmp_path):
        out = str(tmp_path / "fail")
        report = pl.run(fast_config(eta_alice=0.45), out)
        assert report.exit_code == pl.EXIT_CERTIFICATION
        assert not report.pass_flag
        assert report.extraction is None
        assert not os.path.exists(os.path.join(out, pl.EXTRACTED_FILE))
        assert not os.path.exists(os.path.join(out, pl.SEED_FILE))
        # certification evidence is still written for the failed run
        assert os.path.exists(os.path.join(out, pl.CERTIFICATION_FILE))
        assert os.path.exists(os.path.join(out, pl.REPORT_JSON))

    def test_infeasible_extraction_parameters(self, tmp_path):
        config = fast_config()
        config.extraction.epsilon = 1e-30
        config.extraction.block_bits = 512
        out = str(tmp_path / "params")
        report = pl.run(config, out)
        assert report.exit_code == pl.EXIT_PARAMETERS
        assert not report.pass_flag
        assert not os.path.exists(os.path.join(out, pl.EXTRACTED_FILE))
        # the parameter report records why nothing could be extracted
        text = read(os.path.join(out, pl.EXTRACTOR_REPORT_FILE)).decode()
        assert "m 0" in text and "passes no" in text
        assert_failed_report_text(out, report.text())

    def test_infeasible_parameters_skip_the_seed_file(self, tmp_path):
        """At m = 0 the seed file's bit count is never checked: a run with
        one too short still writes the parameter report and exits 3, not 4."""
        seed = tmp_path / "seed.bin"
        seed.write_bytes((3).to_bytes(8, "little") + b"\xa0")
        config = fast_config()
        config.extraction.epsilon = 1e-30
        config.extraction.block_bits = 512
        config.extraction.seed_file = str(seed)
        out = str(tmp_path / "params")
        assert pl.run(config, out).exit_code == pl.EXIT_PARAMETERS
        text = read(os.path.join(out, pl.EXTRACTOR_REPORT_FILE)).decode()
        assert "passes no" in text


class TestSweep:
    def test_grid_values_follow_closed_form(self, tmp_path):
        out = str(tmp_path / "sweep")
        rows = pl.sweep(fast_config(), out, eta_values=[0.5, 0.6], visibility_values=[1.0])
        assert [r["eta"] for r in rows] == [0.5, 0.6]
        by_eta = {r["eta"]: r for r in rows}
        assert by_eta[0.5]["h_min"] == pytest.approx(0.0, abs=1e-6)
        assert by_eta[0.6]["h_min"] == pytest.approx(-math.log2(0.9), abs=1e-6)
        assert by_eta[0.6]["mu"] < 0.0
        tsv = read(os.path.join(out, pl.SWEEP_TSV)).decode().splitlines()
        assert tsv[0].split("\t")[:3] == ["visibility", "eta", "x_star"]
        assert len(tsv) == 3
        loaded = json.loads(read(os.path.join(out, pl.SWEEP_JSON)))
        assert loaded["rows"] == rows

    @pytest.mark.parametrize("setting", ["X", "Z"])
    def test_certifies_the_stream_setting(self, tmp_path, setting):
        out = str(tmp_path / "sweep")
        pl.sweep(fast_config(rng_setting=setting), out, eta_values=[0.6, 0.8])
        tsv = read(os.path.join(out, pl.SWEEP_TSV)).decode().splitlines()
        column = tsv[0].split("\t").index("x_star")
        assert [line.split("\t")[column] for line in tsv[1:]] == [setting, setting]


class TestCli:
    def test_run_and_report_commands(self, tmp_path, capsys):
        """``run`` prints its report.txt, byte for byte."""
        cfg_path = str(tmp_path / "config.json")
        fast_config().to_file(cfg_path)
        out = str(tmp_path / "out")
        assert cli.main(["run", "-c", cfg_path, "-o", out]) == 0
        text = capsys.readouterr().out
        assert text.encode() == read(os.path.join(out, pl.REPORT_TEXT))
        assert "pass              : yes" in text.splitlines()

    @pytest.mark.parametrize("command", ["simulate", "tomo", "certify", "extract", "report"])
    def test_staged_commands_are_gone(self, tmp_path, capsys, command):
        """``run`` is the only command that writes a run directory, and
        its report is the report.txt it writes."""
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "-o", out])
        assert exc.value.code == 2
        assert not os.path.exists(out)

    def test_certification_failure_exit_code(self, tmp_path, capsys):
        cfg_path = str(tmp_path / "config.json")
        fast_config(eta_alice=0.45).to_file(cfg_path)
        out = str(tmp_path / "fail")
        assert cli.main(["run", "-c", cfg_path, "-o", out]) == pl.EXIT_CERTIFICATION
        assert_failed_report_text(out, capsys.readouterr().out)

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert cli.main(["run", "-c", missing, "-o", str(tmp_path)]) == pl.EXIT_IO

    @pytest.mark.parametrize("case", ["out-is-a-file", "config-is-a-directory",
                                      "seed_file-is-a-directory", "seed_file-is-missing"])
    def test_os_error_is_io_error(self, tmp_path, capsys, case):
        """Any OSError, not only a missing or unreadable file, exits 4 with
        one error line, before anything is written: an unreadable seed file
        is refused before the simulation runs."""
        config = fast_config()
        if case == "seed_file-is-a-directory":
            config.extraction.seed_file = str(tmp_path)
        if case == "seed_file-is-missing":
            config.extraction.seed_file = str(tmp_path / "absent.bin")
        cfg_path = str(tmp_path / "config.json")
        config.to_file(cfg_path)
        out = str(tmp_path / "out")
        argv = {"out-is-a-file": ["run", "-c", cfg_path, "-o", cfg_path],
                "config-is-a-directory": ["run", "-c", str(tmp_path), "-o", out],
                "seed_file-is-a-directory": ["run", "-c", cfg_path, "-o", out],
                "seed_file-is-missing": ["run", "-c", cfg_path, "-o", out]}[case]
        assert cli.main(argv) == pl.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        if case.startswith("seed_file"):
            assert "unusable seed file" in err
        assert not os.path.exists(out)

    def test_seed_override_changes_stream(self, tmp_path, capsys):
        cfg_path = str(tmp_path / "config.json")
        fast_config().to_file(cfg_path)
        out_a = str(tmp_path / "s1")
        out_b = str(tmp_path / "s2")
        assert cli.main(["run", "-c", cfg_path, "-o", out_a, "--seed", "101"]) == 0
        assert cli.main(["run", "-c", cfg_path, "-o", out_b, "--seed", "102"]) == 0
        assert read(os.path.join(out_a, pl.RAW_BITS_FILE)) != \
            read(os.path.join(out_b, pl.RAW_BITS_FILE))

    def test_sweep_command(self, tmp_path, capsys):
        cfg_path = str(tmp_path / "config.json")
        fast_config().to_file(cfg_path)
        out = str(tmp_path / "sweepcli")
        code = cli.main([
            "sweep", "-c", cfg_path, "-o", out,
            "--eta", "0.55:0.66:0.05", "--visibility", "1.0",
        ])
        assert code == 0
        tsv = read(os.path.join(out, pl.SWEEP_TSV)).decode().splitlines()
        assert len(tsv) == 4  # header + 0.55, 0.60, 0.65

    @pytest.mark.parametrize("grid", [
        ["--eta", "1.5"],
        ["--eta", "nan"],
        ["--eta", "0.6", "--visibility", "2"],
        ["--eta", "abc"],
        ["--eta", "0.5:0.9:nan"],
        ["--eta", "0.5:0.9:1e-20"],
        ["--eta", "0.5:0.9:1e-9"],
    ], ids=["eta-above-1", "eta-nan", "visibility-above-1", "eta-not-a-number", "step-nan",
            "step-below-float-spacing", "too-many-points"])
    def test_sweep_rejects_bad_grid(self, grid, tmp_path, capsys):
        out = str(tmp_path / "sweepbad")
        assert cli.main(["sweep", "-o", out] + grid) == pl.EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert not os.path.exists(out)
