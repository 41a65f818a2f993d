"""CLI entry point (python -m repro)."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_classify_command(self, capsys, reference_classifier):
        assert main(["classify", "--count", "2"]) == 0
        out = capsys.readouterr().out
        assert "P(ad)" in out

    def test_render_command(self, capsys, reference_classifier):
        assert main(["render", "--pages", "2"]) == 0
        out = capsys.readouterr().out
        assert "blocked" in out

    def test_serve_sim_command(self, capsys, reference_classifier):
        assert main([
            "serve-sim", "--sessions", "3", "--frames", "4",
            "--workers", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "requests submitted" in out
        assert "queue wait p50/p95/p99" in out
        assert "virtual makespan" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["definitely-not-a-command"])

    def test_help_lists_commands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for command in ("train", "classify", "render", "serve-sim",
                        "crawl"):
            assert command in out

    @pytest.mark.parametrize(
        "var,raw,command",
        [
            ("PERCIVAL_SERVE_MAX_BATCH", "lots", "crawl"),
            ("PERCIVAL_SERVE_MAX_DEPTH", "4", "train"),
        ],
    )
    def test_bad_serve_knob_spares_other_commands(
        self, monkeypatch, capsys, var, raw, command
    ):
        monkeypatch.setenv(var, raw)
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_bad_serve_knob_still_fails_serve_sim(
        self, monkeypatch, reference_classifier
    ):
        monkeypatch.setenv("PERCIVAL_SERVE_MAX_BATCH", "lots")
        with pytest.raises(ValueError, match="PERCIVAL_SERVE_MAX_BATCH"):
            main(["serve-sim", "--sessions", "2", "--frames", "2",
                  "--workers", "0"])

    def test_serve_flags_beat_serve_knobs(
        self, monkeypatch, capsys, reference_classifier
    ):
        argv = ["serve-sim", "--sessions", "2", "--frames", "3",
                "--workers", "0"]
        monkeypatch.setenv("PERCIVAL_SERVE_MAX_BATCH", "4")
        assert main(argv) == 0
        assert "max_batch=4," in capsys.readouterr().out
        assert main(argv + ["--max-batch", "6"]) == 0
        assert "max_batch=6," in capsys.readouterr().out

    @pytest.mark.parametrize(
        "env,flag,built",
        [("on", "off", False), (None, "on", True)],
        ids=["env-on-flag-off", "env-unset-flag-on"],
    )
    def test_fleet_honours_the_diff_flag(
        self, monkeypatch, capsys, reference_classifier, env, flag, built
    ):
        import repro.serve.fleet as fleet

        loops = []

        class SpyLoop(fleet.ServeLoop):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                loops.append(self)

        monkeypatch.setattr(fleet, "ServeLoop", SpyLoop)
        if env is None:
            monkeypatch.delenv("PERCIVAL_DIFF", raising=False)
        else:
            monkeypatch.setenv("PERCIVAL_DIFF", env)
        assert main([
            "serve-sim", "--fleet", "--epochs", "2", "--sessions", "4",
            "--frames", "3", "--workers", "0", "--diff", flag,
        ]) == 0
        assert "conserved=True" in capsys.readouterr().out
        assert len(loops) == 2
        assert [loop.differ is not None for loop in loops] == [built] * 2
