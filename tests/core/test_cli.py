"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fft" in out and "jacobi" in out
    assert "B+M+I" in out and "Addr+L" in out


def test_run_intra_default_config(capsys):
    assert main(["run", "volrend", "--scale", "0.4"]) == 0
    out = capsys.readouterr().out
    assert "volrend under B+M+I: verified OK" in out
    assert "exec time" in out and "lock_stall" in out


def test_run_intra_explicit_config(capsys):
    assert main(["run", "volrend", "--config", "HCC", "--scale", "0.4"]) == 0
    assert "under HCC" in capsys.readouterr().out


def test_run_inter_default_config(capsys):
    assert main(["run", "ep", "--scale", "0.25"]) == 0
    out = capsys.readouterr().out
    assert "ep under Addr+L: verified OK" in out
    assert "WB lines" in out  # level-adaptive counters printed


def test_run_unknown_workload(capsys):
    assert main(["run", "nope"]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_table1(capsys):
    assert main(["table1"]) == 0
    assert "cholesky" in capsys.readouterr().out


def test_table3_both_machines(capsys):
    assert main(["table3", "--machine", "intra"]) == 0
    out1 = capsys.readouterr().out
    assert "32KB" in out1 and "L3" not in out1
    assert main(["table3"]) == 0
    assert "Shared L3" in capsys.readouterr().out


def test_storage(capsys):
    assert main(["storage"]) == 0
    assert "102" in capsys.readouterr().out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_invalid_jobs_is_a_usage_error(capsys):
    """Bad --jobs exits 2 with a one-line message, not a traceback."""
    assert main(["fig11", "--scale", "0.25", "--jobs", "0"]) == 2
    err = capsys.readouterr().err
    assert "repro: error: jobs must be >= 1 (got 0)" in err
    assert "Traceback" not in err


def test_run_staleness_mode(capsys):
    assert main(["run", "volrend", "--scale", "0.4", "--staleness"]) == 0
    out = capsys.readouterr().out
    assert "0 stale read(s)" in out


def test_run_staleness_mode_inter(capsys):
    assert main(["run", "ep", "--scale", "0.25", "--staleness"]) == 0
    out = capsys.readouterr().out
    assert "ep under Addr+L: verified OK, 0 stale read(s) detected" in out


def test_run_staleness_reports_stale_reads_and_a_failed_verify(capsys):
    """The known sisd raytrace failure: the detector's report and the
    verifier's verdict both print, and the run exits 1 with no traceback."""
    argv = ["run", "raytrace", "--model", "sisd", "--config", "Base",
            "--scale", "0.25", "--staleness"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "StaleRead(" in captured.out
    assert "progress total 15 != 8" in captured.out
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("extra", [[], ["--staleness"]])
def test_run_failed_verify_prints_one_verdict_line(monkeypatch, capsys, extra):
    """Both run paths turn a failed verify into one verdict line and exit 1."""
    from repro.common.errors import expect
    from repro.workloads.splash.volrend import Volrend

    monkeypatch.setattr(
        Volrend, "verify", lambda self, machine: expect(False, "injected")
    )
    assert main(["run", "volrend", "--scale", "0.25", *extra]) == 1
    captured = capsys.readouterr()
    verdict = "volrend under B+M+I: verify FAILED (injected)"
    assert captured.out.splitlines()[0].startswith(verdict)
    assert "Traceback" not in captured.out + captured.err


def _fail_oracle(monkeypatch, name):
    """Make *name*'s self-checking oracle fail (in-process runs only)."""
    import dataclasses

    from repro.workloads import litmus

    def check(mem, obs):
        raise AssertionError("injected")

    monkeypatch.setitem(
        litmus.LITMUS, name,
        dataclasses.replace(litmus.LITMUS[name], check=check),
    )


def test_litmus_oracle_failure_names_the_kernel_and_continues(
    monkeypatch, capsys
):
    _fail_oracle(monkeypatch, "mp_flag")
    argv = ["litmus", "mp_flag", "lock_counter", "--jobs", "1", "--no-cache"]
    assert main(argv) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("mp_flag") and out[0].endswith(
        "[intra] ORACLE FAILED: injected"
    )
    # the kernels after the failing one still run and print their line
    assert out[1].startswith("lock_counter") and "verified" in out[1]


def test_litmus_oracle_failure_keeps_json_stdout_clean(monkeypatch, capsys):
    _fail_oracle(monkeypatch, "mp_flag")
    argv = ["litmus", "mp_flag", "--json", "--jobs", "1", "--no-cache"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "mp_flag" in captured.err and "ORACLE FAILED" in captured.err


def test_job_usage_errors_name_the_flag(capsys):
    assert main(["lint"]) == 2
    err = capsys.readouterr().err
    assert "nothing to lint: name a workload/litmus kernel" in err
    assert main(["chaos", "--workload", "mp_flag", "--scale", "0"]) == 2
    err = capsys.readouterr().err
    assert "repro: error: --scale must be > 0" in err
    assert "spec." not in err


def test_engine_and_model_flags_do_not_leak(tmp_path, capsys, monkeypatch):
    """--engine/--model reach the cells as spec fields, never os.environ.

    After a command that sets both, the variables are still unset and the
    next ``run`` in the same process resolves the defaults.
    """
    import os

    from repro.core.machine import Machine

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_ENGINE", "")  # restored after the test either way
    monkeypatch.delenv("REPRO_ENGINE")
    assert main(["fig11", "--scale", "0.25", "--jobs", "1",
                 "--engine", "fast", "--model", "rc"]) == 0
    assert main(["chaos", "--workload", "mp_flag", "--plans", "1",
                 "--jobs", "1", "--engine", "fast"]) == 0
    assert "REPRO_ENGINE" not in os.environ

    resolved = []
    init = Machine.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        resolved.append((self.engine_spec.name, self.model_spec.name))

    monkeypatch.setattr(Machine, "__init__", spy)
    assert main(["run", "ep", "--scale", "0.25"]) == 0
    assert resolved == [("ref", "base")]
