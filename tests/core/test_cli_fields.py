"""The CLI's job flags come from the job kinds' field tables.

Each spec field is declared once, as a :class:`repro.serve.jobs.Field`
row; ``repro``'s flags, their defaults and the specs they build follow
from the rows.  These tests pin the user-visible surface (the option set
and help) and check that both transports agree: the same defaults, and the
same field- or flag-named errors for the same bad values.
"""

from __future__ import annotations

import argparse

import pytest

from repro.cli import build_parser, main, spec_from_args
from repro.serve.jobs import JobError, compile_job, spec_fields

#: Every subcommand's option strings (positionals by dest), as released.
#: A flag added, removed or renamed shows up here.
OPTIONS = {
    "cache": "--cache-dir --json --no-repair action",
    "chaos": "--clear-cache --engine --faults --jobs --json --list-faults "
             "--model --no-cache --plans --scale --seed --workload",
    "fig10": "--clear-cache --engine --jobs --metrics --model --no-cache "
             "--scale --trace",
    "fig11": "--clear-cache --engine --jobs --metrics --model --no-cache "
             "--scale --trace",
    "fig12": "--clear-cache --engine --jobs --metrics --model --no-cache "
             "--scale --trace",
    "fig9": "--clear-cache --engine --jobs --metrics --model --no-cache "
            "--scale --trace",
    "fleet": "--clear-cache --configs --engines --jobs --json --no-cache "
             "--no-lint --out --scenarios --seed",
    "gen": "--config --engine --footprint --list-patterns --rounds --seed "
           "--skew --threads pattern",
    "lint": "--all-workloads --config --dump-cfg --fix --json --litmus "
            "--model --scale workload",
    "list": "",
    "litmus": "--clear-cache --engine --engines --jobs --json --matrix "
              "--model --models --no-cache --out kernel",
    "replay": "--blocks --config --cores-per-block --engine --model --out "
              "--roundtrip --threads trace",
    "run": "--config --engine --model --scale --staleness workload",
    "serve": "--cache-dir --chaos-kill --concurrency --corrupt --fault-kind "
             "--fault-rate --fault-seed --host --jobs-count --journal "
             "--kills --no-cache --out --port --queue-limit --quota "
             "--resume --retries --scale --timeout --work-dir --workers",
    "storage": "",
    "table1": "",
    "table3": "--machine",
    "trace": "--chrome --config --metrics --out --scale workload",
}

#: The field tables each job subcommand builds flags from.
TABLES = {
    "run": ("sweep",), "trace": ("sweep",), "fig9": ("sweep",),
    "gen": ("gen",), "litmus": ("litmus", "litmus matrix"),
    "chaos": ("chaos",), "lint": ("lint",), "fleet": ("fleet",),
}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    [sub] = [
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return dict(sub.choices)


def _actions(p: argparse.ArgumentParser):
    return [a for a in p._actions if not isinstance(a, argparse._HelpAction)]


def test_every_subcommand_help_renders():
    """Help built from the tables survives argparse's ``%`` formatting."""
    for name, p in _subparsers().items():
        assert p.format_help(), name


def test_option_set_is_unchanged():
    got = {
        name: " ".join(sorted(
            s for a in _actions(p) for s in a.option_strings or [a.dest]
        ))
        for name, p in _subparsers().items()
    }
    assert got == OPTIONS


def test_spec_field_flags_default_to_none():
    """An unset flag stays out of the spec, so the kind's default applies."""
    subparsers = _subparsers()
    for command, kinds in TABLES.items():
        flags = {f.flag for kind in kinds for f in spec_fields(kind)}
        actions = {
            (a.option_strings or [a.dest])[0]: a
            for a in _actions(subparsers[command])
        }
        for flag in flags & set(actions):
            assert actions[flag].default is None, (command, flag)


@pytest.mark.parametrize("kind, argv, served", [
    ("sweep", ["run", "volrend", "--config", "B+M+I"],
     {"apps": ["volrend"], "configs": ["B+M+I"]}),
    ("gen", ["gen", "zipf_hot"], {"pattern": "zipf_hot"}),
    ("litmus", ["litmus"], {}),
    ("litmus matrix", ["litmus", "--matrix"], {"matrix": True}),
    ("chaos", ["chaos"], {}),
    ("lint", ["lint", "mp_flag"], {"workloads": ["mp_flag"]}),
    ("fleet", ["fleet"], {}),
])
def test_cli_defaults_are_the_served_defaults(kind, argv, served):
    """Only the required arguments: both transports compile the same job."""
    spec = spec_from_args(kind, build_parser().parse_args(argv))
    assert spec == served
    job_kind = kind.split()[0]
    cli = compile_job({"kind": job_kind, "spec": spec})
    srv = compile_job({"kind": job_kind, "spec": served})

    def units(job):
        return [
            (u.label, u.cell, u.fn and (u.fn.func, u.fn.args))
            for u in job.units
        ]

    assert units(cli) == units(srv)
    assert cli.description == srv.description


def test_empty_litmus_spec_runs_every_kernel():
    """A served ``litmus`` job naming no kernel runs what ``repro litmus``
    runs: every registered kernel (``all: true`` still means the same)."""
    from repro.workloads.litmus import LITMUS

    cli = compile_job({
        "kind": "litmus",
        "spec": spec_from_args("litmus", build_parser().parse_args(["litmus"])),
    })
    for spec in ({}, {"all": True}):
        job = compile_job({"kind": "litmus", "spec": spec})
        assert [u.cell for u in job.units] == [u.cell for u in cli.units]
        assert job.description == f"{len(LITMUS)} litmus kernel(s)"


@pytest.mark.parametrize("argv, flag, kind, spec, field", [
    (["chaos", "--workload", "mp_flag", "--plans", "0"], "--plans",
     "chaos", {"plans": 0}, "plans"),
    (["fleet", "--scenarios", "0"], "--scenarios",
     "fleet", {"scenarios": 0}, "scenarios"),
    (["gen", "zipf_hot", "--threads", "0"], "--threads",
     "gen", {"pattern": "zipf_hot", "threads": 0}, "threads"),
])
def test_bad_counts_name_their_field_and_flag(argv, flag, kind, spec, field,
                                              capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"repro: error: {flag} must be >= " in err
    assert "spec." not in err
    with pytest.raises(JobError, match=rf"spec\.{field} must be >= ") as exc:
        compile_job({"kind": kind, "spec": spec})
    assert exc.value.status == 400


@pytest.mark.parametrize("argv, given", [
    (["--all-workloads", "mp_flag"], "--all-workloads and mp_flag"),
    (["--litmus", "mp_flag", "lock_counter"],
     "--litmus and mp_flag and lock_counter"),
    (["--all-workloads", "--litmus"], "--all-workloads and --litmus"),
])
def test_lint_target_sets_exclude_named_targets(argv, given, capsys):
    """A target the user typed is never silently dropped."""
    assert main(["lint", *argv]) == 2
    assert f"repro: error: {given}: lint takes named targets" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("argv, flag", [
    (["--quota", "0"], "--quota"),
    (["--queue-limit", "0"], "--queue-limit"),
    (["--timeout", "0"], "--timeout"),
    (["--timeout", "-1"], "--timeout"),
    (["--port", "70000"], "--port"),
    (["--port", "-1"], "--port"),
    (["--workers", "0"], "--workers"),
    (["--retries", "-1"], "--retries"),
])
def test_serve_rejects_settings_that_break_every_job(argv, flag, capsys,
                                                     monkeypatch):
    """Rejected before the server starts, so no port is ever bound."""
    from repro.serve import server

    def run(config):
        raise AssertionError("the server must not start")

    monkeypatch.setattr(server, "run", run)
    assert main(["serve", *argv]) == 2
    assert f"repro: error: {flag} must be " in capsys.readouterr().err


def test_serve_defaults_are_server_config_defaults(monkeypatch):
    from repro.serve import server

    started = []
    monkeypatch.setattr(server, "run", lambda config: started.append(config) or 0)
    assert main(["serve"]) == 0
    assert started == [server.ServerConfig(port=8787)]
