"""The benchmark's in-process workloads run one pass and pass their own
output checks, so a change to the API they call shows here first."""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["table1-cells", "code-queries"])
def test_in_process_workload_pass_checks_clean(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    bench_workloads = importlib.import_module("bench_workloads")
    wl = bench_workloads.WORKLOADS[name](str(ROOT), str(tmp_path))
    wl.import_package()
    wl.build_contexts()
    wl.build(1)
    assert wl.n_ops > 0
    for i in range(wl.n_ops):
        summary, _ = wl.summarize(i, wl.run_op(i, False))
        assert wl.check(i, summary) == [], (name, i)


def test_cli_cold_rotation_in_process_checks_clean(tmp_path, monkeypatch, capsys):
    """Each command of the cli-cold workload's seed-1 rotation, run through
    cli_main in this process, prints what the workload's check expects
    once the timing fields are stripped."""
    from twistedrs.cli import cli_main

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    bench_workloads = importlib.import_module("bench_workloads")
    wl = bench_workloads.CliCold(str(ROOT), str(tmp_path))
    wl.import_package()
    wl.build_contexts()
    wl.build(1)
    assert wl.n_ops > 0
    for i, argv in enumerate(wl.rotation):
        code = cli_main(list(argv))
        summary, _ = wl.summarize(i, (code, capsys.readouterr().out, ""))
        assert wl.check(i, summary) == [], (i, argv)
