"""CLI subcommands: JSON output, exit codes, profile round-trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twistedrs
from twistedrs import table1
from twistedrs.cli import cli_main
from twistedrs.enumeration import EnumTask, _kernel, count_mds_double_twisted
from twistedrs.field import Field


EX32_PROFILE = {
    "field": {"p": 2, "m": 4, "modulus": [1, 1, 0, 0, 1]},
    "alpha": ["0", "a^2", "a + 1", "a^2 + a", "a^3 + a + 1"],
    "k": 3,
    "t": [1, 2],
    "h": [0, 1],
    "eta": ["a^3 + a^2", "1"],
}

GF7_PROFILE = {
    "field": {"p": 7, "m": 1, "modulus": [0, 1]},
    "alpha": [0, 1, 2, 3, 4],
    "k": 3,
    "t": [1, 2],
    "h": [0, 1],
    "eta": [1, 1],
}


def run(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_profile(tmp_path, doc, name="profile.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_check_mds_all_methods(tmp_path, capsys):
    path = write_profile(tmp_path, EX32_PROFILE)
    code, doc = run(capsys, "check-mds", "--profile", path, "--method", "all")
    assert code == 0
    assert doc["n"] == 5 and doc["k"] == 3
    methods = [v["method"] for v in doc["verdicts"]]
    assert methods == ["theorem31", "remark44", "theorem42"]
    assert all(v["is_mds"] for v in doc["verdicts"])
    assert all(v["seconds"] >= 0 for v in doc["verdicts"])
    assert doc["agree"] is True


def test_check_mds_bruteforce_only(tmp_path, capsys):
    path = write_profile(tmp_path, EX32_PROFILE)
    code, doc = run(capsys, "check-mds", "--profile", path, "--method", "bruteforce")
    assert code == 0
    assert [v["method"] for v in doc["verdicts"]] == ["bruteforce"]
    assert doc["verdicts"][0]["is_mds"]


def test_check_mds_inline_flags(capsys):
    code, doc = run(
        capsys,
        "check-mds",
        "--q", "16",
        "--alpha", "0,a^2,a + 1,a^2 + a,a^3 + a + 1",
        "--k", "3",
        "--t", "1,2",
        "--h", "0,1",
        "--eta", "a^3 + a^2,1",
    )
    assert code == 0 and doc["agree"]


def test_min_distance(tmp_path, capsys):
    path = write_profile(tmp_path, EX32_PROFILE)
    code, doc = run(capsys, "min-distance", "--profile", path)
    assert code == 0
    assert doc == {"n": 5, "k": 3, "d": 3, "mds": True}


def test_hull_of_even_construction(capsys, tmp_path):
    code, doc = run(
        capsys, "construct-even", "--q", "16", "--k", "3", "--t", "2,3",
        "--h", "1,2", "--eta", "a^3,a^3+a^2",
    )
    assert code == 0
    assert doc["n"] == 6 and doc["dim"] == 3
    assert doc["gram_rank"] == 2 and doc["hull_dim"] == 1
    # round-trip: the emitted document is itself a valid profile
    path = write_profile(tmp_path, doc)
    code2, hull_doc = run(capsys, "hull", "--profile", path)
    assert code2 == 0
    assert hull_doc["gram_rank"] == 2 and hull_doc["hull_dim"] == 1
    assert hull_doc["dim"] == 3
    code3, mds_doc = run(capsys, "check-mds", "--profile", path, "--method", "theorem31")
    assert code3 == 0
    assert mds_doc["verdicts"][0]["is_mds"]


def test_construct_odd_round_trip(capsys, tmp_path):
    code, doc = run(
        capsys, "construct-odd", "--q", "81", "--k", "5", "--t", "1,2",
        "--h", "2,3", "--eta", "a^3+a^2,a",
    )
    assert code == 0
    assert doc["n"] == 10 and doc["dim"] == 4
    assert doc["gram_rank"] == 3 and doc["hull_dim"] == 1
    path = write_profile(tmp_path, doc)
    code2, hull_doc = run(capsys, "hull", "--profile", path)
    assert code2 == 0 and hull_doc["hull_dim"] == 1


def test_enumerate_matches_library(capsys):
    code, doc = run(capsys, "enumerate", "--q", "5", "--n", "4", "--k", "2")
    assert code == 0
    expect = count_mds_double_twisted(EnumTask(5, 4, 2)).total_count
    assert doc["count"] == expect
    assert doc["criterion"] == "remark44"


def test_enumerate_histogram(capsys):
    code, doc = run(capsys, "enumerate", "--q", "5", "--n", "4", "--k", "2", "--histogram")
    assert code == 0
    assert len(doc["per_set"]) == 5
    assert sum(doc["per_set"].values()) == doc["count"]


def test_enumerate_histogram_formats_keys_with_the_counts_field(capsys, monkeypatch):
    _kernel(5).field  # the count's cached field, built before the call
    built = []
    init = Field.__init__

    def counting_init(self, spec):
        built.append(spec)
        init(self, spec)

    monkeypatch.setattr(Field, "__init__", counting_init)
    code, doc = run(capsys, "enumerate", "--q", "5", "--n", "4", "--k", "2", "--histogram")
    assert code == 0 and len(doc["per_set"]) == 5
    assert built == []


def test_workers_flag_is_a_usage_error(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli_main(["enumerate", "--q", "5", "--n", "4", "--k", "2", "--workers", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        table1.main(["--out", str(tmp_path), "--orders", "4", "--workers", "2"])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_search_limit(capsys):
    code, doc = run(capsys, "search", "--q", "7", "--n", "5", "--k", "3", "--limit", "7")
    assert code == 0
    assert doc["count"] == 7
    assert all(set(hit) == {"alpha", "eta", "method"} for hit in doc["hits"])


def test_subfield_construct(capsys, tmp_path):
    code, doc = run(
        capsys, "subfield-construct", "--q", "16", "--chain", "4,16",
        "--alpha", "0,1,a^2 + a,a^2 + a + 1", "--k", "2", "--t", "1", "--h", "0",
        "--eta", "a",
    )
    assert code == 0
    assert doc["verdict"]["is_mds"] is True
    assert doc["verdict"]["method"] == "theorem31"
    path = write_profile(tmp_path, doc)
    code2, hull_doc = run(capsys, "hull", "--profile", path)
    assert code2 == 0 and hull_doc["dim"] == 2
    code3, mds_doc = run(capsys, "check-mds", "--profile", path, "--method", "bruteforce")
    assert code3 == 0 and mds_doc["verdicts"][0]["is_mds"]


def test_domain_error_exit_code_1(capsys):
    code, doc = run(capsys, "enumerate", "--q", "5", "--n", "3", "--k", "2")
    assert code == 1
    assert doc["error"]["type"] == "ValueError"
    assert "n >= k + 2" in doc["error"]["message"]


@pytest.mark.parametrize(
    "doc",
    [
        dict(EX32_PROFILE, alpha=5),
        [1, 2],
        dict(EX32_PROFILE, k=None),
        dict(EX32_PROFILE, alpha="0123"),
        dict(EX32_PROFILE, k=2.7),
        dict(GF7_PROFILE, eta=[-1, 1]),
        dict(GF7_PROFILE, eta=[7, 1]),
        dict(GF7_PROFILE, alpha=[0, 1, 2.7, 3, 4]),
        dict(GF7_PROFILE, eta=[True, 1]),
    ],
)
def test_malformed_profile_exit_code_1(tmp_path, capsys, doc):
    path = write_profile(tmp_path, doc)
    code, out = run(capsys, "hull", "--profile", path)
    assert code == 1
    assert out["error"]["type"] == "ValueError"
    assert out["error"]["message"].startswith("malformed profile: ")


def test_search_negative_limit_exit_code_1(capsys):
    code, doc = run(capsys, "search", "--q", "7", "--n", "5", "--k", "3", "--limit", "-1")
    assert code == 1
    assert doc["error"]["type"] == "ValueError"
    assert "--limit" in doc["error"]["message"]


def test_search_repeated_alpha_exit_code_1(capsys):
    code, doc = run(capsys, "search", "--q", "7", "--n", "5", "--k", "3", "--alpha", "1,1,2,3,4")
    assert code == 1
    assert doc["error"]["type"] == "ValueError"
    assert "distinct" in doc["error"]["message"]

def test_usage_error_exit_code_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["enumerate", "--q", "5", "--n", "4"])  # missing --k
    assert exc.value.code == 2


def test_compact_json_flag(capsys):
    code = cli_main(["enumerate", "--q", "5", "--n", "4", "--k", "2", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("\n") == 1  # one line
    json.loads(out)


def test_field_flags_p_m_modulus(capsys):
    code, doc = run(
        capsys,
        "check-mds",
        "--p", "2", "--m", "4", "--modulus", "1,1,0,0,1",
        "--alpha", "0,1,a,a^2", "--k", "2", "--t", "1", "--h", "0", "--eta", "a^3",
    )
    assert code == 0
    assert [v["method"] for v in doc["verdicts"]] == ["theorem31"]


def _fresh_python(code: str) -> str:
    """Stdout of code run in a new interpreter that imports this package."""
    src = str(Path(twistedrs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return proc.stdout.strip()


def test_cli_import_leaves_numpy_unloaded():
    assert _fresh_python("import sys, twistedrs, twistedrs.cli; print('numpy' in sys.modules)") == "False"


def test_cli_import_leaves_dataclasses_and_multiprocessing_unloaded():
    """Neither module serves a CLI command, and each costs a cold start
    about 14 ms to import; no module of the package imports
    multiprocessing."""
    code = "import sys, twistedrs, twistedrs.cli; print(sorted({'dataclasses', 'multiprocessing'} & set(sys.modules)))"
    assert _fresh_python(code) == "[]"


def test_bench_tracer_targets_resolve_after_cli_import():
    """Every (module, attribute) the benchmark's tracer wraps is loaded by
    `import twistedrs.cli` alone, so a traced CLI run can install it."""
    trace = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"
    code = f"""
import importlib.util, sys
import twistedrs.cli
spec = importlib.util.spec_from_file_location("bench_trace", {str(trace)!r})
bench_trace = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_trace)
missing = []
for _, modname, attr, _ in bench_trace.TARGETS:
    obj = sys.modules.get(modname)
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    if obj is None:
        missing.append(modname + ":" + attr)
tracer = bench_trace.Tracer(bench_trace.Recorder())
tracer.install()
tracer.uninstall()
print(missing)
"""
    assert _fresh_python(code) == "[]"
