"""CLI subcommands: JSON output, exit codes, profile round-trips."""

import argparse
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import twistedrs
from twistedrs.cli import build_parser, cli_main
from twistedrs.enumeration import EnumTask, _field, count_mds_double_twisted
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


def without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["--q", "7", "--alpha", "0,1,2,3,4", "--k", "2", "--t", "1", "--h", "0", "--eta", "3",
             "--method", "remark44"],
            "remark44 applies only to t=(1,2), h=(0,1)",
        ),
        (["--alpha", "0,1,2,3,4", "--k", "3"], "give --q (optionally --modulus)"),
        (["--q", "7", "--k", "3"], "without --profile, --alpha and --k are required"),
    ],
)
def test_check_mds_error_paths_exit_code_1(capsys, argv, message):
    code, doc = run(capsys, "check-mds", *argv)
    assert code == 1
    assert doc == {"error": {"type": "ValueError", "message": message}}


@pytest.mark.parametrize("command", ["check-mds", "hull", "min-distance"])
@pytest.mark.parametrize(
    "flag, value",
    [("--q", "7"), ("--modulus", ""), ("--alpha", "0,1,2"), ("--k", "2"), ("--t", ""), ("--h", "0"), ("--eta", "")],
)
def test_profile_beside_an_inline_code_flag_exit_code_1(capsys, tmp_path, command, flag, value):
    # the profile is the whole code, so a flag beside it would be ignored;
    # "" counts as given
    path = write_profile(tmp_path, GF7_PROFILE)
    code, doc = run(capsys, command, "--profile", path, flag, value)
    assert code == 1
    assert doc == {"error": {"type": "ValueError", "message": f"--profile gives the whole code; drop {flag}"}}


def test_inline_code_without_twist_flags_has_no_twists(capsys):
    code, doc = run(capsys, "check-mds", "--q", "7", "--alpha", "0,1,2", "--k", "2")
    assert code == 0 and doc["agree"] and doc["verdicts"][0]["is_mds"]


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
    _field(5)  # the count's cached field, built before the call
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
        cli_main(["table1", "--out", str(tmp_path), "--orders", "4", "--workers", "2"])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_table1_main_writes_the_goldens(capsys, tmp_path):
    code, doc = run(capsys, "table1", "--out", str(tmp_path), "--orders", "4,5")
    names = ["table1_q4.json", "table1_q5.json"]
    assert code == 0
    assert doc == {"paths": [str(tmp_path / name) for name in names]}
    golden_dir = Path(__file__).resolve().parents[1] / "goldens" / "table1"

    def without_elapsed(path):
        return [line for line in path.read_text().splitlines() if not line.startswith('  "elapsed": ')]

    for name in names:
        written = without_elapsed(tmp_path / name)
        assert len(written) == len((tmp_path / name).read_text().splitlines()) - 1  # one elapsed line
        assert written == without_elapsed(golden_dir / name)


def test_table1_orders_must_be_prime_powers(capsys, tmp_path):
    for orders, message in (("6", "6 is not a prime power"), ("4,x", "invalid literal for int()")):
        with pytest.raises(SystemExit) as exc:
            cli_main(["table1", "--out", str(tmp_path), "--orders", orders])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("order", [223, 65536])
def test_table1_order_without_an_in_budget_cell_exit_code_2_at_once(capsys, tmp_path, order):
    # the cheapest cell of GF(q), n = q and k = 2, costs C(q, 2)(q - 1)^2
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        cli_main(["table1", "--out", str(tmp_path), "--orders", f"4,{order}"])
    assert time.perf_counter() - start < 1
    assert exc.value.code == 2
    assert "ENUM_BUDGET" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_table1_orders_up_to_211_parse():
    # C(211, 2) * 210^2 = 977 035 500 fits the budget; the table is not built
    assert build_parser().parse_args(["table1", "--orders", "2,3,211"]).orders == (2, 3, 211)


def test_table1_out_under_a_regular_file_exit_code_1(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    code, doc = run(capsys, "table1", "--out", str(blocker / "goldens"), "--orders", "4")
    assert code == 1
    assert doc["error"]["type"] == "NotADirectoryError"
    assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == ""


def test_table1_in_a_fresh_process_leaves_stderr_empty(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "twistedrs", "table1", "--orders", "4", "--out", str(tmp_path)],
        env=_fresh_env(), capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {"paths": [str(tmp_path / "table1_q4.json")]}


def test_search_limit(capsys):
    code, doc = run(capsys, "search", "--q", "7", "--n", "5", "--k", "3", "--limit", "7")
    assert code == 0
    assert doc["count"] == 7
    assert all(set(hit) == {"alpha", "eta", "method"} for hit in doc["hits"])


def test_search_empty_layout_means_no_twists(capsys):
    # an explicit empty --t/--h searches plain RS codes, as check-mds reads it
    code, doc = run(
        capsys, "search", "--q", "7", "--n", "5", "--k", "3", "--t", "", "--h", "", "--limit", "1"
    )
    assert code == 0
    assert doc["count"] == 1
    assert doc["hits"][0]["eta"] == [] and doc["hits"][0]["method"] == "theorem31"


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


def test_subfield_construct_refuses_a_chain_that_is_not_nested(capsys):
    # F_4 is not inside F_8; on this chain the code is not MDS (witness [0, 3])
    code, doc = run(
        capsys, "subfield-construct", "--q", "64", "--chain", "4,8,64",
        "--alpha", "0,1,a^5 + a^4 + a^3 + a,a^5 + a^4 + a^3 + a + 1", "--k", "2", "--t", "1,2",
        "--h", "0,1", "--eta", "a^4 + a^3 + 1,a^5 + a^4 + a^3 + a + 1",
    )
    assert code == 1
    assert doc == {
        "error": {"type": "ValueError", "message": "chain (4, 8, 64) is not nested: F_4 is not a subfield of F_8"}
    }


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
        dict(EX32_PROFILE, field={"p": 2.9, "m": 4.7, "modulus": [1, 1, 0, 0, 1]}),
        dict(EX32_PROFILE, field={"p": 2, "m": 4, "modulus": "11001"}),
        dict(EX32_PROFILE, field={"p": 2, "m": 4, "modulus": [1, 1, 0, 0, True]}),
        without(EX32_PROFILE, "k"),
        without(EX32_PROFILE, "alpha"),
        without(EX32_PROFILE, "field"),
        dict(EX32_PROFILE, field=without(EX32_PROFILE["field"], "modulus")),
    ],
)
def test_malformed_profile_exit_code_1(tmp_path, capsys, doc):
    path = write_profile(tmp_path, doc)
    code, out = run(capsys, "hull", "--profile", path)
    assert code == 1
    assert out["error"]["type"] == "ValueError"
    assert out["error"]["message"].startswith("malformed profile: ")


def test_deeply_nested_profile_exit_code_1(tmp_path, capsys):
    # json.load runs out of stack on 100 000 nested arrays
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out = run(capsys, "hull", "--profile", str(path))
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


@pytest.mark.parametrize(
    "alpha,eta,bad",
    [("0,1,a,a^2,a+1", "7,3", 7), ("0,5,10,a,a+1", "1,3", 5)],
)
def test_element_string_at_least_p_exit_code_1(capsys, alpha, eta, bad):
    # over GF(25) the item "7" would read as the constant 2, and "0,5,10"
    # as the repeated points 0, 0, 0
    code, doc = run(
        capsys, "check-mds", "--q", "25", "--alpha", alpha, "--k", "3",
        "--t", "1,2", "--h", "0,1", "--eta", eta,
    )
    assert code == 1
    assert doc["error"]["type"] == "ValueError"
    message = doc["error"]["message"]
    assert f"constant {bad} mod 5 = {bad % 5}" in message and f"element index {bad}" in message


def test_element_flags_help_says_polynomials_in_a(capsys):
    with pytest.raises(SystemExit):
        cli_main(["check-mds", "--help"])
    assert " ".join(capsys.readouterr().out.split()).count("polynomials in a") == 2


@pytest.mark.parametrize("alpha", [(), ("--alpha", ",".join(map(str, range(1, 41))))])
def test_search_past_the_scan_budget_exit_code_1(capsys, alpha):
    code, doc = run(capsys, "search", "--q", "41", "--n", "40", "--k", "20", "--limit", "1", *alpha)
    assert code == 1
    assert doc["error"] == {
        "type": "BudgetExceededError",
        "message": "C(40,20) subsets exceed the scan budget 10000000",
    }


@pytest.mark.parametrize("method", ["remark44", "theorem42"])
def test_per_pair_verdict_past_the_scan_budget_exit_code_1(capsys, method):
    """A witness early in the scan does not excuse the C(40,20) subsets."""
    alpha = ",".join(map(str, range(1, 41)))
    code, doc = run(
        capsys, "check-mds", "--q", "41", "--alpha", alpha, "--k", "20",
        "--t", "1,2", "--h", "0,1", "--eta", "3,5", "--method", method,
    )
    assert code == 1
    assert doc["error"] == {
        "type": "BudgetExceededError",
        "message": "C(40,20) subsets exceed the scan budget 10000000",
    }


def test_unbounded_exhaustive_search_past_the_scan_budget_exit_code_1(capsys):
    # C(31,8) evaluation sets times 30^2 eta pairs
    code, doc = run(capsys, "search", "--q", "31", "--n", "8", "--k", "3")
    assert code == 1
    assert doc["error"] == {
        "type": "BudgetExceededError",
        "message": "7099852500 (alpha, eta) pairs exceed the scan budget 10000000",
    }
    # a positive limit stops the walk, so it is not checked
    code, doc = run(capsys, "search", "--q", "31", "--n", "8", "--k", "3", "--limit", "3")
    assert code == 0 and doc["count"] == 3
    # C(7,5) * 6^2 = 756 pairs fit: every hit is listed
    code, doc = run(capsys, "search", "--q", "7", "--n", "5", "--k", "3")
    assert code == 0 and doc["count"] == count_mds_double_twisted(EnumTask(7, 5, 3)).total_count


def test_bruteforce_count_past_the_scan_budget_exit_code_1_at_once(capsys):
    # C(16,10) * 15^2 * C(10,5) k-subsets, each code's minors walked in Python
    start = time.perf_counter()
    code, doc = run(capsys, "enumerate", "--q", "16", "--n", "10", "--k", "5", "--criterion", "bruteforce")
    assert time.perf_counter() - start < 1
    assert code == 1
    assert doc["error"] == {
        "type": "BudgetExceededError",
        "message": "454053600 k-subsets exceed the scan budget 10000000",
    }
    # the closed form counts the same cell, as in goldens/table1 (q = 16)
    code, doc = run(capsys, "enumerate", "--q", "16", "--n", "10", "--k", "5")
    assert code == 0 and doc["count"] == 39


BIG_PRIME = 1000000000000000003


@pytest.mark.parametrize(
    "argv,order",
    [
        (["enumerate", "--q", str(BIG_PRIME), "--n", "4", "--k", "2"], BIG_PRIME),
        (["check-mds", "--q", str(BIG_PRIME), "--alpha", "0,1,2,3", "--k", "2"], BIG_PRIME),
        (["hull", "--profile", dict(GF7_PROFILE, field={"p": BIG_PRIME, "m": 1, "modulus": [0, 1]})], BIG_PRIME),
        (["hull", "--profile", dict(GF7_PROFILE, field={"p": 3, "m": 10**7, "modulus": [0, 1]})], "3^10000000"),
    ],
)
def test_field_order_past_the_cap_exit_code_1_at_once(capsys, tmp_path, argv, order):
    argv = [write_profile(tmp_path, a) if isinstance(a, dict) else a for a in argv]
    start = time.perf_counter()
    code, doc = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert doc["error"] == {"type": "ValueError", "message": f"field order {order} exceeds the 2^16 cap"}


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["check-mds", "--q", "7", "--alpha", "0,1,2,3", "--k", "2", "--t", "1,x", "--h", "0,1", "--eta", "1,2"],
         "--t"),
        (["search", "--q", "7", "--n", "5", "--k", "3", "--h", "0,y"], "--h"),
        (["subfield-construct", "--q", "16", "--chain", "4,z", "--alpha", "0,1", "--k", "1", "--t", "1", "--h", "0",
          "--eta", "a"], "--chain"),
        (["hull", "--q", "16", "--modulus", "1,x", "--alpha", "0,1,a", "--k", "2"], "--modulus"),
    ],
)
def test_malformed_integer_list_flag_exit_code_2(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: invalid literal for int()" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["construct-even", "--k", "3", "--t", "2,3", "--h", "1,2", "--eta", "a^3,a^3+a^2"],
        ["construct-odd", "--k", "5", "--t", "1,2", "--h", "2,3", "--eta", "a^3+a^2,a"],
        ["subfield-construct", "--chain", "4,16", "--alpha", "0,1", "--k", "1", "--t", "1", "--h", "0", "--eta", "a"],
        ["search", "--n", "5", "--k", "3"],
    ],
)
def test_missing_q_exit_code_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    assert "the following arguments are required: --q" in capsys.readouterr().err


def test_subfield_construct_without_twists(capsys, tmp_path):
    # ell = 0: "" is the empty list on --t, --h and --eta, as check-mds reads them
    code, doc = run(
        capsys, "subfield-construct", "--q", "16", "--chain", "16", "--alpha", "0,1", "--k", "1",
        "--t", "", "--h", "", "--eta", "",
    )
    assert code == 0
    assert (doc["t"], doc["h"], doc["eta"]) == ([], [], [])
    assert doc["verdict"]["is_mds"] is True
    code2, mds_doc = run(capsys, "check-mds", "--profile", write_profile(tmp_path, doc))
    assert code2 == 0 and mds_doc["agree"] and mds_doc["verdicts"][0]["is_mds"]


@pytest.mark.parametrize(
    "argv",
    [
        ["construct-even", "--q", "16", "--k", "3", "--t", "", "--h", "", "--eta", ""],
        ["construct-odd", "--q", "81", "--k", "5", "--t", "1,2", "--h", "2,3", "--eta", ""],
    ],
)
def test_construct_without_eta_exit_code_1(capsys, argv):
    code, doc = run(capsys, *argv)
    assert code == 1
    assert doc["error"]["type"] == "ValueError"
    assert doc["error"]["message"].startswith("need at least one twist")


def test_search_empty_alpha_means_no_fixed_vector(capsys):
    argv = ["search", "--q", "7", "--n", "5", "--k", "3", "--limit", "4"]
    assert run(capsys, *argv, "--alpha", "") == run(capsys, *argv)


def test_empty_modulus_means_the_default_modulus(capsys):
    argv = ["construct-even", "--q", "16", "--k", "3", "--t", "2,3", "--h", "1,2", "--eta", "a^3,a^3+a^2"]
    code, doc = run(capsys, *argv, "--modulus", "")
    assert code == 0 and doc["field"]["modulus"] == [1, 1, 0, 0, 1]
    assert (code, doc) == run(capsys, *argv)


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
    # a field is named by its order; --p/--m are no longer flags
    code_flags = ("--alpha", "0,1,a,a^2", "--k", "2", "--t", "1", "--h", "0", "--eta", "a^3")
    code, doc = run(capsys, "check-mds", "--q", "16", "--modulus", "1,1,0,0,1", *code_flags)
    assert code == 0
    assert [v["method"] for v in doc["verdicts"]] == ["theorem31"]
    # nor prefixes of other flags: on hull --p would read as --profile
    for command in ("check-mds", "hull"):
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--p", "2", "--m", "4", "--modulus", "1,1,0,0,1", *code_flags])
        assert exc.value.code == 2


def _fresh_env() -> dict:
    """The environment of a new interpreter that imports this package."""
    src = str(Path(twistedrs.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _fresh_python(code: str) -> str:
    """Stdout of code run in a new interpreter that imports this package."""
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_fresh_env(), capture_output=True, text=True, timeout=60, check=True
    )
    return proc.stdout.strip()


def _readme_cli_examples():
    """(argv lists, profile text) from README's "CLI" section: its command
    block with the backslash continuations joined, and its JSON profile."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    commands = section.split("\n```\n", 2)[1]
    profile = section.split("\n```json\n", 1)[1].split("\n```", 1)[0]
    return [shlex.split(line) for line in commands.replace("\\\n", " ").splitlines()], profile


README_CLI, README_PROFILE = _readme_cli_examples()


def test_readme_cli_examples_cover_every_subcommand():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert all(argv[0] == "twistedrs" for argv in README_CLI)
    assert {argv[1] for argv in README_CLI} == set(sub.choices)


@pytest.mark.parametrize("argv", README_CLI)
def test_readme_cli_example_exits_0(capsys, tmp_path, monkeypatch, argv):
    # code.json is the section's profile; relative paths such as --out land in tmp_path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "code.json").write_text(README_PROFILE, encoding="utf-8")
    code = cli_main(argv[1:])
    assert code == 0, capsys.readouterr().out


def test_cli_import_leaves_numpy_unloaded():
    """Importing the CLI, validating a count's task and refusing an
    over-budget count all run without numpy."""
    for code in (
        "import twistedrs, twistedrs.cli",
        "from twistedrs.enumeration import EnumTask; EnumTask(7, 5, 3)",
        "from twistedrs.cli import cli_main; assert cli_main(['enumerate', '--q', '43', '--n', '4', '--k', '2']) == 1",
    ):
        out = _fresh_python(f"import sys; {code}; print('numpy' in sys.modules)")
        assert out.splitlines()[-1] == "False"


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
