import json
import os
import subprocess
import sys

import pytest

from bigraded import cli
from bigraded.cli import main

PKG_SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_cli(args, **kw):
    env = dict(os.environ)
    env["PYTHONPATH"] = PKG_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.setdefault("PYTHONHASHSEED", "random")
    env.update(kw.pop("env", {}))
    return subprocess.run(
        [sys.executable, "-m", "bigraded.cli"] + args,
        capture_output=True,
        text=True,
        env=env,
        **kw,
    )


def test_exit_codes():
    assert main(["ranges", "--a", "3", "--b", "2", "--e", "-1", "--check", "3,1"]) == 0
    assert main(["ranges", "--a", "4", "--b", "3", "--e", "-5", "--check", "6,4"]) == 1
    assert main(["ranges", "--a", "3", "--b", "2", "--e", "-1", "--check", "zzz"]) == 2


def test_homology_beyond_paper_box(capsys):
    # the letter alphabet at this box is larger than the recursion limit
    assert main(["homology", "--preset", "vanishB", "--box", "14,14"]) == 0
    assert "14" in capsys.readouterr().out


def test_bad_preset_prime_is_input_error(capsys):
    assert main(["homology", "--preset", "intstab-fl(x)"]) == 2
    assert "bad prime" in capsys.readouterr().err


def test_vanish_check_exit_codes(capsys):
    assert main(["vanish-check", "--preset", "vanishA", "--box", "6,6"]) == 0
    capsys.readouterr()
    # a slope bound above the true line produces a counterexample exit
    assert main(["vanish-check", "--preset", "vanishA", "--box", "6,6", "--slope", "99/100"]) == 1
    out = capsys.readouterr().out
    assert "COUNTEREXAMPLE" in out


def test_json_reports_are_valid_and_deterministic_across_processes():
    battery = [
        ["taut", "pair", "--paper-6-3", "--format", "json"],
        ["slope-box", "--high", "3/4", "--format", "json"],
        ["sp4", "subsets", "--format", "json"],
        ["vanish-check", "--preset", "vanishA", "--box", "6,6", "--format", "json"],
        ["poset", "fuzz", "--campaign", "nerve", "--count", "50", "--max-size", "8",
         "--seed", "5", "--threads", "1", "--format", "json"],
        ["report", "figure-rat", "--format", "json"],
    ]
    for args in battery:
        r1 = run_cli(args, env={"PYTHONHASHSEED": "1"})
        r2 = run_cli(args, env={"PYTHONHASHSEED": "271828"})
        assert r1.returncode == 0, r1.stderr
        assert r1.stdout == r2.stdout, args
        json.loads(r1.stdout)


def test_sp4_phi_text():
    r = run_cli(["sp4", "phi", "--swap"])
    assert r.stdout.strip() == "(12)(34)(56) odd"
    r2 = run_cli(["sp4", "phi", "--matrix", "0,0,1,0;0,0,0,1;1,0,0,0;0,1,0,0"])
    assert r2.stdout.strip() == "(12)(34)(56) odd"


def test_taut_coproduct_restrict():
    r = run_cli(
        [
            "taut", "coproduct", "--expr",
            "80435*k1^7+21719880*k1^5*k2+1387036224*k1^3*k2^2+17581100544*k1*k2^3",
            "--n", "5", "--restrict", "k1,k1,k1,{k1^2|k2},{k1^2|k2}", "--format", "json",
        ]
    )
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    coeffs = sorted(t["coeff"] for t in payload["result"]["terms"])
    assert coeffs == ["101348100", "1303192800", "1303192800", "16644434688"]


def test_abelianize_and_snf(tmp_path):
    pres = tmp_path / "b3.pres"
    pres.write_text("gens: a b\nrel: a b a B A B\n")
    r = run_cli(["abelianize", "--in", str(pres)])
    assert r.stdout.strip() == "Z"
    mat = tmp_path / "m.txt"
    mat.write_text("2 0\n0 3\n")
    r2 = run_cli(["la", "snf", "--in", str(mat), "--format", "json"])
    payload = json.loads(r2.stdout)
    assert payload["result"]["factors"] == [1, 6]


def test_homology_csv_and_svg(tmp_path):
    r = run_cli(["homology", "--preset", "A-algebra-fl(2)", "--box", "4,2", "--format", "csv"])
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "g,d,dim"
    assert "2,1,1" in lines
    user = tmp_path / "koszul.cdga"
    user.write_text("[s,s] 2 1\nrho 2 2\nd rho = [s,s]\n")
    r_user = run_cli(["homology", "--cdga", str(user), "--field", "Q", "--box", "6,6",
                      "--format", "json"])
    assert r_user.returncode == 0, r_user.stderr
    assert json.loads(r_user.stdout)["result"]["dims"] == {"0,0": 1}
    r2 = run_cli(["vanish-check", "--preset", "vanishA", "--box", "6,6", "--format", "svg"])
    assert r2.returncode == 0
    assert r2.stdout.startswith("<svg") and "</svg>" in r2.stdout


def test_report_figures():
    r = run_cli(["report", "figure-lgens", "--format", "json"])
    payload = json.loads(r.stdout)
    cells = {(c["g"], c["d"]): c["label"] for c in payload["result"]["cells"]}
    assert cells == {
        (1, 0): "sigma",
        (2, 1): "[sigma,sigma]",
        (2, 2): "rho",
        (3, 2): "lambda",  # no [sigma,[sigma,sigma]] in this cell
        (3, 3): "[sigma,rho]",
        (4, 3): "[sigma,lambda]",
    }
    assert all(c["provenance"] == "computed" for c in payload["result"]["cells"])
    r2 = run_cli(["report", "figure-rat", "--format", "json"])
    payload2 = json.loads(r2.stdout)
    assert all(c["provenance"] == "paper-fixture" for c in payload2["result"]["cells"])
    rat = {(c["g"], c["d"]): c["label"] for c in payload2["result"]["cells"]}
    assert rat[(9, 6)] == "Q^3" and rat[(6, 4)] == "Q^2" and rat[(2, 3)] == "Q"


def test_taut_pair_functionals_file(tmp_path):
    # reproduce the recorded pairing from a user functionals file
    f = tmp_path / "pairing.fn"
    f.write_text(
        "functional lam\n"
        "k1 = u\n"
        "functional x\n"
        "k2 = t\n"
        "k1^2 = -72/5*t\n"
        "pair: 80435*k1^7+21719880*k1^5*k2+1387036224*k1^3*k2^2+17581100544*k1*k2^3\n"
        "slots: lam lam lam x x\n"
    )
    r = run_cli(["taut", "pair", "--functionals", str(f), "--format", "json"])
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["result"]["pairing"] == "128024064*t^2*u^3"
    assert len(payload["result"]["contributing_terms"]) == 4


def test_nerve_check_cli(tmp_path):
    (tmp_path / "X.pos").write_text("c0 < c1\nc1 < c2\n")
    (tmp_path / "A.pos").write_text("*\n")
    (tmp_path / "F.cov").write_text("* : c0 c1 c2\n")
    (tmp_path / "tx.w").write_text("c0 0\nc1 1\nc2 2\n")
    (tmp_path / "ta.w").write_text("* 0\n")
    r = run_cli(
        ["nerve", "check", "--poset", str(tmp_path / "X.pos"), "--A", str(tmp_path / "A.pos"),
         "--cover", str(tmp_path / "F.cov"), "--n", "2", "--tx", str(tmp_path / "tx.w"),
         "--ta", str(tmp_path / "ta.w"), "--format", "json"]
    )
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["result"]["hypotheses_hold"] and payload["result"]["conclusion_holds"]


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "wb.cfg"
    cfg.write_text("format = json\n")
    r = run_cli(["slope-box", "--high", "3/4", "--config", str(cfg)])
    json.loads(r.stdout)  # config set the format
    # flags win over config
    r2 = run_cli(["slope-box", "--high", "3/4", "--config", str(cfg), "--format", "text"])
    with pytest.raises(json.JSONDecodeError):
        json.loads(r2.stdout)
    # unknown keys rejected
    bad = tmp_path / "bad.cfg"
    bad.write_text("zzz = 1\n")
    r3 = run_cli(["slope-box", "--high", "3/4", "--config", str(bad)])
    assert r3.returncode == 2


def test_threads_env_validation():
    r = run_cli(
        ["poset", "fuzz", "--campaign", "poset-map", "--count", "10", "--max-size", "6",
         "--seed", "3"],
        env={"WORKBENCH_THREADS": "bogus"},
    )
    assert r.returncode == 2
    r2 = run_cli(
        ["poset", "fuzz", "--campaign", "poset-map", "--count", "40", "--max-size", "6",
         "--seed", "3", "--format", "json"],
        env={"WORKBENCH_THREADS": "2"},
    )
    assert r2.returncode == 0, r2.stderr
    # sharded run matches a single-threaded run of the same configuration
    r3 = run_cli(
        ["poset", "fuzz", "--campaign", "poset-map", "--count", "40", "--max-size", "6",
         "--seed", "3", "--format", "json"],
        env={"WORKBENCH_THREADS": "1"},
    )
    assert json.loads(r2.stdout)["result"] == json.loads(r3.stdout)["result"]


def test_input_error_exits_2(tmp_path):
    r = run_cli(["homology", "--preset", "nonsense"])
    assert r.returncode == 2 and "error:" in r.stderr
    r2 = run_cli(["la", "snf", "--in", str(tmp_path / "missing.txt")])
    assert r2.returncode == 2


def test_out_flag(tmp_path):
    dest = tmp_path / "o.json"
    assert main(["sp4", "phi", "--swap", "--format", "json", "--out", str(dest)]) == 0
    assert json.loads(dest.read_text())["result"]["parity"] == "odd"


def _nerve_argv(cover="F.cov", tx="tx.w", ta="ta.w"):
    return ["nerve", "check", "--poset", "X.pos", "--A", "A.pos", "--cover", cover, "--n", "1",
            "--tx", tx, "--ta", ta]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lie-basis", "--gens", "gens.txt", "--box", "4,3"], "bad generator line"),
        (["betti", "--gens", "gens.txt", "--box", "4,3"], "bad generator line"),
        (["vanish-check", "--preset", "vanishA", "--box", "6,6", "--line", "3/4"], "bad line"),
        (["sp4", "phi"], "need --matrix or --swap"),
        (["poset", "fuzz", "--campaign", "nerve", "--max-size", "0"], "maximum poset size"),
        (["poset", "fuzz", "--campaign", "nerve", "--count", "-5"], "instance count"),
        (["sp4", "verify", "--pairs", "-1"], "--pairs must be >= 0"),
        (["homology", "--preset", f"intstab-fl({10**400})", "--box", "3,3"], "below 2**31"),
        (["homology", "--preset", "intstab-fl(1000000000000000003)", "--box", "3,3"], "below 2**31"),
        (["homology", "--cdga", "gens.txt", "--field", "F1000000000000000003"], "below 2**31"),
        (_nerve_argv(tx="tx_short.w"), "no weight for c1"),
        (_nerve_argv(ta="ta_bad.w"), "bad weight line"),
        (_nerve_argv(cover="F_extra.cov"), "not an element of the index poset"),
    ],
)
def test_bad_inputs_are_input_errors(argv, message, tmp_path, monkeypatch, capsys):
    (tmp_path / "gens.txt").write_text("a x 1\n")
    files = {
        "X.pos": "c0 < c1\n",
        "A.pos": "u\n",
        "F.cov": "u : c0 c1\n",
        "F_extra.cov": "u : c0 c1\nv : c0\n",
        "tx.w": "c0 0\nc1 1\n",
        "tx_short.w": "c0 0\n",
        "ta.w": "u 0\n",
        "ta_bad.w": "u x\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_config_values_are_typed_like_flags(tmp_path, capsys):
    cfg = tmp_path / "wb.cfg"
    cfg.write_text("gmax = 5\nformat = json\n")
    assert main(["slope-box", "--high", "3/4", "--config", str(cfg)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"]["gmax"] == 5 and "auto_gmax" not in payload["result"]
    cfg.write_text("count = 5\nthreads = 2\nmax_size = 6\n")
    argv = ["poset", "fuzz", "--campaign", "nerve", "--seed", "3", "--config", str(cfg)]
    assert main(argv + ["--format", "json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["instances"] == 5
    # a later flag wins over the config file
    assert main(argv + ["--count", "2", "--threads", "1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["instances"] == 2


@pytest.mark.parametrize("line", ["count = many", "timings = yes", "nonsense = 1"])
def test_bad_config_lines_are_input_errors(line, tmp_path):
    cfg = tmp_path / "wb.cfg"
    cfg.write_text(line + "\n")
    assert main(["poset", "fuzz", "--campaign", "nerve", "--count", "1", "--config", str(cfg)]) == 2


def test_bare_config_key_sets_a_boolean_flag(tmp_path, capsys):
    cfg = tmp_path / "wb.cfg"
    cfg.write_text("timings\nformat = json\n")
    assert main(["slope-box", "--high", "3/4", "--config", str(cfg)]) == 0
    assert "wall_ms" in json.loads(capsys.readouterr().out)


def test_timings_flag_adds_wall_ms(capsys):
    argv = ["slope-box", "--high", "3/4", "--format", "json"]
    assert main(argv) == 0
    assert "wall_ms" not in json.loads(capsys.readouterr().out)
    assert main(argv + ["--timings"]) == 0
    assert json.loads(capsys.readouterr().out)["wall_ms"] >= 0


def test_internal_error_exits_3(monkeypatch, capsys):
    def broken(args):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "cmd_slope_box", broken)
    assert main(["slope-box", "--high", "3/4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "internal error: ValueError('boom')" in captured.err


def test_broken_pipe_exits_0(monkeypatch):
    def closed(args):
        raise BrokenPipeError

    monkeypatch.setattr(cli, "cmd_slope_box", closed)
    assert main(["slope-box", "--high", "3/4"]) == 0


def test_out_of_range_check_reports_counterexample(capsys):
    assert main(["ranges", "--a", "4", "--b", "3", "--e", "-5", "--check", "6,4",
                 "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "counterexample"


def test_argparse_exits_are_returned(capsys):
    assert main(["slope-box", "--high", "3/4", "--format", "xml"]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert main(["slope-box", "--help"]) == 0
    assert "usage:" in capsys.readouterr().out
