import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from bigraded import cdga, cli, freealg, posets
from bigraded.cli import main
from bigraded.errors import InputError
from bigraded.grading import VanishingLine

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


def test_lie_basis_deeper_than_the_recursion_limit(tmp_path, capsys):
    """The Lyndon walk keeps an explicit stack, so a box deeper than the
    recursion limit lists its words; no entry point takes a box past
    grading.MAX_BOX_BOUND, so the deep box is the walk's own."""
    words = freealg._lyndon_words([freealg.gen("sigma", 1, 0)], 3000, 3000)
    assert [name for *_, name in words] == ["sigma"]
    gens = tmp_path / "g.txt"
    gens.write_text("sigma 1 0\n")
    argv = ["lie-basis", "--gens", str(gens), "--box", "3000,3000", "--format", "json"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: box bounds must be <= 128, got 3000,3000\n")


def test_bad_preset_prime_is_input_error(capsys):
    assert main(["homology", "--preset", "intstab-fl(x)"]) == 2
    assert "bad prime" in capsys.readouterr().err


_CERTIFIED = "CERTIFIED: homology below d < {}*g in box ({}, {})\n"


@pytest.mark.parametrize(
    "preset, box, code, text",
    [
        # boxes that leave out letters the preset's differential names
        ("vanishA", "2,2", 0, _CERTIFIED.format("3/4", 2, 2)),
        ("vanishA", "1,1", 0, _CERTIFIED.format("3/4", 1, 1)),
        ("vanishB", "3,3", 0, _CERTIFIED.format("4/5", 3, 3)),
        ("intstab-f2", "2,2", 0, _CERTIFIED.format("3/4", 2, 2)),
        ("A-algebra-fl(3)", "3,1", 1, "COUNTEREXAMPLE: homology below d < 3/4*g in box (3, 1)\n"),
        ("intstab-f2", "3,1", 0, _CERTIFIED.format("3/4", 3, 1)),
        ("vanishA", "0,3", 2, "error: box bounds must be >= 1\n"),
        ("A-algebra-fl(3)", "3,0", 2, "error: box bounds must be >= 1\n"),
    ],
)
def test_preset_boxes_smaller_than_their_letters(preset, box, code, text, capsys):
    """Any box of at least 1,1 runs, also one that leaves out letters the
    preset's differential names, and its table is the 8,8 table restricted
    to the box; a box bound below 1 is an input error."""
    argv = ["vanish-check", "--preset", preset, "--box", box]
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 2:
        assert (captured.out, captured.err) == ("", text)
        return
    assert captured.err == "" and captured.out.startswith(text)
    tables = []
    for b in (box, "8,8"):
        assert main([*argv[:3], "--box", b, "--format", "json"]) in (0, 1)
        tables.append(json.loads(capsys.readouterr().out)["result"]["dims"])
    g_max, d_max = map(int, box.split(","))
    assert tables[0] == {
        cell: n for cell, n in tables[1].items()
        if int(cell.split(",")[0]) <= g_max and int(cell.split(",")[1]) <= d_max
    }


def test_presets_and_betti_enumerate_no_lyndon_word(monkeypatch, tmp_path, capsys):
    """The presets and the Betti tables count their alphabets: with the
    Lyndon enumeration broken, `homology`, `vanish-check` on every preset
    and `betti` print what they print with it, and `lie-basis`, which
    names its words, fails."""
    (tmp_path / "gens.txt").write_text("sigma 1 0\ntau 1 1\nrho 2 2\n")
    monkeypatch.chdir(tmp_path)
    presets = ["vanishA", "vanishB", "intstab-f2", "intstab-fl(3)", "A-algebra-fl(5)", "A-algebra-fl(2)"]
    runs = [[cmd, "--preset", p, "--box", "8,8"] for cmd in ("homology", "vanish-check") for p in presets]
    runs += [["betti", "--gens", "gens.txt", "--box", "8,8", "--field", f] for f in ("Q", "F2")]
    expected = []
    for argv in runs:
        expected.append((main(argv), capsys.readouterr()))

    def enumerate_nothing(*_):
        raise AssertionError("a Lyndon word was enumerated")

    monkeypatch.setattr(freealg, "_lyndon_words", enumerate_nothing)
    for argv, (code, captured) in zip(runs, expected):
        assert code in (0, 1) and (main(argv), capsys.readouterr()) == (code, captured), argv
    assert main(["lie-basis", "--gens", "gens.txt", "--box", "4,4"]) == 3


def test_vanish_check_exit_codes(capsys):
    assert main(["vanish-check", "--preset", "vanishA", "--box", "6,6"]) == 0
    capsys.readouterr()
    # a slope bound above the true line produces a counterexample exit
    assert main(["vanish-check", "--preset", "vanishA", "--box", "6,6", "--slope", "99/100"]) == 1
    out = capsys.readouterr().out
    assert "COUNTEREXAMPLE" in out


def test_vanish_check_takes_its_default_line_from_the_library(tmp_path, monkeypatch, capsys):
    """Without --slope or --line, the line is `cdga.default_line`'s, for a
    preset, with its prime, and for a --cdga complex alike."""
    asked = []

    def default_line(preset=None, ell=None):
        asked.append((preset, ell))
        return VanishingLine(Fraction(1, 7), Fraction(2))

    (tmp_path / "a.cdga").write_text("a 1 0\n")
    monkeypatch.setattr(cdga, "default_line", default_line)
    complexes = [["--preset", "vanishB"], ["--preset", "intstab-fl", "--ell", "5"], ["--cdga", str(tmp_path / "a.cdga")]]
    for argv in complexes:
        main(["vanish-check", "--box", "4,4", *argv])
        assert "homology below d < 1/7*(g - 2) in box (4, 4)" in capsys.readouterr().out
    assert asked == [("vanishB", None), ("intstab-fl", 5), (None, None)]


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


def _inline_pool(monkeypatch):
    """Stub the worker pool with one that runs the shards inline, so no
    process is started; returns the list of the pool sizes asked for."""
    import concurrent.futures

    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return sizes


def test_worker_pool_is_capped_at_the_shard_count(monkeypatch):
    """The pool forks all of its workers at once, so it gets no more than
    there are shards.  A stub records the pool size and runs the shards
    inline: no process is started."""
    sizes = _inline_pool(monkeypatch)
    for count, threads, workers in ((40, 5000, 16), (3, 5000, 3), (40, 2, 2)):
        rep = cli.run_fuzz_sharded("poset-map", count, 5, 7, threads)
        assert sizes[-1] == workers
        assert rep == cli.run_fuzz_sharded("poset-map", count, 5, 7, 1)
    assert len(sizes) == 3


@pytest.mark.parametrize(
    "count, max_size, message",
    [
        (40, 0, "maximum poset size must be >= 1, got 0"),
        (40, 65, "maximum poset size must be <= 64, got 65"),
        (40, 500, "maximum poset size must be <= 64, got 500"),
        (-5, 12, "instance count must be >= 0, got -5"),
    ],
)
def test_bad_campaign_bounds_start_no_pool(count, max_size, message, monkeypatch):
    """The campaign bounds are checked before any shard or pool is made:
    without the check, a count of -5 would make no shard and an empty
    report.  Stubs record every pool and shard: none is started."""
    import concurrent.futures

    started = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda max_workers: started.append(max_workers))
    monkeypatch.setattr(cli, "_fuzz_shard", lambda *job: started.append(job))
    with pytest.raises(InputError, match=f"^{message}$"):
        cli.run_fuzz_sharded("nerve", count, max_size, 7, threads=4)
    assert started == []


def test_unknown_campaign_is_input_error():
    with pytest.raises(InputError, match="^unknown campaign 'bogus'$"):
        cli.run_fuzz_sharded("bogus", 40, 5, 7)


def test_poset_fuzz_reports_a_planted_counterexample(monkeypatch, capsys):
    """Demanding one degree more of the map plants violations, as in
    tests/test_posets.py: the command exits 1 with status counterexample,
    and its second text line is the JSON of the report's counterexamples."""
    real = posets.map_is_n_connected
    monkeypatch.setattr(posets, "map_is_n_connected", lambda f, n: real(f, n + 1))
    _inline_pool(monkeypatch)
    argv = ["poset", "fuzz", "--campaign", "poset-map", "--count", "60", "--max-size", "7",
            "--seed", "0", "--threads", "2"]
    assert main(argv + ["--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "counterexample" and report["result"]["counterexamples"]
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == json.dumps(report["result"]["counterexamples"], sort_keys=True)


def test_input_error_exits_2(tmp_path):
    r = run_cli(["homology", "--preset", "nonsense"])
    assert r.returncode == 2 and "error:" in r.stderr
    r2 = run_cli(["la", "snf", "--in", str(tmp_path / "missing.txt")])
    assert r2.returncode == 2


def test_out_flag(tmp_path):
    dest = tmp_path / "o.json"
    assert main(["sp4", "phi", "--swap", "--format", "json", "--out", str(dest)]) == 0
    assert json.loads(dest.read_text())["result"]["parity"] == "odd"


def _nerve_argv(cover="F.cov", tx="tx.w", ta="ta.w", A="A.pos"):
    return ["nerve", "check", "--poset", "X.pos", "--A", A, "--cover", cover, "--n", "1",
            "--tx", tx, "--ta", ta]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lie-basis", "--gens", "gens.txt", "--box", "4,3"], "bad generator line"),
        (["betti", "--gens", "gens.txt", "--box", "4,3"], "bad generator line"),
        (["betti", "--gens", "sigma.txt", "--box", "0,3", "--field", "F2"], "box bounds must be >= 1"),
        (["betti", "--gens", "sigma.txt", "--box", "3,-1", "--field", "F2"], "box bounds must be >= 1"),
        # one box rule for every subcommand that takes a box, checked before any work
        (["vanish-check", "--cdga", "sigma.txt", "--box=-2,-2"], "box bounds must be >= 1"),
        (["homology", "--cdga", "sigma.txt", "--box=-1,3"], "box bounds must be >= 1"),
        (["homology", "--cdga", "gens.txt", "--box", "0,3"], "box bounds must be >= 1"),
        (["homology", "--preset", "vanishA", "--box", "1000000000,1"], "box bounds must be <= 128, got"),
        (["vanish-check", "--preset", "nonsense", "--box", "3,129"], "box bounds must be <= 128, got 3,129"),
        (["betti", "--gens", "gens.txt", "--box", "129,1"], "box bounds must be <= 128, got 129,1"),
        (["lie-basis", "--gens", "sigma.txt", "--box", "1,1000000"], "box bounds must be <= 128"),
        # the words are counted before any is named
        (["lie-basis", "--gens", "slr.txt", "--box", "28,28"], "the basis has 395433 words; at most 200000"),
        (["vanish-check", "--preset", "vanishA", "--box", "6,6", "--line", "3/4"], "bad line"),
        (["sp4", "phi"], "need --matrix or --swap"),
        (["poset", "fuzz", "--campaign", "nerve", "--max-size", "0"], "maximum poset size"),
        (["poset", "fuzz", "--campaign", "nerve", "--max-size", "65"],
         "maximum poset size must be <= 64, got 65"),
        (["poset", "fuzz", "--campaign", "nerve", "--count", "-5"], "instance count"),
        (["poset", "fuzz", "--campaign", "nerve", "--threads", "0"], "--threads must be >= 1, got 0"),
        (["poset", "fuzz", "--campaign", "nerve", "--threads", "-3"], "--threads must be >= 1, got -3"),
        (["sp4", "verify", "--pairs", "-1"], "--pairs must be >= 0"),
        (["homology", "--preset", f"intstab-fl({10**400})", "--box", "3,3"], "below 2**31"),
        (["homology", "--preset", "intstab-fl(1000000000000000003)", "--box", "3,3"], "below 2**31"),
        (["homology", "--cdga", "gens.txt", "--field", "F1000000000000000003"], "below 2**31"),
        (_nerve_argv(tx="tx_short.w"), "no weight for c1"),
        (_nerve_argv(ta="ta_bad.w"), "bad weight line"),
        (_nerve_argv(cover="F_extra.cov"), "not an element of the index poset"),
        (_nerve_argv(tx="tx_dup.w"), "second weight for c0"),
        (_nerve_argv(tx="tx_extra.w"), "weight for zz"),
        (_nerve_argv(cover="F_dup.cov"), "second cover line for u"),
        (_nerve_argv(cover="F_nocolon.cov"), "bad cover line: 'u c0 c1'"),
        (_nerve_argv(cover="F_outside.cov"), "cover value zz not in the covered poset"),
        (_nerve_argv(A="A2.pos"), "cover functor missing value at v"),
        (["homology", "--cdga", "dup.cdga"], "duplicate letter names"),
        (["homology", "--cdga", "no_eq.cdga"], "bad differential line: 'd b 1'"),
        (["taut", "gysin", "--expr", "l1*e", "--genus", "2"], "defined on e/kappa polynomials only"),
        (["taut", "coproduct", "--expr", "k1", "--n", "1"], "coproduct arity must be >= 2"),
        (["sp4", "phi", "--matrix", "1,0;0,1"], "need a 4x4 matrix"),
        (["slope-box", "--high", "-1"], "high_slope must be nonnegative"),
        (["slope-box", "--high", "1/2", "--gmax", "0"], "g_max must be >= 1"),
        (["slope-box", "--high", "3/2"], "no finite bound for slope >= 1"),
        (["taut", "gysin", "--expr", "1/0*e", "--genus", "2"], "zero denominator"),
        (["taut", "coproduct", "--expr", "k1^2+1/0", "--n", "2"], "zero denominator"),
        # the expansion size is counted before anything is expanded
        (["taut", "coproduct", "--expr", "k1", "--n", "100000"], "100000 terms of 100000 slots"),
        (["taut", "coproduct", "--expr", "k1^40", "--n", "40"], "more than 200000 terms of 40 slots"),
        (["taut", "pair", "--functionals", "k1_40.fn"], "more than 200000 terms of 40 slots"),
        (["sp4", "phi", "--matrix", "2,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1"], "must be 0 or 1, got 2"),
        (["sp4", "phi", "--matrix", "1,0,0,0;0,3,0,0;0,0,1,0;0,0,0,1"], "must be 0 or 1, got 3"),
        (["sp4", "phi", "--matrix", "1,0,0,0;0,1,0,0;0,0,-1,0;0,0,0,1"], "must be 0 or 1, got -1"),
        (["sp4", "phi", "--matrix", f"1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,{10**29 + 1}"],
         f"must be 0 or 1, got {10**29 + 1}"),
        (["homology", "--cdga", "zero_den.cdga"], "zero denominator"),
        (["betti", "--gens", "empty.txt", "--box", "0,3"], "box bounds must be >= 1"),
        (["betti", "--gens", "empty.txt", "--box", "0,3", "--field", "F2"], "box bounds must be >= 1"),
        # outputs Python cannot print: a doubled 4300-digit coefficient, and
        # multinomials C(15000, c), bounded before any is computed
        (["taut", "gysin", "--expr", "9" * 4300 + "*e", "--genus", "0"], "more than 4300 digits"),
        (["taut", "coproduct", "--expr", "k1^15000", "--n", "2"], "more than 4300 digits"),
        # a Smith form whose invariant factors might not print, bounded before it is taken
        (["la", "snf", "--in", "huge.mat"], "the invariant factors may have more than 4300 digits"),
        # a range statement needs a >= 1: negating a triple reverses its inequality
        (["ranges", "--a", "-2", "--b", "1", "--e", "0", "--check", "1,1"], "needs a >= 1"),
        (["ranges", "--a", "-1", "--b", "-1", "--e", "-1", "--check", "0,0"], "needs a >= 1"),
        # a preset name is NAME or NAME(ELL), and a preset takes at most one prime
        (["homology", "--preset", "vanishA(7)", "--box", "3,3"], "preset vanishA takes no prime"),
        (["homology", "--preset", "intstab-fl(3)))", "--box", "3,3"], "bad preset 'intstab-fl(3)))'"),
        (["homology", "--preset", "intstab-f2(5)", "--box", "3,3"], "preset intstab-f2 takes no prime"),
        (["homology", "--preset", "intstab-fl(5)", "--ell", "3", "--box", "3,3"], "name different primes"),
        (["homology", "--preset", "intstab-f2", "--ell", "3", "--box", "3,3"], "preset intstab-f2 takes no prime"),
        (["homology", "--preset", f"intstab-fl({'9' * 5000})"], "bad prime in preset"),
        # --cdga takes --field and --preset takes --ell, and neither the other
        (["homology", "--cdga", "sigma.txt", "--preset", "vanishA"], "--cdga and --preset exclude each other"),
        (["homology", "--cdga", "sigma.txt", "--ell", "3"], "--cdga and --ell exclude each other"),
        (["vanish-check", "--preset", "vanishA", "--field", "F3", "--box", "4,4"],
         "--preset and --field exclude each other"),
        # a monomial slot takes no coefficient
        (["taut", "coproduct", "--expr", "k1^2", "--n", "2", "--restrict", "3*k1,t*k1"],
         "restriction option must be a monomial: '3*k1'"),
        (["taut", "coproduct", "--expr", "k1^2", "--n", "2", "--restrict", "k1,t*k1"],
         "restriction option must be a monomial: 't*k1'"),
        (["taut", "pair", "--functionals", "coef_key.fn"], "functional key must be a monomial: '5*k1'"),
        (["taut", "pair", "--functionals", "param_key.fn"], "functional key must be a monomial: 'u*k1'"),
        (["taut", "pair", "--functionals", "dup_value.fn"], "second value for k1*k1 in functional x: 'k1*k1 = 5'"),
        (["taut", "pair", "--functionals", "dup_head.fn"], "second head for functional x: 'functional x'"),
        (["taut", "pair", "--functionals", "dup_pair.fn"], "second 'pair:' line: 'pair: k1^4'"),
        (["taut", "pair", "--functionals", "dup_slots.fn"], "second 'slots:' line: 'slots: x x'"),
        (["taut", "coproduct", "--expr", "k1^2", "--n", "2", "--restrict", "{k1|k2,k1"],
         "unbalanced braces in '{k1|k2,k1'"),
        (["taut", "coproduct", "--expr", "k1^2", "--n", "3", "--restrict", "k1,{k1|k2}"],
         "--restrict needs 3 slots, got 2"),
        (["taut", "pair", "--functionals", "early_entry.fn"],
         "functional entry before any 'functional NAME' line"),
        (["taut", "pair", "--functionals", "class_value.fn"],
         "functional value must be parameters only: 't*k1'"),
        (["taut", "pair", "--functionals", "bad_line.fn"], "bad functionals line: 'k1 t'"),
        (["taut", "pair", "--functionals", "no_pair.fn"], "functionals file needs 'pair:' and 'slots:' lines"),
        (["taut", "pair", "--functionals", "no_slots.fn"], "functionals file needs 'pair:' and 'slots:' lines"),
        (["taut", "pair", "--functionals", "unknown_slot.fn"], "unknown functional in slots: 'y'"),
        # the bidegrees are counted as they are listed
        (["slope-box", "--high", "2", "--gmax", "1000000000"], "more than 200000 bidegrees"),
        (["slope-box", "--high", "99999999999999999999/100000000000000000000"], "more than 200000 bidegrees"),
        # two ways of giving one input, both on the command line or one in --config
        (["vanish-check", "--preset", "vanishA", "--slope", "1/2", "--line", "3/4:0"], "--slope and --line exclude"),
        (["vanish-check", "--preset", "vanishA", "--config", "slope.cfg", "--line", "3/4:0"], "--slope and --line"),
        (["sp4", "phi", "--swap", "--matrix", "1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1"], "--swap and --matrix exclude"),
        (["taut", "pair", "--paper-6-3", "--functionals", "k1_40.fn"], "--paper-6-3 and --functionals exclude"),
        (["taut", "coproduct", "--expr", "k1", "--expr-file", "blank.txt", "--n", "2"], "--expr and --expr-file"),
        # an empty value is a value, and its parser rejects it, as it does an expression with no term
        (["vanish-check", "--preset", "vanishA", "--box", "4,4", "--slope", ""], "bad rational ''"),
        # a rational is an integer or p/q: no decimal or exponent form, whose power would be computed
        (["vanish-check", "--preset", "vanishA", "--box", "4,4", "--slope", "1e5000"], "bad rational '1e5000'"),
        (["vanish-check", "--preset", "vanishA", "--box", "4,4", "--slope", "1e-5000"], "bad rational '1e-5000'"),
        (["vanish-check", "--preset", "vanishA", "--box", "4,4", "--slope", "1e10000000"],
         "bad rational '1e10000000'"),
        (["vanish-check", "--preset", "vanishA", "--box", "4,4", "--line", "3/4:1e5000"], "bad rational '1e5000'"),
        (["slope-box", "--high", "1e-5000"], "bad rational '1e-5000'"),
        (["slope-box", "--high", "0.75"], "bad rational '0.75'"),
        (["vanish-check", "--preset", "vanishA", "--box", "4,4", "--slope", "9" * 5000 + "/4"],
         "number too long: 99999999999999999999... has 5000 characters"),
        (["vanish-check", "--preset", "vanishA", "--box", "4,4", "--line", "1:1/" + "7" * 4400],
         "number too long: 77777777777777777777... has 4400 characters"),
        (["vanish-check", "--preset", "vanishA", "--box", "4,4", "--line", ""], "bad line ''"),
        (["homology", "--preset", "vanishA", "--box", ""], "bad box ''"),
        (["ranges", "--a", "1", "--b", "1", "--e", "0", "--check", ""], "bad box ''"),
        (["sp4", "phi", "--swap", "--out", ""], "cannot write"),
        (["taut", "ledger", "--relations", ""], "cannot read"),
        # a genus is at least 0, as for the Gysin pushforward
        (["taut", "ledger", "--genus", "-3"], "negative genus"),
        (["taut", "ledger", "--relations", "rel.txt", "--genus", "-3"], "negative genus"),
        (["homology", "--cdga", "sigma.txt", "--field", ""], "unknown field"),
        (["sp4", "phi", "--matrix", ""], "bad matrix chunk ''"),
        (["taut", "coproduct", "--expr", "", "--n", "2"], "no term in ''"),
        (["homology", "--preset", ""], "unknown preset"),
        (["taut", "gysin", "--expr", " ", "--genus", "2"], "no term in ' '"),
        (["taut", "coproduct", "--expr", " ", "--n", "2"], "no term in ' '"),
        (["taut", "pair", "--functionals", "empty_pair.fn"], "no term in ''"),
        (["homology", "--cdga", "empty_d.cdga"], "no term in ''"),
        (["taut", "coproduct", "--expr-file", "blank.txt", "--n", "2"], "no term in ''"),
    ],
)
def test_bad_inputs_are_input_errors(argv, message, tmp_path, monkeypatch, capsys):
    (tmp_path / "gens.txt").write_text("a x 1\n")
    files = {
        "sigma.txt": "sigma 1 0\n",
        "slr.txt": "sigma 1 0\nlambda 3 2\nrho 2 2\n",
        "X.pos": "c0 < c1\n",
        "A.pos": "u\n",
        "F.cov": "u : c0 c1\n",
        "F_extra.cov": "u : c0 c1\nv : c0\n",
        "tx.w": "c0 0\nc1 1\n",
        "tx_short.w": "c0 0\n",
        "tx_dup.w": "c0 0\nc1 1\nc0 5\n",
        "tx_extra.w": "c0 0\nc1 1\nzz 7\n",
        "F_dup.cov": "u : c0 c1\nu : c0\n",
        "F_nocolon.cov": "u c0 c1\n",
        "F_outside.cov": "u : c0 zz\n",
        "A2.pos": "u\nv\n",
        "dup.cdga": "a 1 0\na 1 1\n",
        "no_eq.cdga": "a 1 0\nb 1 1\nd b 1\n",
        "ta.w": "u 0\n",
        "ta_bad.w": "u x\n",
        "zero_den.cdga": "a 1 0\nb 1 1\nd b = 1/0*a\n",
        "empty.txt": "# no generators\n",
        "k1_40.fn": "functional x\nk1 = t\npair: k1^40\nslots: " + " x" * 40 + "\n",
        "coef_key.fn": "functional x\n5*k1 = u\npair: k1^2\nslots: x x\n",
        "param_key.fn": "functional x\nu*k1 = t\nfunctional y\nk1 = u\npair: k1^2\nslots: x y\n",
        "dup_value.fn": "functional x\nk1^2 = 3\nk1*k1 = 5\npair: k1^4\nslots: x x\n",
        "dup_head.fn": "functional x\nk1^2 = 3\nfunctional x\npair: k1^4\nslots: x x\n",
        "dup_pair.fn": "functional x\nk1^2 = 3\npair: k1^2\npair: k1^4\nslots: x x\n",
        "dup_slots.fn": "functional x\nk1^2 = 3\npair: k1^4\nslots: x\nslots: x x\n",
        "empty_pair.fn": "functional x\nk1 = t\npair:\nslots: x\n",
        "early_entry.fn": "k1 = t\nfunctional x\npair: k1\nslots: x\n",
        "class_value.fn": "functional x\nk1 = t*k1\npair: k1\nslots: x\n",
        "bad_line.fn": "functional x\nk1 t\npair: k1\nslots: x\n",
        "no_pair.fn": "functional x\nk1 = t\nslots: x\n",
        "no_slots.fn": "functional x\nk1 = t\npair: k1\n",
        "unknown_slot.fn": "functional x\nk1 = t\npair: k1^2\nslots: x y\n",
        "empty_d.cdga": "x 1 0\ny 1 1\nd y =\n",
        "blank.txt": "",
        "slope.cfg": "slope = 1/2\n",
        "rel.txt": "k1^2\n",
        "huge.mat": "1" * 4000 + " 2\n3 " + "7" * 2000 + "\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("preset", ["vanishA", "vanishB", "intstab-f2", "intstab-fl(3)", "A-algebra-fl(5)"])
@pytest.mark.parametrize("cmd", ["homology", "vanish-check"])
def test_default_box_is_the_box_8_8(cmd, preset, capsys):
    """Without --box, a preset's table is the one of --box 8,8."""
    tables = []
    for box in ([], ["--box", "8,8"]):
        main([cmd, "--preset", preset, "--format", "csv", *box])
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]


@pytest.mark.parametrize(
    "line, message",
    [
        ("a 1 0", None),
        ("a 2 1 3", None),
        ("a 1", "bad {} line"),
        ("a 1 2 3 4", "bad {} line"),
        ("a x 1", "bad {} line"),
        ("a 1 1 1/2", "bad {} line"),
        ("a 0 1", "genus must be >= 1"),
        ("a 1 -1", "negative grading"),
        ("a 1 1 -1", "negative grading"),
    ],
)
def test_generator_files_and_cdga_files_read_letters_alike(line, message, tmp_path, monkeypatch, capsys):
    """One line reader serves `lie-basis --gens` and the letter lines of
    `homology --cdga`: both accept a line or both reject it."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "letters.txt").write_text(f"# one letter\n{line}\n")
    for argv, what in (
        (["lie-basis", "--gens", "letters.txt", "--box", "3,3"], "generator"),
        (["homology", "--cdga", "letters.txt", "--box", "3,3"], "letter"),
    ):
        code = main(argv + ["--format", "json"])
        err = capsys.readouterr().err
        if message is None:
            assert (code, err) == (0, "")
        else:
            assert code == 2 and message.format(what) in err


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


def test_parser_is_built_once(capsys):
    parser = cli.build_parser()
    assert main(["slope-box", "--high", "3/4"]) == 0
    assert main(["slope-box", "--high", "2/3", "--format", "json"]) == 0
    assert cli.build_parser() is parser
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["params"]["high"] == "2/3"


def test_out_of_range_check_reports_counterexample(capsys):
    assert main(["ranges", "--a", "4", "--b", "3", "--e", "-5", "--check", "6,4",
                 "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "counterexample"


def test_argparse_exits_are_returned(capsys):
    assert main(["slope-box", "--high", "3/4", "--format", "xml"]) == 2
    assert "invalid choice" in capsys.readouterr().err
    assert main(["slope-box", "--help"]) == 0
    assert "usage:" in capsys.readouterr().out
