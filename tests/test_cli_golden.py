"""Golden table for the command line: argv -> (exit code, sha256 of stdout).

Every subcommand runs in every output format it supports, together with the
input errors and the config-file cases.  File inputs are written into a
temporary directory and passed by relative name with that directory as the
working directory, because JSON reports echo paths as given and hash each
input under its basename.  ``--timings`` is left out: its output is volatile.

``python tests/test_cli_golden.py`` prints the table for the ``bigraded`` on
the import path; ``tests/cli_golden.json`` holds the recorded one.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys

import pytest

from bigraded.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE = os.path.join(HERE, "cli_golden.json")

R12 = "80435*k1^7+21719880*k1^5*k2+1387036224*k1^3*k2^2+17581100544*k1*k2^3"

FILES = {
    "gens.txt": "sigma 1 0\nlambda 3 2\nrho 2 2\n",
    "bad_gens.txt": "a x 1\n",
    "koszul.cdga": "[s,s] 2 1\nrho 2 2\nd rho = [s,s]\n",
    "r12.expr": R12 + "\n",
    "pairing.fn": (
        "functional lam\nk1 = u\nfunctional x\nk2 = t\nk1^2 = -72/5*t\n"
        f"pair: {R12}\nslots: lam lam lam x x\n"
    ),
    "rels.txt": "# extra relation\nk1^3 - k3\n",
    "X.pos": "c0 < c1\nc1 < c2\n",
    "A.pos": "*\n",
    "F.cov": "* : c0 c1 c2\n",
    "tx.w": "c0 0\nc1 1\nc2 2\n",
    "ta.w": "* 0\n",
    "b3.pres": "gens: a b\nrel: a b a B A B\n",
    "m.txt": "2 0\n0 3\n",
    "json.cfg": "format = json\n",
    "unknown.cfg": "zzz = 1\n",
    "count.cfg": "count = 5\n",
    "threads.cfg": "threads = 1\n",
    "gmax.cfg": "gmax = 5\n",
}

FORMATS = ("text", "json", "csv", "tsv", "svg")
NERVE = "nerve check --poset X.pos --A A.pos --cover F.cov --n 2 --tx tx.w --ta ta.w"
FUZZ = "poset fuzz --count 30 --max-size 6 --seed 3 --threads 1"


def _cases():
    every_format = [
        "ranges --a 3 --b 2 --e -1",
        "ranges --a 3 --b 2 --e -1 --check 3,1",
        "ranges --a 4 --b 3 --e -5 --check 6,4",
        "ranges --kind epimorphism --a 2 --b 3 --e 0",
        "slope-box --high 3/4",
        "slope-box --high 2/3 --gmax 6",
        "lie-basis --gens gens.txt --box 4,3",
        "betti --gens gens.txt --box 4,4",
        "betti --gens gens.txt --box 4,4 --field F2",
        "homology --preset vanishA --box 6,6",
        "homology --preset intstab-fl(3) --box 4,4",
        "homology --preset A-algebra-fl --ell 2 --box 4,2",
        "homology --cdga koszul.cdga --field Q --box 6,6",
        "vanish-check --preset vanishA --box 6,6",
        "vanish-check --preset vanishA --box 6,6 --slope 99/100",
        "vanish-check --preset vanishB --box 6,6",
        "vanish-check --preset intstab-f2 --box 5,5 --line 3/4:1",
        "taut gysin --expr e^2*k1 --genus 4",
        f"taut coproduct --expr {R12} --n 5 --restrict k1,k1,k1,{{k1^2|k2}},{{k1^2|k2}}",
        "taut coproduct --expr-file r12.expr --n 2",
        "taut pair --paper-6-3",
        "taut pair --functionals pairing.fn",
        "taut ledger",
        "taut ledger --genus 4 --degree 4",
        "taut ledger --genus 5 --relations rels.txt",
        "taut h43",
        NERVE,
        f"{FUZZ} --campaign poset-map",
        f"{FUZZ} --campaign nerve",
        "sp4 subsets",
        "sp4 phi --swap",
        "sp4 phi --matrix 0,0,1,0;0,0,0,1;1,0,0,0;0,1,0,0",
        "sp4 verify --pairs 50",
        "abelianize --in b3.pres",
        "la snf --in m.txt",
        "la snf --in m.txt --certificate",
        "report figure-lgens",
        "report figure-rat",
    ]
    cases = [f"{cmd} --format {fmt}" for cmd in every_format for fmt in FORMATS]
    cases += [
        # input errors
        "homology --preset nonsense",
        "homology --preset intstab-fl(x)",
        "homology --box 4,4",
        "la snf --in missing.txt",
        "ranges --a 3 --b 2 --e -1 --check zzz",
        "slope-box --high 3/0",
        "taut coproduct --n 2",
        "taut pair",
        # inputs that raised a traceback
        "lie-basis --gens bad_gens.txt --box 4,3",
        "betti --gens bad_gens.txt --box 4,3",
        "vanish-check --preset vanishA --box 6,6 --line 3/4",
        "sp4 phi",
        f"{FUZZ} --campaign poset-map --max-size 0",
        f"{FUZZ} --campaign nerve --count -5",
        # config files
        "slope-box --high 3/4 --config json.cfg",
        "slope-box --high 3/4 --config json.cfg --format text",
        "slope-box --high 3/4 --config unknown.cfg",
        "slope-box --high 3/4 --config gmax.cfg",
        "poset fuzz --campaign nerve --max-size 6 --seed 3 --threads 1 --config count.cfg"
        " --format json",
        "poset fuzz --campaign nerve --count 30 --max-size 6 --seed 3 --config threads.cfg"
        " --format json",
    ]
    return cases


CASES = _cases()


def run_case(case: str):
    """Exit code and sha256 of stdout of one in-process run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(shlex.split(case))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def write_files(directory):
    for name, text in FILES.items():
        with open(os.path.join(directory, name), "w") as fh:
            fh.write(text)


def test_table_covers_every_case():
    with open(TABLE) as fh:
        assert sorted(json.load(fh)) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_golden(case, tmp_path, monkeypatch):
    write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    with open(TABLE) as fh:
        code, digest = json.load(fh)[case]
    assert run_case(case) == (code, digest)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_files(tmp)
        os.chdir(tmp)
        table = {case: run_case(case) for case in CASES}
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
