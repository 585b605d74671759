"""End-to-end command-line checks: exit codes, document output, and
byte-stable JSON across repeat runs."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

import exactdisc
from exactdisc import cli
from exactdisc.corpus import build_X2, build_X8, golden_rules
from exactdisc.discretize import (
    Subspace,
    measure_rule,
    rule_from_doc,
    rule_to_doc,
    subspace_from_doc,
    subspace_to_doc,
)
from exactdisc.piecewise import Piece, PiecewiseFn


@pytest.fixture
def corpus_dir(tmp_path):
    """Both bundled subspaces and all golden rules, written once."""
    d = tmp_path / "corpus"
    assert cli.main(["corpus", "ex1", "--output", str(d)]) == 0
    assert cli.main(["corpus", "ex2", "--output", str(d)]) == 0
    return d


def run_json(capsys, argv):
    code = cli.main(argv + ["--format", "json"])
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


# ---------------------------------------------------------------------------
# corpus


def test_corpus_files_round_trip(corpus_dir):
    docs = {p.name: json.loads(p.read_text()) for p in corpus_dir.iterdir()}
    assert set(docs) == {
        "ex1.subspace.json",
        "ex1-negative.rule.json",
        "ex1-positive.rule.json",
        "ex2.subspace.json",
        "ex2-nine.rule.json",
    }
    assert subspace_from_doc(docs["ex1.subspace.json"]) == build_X2()
    assert subspace_from_doc(docs["ex2.subspace.json"]) == build_X8()
    golden = golden_rules()
    for key in ("ex1-negative", "ex1-positive", "ex2-nine"):
        assert rule_from_doc(docs[f"{key}.rule.json"]) == golden[key][1]


def test_corpus_unknown_name(tmp_path, capsys):
    assert cli.main(["corpus", "ex3", "--output", str(tmp_path)]) == 2
    assert "unknown subspace" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify


def test_verify_passing_rule(corpus_dir, capsys):
    code = cli.main(
        ["verify", str(corpus_dir / "ex1.subspace.json"), str(corpus_dir / "ex1-negative.rule.json")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().endswith("PASS")
    assert "(f1, f2): residual 0" in out


def test_verify_failing_rule(corpus_dir, capsys):
    code, doc, _ = run_json(
        capsys,
        ["verify", str(corpus_dir / "ex2.subspace.json"), str(corpus_dir / "ex2-nine.rule.json")],
    )
    assert code == 1
    assert doc["pass"] is False
    assert doc["failing"] == [["h0", "h1"]]
    bad = [e for e in doc["pairs"] if e["pair"] == ["h0", "h1"]]
    assert bad[0]["residual"]["exact"] != "0"
    ok = [e for e in doc["pairs"] if e["pair"] != ["h0", "h1"]]
    assert all(e["residual"]["exact"] == "0" for e in ok)


def test_verify_bad_inputs(corpus_dir, tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["verify", missing, str(corpus_dir / "ex1-negative.rule.json")]) == 2
    capsys.readouterr()
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert cli.main(["verify", str(garbled), str(corpus_dir / "ex1-negative.rule.json")]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    # structurally wrong document
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"kind": "other"}))
    assert cli.main(["verify", str(wrong), str(corpus_dir / "ex1-negative.rule.json")]) == 2


# ---------------------------------------------------------------------------
# gram


def test_gram_document(corpus_dir, capsys):
    code, doc, _ = run_json(capsys, ["gram", str(corpus_dir / "ex1.subspace.json")])
    assert code == 0
    assert doc["kind"] == "gram" and doc["rank"] == 2
    assert doc["matrix"][0][0]["exact"] == "1"
    assert doc["matrix"][0][1]["exact"] == "0"
    assert doc["matrix"][1][1]["exact"] == "15/2"


# ---------------------------------------------------------------------------
# min


def test_min_document_and_determinism(corpus_dir, capsys):
    sub = str(corpus_dir / "ex1.subspace.json")
    outs = []
    for jobs in ("1", "1", "4"):
        code = cli.main(["min", sub, "--mode", "positive", "--jobs", jobs, "--format", "json"])
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]  # byte-stable across runs and jobs
    doc = json.loads(outs[0])
    assert doc["m_min"] == 3
    assert [lvl["count"] for lvl in doc["exhaustion"]] == [5, 15]
    assert doc["witness"]["nodes"] == ["-1/2", "1/8", "7/8"]


def test_min_needs_constant_pieces(corpus_dir, capsys):
    assert cli.main(["min", str(corpus_dir / "ex2.subspace.json")]) == 3
    err = capsys.readouterr().err
    assert "precondition violated" in err and "grid search" in err


def test_min_rejects_bad_jobs(corpus_dir, capsys):
    assert cli.main(["min", str(corpus_dir / "ex1.subspace.json"), "--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# grid


def test_grid_positive_search(corpus_dir, capsys):
    code, doc, _ = run_json(
        capsys,
        [
            "grid",
            str(corpus_dir / "ex1.subspace.json"),
            "--candidates=-1/2,1/8,3/8,5/8,7/8",
            "-m", "3",
            "--mode", "positive",
        ],
    )
    assert code == 0
    assert doc["count"] == 5
    assert {"nodes": ["-1/2", "5/8", "7/8"], "weights": ["7/2", "1/2", "1/2"]} in doc["rules"]


def test_grid_skip_pair_recovers_nine_node_rule(corpus_dir, capsys):
    nine = json.loads((corpus_dir / "ex2-nine.rule.json").read_text())
    code, doc, _ = run_json(
        capsys,
        [
            "grid",
            str(corpus_dir / "ex2.subspace.json"),
            "--candidates=" + ",".join(nine["nodes"]),
            "-m", "9",
            "--skip-pair", "h0,h1",
        ],
    )
    assert code == 0
    assert doc["count"] == 1
    assert doc["rules"][0] == nine
    assert ["h0", "h1"] not in doc["pairs"]
    assert ["h0", "h0"] in doc["pairs"]


def pwc_doc(rows):
    """Subspace document of piecewise-constant functions on the eight
    quarter-cells of [-1, 1]; a value (c, d) stands for c*sqrt(d)."""
    edges = [Fraction(k, 4) for k in range(-4, 5)]

    def piece(lo, hi, v):
        if isinstance(v, tuple):
            return Piece.from_poly_sqrt(lo, hi, [Fraction(v[0])], 0, v[1])
        return Piece.from_poly(lo, hi, [Fraction(v)])

    funcs = tuple(
        PiecewiseFn([piece(lo, hi, v) for lo, hi, v in zip(edges, edges[1:], row)])
        for row in rows
    )
    return subspace_to_doc(Subspace(tuple(f"f{i + 1}" for i in range(len(rows))), funcs))


H = Fraction(1, 2)

#: three functions whose values span Q(sqrt(2), sqrt(3), sqrt(5))
Q235_ROWS = (
    (1, (1, 2), -1, (1, 5), 2, (H, 3), 1, (-1, 5)),
    ((1, 3), 1, (1, 5), (-1, 2), 1, (H, 3), (1, 2), 1),
    (1, -1, (1, 2), 1, (1, 3), (1, 5), 2, H),
)
QUARTER_MIDS = ",".join(str(Fraction(2 * k + 1, 8)) for k in range(-4, 4))

#: (weights field, basis rows, extra arguments, sha256 of the JSON output).
#: The digests were recorded from `python -m exactdisc grid ... --mode
#: positive --format json` before elimination and Fourier-Motzkin picked a
#: representation per call, when every non-rational value went through
#: Radical arithmetic; the Q(sqrt(2), sqrt(3), sqrt(5)) one was recorded
#: while Radical signs and inverses still expanded conjugate products.
GRID_PINS = {
    "rational": (
        ((1, 2, -1, 1, 3, 1, -2, 1), (2, -1, 1, 1, -1, 2, 1, 1), (1, 1, 2, -1, 1, -2, 1, 3)),
        ["--candidates=" + QUARTER_MIDS + ",-15/16,1/16", "-m", "8"],
        "260113b30263c21a41419bffe0fb314b75e0a30cc5701450db275115a61372a5",
    ),
    "sqrt2": (
        ((1, (1, 2), -1, 2, (H, 2), 1, (-1, 2), 3 * H),
         ((1, 2), 1, 2, (-1, 2), 1, -H, 1, (1, 2))),
        ["--candidates=" + QUARTER_MIDS, "-m", "5"],
        "efc4ca904ca230a546bc00489b24117808fbf57b83f3f31740fdd19dec24b96c",
    ),
    "sqrt2-sqrt3": (
        ((1, (1, 2), -1, (1, 3), 2, (H, 2), 1, (-1, 3)),
         ((1, 3), 1, 2, (-1, 2), 1, (H, 3), (1, 2), 1),
         (1, -1, (1, 2), 1, (1, 3), 1, 2, H)),
        ["--candidates=" + QUARTER_MIDS + ",-1/16", "-m", "7",
         "--max-subsets", "25", "--skip-pair", "f1,f3"],
        "2fdb13fd22ec36882692af96dfd53fe4b8be185e34ce5eaaf519c43a87ff4065",
    ),
    "sqrt2-sqrt3-sqrt5": (
        Q235_ROWS,
        ["--candidates=" + QUARTER_MIDS, "-m", "7"],
        "77f3c457881e0d4b95c681b5ddeb5062fa7f6e590ebf55fc4d31400cec03a5b1",
    ),
}


@pytest.mark.parametrize("field", sorted(GRID_PINS))
def test_grid_positive_output_bytes_are_pinned(tmp_path, capsys, field):
    rows, extra, digest = GRID_PINS[field]
    sub = tmp_path / "grid.subspace.json"
    sub.write_text(json.dumps(pwc_doc(rows)))
    argv = ["grid", str(sub), *extra, "--mode", "positive", "--format", "json"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["count"] > 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_gram_output_bytes_are_pinned(tmp_path, capsys):
    # recorded while Radical signs and inverses expanded conjugate products
    sub = tmp_path / "q235.subspace.json"
    sub.write_text(json.dumps(pwc_doc(Q235_ROWS)))
    assert cli.main(["gram", str(sub), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["rank"] == 3
    digest = "a420b580f5a7d20f8c23920fe201032532943a32a0301af3abdb89bb0107b22f"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_grid_bad_arguments(corpus_dir, capsys):
    sub = str(corpus_dir / "ex1.subspace.json")
    assert cli.main(["grid", sub, "--candidates=1/8,x", "-m", "1"]) == 2
    capsys.readouterr()
    assert cli.main(["grid", sub, "--candidates=1/8", "-m", "4"]) == 2
    capsys.readouterr()
    assert cli.main(["grid", sub, "--candidates=1/8,3/8", "-m", "2", "--max-subsets", "0"]) == 2
    capsys.readouterr()
    assert cli.main(["grid", sub, "--candidates=1/8,3/8", "-m", "2", "--skip-pair", "f1"]) == 2
    assert "expected NAME,NAME" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bound


def test_bound_document(corpus_dir, capsys):
    sub = str(corpus_dir / "ex2.subspace.json")
    code, doc, _ = run_json(
        capsys, ["bound", sub, "--witness", "h0", "--targets", "h4,h5,h6,h7"]
    )
    assert code == 0
    assert doc["bound"] == 8
    assert [c["count"] for c in doc["clauses"]] == [2, 2, 2, 2]

    code, doc, _ = run_json(
        capsys,
        ["bound", sub, "--witness", "h0", "--targets", "h4,h5,h6,h7", "--refine", "h0,h1"],
    )
    assert code == 0
    assert doc["bound"] == 9
    assert doc["refinement"]["applicable"] is True
    assert doc["refinement"]["forced_weight_sums"][0]["exact"] == "1"
    assert doc["refinement"]["forced_weight_sums"][1]["exact"] == "3/4"


def test_bound_overlapping_targets(corpus_dir, capsys):
    code = cli.main(
        ["bound", str(corpus_dir / "ex2.subspace.json"), "--witness", "h0", "--targets", "h2,h4"]
    )
    assert code == 3
    assert "not provably disjoint" in capsys.readouterr().err


def test_bound_unknown_names(corpus_dir, capsys):
    code = cli.main(
        ["bound", str(corpus_dir / "ex2.subspace.json"), "--witness", "h9", "--targets", "h4"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "flags, expected",
    [
        (["--witness", "h0,h1", "--targets", "h4"], "expected one NAME"),
        (["--witness", "h0", "--targets", "h4", "--refine", "h0"], "expected NAME,NAME"),
        (["--witness", "h0", "--targets", "h4", "--refine", "h0,h1,h2"], "expected NAME,NAME"),
    ],
)
def test_bound_name_counts(corpus_dir, capsys, flags, expected):
    code = cli.main(["bound", str(corpus_dir / "ex2.subspace.json")] + flags)
    err = capsys.readouterr().err
    assert code == 2
    assert expected in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# reduce


def test_reduce_measure_rule(corpus_dir, tmp_path, capsys):
    rule_path = tmp_path / "measure.rule.json"
    rule_path.write_text(json.dumps(rule_to_doc(measure_rule(build_X2()))))
    code, doc, _ = run_json(
        capsys,
        ["reduce", str(corpus_dir / "ex1.subspace.json"), str(rule_path), "--mode", "positive"],
    )
    assert code == 0
    assert doc["input_size"] == 5 and doc["output_size"] <= 3
    assert doc["output_rule"]["nodes"] == ["1/8", "3/8", "5/8"]


def test_reduce_rejects_non_verifying_rule(corpus_dir, capsys):
    code = cli.main(
        ["reduce", str(corpus_dir / "ex2.subspace.json"), str(corpus_dir / "ex2-nine.rule.json")]
    )
    assert code == 3
    assert "does not verify" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# hostile documents: errors raised mid-computation are bad input

# a product of five primes above 10**6: sqrt(1/N + 1) needs a radicand
# that trial division cannot certify squarefree
HUGE = 1000003 * 1000033 * 1000037 * 1000039 * 1000081


def _sqrt_fn(name, beta):
    piece = {"lo": "0", "hi": "1", "poly": ["1"], "sqrt": {"alpha": "1", "beta": beta}}
    return {"name": name, "pieces": [piece]}


@pytest.fixture
def hostile_dir(tmp_path):
    docs = {
        # sqrt(x+1) * sqrt(x+2) leaves the piece algebra
        "two-lines.subspace.json": {
            "domain": ["0", "1"],
            "functions": [_sqrt_fn("a", "1"), _sqrt_fn("b", "2")],
        },
        "half.rule.json": {"nodes": ["1/2"], "weights": ["1"]},
        "one-line.subspace.json": {"domain": ["0", "1"], "functions": [_sqrt_fn("a", "1")]},
        "huge.rule.json": {"nodes": [f"1/{HUGE}"], "weights": ["1"]},
    }
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    return tmp_path


@pytest.mark.parametrize(
    "argv",
    [
        ["gram", "two-lines.subspace.json"],
        ["verify", "two-lines.subspace.json", "half.rule.json"],
        ["bound", "two-lines.subspace.json", "--witness", "a", "--targets", "b"],
        ["reduce", "two-lines.subspace.json", "half.rule.json"],
        ["verify", "one-line.subspace.json", "huge.rule.json"],
        ["grid", "one-line.subspace.json", "--candidates", f"1/{HUGE}", "-m", "1"],
        ["reduce", "one-line.subspace.json", "huge.rule.json"],
    ],
    ids=lambda argv: "-".join(argv[:2]),
)
def test_errors_mid_computation_exit_2(hostile_dir, capsys, argv):
    argv = [str(hostile_dir / a) if a.endswith(".json") else a for a in argv]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "reduce", "grid"])
def test_node_outside_the_domain_exits_2(corpus_dir, tmp_path, capsys, command):
    sub = str(corpus_dir / "ex1.subspace.json")
    rule = tmp_path / "outside.rule.json"
    rule.write_text(json.dumps({"nodes": ["3/2"], "weights": ["1"]}))
    argv = {
        "verify": ["verify", sub, str(rule)],
        "reduce": ["reduce", sub, str(rule)],
        "grid": ["grid", sub, "--candidates=3/2", "-m", "1"],
    }[command]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "outside domain" in err and "Traceback" not in err


@pytest.mark.parametrize("where", ["rule-node", "domain-end", "piece-end"])
def test_zero_denominator_exits_2(corpus_dir, tmp_path, capsys, where):
    sub = json.loads((corpus_dir / "ex1.subspace.json").read_text())
    rule = {"nodes": ["1/2"], "weights": ["1"]}
    if where == "rule-node":
        rule["nodes"] = ["1/0"]
    elif where == "domain-end":
        sub["domain"][1] = "1/0"
    else:
        sub["functions"][0]["pieces"][0]["hi"] = "1/0"
    (tmp_path / "z.subspace.json").write_text(json.dumps(sub))
    (tmp_path / "z.rule.json").write_text(json.dumps(rule))
    code = cli.main(["verify", str(tmp_path / "z.subspace.json"), str(tmp_path / "z.rule.json")])
    err = capsys.readouterr().err
    bad = "rule" if where == "rule-node" else "subspace"
    assert code == 2
    assert err.startswith(f"error: bad {bad} file") and "Traceback" not in err


@pytest.mark.parametrize("target", ["missing-dir", "directory", "corpus-into-file"])
def test_unwritable_output_exits_2(corpus_dir, tmp_path, capsys, target):
    sub = str(corpus_dir / "ex1.subspace.json")
    existing = tmp_path / "README.md"
    existing.write_text("kept\n")
    argv = {
        "missing-dir": ["gram", sub, "--output", str(tmp_path / "no" / "such" / "x.json")],
        "directory": ["gram", sub, "--output", str(tmp_path)],
        "corpus-into-file": ["corpus", "ex1", "--output", str(existing)],
    }[target]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: cannot write") and "Traceback" not in captured.err
    assert captured.out == "" and existing.read_text() == "kept\n"


# ---------------------------------------------------------------------------
# output plumbing


def test_output_file(corpus_dir, tmp_path, capsys):
    target = tmp_path / "gram.json"
    code = cli.main(
        ["gram", str(corpus_dir / "ex1.subspace.json"), "--format", "json", "--output", str(target)]
    )
    assert code == 0
    assert f"wrote {target}" in capsys.readouterr().out
    assert json.loads(target.read_text())["rank"] == 2


def _child_env():
    """The environment of a child process that imports the package under test."""
    env = dict(os.environ)
    src = str(Path(exactdisc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run_command(args, timeout=None):
    """Run the `exactdisc` script where one is on PATH, else `python -m exactdisc`,
    in a child process that imports the package under test."""
    script = shutil.which("exactdisc")
    command = [script] if script else [sys.executable, "-m", "exactdisc"]
    return subprocess.run(
        command + args, capture_output=True, text=True, env=_child_env(), timeout=timeout
    )


def test_installed_script(tmp_path):
    proc = _run_command(["corpus", "ex1", "--output", str(tmp_path)])
    assert proc.returncode == 0
    assert (tmp_path / "ex1.subspace.json").exists()
    proc = _run_command(
        ["verify", str(tmp_path / "ex1.subspace.json"), str(tmp_path / "ex1-positive.rule.json")]
    )
    assert proc.returncode == 0 and "PASS" in proc.stdout
    bad = tmp_path / "bad.subspace.json"
    bad.write_text("not json")
    proc = _run_command(["verify", str(bad), str(tmp_path / "ex1-positive.rule.json")])
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


#: sha256 of every file `scripts/reproduce_all.py` writes, recorded before
#: `decide_min` and `search_grid` shared one subset engine.
ARTIFACT_PINS = {
    "ex1-grid-positive.json": "5cd41fc972f446090c3539617c26a4f16016d3df6e5c79b6c500573dedd746d2",
    "ex1-measure.rule.json": "a730e408a371b373c60670651250413dd2a656e0f73ff068bebc97e8b8644eb1",
    "ex1-min-positive.json": "749683da953a2e33de2b8d82dbf644c6971c1d0a701bc20a534b3c15730c413d",
    "ex1-min-signed.json": "4abeec7a0aa63eb8f7ab66bd5efdd0287ae84739a901a9b1d8e0f6ec4abf041e",
    "ex1-negative.rule.json": "9b63cd35337a68137d90b749a4526b53f4a26a643a517118445034b66e817a9b",
    "ex1-positive.rule.json": "0db9a0a5b1a438b19ea3e3ce0d88a9355522d4ce843b7732d23afc62562dce65",
    "ex1-reduced.json": "76682dca77d54b654ca62b71df051d7cf226fb678583914407ef9d60e63c0d48",
    "ex1.subspace.json": "96eb601828265d7a04560afa8da5aded628eeea693d378c4626fc8a8262cc1ed",
    "ex2-bound.json": "0ba024f65e4e2b6b141155440820f13287b5caebdd7317130244f510724d7a43",
    "ex2-nine.rule.json": "4408d39475bfab91efc11806a3376092052c8e08908cfb673ef221bcb496be4f",
    "ex2.subspace.json": "cf1fa0b1bbf1b0d5ffcab30b8cb4fc9a6a1348ccc2312604ba57409004de82b8",
}


def test_reproduce_all_artifact_bytes_are_pinned(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_all.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--output-dir", str(tmp_path)],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == ARTIFACT_PINS


def test_module_entry_point_matches_script():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["exactdisc"] == "exactdisc.cli:main"
    from exactdisc import __main__ as module_entry

    assert module_entry.main is cli.main


#: f and g on [0, 1/2) and [1/2, 1]: (rational part, {radicand: coefficient})
#: per piece.  Their products span Q(sqrt(2), sqrt(3), sqrt(5), sqrt(7)).
FOUR_ROOT_VALUES = {
    "f": ((1, {2: 1, 3: 1, 5: 1, 7: 1}), (2, {2: -1, 3: 1})),
    "g": ((1, {2: 1}), (1, {5: -1, 7: 2})),
}


def test_gram_over_four_square_roots_finishes(tmp_path):
    halves = (("0", "1/2"), ("1/2", "1"))
    doc = {
        "domain": ["0", "1"],
        "functions": [
            {"name": name, "pieces": [
                {"lo": lo, "hi": hi, "poly": [str(a)], "sqrt_terms": [
                    {"coeff": [str(c)], "alpha": "0", "beta": str(d)} for d, c in terms.items()
                ]}
                for (lo, hi), (a, terms) in zip(halves, values)
            ]}
            for name, values in FOUR_ROOT_VALUES.items()
        ],
    }
    sub = tmp_path / "four-roots.subspace.json"
    sub.write_text(json.dumps(doc))
    proc = _run_command(["gram", str(sub), "--format", "json"], timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["rank"] == 2

    def value(a, terms):
        return a + sum(c * sympy.sqrt(d) for d, c in terms.items())

    names = list(FOUR_ROOT_VALUES)
    assert out["names"] == names
    for i, u in enumerate(names):
        for j, v in enumerate(names):
            expected = sum(
                sympy.Rational(1, 2) * value(*a) * value(*b)
                for a, b in zip(FOUR_ROOT_VALUES[u], FOUR_ROOT_VALUES[v])
            )
            got = sympy.sympify(out["matrix"][i][j]["exact"])
            assert sympy.expand(got - expected) == 0
