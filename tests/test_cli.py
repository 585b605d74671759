"""End-to-end command-line checks: exit codes, document output, and
byte-stable JSON across repeat runs."""

import copy
import hashlib
import json
import os
import random
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
        "ex2-eleven.rule.json",
    }
    assert subspace_from_doc(docs["ex1.subspace.json"]) == build_X2()
    assert subspace_from_doc(docs["ex2.subspace.json"]) == build_X8()
    golden = golden_rules()
    for key in ("ex1-negative", "ex1-positive", "ex2-nine", "ex2-eleven"):
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
# the loader memo: each file is read on every call, and a text loaded
# recently is parsed once


def test_unchanged_content_loads_as_the_same_object(corpus_dir, tmp_path):
    path = corpus_dir / "ex2.subspace.json"
    first = cli._load_subspace(str(path))
    assert first == build_X8()
    assert cli._load_subspace(str(path)) is first
    # keyed on the content, not on the path
    copy_path = tmp_path / "copy.json"
    copy_path.write_bytes(path.read_bytes())
    assert cli._load_subspace(str(copy_path)) is first


def test_rewritten_file_is_parsed_afresh(corpus_dir, tmp_path, capsys):
    path = tmp_path / "s.subspace.json"
    outputs = {}
    for name in ("ex1", "ex2", "ex1"):
        path.write_bytes((corpus_dir / f"{name}.subspace.json").read_bytes())
        assert cli.main(["gram", str(path), "--format", "json"]) == 0
        outputs.setdefault(name, set()).add(capsys.readouterr().out)
    assert cli.main(["gram", str(corpus_dir / "ex2.subspace.json"), "--format", "json"]) == 0
    assert outputs["ex2"] == {capsys.readouterr().out}
    assert len(outputs["ex1"]) == 1 and outputs["ex1"] != outputs["ex2"]


@pytest.mark.parametrize("text, refusal", [
    ("{not json", "is not valid JSON"),
    (json.dumps({"functions": [], "domain": ["0", "1"]}), "bad subspace file"),
])
def test_refusals_are_not_memoized(corpus_dir, tmp_path, capsys, text, refusal):
    path = tmp_path / "s.subspace.json"
    path.write_text(text)
    errors = []
    for _ in range(2):
        assert cli.main(["gram", str(path)]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and refusal in errors[0]
    path.write_bytes((corpus_dir / "ex1.subspace.json").read_bytes())
    assert cli.main(["gram", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_one_text_loads_as_each_loader_reads_it(corpus_dir, tmp_path):
    rule_path = str(corpus_dir / "ex1-negative.rule.json")
    sub_path = str(corpus_dir / "ex1.subspace.json")
    for _ in range(2):  # either loader first
        assert cli._load_rule(rule_path) == golden_rules()["ex1-negative"][1]
        with pytest.raises(cli.InputError, match="^bad subspace file .*'functions'"):
            cli._load_subspace(rule_path)
        assert cli._load_subspace(sub_path) == build_X2()
        with pytest.raises(cli.InputError, match="^bad rule file .*'nodes'"):
            cli._load_rule(sub_path)


def test_memo_holds_the_last_sixteen_documents(tmp_path):
    cli._parsed.cache_clear()
    paths = []
    for k in range(cli._parsed.cache_info().maxsize + 1):
        paths.append(tmp_path / f"r{k}.rule.json")
        paths[-1].write_text(json.dumps({"nodes": ["0"], "weights": [str(k)]}))
    first = cli._load_rule(str(paths[0]))
    for path in paths[1:]:
        cli._load_rule(str(path))
    info = cli._parsed.cache_info()
    assert (info.maxsize, info.currsize, info.misses) == (16, 16, 17)
    again = cli._load_rule(str(paths[0]))  # evicted: parsed again
    assert again == first and again is not first
    assert cli._parsed.cache_info().misses == 18


def test_mutation_trials_after_a_good_load_change_no_result(corpus_dir, tmp_path, capsys):
    """Every command of `test_mutated_documents_exit_0_to_3`'s trials ends
    the same whether it starts with an empty memo or with the memo holding
    the bundled documents and what the trials before it loaded."""
    cold = []
    cli._parsed.cache_clear()
    for result in _mutation_trials(corpus_dir, tmp_path, capsys):
        cold.append(result)
        cli._parsed.cache_clear()
    # the good load writes the texts the trials write before mutating them
    sub_path, rule_path = tmp_path / "m.subspace.json", tmp_path / "m.rule.json"
    for sid, rule in (("ex1", "ex1-negative"), ("ex2", "ex2-nine")):
        sub_path.write_text(json.dumps(json.loads((corpus_dir / f"{sid}.subspace.json").read_text())))
        rule_path.write_text(json.dumps(json.loads((corpus_dir / f"{rule}.rule.json").read_text())))
        assert cli.main(["verify", str(sub_path), str(rule_path)]) in (0, 1)
    capsys.readouterr()
    assert cli._parsed.cache_info().currsize == 4
    assert list(_mutation_trials(corpus_dir, tmp_path, capsys)) == cold


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


def test_reduce_positive_mode_refuses_a_zero_weight(corpus_dir, tmp_path, capsys):
    rule = json.loads((corpus_dir / "ex1-positive.rule.json").read_text())
    rule["nodes"].append("-1/4")
    rule["weights"].append("0")
    rule_path = tmp_path / "zero-weight.rule.json"
    rule_path.write_text(json.dumps(rule))
    code = cli.main(
        ["reduce", str(corpus_dir / "ex1.subspace.json"), str(rule_path), "--mode", "positive"]
    )
    assert code == 3
    assert "positive-mode reduction needs strictly positive weights" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# hostile documents: errors raised mid-computation are bad input

# a product of five primes above 10**6: sqrt(1/N + 1) needs a radicand
# that trial division cannot certify squarefree
HUGE = 1000003 * 1000033 * 1000037 * 1000039 * 1000081


def _sqrt_fn(name, beta, alpha="1"):
    piece = {"lo": "0", "hi": "1", "poly": ["1"], "sqrt": {"alpha": alpha, "beta": beta}}
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


@pytest.mark.parametrize(
    "beta, code",
    [
        (10**18 + 3, 0),  # prime
        (1002511 * 2005021 * 3007531, 0),  # squarefree base-2 pseudoprime
        (1000003**2 * 1000000000039, 2),  # hides a square
        (44890000000000000000000000000163, 2),  # prime beyond the proved range
    ],
)
def test_gram_radicand_beyond_trial_division(tmp_path, capsys, beta, code):
    sub = tmp_path / "radicand.subspace.json"
    sub.write_text(json.dumps({"domain": ["0", "1"], "functions": [_sqrt_fn("f", str(beta), "0")]}))
    assert cli.main(["gram", str(sub), "--format", "json"]) == code
    out, err = capsys.readouterr()
    if code:
        assert "cannot certify a squarefree radicand" in err and "Traceback" not in err
    else:
        assert json.loads(out)["matrix"][0][0]["exact"] == str(beta)


def test_piece_with_sqrt_and_sqrt_terms_exits_2(tmp_path, capsys):
    # "poly" is q of q(x)*sqrt(...) beside "sqrt" and the rational part
    # beside "sqrt_terms"; the second key used to be dropped without a word
    piece = {"lo": "0", "hi": "1", "poly": ["1"], "sqrt": {"alpha": "0", "beta": "2"},
             "sqrt_terms": [{"coeff": ["5"], "alpha": "1", "beta": "0"}]}
    sub = tmp_path / "both.subspace.json"
    sub.write_text(json.dumps({"domain": ["0", "1"], "functions": [{"name": "f", "pieces": [piece]}]}))
    assert cli.main(["gram", str(sub)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: bad subspace file {sub}: a piece takes 'sqrt' or 'sqrt_terms', not both\n"
    for key in ("sqrt", "sqrt_terms"):  # either key alone is read
        one = {k: v for k, v in piece.items() if k != key}
        sub.write_text(json.dumps({"domain": ["0", "1"], "functions": [{"name": "f", "pieces": [one]}]}))
        assert cli.main(["gram", str(sub), "--format", "json"]) == 0
        capsys.readouterr()


def _no_factor_to_31(n):
    while any(n % p == 0 for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)):
        n += 1
    return n


#: P/Q with P, Q of 2,200 digits each: inside the document digit limit,
#: while the radicand P*Q of sqrt(P/Q) has more digits than Python prints
LONG_NODE = f"{_no_factor_to_31(10**2199)}/{_no_factor_to_31(2 * 10**2199)}"


@pytest.mark.parametrize("command", ["verify", "gram", "grid"])
def test_radicand_past_the_digit_limit_exits_2(tmp_path, capsys, command):
    # each case runs trial division to 10**6 on the 4,400-digit radicand
    sqrt_piece = {"poly": ["1"], "sqrt": {"alpha": "1", "beta": "0"}}
    sub = {"domain": ["0", "1"], "functions": [_sqrt_fn("f", "0")]}
    if command == "gram":  # integrate sqrt(x) up to the node
        sub["functions"] = [
            {"name": "f", "pieces": [
                {"lo": "0", "hi": LONG_NODE, **sqrt_piece},
                {"lo": LONG_NODE, "hi": "1", "poly": ["0"]},
            ]},
            {"name": "one", "pieces": [{"lo": "0", "hi": "1", "poly": ["1"]}]},
        ]
    sub_path, rule_path = tmp_path / "s.subspace.json", tmp_path / "r.rule.json"
    sub_path.write_text(json.dumps(sub))
    rule_path.write_text(json.dumps({"nodes": [LONG_NODE], "weights": ["1"]}))
    argv = {
        "verify": ["verify", str(sub_path), str(rule_path)],
        "gram": ["gram", str(sub_path)],
        "grid": ["grid", str(sub_path), f"--candidates={LONG_NODE}", "-m", "1"],
    }[command]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot certify a squarefree radicand") and "Traceback" not in err


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


@pytest.mark.parametrize("command", ["verify", "reduce"])
def test_repeated_rule_node_exits_2(corpus_dir, tmp_path, command):
    # in a child process, so a warning printed on the way would show on stderr
    rule = tmp_path / "repeated.rule.json"
    rule.write_text(json.dumps({"nodes": ["1/2", "1/2"], "weights": ["1", "1"]}))
    proc = _run_command([command, str(corpus_dir / "ex1.subspace.json"), str(rule)])
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: bad rule file {rule}")
    assert "pairwise distinct" in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


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


def test_deeply_nested_document_exits_2(corpus_dir, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    code = cli.main(["verify", str(deep), str(corpus_dir / "ex1-positive.rule.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {deep} is not valid JSON") and "Traceback" not in err


@pytest.mark.parametrize(
    "where", ["rule-node", "rule-weight", "domain-end", "piece-end", "coefficient", "zero-exponent"]
)
def test_number_too_long_to_print_exits_2(corpus_dir, tmp_path, capsys, where):
    # each number has more digits than Python converts to text, so an error
    # message or a residual that showed it would raise instead
    sub = json.loads((corpus_dir / "ex1.subspace.json").read_text())
    rule = json.loads((corpus_dir / "ex1-positive.rule.json").read_text())
    piece = sub["functions"][0]["pieces"][0]
    if where == "rule-node":
        rule["nodes"][0] = "1e400000"
    elif where == "rule-weight":
        rule["weights"][0] = "1e5000"
    elif where == "domain-end":
        sub["domain"][1] = "1e5000"
    elif where == "piece-end":
        piece["hi"] = "1e5000"
    elif where == "coefficient":
        piece["poly"][0] = "1e-5000"
    else:  # zero, but 10**(10**4000) would be computed first
        rule["nodes"][0] = "0e" + "9" * 4000
    (tmp_path / "n.subspace.json").write_text(json.dumps(sub))
    (tmp_path / "n.rule.json").write_text(json.dumps(rule))
    code = cli.main(["verify", str(tmp_path / "n.subspace.json"), str(tmp_path / "n.rule.json")])
    err = capsys.readouterr().err
    bad = "rule" if where.startswith("rule") or where == "zero-exponent" else "subspace"
    assert code == 2
    assert err.startswith(f"error: bad {bad} file") and "Traceback" not in err


@pytest.mark.parametrize(
    "where, text",
    [
        ("rule-node", "1/1_000"),
        ("rule-weight", "sqrt(٣)"),
        ("rule-weight", "٣/4"),
        ("coefficient", "1_0"),
        ("coefficient", "\u00a00"),  # a no-break space before the 0 already there
        # JSON floats and booleans, read once as the rationals they equal
        ("rule-node", 0.625),  # the node 5/8 already there
        ("rule-weight", 3.5),  # the weight 7/2 already there
        ("rule-weight", True),
        ("domain-end", 1.0),
        ("coefficient", False),
        ("flags", "abc"),  # once read as the flags a, b and c
    ],
)
def test_number_in_an_unwritten_form_exits_2(corpus_dir, tmp_path, capsys, where, text):
    # Fraction reads "1_000" as 1000, the Arabic-Indic "٣" as 3 and skips
    # Unicode blanks; a document number is refused instead, so two different
    # documents never denote one subspace or rule
    sub = json.loads((corpus_dir / "ex1.subspace.json").read_text())
    rule = json.loads((corpus_dir / "ex1-positive.rule.json").read_text())
    if where == "rule-node":
        rule["nodes"][1] = text
    elif where == "rule-weight":
        rule["weights"][0] = text
    elif where == "domain-end":
        sub["domain"][1] = text
    elif where == "flags":
        sub["flags"] = text
    else:
        sub["functions"][0]["pieces"][0]["poly"][0] = text
    (tmp_path / "u.subspace.json").write_text(json.dumps(sub))
    (tmp_path / "u.rule.json").write_text(json.dumps(rule))
    code = cli.main(["verify", str(tmp_path / "u.subspace.json"), str(tmp_path / "u.rule.json")])
    err = capsys.readouterr().err
    bad = "rule" if where.startswith("rule") else "subspace"
    assert code == 2
    assert err.startswith(f"error: bad {bad} file") and "Traceback" not in err


@pytest.mark.parametrize("weight, shown", [
    ("1/0*sqrt(2)", "'1/0*sqrt(2)': Fraction(1, 0)"),
    ("sqrt(" + "9" * 5000 + ")", "'sqrt(" + "9" * 35 + "': Exceeds the limit"),
])
def test_unparsable_radical_rule_weight_names_its_term(corpus_dir, tmp_path, capsys, weight, shown):
    rule = json.loads((corpus_dir / "ex1-positive.rule.json").read_text())
    rule["weights"][0] = weight
    path = tmp_path / "w.rule.json"
    path.write_text(json.dumps(rule))
    code = cli.main(["verify", str(corpus_dir / "ex1.subspace.json"), str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: bad rule file {path}: cannot parse Radical term {shown}")


def _digit_limit_message():
    """The text Python gives for an integer one digit past its digit limit."""
    try:
        int("1" * (sys.get_int_max_str_digits() + 1))
    except ValueError as e:
        return str(e)


#: hostile document numbers and the exact reason the loader gives for each
LOADER_REFUSALS = {
    "zero-denominator": ("1/0", lambda: "Fraction(1, 0)"),
    "arabic-indic": ("٣", lambda: "invalid literal for a rational number: '٣'"),
    "underscore": ("1_0", lambda: "invalid literal for a rational number: '1_0'"),
    "exponent": (
        f"1e{2 * sys.get_int_max_str_digits() + 1}",
        lambda: f"exponent beyond {2 * sys.get_int_max_str_digits()} in a number",
    ),
    "long-numerator": ("1" * (sys.get_int_max_str_digits() + 1), _digit_limit_message),
    "true": (True, lambda: "expected a rational string, got True"),
    "float": (1.5, lambda: "expected a rational string, got 1.5"),
}


@pytest.mark.parametrize("where", ["coefficient", "lo", "alpha"])
@pytest.mark.parametrize("kind", sorted(LOADER_REFUSALS))
def test_loader_refusal_messages_are_pinned(tmp_path, capsys, where, kind):
    value, reason = LOADER_REFUSALS[kind]
    piece = {"lo": "0", "hi": "1", "poly": ["1"], "sqrt": {"alpha": "1", "beta": "0"}}
    if where == "coefficient":
        piece["poly"][0] = value
    elif where == "lo":
        piece["lo"] = value
    else:
        piece["sqrt"]["alpha"] = value
    sub = tmp_path / "s.subspace.json"
    sub.write_text(json.dumps({"domain": ["0", "1"], "functions": [{"name": "f", "pieces": [piece]}]}))
    assert cli.main(["gram", str(sub)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: bad subspace file {sub}: {reason()}\n"


@pytest.mark.parametrize(
    "kind", sorted(k for k, (v, _) in LOADER_REFUSALS.items() if isinstance(v, str))
)
def test_candidate_refusal_messages_are_pinned(corpus_dir, capsys, kind):
    """grid --candidates reads its entries as documents read rationals, so
    each refusal gives the loader's reason."""
    token, reason = LOADER_REFUSALS[kind]
    sub = str(corpus_dir / "ex1.subspace.json")
    assert cli.main(["grid", sub, f"--candidates=1/8,{token}", "-m", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: bad candidate entry {token!r}: {reason()}\n"


def _function_entry(value):
    return lambda sub, rule: sub["functions"].__setitem__(0, value)


@pytest.mark.parametrize(
    "edit",
    [
        # flags that are not strings broke gram's cache and min's human lines
        pytest.param(lambda sub, rule: sub.update(flags=[{"a": 1}]), id="flags-dict"),
        pytest.param(lambda sub, rule: sub.update(flags=[[1]]), id="flags-list"),
        pytest.param(lambda sub, rule: sub.update(flags=[1, 2]), id="flags-int"),
        # a string where an array belongs was read character by character
        pytest.param(lambda sub, rule: rule.update(nodes="01", weights="11"), id="rule-lists"),
        pytest.param(lambda sub, rule: sub["functions"][0]["pieces"][1].update(poly="12"), id="poly"),
        pytest.param(lambda sub, rule: sub.update(domain="01"), id="domain"),
        pytest.param(lambda sub, rule: sub["functions"][0].update(name=7), id="name"),
        # a function entry that is not an object raised AttributeError
        *(
            pytest.param(_function_entry(value), id=f"function-{kind}")
            for kind, value in (
                ("string", "x"), ("number", 5), ("array", ["x"]), ("null", None), ("bool", True)
            )
        ),
    ],
)
def test_document_of_the_wrong_shape_exits_2(corpus_dir, tmp_path, capsys, edit):
    original = json.loads((corpus_dir / "ex1.subspace.json").read_text())
    sub = json.loads((corpus_dir / "ex1.subspace.json").read_text())
    rule = json.loads((corpus_dir / "ex1-positive.rule.json").read_text())
    edit(sub, rule)
    subspace, rule_path = str(tmp_path / "w.subspace.json"), str(tmp_path / "w.rule.json")
    (tmp_path / "w.subspace.json").write_text(json.dumps(sub))
    (tmp_path / "w.rule.json").write_text(json.dumps(rule))
    bad = "rule" if sub == original else "subspace"
    commands = [["verify", subspace, rule_path], ["reduce", subspace, rule_path]]
    if bad == "subspace":
        commands += [["gram", subspace], ["min", subspace],
                     ["bound", subspace, "--witness", "f1", "--targets", "f2"]]
    for argv in commands:
        code = cli.main(argv + ["--format", "json"])
        err = capsys.readouterr().err
        assert code == 2, argv
        assert err.startswith(f"error: bad {bad} file") and "Traceback" not in err


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_value_too_long_to_print_exits_2(corpus_dir, tmp_path, capsys, fmt):
    # every number is within the digit limit, but on f1 = x^2 the residual of
    # a node 1/333...3 (2,500 threes) has a 10,000-digit denominator
    sub = json.loads((corpus_dir / "ex1.subspace.json").read_text())
    rule = json.loads((corpus_dir / "ex1-positive.rule.json").read_text())
    sub["functions"][0]["pieces"][1]["poly"] = ["0", "0", "1"]  # f1 on [0, 1]
    rule["nodes"][1] = "1/" + "3" * 2500
    (tmp_path / "sq.subspace.json").write_text(json.dumps(sub))
    (tmp_path / "big.rule.json").write_text(json.dumps(rule))
    argv = ["verify", str(tmp_path / "sq.subspace.json"), str(tmp_path / "big.rule.json")]
    code = cli.main(argv + ["--format", fmt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: value with more than") and "Traceback" not in captured.err
    assert "cannot be printed" in captured.err and captured.out == ""


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_value_beyond_the_double_range_reads_inf(corpus_dir, tmp_path, capsys, fmt):
    # the exact residual of a weight 1e400 is printed; its advisory float
    # overflowed the double and raised OverflowError
    rule = json.loads((corpus_dir / "ex1-positive.rule.json").read_text())
    rule["weights"][0] = "1e400"
    (tmp_path / "big.rule.json").write_text(json.dumps(rule))
    argv = ["verify", str(corpus_dir / "ex1.subspace.json"), str(tmp_path / "big.rule.json")]
    code = cli.main(argv + ["--format", fmt])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert ('"float": "inf"' if fmt == "json" else " (inf) [FAIL]") in captured.out


#: what the mutation sweep puts in place of a document subtree
HOSTILE_VALUES = (
    "x", "", 5, -1, 0, 1.5, True, None, [], [1], {}, {"a": 1},
    "1/0", "1/2", "sqrt(2)", "1e400", ["0"], [{}],
)


def _subtree_paths(doc, path=()):
    """The path of every subtree of a JSON document, the root's () first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, child in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _subtree_paths(child, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _mutation_trials(corpus_dir, tmp_path, capsys):
    """(trial, path, argv, exit code, stdout, stderr) of every command of 400
    seeded trials, each with one random subtree of a bundled subspace or
    golden rule replaced by a hostile value."""
    docs = {p.name.split(".")[0]: json.loads(p.read_text()) for p in corpus_dir.iterdir()}
    rules = {"ex1": ("ex1-negative", "ex1-positive"), "ex2": ("ex2-nine",)}
    sub_path, rule_path = str(tmp_path / "m.subspace.json"), str(tmp_path / "m.rule.json")
    rng = random.Random(1)
    for trial in range(400):
        example = rng.choice(sorted(rules))
        pair = [docs[example], docs[rng.choice(rules[example])]]
        k = rng.randrange(2)
        path = rng.choice(list(_subtree_paths(pair[k])))
        pair[k] = _replaced(pair[k], path, rng.choice(HOSTILE_VALUES))
        for name, doc in zip((sub_path, rule_path), pair):
            Path(name).write_text(json.dumps(doc))
        commands = [["verify", sub_path, rule_path], ["gram", sub_path]]
        if example == "ex1":
            commands += [["min", sub_path], ["reduce", sub_path, rule_path]]
        else:
            commands.append(["bound", sub_path, "--witness", "h0", "--targets", "h4,h5,h6,h7",
                             "--refine", "h0,h1"])
        fmt = rng.choice(("human", "json"))
        for argv in commands:
            code = cli.main(argv + ["--format", fmt])
            captured = capsys.readouterr()
            yield trial, path, argv, code, captured.out, captured.err


def test_mutated_documents_exit_0_to_3(corpus_dir, tmp_path, capsys):
    """One random subtree of a bundled subspace or golden rule replaced by a
    hostile value: every command ends with an exit code, never a traceback."""
    for trial, path, argv, code, _, err in _mutation_trials(corpus_dir, tmp_path, capsys):
        assert code in (0, 1, 2, 3), (trial, path, argv)
        assert "Traceback" not in err, (trial, path, argv)


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


def test_parser_is_built_once_and_reused(corpus_dir, capsys):
    assert cli.build_parser() is cli.build_parser()
    base = ["grid", str(corpus_dir / "ex1.subspace.json"),
            "--candidates=-1/2,1/8,3/8,5/8,7/8", "-m", "2", "--format", "json"]
    skipping = base + ["--skip-pair", "f1,f2"]

    def output(argv):
        assert cli.main(argv) == 0
        return capsys.readouterr().out

    alone = {}
    for argv in (skipping, base):
        cli.build_parser.cache_clear()
        alone[tuple(argv)] = output(argv)
    assert alone[tuple(skipping)] != alone[tuple(base)]
    # a --skip-pair list must not leak into the next call on the same parser
    for first, second in ((skipping, base), (base, skipping)):
        assert [output(first), output(second)] == [alone[tuple(first)], alone[tuple(second)]]


#: sha256 of each `--help` text at 80 columns, recorded before the parser was
#: cached (the same on Python 3.10 to 3.13).
HELP_PINS = {
    "": "0a18c20035c487ec2cd78b60b94071760b778ed5526df5fbcf32a808cd0c2101",
    "corpus": "d79cbe27112867712cfb1c445424fb157181bbefaf83b647a95cf95ee5dc8e2e",
    "verify": "fa3a7053300619995499c2231e5923a1727c9fc8e053552b8d04a73aaa8af00e",
    "gram": "39895ec7cbd23b135188b2c011aa9a0ab5c428b32d0331e05dcbbb24620e9770",
    "min": "15b073134d01168518bcd7f630816bca7a3f542b1c54a543869e19473402dfe2",
    "grid": "d52765a0490a18781dd724f7ceb9b337e9bbf12823f18e37e12f892a937de66c",
    "reduce": "1ab54be1bcac2ca5d7187da8a812d954f95d3a0faf6d52693585d4196087e96a",
    "bound": "72400b9a8c452d369c725e66dee3a9df61ad002da831a61e1d765b2fcce584cc",
}


def test_help_texts_are_pinned(corpus_dir, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    sub = str(corpus_dir / "ex1.subspace.json")
    assert cli.main(["grid", sub, "--candidates=1/8,3/8", "-m", "2", "--skip-pair", "f1,f2"]) == 0
    capsys.readouterr()
    digests = {}
    for command in HELP_PINS:
        with pytest.raises(SystemExit) as done:
            cli.main([command, "--help"] if command else ["--help"])
        assert done.value.code == 0
        digests[command] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == HELP_PINS


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


def test_documents_are_read_and_written_as_utf8(tmp_path):
    # JSON is UTF-8 (RFC 8259) whatever the locale: no read or write may
    # fall back to the locale's encoding, which warn_default_encoding flags
    strict = [sys.executable, "-X", "warn_default_encoding", "-W", "error", "-m", "exactdisc"]

    def run(*args):
        return subprocess.run(strict + list(args), capture_output=True, text=True,
                              env=_child_env(), timeout=60)

    assert run("corpus", "ex1", "--output", str(tmp_path)).returncode == 0
    sub = json.loads((tmp_path / "ex1.subspace.json").read_text(encoding="utf-8"))
    sub["functions"][0]["name"] = "f\u2081"
    (tmp_path / "named.subspace.json").write_text(json.dumps(sub, ensure_ascii=False),
                                                  encoding="utf-8")
    report = tmp_path / "gram.json"
    proc = run("gram", str(tmp_path / "named.subspace.json"), "--format", "json",
               "--output", str(report))
    assert proc.returncode == 0 and proc.stderr == ""
    text = report.read_text(encoding="utf-8")
    assert text.isascii() and json.loads(text)["names"][0] == "f\u2081"


#: sha256 of every file `scripts/reproduce_all.py` writes, recorded before
#: `decide_min` and `search_grid` shared one subset engine (the two ex2-eleven
#: files when that rule was added).
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
    "ex2-eleven-verify.json": "64338ba27b2c9f9bc536ea68da39bac5e21458564f9271968e3393557958af9e",
    "ex2-eleven.rule.json": "50439416ee47ca40503834e2d9a93eb9189097cbd528daae20ccda3b6682cdcc",
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
