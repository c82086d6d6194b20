"""Command line behavior: subcommands, exit codes, deterministic output."""

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import mblab.cli as cli
import mblab.estimator as estimator
import mblab.filtration as filtration
from mblab.bellman import Witness, quadratic_candidate
from mblab.certifier import certificate_to_dict, certify
from mblab.cli import run
from mblab.corpus import build_tower, default_corpus, haar_witness, prepare_cell
from mblab.filtration import build_dyadic, filtration_to_dict, max_parts
from mblab.martingale import inner
from mblab.reporting import to_canonical_json
from mblab.transforms import transform_to_dict
from conftest import examples
from test_checks import _nan_witness


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = run(argv + ["--out", str(out)])
    return code, out


# ---------------------------------------------------------------------------
# usage and exit codes


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["check", "--does-not-exist", "1"])
    assert exc.value.code == 2


def test_missing_seed_exits_two(capsys):
    assert run(["check"]) == 2
    err = capsys.readouterr().err
    assert "--seed is required" in err


def test_unknown_candidate_exits_two(capsys):
    assert run(["certify", "--seed", "1", "--candidate", "cubic"]) == 2


def test_unknown_suite_exits_two(capsys):
    assert run(["check", "--seed", "1", "--suites", "nope"]) == 2


def test_infeasible_filtration_exits_two(capsys):
    assert run(["gen", "--delta", "0.4", "--max-children", "3", "--seed", "1"]) == 2
    assert "--max-children" in capsys.readouterr().err


def test_gen_builds_with_its_own_cap_next_to_a_critical_floor():
    # 1/3 + 5e-11 fits two parts, not three: the default cap once said
    # three, and the check then refused it
    assert run(["gen", "--seed", "1", "--delta", "0.33333333338", "--depth", "2"]) == 0


@pytest.mark.parametrize("delta", ["0.5", "0.25"])
def test_max_children_is_checked_at_every_delta(delta, capsys):
    argv = ["gen", "--seed", "1", "--depth", "2", "--delta", delta, "--max-children"]
    assert run([*argv, "0"]) == 2
    assert "--max-children" in capsys.readouterr().err
    assert run([*argv, "2"]) == 0


@pytest.mark.parametrize("number", ["nan", "inf", "-inf"])
def test_non_finite_candidate_number_exits_two(number, capsys):
    # every slack test compares against the candidate's values, and each
    # comparison with NaN is false, so a non-finite number is an input error
    for name in ("linear", "quadratic"):
        argv = ["certify", "--seed", "1", "--depth", "2", "--candidate", f"{name}:{number}"]
        assert run(argv) == 2
        assert "needs a finite number" in capsys.readouterr().err


def test_unwritable_out_exits_two(capsys):
    assert run(["gen", "--out", "/proc/nowhere/x.json"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--seed", "1", "--trials", "0"],
        ["lemma1", "--seed", "1", "--delta", "0.9"],
        ["scan", "--seed", "1", "--delta", "0.9"],
        ["search", "--seed", "1", "--p", "3"],
        ["scan", "--seed", "1", "--p", "-1"],
        ["scan", "--seed", "1", "--p", "1"],
        ["scan", "--seed", "1", "--p", "0.5"],
        ["gen", "--seed", "-1", "--delta", "0.25"],
        ["gen", "--dim", "0", "--witness", "structured"],
        ["lemma1", "--seed", "1", "--dim", "5"],
        ["lemma1", "--seed", "1", "--m", "0"],
        ["certify", "--seed", "1", "--candidate", "linear:abc"],
        ["certify", "--seed", "1", "--delta", "0.25", "--candidate", "quadratic:0.5"],
        ["gen", "--delta", "0.1", "--seed", "4", "--depth", "2", "--witness", "structured"],
        ["check", "--seed", "1", "--suites", ""],
        ["check", "--seed", "1", "--suites", " "],
        ["gen", "--seed", "1", "--delta", "0.25", "--max-children", "0"],
        ["scan", "--seed", "1", "--p", "inf"],
        ["search", "--seed", "1", "--trials", "3", "--target=nan"],
        ["search", "--seed", "1", "--trials", "3", "--target=inf"],
        ["search", "--seed", "1", "--trials", "3", "--target=-inf"],
        ["search", "--seed", "1", "--ascent", "-5"],
        ["gen", "--split-prob", "7", "--depth", "2"],
        ["gen", "--seed", "1", "--delta", "0.25", "--split-prob", "-0.1"],
        ["corpus", "--seeds", "0"],
        ["corpus", "--suites", "x2_drop,nope"],
        ["check", "--seed", "1", "--suites", "x2_drop,x2_drop"],
        ["corpus", "--suites", "projections, x2_drop,projections"],
        # a dict stands for a --config file holding it
        ["scan", "--seed", "1", "--config", {"trials": "5"}],
        ["gen", "--config", {"seed": 1.5, "depth": 2}],
        ["search", "--seed", "1", "--trials", "3", "--config", {"target": float("-inf")}],
    ],
)
def test_bad_arguments_exit_two(argv, capsys, tmp_path):
    config = tmp_path / "config.json"
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            config.write_text(json.dumps(arg))
            argv = [*argv[:i], str(config), *argv[i + 1 :]]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


# The flags each command reads; every command also takes --config, --out
# and --format.
TOWER = ("--seed", "--depth", "--delta", "--dim", "--max-children", "--split-prob", "--witness")
SAMPLED = ("--seed", "--depth", "--delta", "--dim", "--p", "--trials")
READS = {
    "gen": TOWER,
    "check": (*TOWER, "--suites"),
    "certify": (*TOWER, "--p", "--candidate"),
    "lemma1": ("--seed", "--delta", "--dim", "--p", "--trials", "--m"),
    "search": (*SAMPLED, "--target", "--ascent"),
    "scan": SAMPLED,
    "bound": SAMPLED,
    "corpus": ("--seeds", "--suites"),
}
EVERY = ("--config", "--out", "--format")
FLAGS = sorted(set().union(*READS.values()))
VALUES = {"--witness": "random", "--candidate": "quadratic", "--suites": "x2_drop", "--format": "csv"}


def test_flag_table_counts():
    # 18 flags, of which each command reads its own share: 76 of the
    # 144 flag-and-command pairs
    assert len(FLAGS) + len(EVERY) == 18
    assert sum(len(flags) + len(EVERY) for flags in READS.values()) == 76
    assert set(READS) == set(cli._COMMANDS)


@pytest.mark.parametrize(
    "command, flag", [(c, f) for c, flags in READS.items() for f in (*flags, *EVERY)]
)
def test_each_command_parses_the_flags_it_reads(command, flag):
    args = cli._build_parser().parse_args([command, flag, str(VALUES.get(flag, 1))])
    assert args.command == command


@pytest.mark.parametrize(
    "command, flag", [(c, f) for c, flags in READS.items() for f in FLAGS if f not in flags]
)
def test_unread_flag_or_config_key_exits_two(command, flag, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run([command, flag, str(VALUES.get(flag, 1))])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    key = flag[2:].replace("-", "_")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: VALUES.get(flag, 1)}))
    assert run([command, "--config", str(config)]) == 2
    assert f"does not read: ['{key}']" in capsys.readouterr().err


# Config values of another JSON type than a flag's type takes.
WRONG_TYPES = {int: [True, 1.5], float: ["1"], str: [1]}


@pytest.mark.parametrize("field", dataclasses.fields(cli.RunConfig), ids=lambda f: f.name)
def test_each_flag_is_declared_on_its_field(field, tmp_path, capsys):
    # the flag's argparse type and choices are its field's metadata, its
    # default is the field's, and a config value of another JSON type
    # exits 2 naming the key
    command = next((c for c, keys in cli._FLAGS.items() if field.name in keys), "gen")
    flag = "--format" if field.name == "fmt" else "--" + field.name.replace("_", "-")
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    [action] = [a for a in sub.choices[command]._actions if a.dest == field.name]
    assert action.option_strings == [flag]
    assert action.type is field.metadata.get("type")
    assert action.choices == field.metadata.get("choices")
    assert getattr(cli._merge_config(parser.parse_args([command])), field.name) == field.default
    config = tmp_path / "run.json"
    for value in WRONG_TYPES[field.metadata.get("type", str)]:
        config.write_text(json.dumps({field.name: value}))
        assert run([command, "--config", str(config)]) == 2
        assert f"config key {field.name!r} needs" in capsys.readouterr().err


def _readme_command_line() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]


def test_readme_flag_table_matches_the_flag_table():
    table = {}
    for line in _readme_command_line().splitlines():
        if line.startswith("| `"):
            command, flags = (cell.strip().strip("`") for cell in line.strip("|").split("|"))
            table[command] = tuple(flags.split())
    assert table == READS


def test_readme_examples_run(capsys):
    # every example of the section runs in-process: exit 1 for the linear
    # candidate's certificate, 0 for the rest, and its report holds each
    # "key": value of the "# ->" excerpt under it (a value ending in "..."
    # as a prefix); the corpus runs at --seeds 1, not its 100
    lines = _readme_command_line().splitlines()
    examples = [(line, after) for line, after in zip(lines, lines[1:] + [""]) if line.startswith("mblab ")]
    assert len(examples) >= 7
    for line, after in examples:
        argv = shlex.split(line.replace("--seeds 100", "--seeds 1"))[1:]
        assert run(argv) == (1 if "--candidate linear" in line else 0), line
        out = capsys.readouterr().out
        excerpt = after.removeprefix("# -> ") if after.startswith("# -> ") else ""
        for key, value in re.findall(r'"(\w+)": ([^,}]+)', excerpt):
            end = "" if value.endswith("...") else "[,}]"
            assert re.search(f'"{key}":{re.escape(value.removesuffix("..."))}{end}', out), line


def test_bad_tolerance_env_exits_two(monkeypatch, capsys):
    monkeypatch.setenv("MBL_TOL", "nan")
    assert run(["check", "--seed", "1"]) == 2


@pytest.mark.parametrize("suites", ["nope", "x2_drop,x2_drop"])
def test_check_rejects_its_suites_before_building(suites, monkeypatch):
    def no_build(cfg):
        raise AssertionError("the tower was built")

    monkeypatch.setattr(cli, "_filtration", no_build)
    assert run(["check", "--seed", "1", "--suites", suites]) == 2


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    # only input errors map to exit 2; a ValueError from inside a command
    # is a bug and must surface as such
    def broken(cfg):
        raise ValueError("internal")

    monkeypatch.setitem(cli._COMMANDS, "gen", broken)
    with pytest.raises(ValueError, match="internal"):
        run(["gen"])


# ---------------------------------------------------------------------------
# gen


def test_gen_depth1_structured_matches_reference_witness(tmp_path):
    code, out = run_to_file(
        tmp_path, "fix.json", ["gen", "--depth", "1", "--witness", "structured"]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    filt = build_dyadic(1)
    assert payload["filtration"] == filtration_to_dict(filt)
    w = haar_witness(filt, 1)
    wit = payload["witness"]
    assert wit["f"] == w.f.values.tolist()
    assert wit["g"] == w.g.values.tolist()
    assert wit["transform"] == transform_to_dict(w.op)
    assert inner(w.g, w.tf) == pytest.approx(1.0, rel=1e-12)


def test_gen_csv_lists_atoms(tmp_path):
    code, out = run_to_file(tmp_path, "atoms.csv", ["gen", "--depth", "2", "--format", "csv"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("id,a,b,level")
    assert len(lines) == 1 + 7  # dyadic depth 2 has 7 atoms


def test_gen_random_delta_needs_seed(capsys):
    assert run(["gen", "--delta", "0.25"]) == 2


@pytest.mark.parametrize(
    "depth, delta, max_children", [("9", "0.25", "4"), ("10", "0.3333333333333333", "3")]
)
def test_gen_critical_equal_split(depth, delta, max_children, tmp_path):
    # max_children * delta = 1: the builder's equal splits pass its own
    # ratio check at any depth
    argv = ["gen", "--seed", "1", "--depth", depth, "--delta", delta, "--max-children", max_children]
    code, out = run_to_file(tmp_path, "tower.json", argv)
    assert code == 0
    atoms = json.loads(out.read_text())["filtration"]["atoms"]
    assert max(a["level"] for a in atoms) == int(depth)


# ---------------------------------------------------------------------------
# check


def test_check_passes_on_dyadic(tmp_path):
    code, out = run_to_file(tmp_path, "check.json", ["check", "--seed", "1", "--depth", "3"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    assert all(row["ok"] for row in payload["rows"])


def test_check_csv_format(tmp_path):
    code, out = run_to_file(
        tmp_path, "check.csv", ["check", "--seed", "1", "--format", "csv"]
    )
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "check,max_err,tol,ok,detail"


def test_check_selected_suites(tmp_path):
    code, out = run_to_file(
        tmp_path,
        "sel.json",
        ["check", "--seed", "3", "--suites", "osc_series,x2_drop", "--delta", "0.25"],
    )
    assert code == 0
    names = {r["check"] for r in json.loads(out.read_text())["rows"]}
    assert names == {"osc_series", "x2_drop"}


def test_check_tolerance_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("MBL_TOL", "1000")
    code, out = run_to_file(tmp_path, "wide.json", ["check", "--seed", "1"])
    assert code == 0
    rows = json.loads(out.read_text())["rows"]
    tol_by_name = {r["check"]: r["tol"] for r in rows}
    assert tol_by_name["osc_series"] == pytest.approx(1e-6)


# ---------------------------------------------------------------------------
# certify


def test_certify_quadratic_accepts(tmp_path):
    code, out = run_to_file(
        tmp_path, "cert.json", ["certify", "--seed", "2", "--witness", "structured", "--depth", "1"]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    assert payload["objective"] == pytest.approx(1.0, abs=1e-12)


def test_certify_linear_rejects_with_record(tmp_path, capsys):
    code, out = run_to_file(
        tmp_path,
        "bad.json",
        [
            "certify",
            "--seed",
            "2",
            "--witness",
            "structured",
            "--depth",
            "1",
            "--candidate",
            "linear:1.0",
        ],
    )
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["ok"] is False
    assert payload["failures"]
    assert "slack" in payload["failures"][0]
    # the offending split is present with full numerics
    assert payload["records"][0]["d"] != 0.0


def test_certify_csv_rows(tmp_path):
    code, out = run_to_file(
        tmp_path, "cert.csv", ["certify", "--seed", "5", "--format", "csv", "--depth", "2"]
    )
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "atom,level,measure,d,diameter,pairing,slack"


# ---------------------------------------------------------------------------
# lemma1


def test_lemma1_reports_ratios(tmp_path):
    code, out = run_to_file(
        tmp_path, "lem.json", ["lemma1", "--seed", "4", "--delta", "0.25", "--trials", "20"]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["trials"] == 20
    assert payload["min_ratio"] is None or payload["min_ratio"] > 0.0
    assert len(payload["rows"]) == 20


# ---------------------------------------------------------------------------
# search / scan / bound


def test_search_finds_structured_witness(tmp_path):
    code, out = run_to_file(
        tmp_path, "search.json", ["search", "--seed", "6", "--trials", "10"]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["found"] is True
    assert payload["best"] >= 1.0 - 1e-12
    assert payload["achieved_point"]["x3"] == pytest.approx(1.0, rel=1e-12)


def test_search_unreachable_target_exits_one(tmp_path):
    code, out = run_to_file(
        tmp_path,
        "search2.json",
        ["search", "--seed", "6", "--trials", "5", "--target", "2.5"],
    )
    assert code == 1
    assert json.loads(out.read_text())["found"] is False


def test_scan_p2_accepts(tmp_path):
    code, out = run_to_file(
        tmp_path, "scan.json", ["scan", "--seed", "7", "--trials", "50"]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["max_ratio"] <= 1.0 + 1e-9
    assert sum(payload["counts"]) == 50


def test_bound_accepts(tmp_path):
    code, out = run_to_file(
        tmp_path, "bound.json", ["bound", "--seed", "0", "--trials", "6", "--delta", "0.25"]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    assert payload["empirical_max"] <= payload["analytic_bound"] + 1e-6


@pytest.mark.parametrize("p, proved", [("2", True), ("1.5", False)])
def test_bound_labels_unproved_exponents(tmp_path, p, proved):
    # below p = 2 the candidate's leading constant is widened empirically, so
    # an ok bound there is a measurement, not a proof
    code, out = run_to_file(
        tmp_path, "bound.json", ["bound", "--seed", "0", "--p", p, "--trials", "4"]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    assert payload["proved"] is proved


# ---------------------------------------------------------------------------
# config file and determinism


def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": 9, "trials": 12, "depth": 2}))
    code, out = run_to_file(
        tmp_path, "cfg.json", ["search", "--config", str(cfg), "--trials", "4"]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["trials"] == 4  # flag beats file
    assert len(payload["history"]) == 4


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"sede": 9}))
    assert run(["search", "--config", str(cfg)]) == 2


def test_config_file_rejects_empty_suites(tmp_path, capsys):
    # an empty suite list is a usage error, not a request for every suite
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({"suites": ""}))
    assert run(["check", "--seed", "1", "--config", str(cfg)]) == 2
    assert "--suites" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# corpus, and the scan and lemma1 gates


def corpus_report(capsys, *args):
    code = run(["corpus", *args])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("value", ["", " "])
def test_corpus_rejects_empty_suites(value, capsys):
    # same rule as mblab check: an empty list names no suite, it does not
    # ask for all of them
    assert run(["corpus", "--seeds", "1", "--suites", value]) == 2
    captured = capsys.readouterr()
    assert "--suites must name at least one suite" in captured.err
    assert captured.out == ""


def test_corpus_digests_certificates_alone(capsys):
    # the certificates digest hashes the certificates in corpus order and
    # nothing else: the suites run change the reports digest only
    digests = []
    for suites in ("x2_drop", "localization,support"):
        code, report = corpus_report(capsys, "--seeds", "1", "--suites", suites)
        assert code == 0
        assert report["ok"] is True and report["cells"] == 12
        digests.append((report["certificates_sha256"], report["reports_sha256"]))
    expected = hashlib.sha256()
    for cell in default_corpus(seeds=1):
        pc = prepare_cell(cell)
        cert = certify(quadratic_candidate(cell.delta), pc.f, pc.g, pc.op)
        expected.update(to_canonical_json(certificate_to_dict(cert)).encode())
    assert digests[0][0] == digests[1][0] == expected.hexdigest()
    assert digests[0][1] != digests[1][1]


def test_corpus_digests_are_pinned(capsys):
    # four seeds give every depth 2..5 at every floor and dimension; the
    # digests are those of the acceptance sweep before it became a command
    assert run(["corpus", "--seeds", "4"]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["cells"] == 48
    assert report["certificates_sha256"] == (
        "2cfcc809794d18d20608b8786a28b1c6e17cadf66b48b4ebbbc650b6bb9333e6"
    )
    assert report["reports_sha256"] == (
        "c05c57498b9fcc9660d51f0949d00323f919a19f0f483ee60108963ae8463afc"
    )
    assert captured.err.startswith("stage wall (s): prepare_cell ")


def test_corpus_names_the_worst_cell_of_each_check(capsys):
    argv = ["--seeds", "1", "--suites", "x2_drop,x2_sign"]
    code, report = corpus_report(capsys, *argv)
    assert code == 0
    checks = {row["check"]: row for row in report["checks"]}
    assert sorted(checks) == ["x2_drop", "x2_root_mean_bound", "x2_sign"]
    delta, dim, seed = checks["x2_drop"]["cell"]
    assert 0.0 < checks["x2_drop"]["err_over_tol"] <= 1.0
    assert delta in (0.1, 0.25, 1.0 / 3.0, 0.5) and dim in (1, 2, 3) and seed == 0
    assert checks["x2_sign"]["cell"] is None  # never off zero
    assert report["restriction_centered_gap"] <= 1e-9
    assert report["restriction_defect_gap"] <= 1e-9
    assert report["mean_bound_margin"] < 0.0
    # one CSV row per check, the cell in three columns
    assert run(["corpus", *argv, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "check,err_over_tol,delta,dim,seed"
    assert lines[1].startswith("x2_drop,") and lines[1].endswith(",0")
    assert lines[2:] == ["x2_root_mean_bound,0,,,", "x2_sign,0,,,"]


@pytest.mark.parametrize(
    "probe, value",
    [
        ("restriction_identity_gaps", (2e-9, 0.0)),
        ("restriction_identity_gaps", (0.0, 2e-9)),
        ("hoelder_mean_margin", 2e-10),
    ],
)
def test_corpus_exits_one_when_a_probe_breaks_its_bound(probe, value, monkeypatch, capsys):
    # the probes are held to the acceptance gate's bounds, not only printed
    monkeypatch.setattr(cli, probe, lambda *args: value)
    code, report = corpus_report(capsys, "--seeds", "1", "--suites", "x2_drop")
    assert code == 1
    assert report["ok"] is False


@pytest.mark.parametrize("where", ["g", "multiplier"])
def test_corpus_gate_keeps_a_nan_probe(where, monkeypatch, capsys):
    # certify refuses a NaN witness, so the probes see it on the first cell
    # only, through a wrapper; the later cells' finite values must not
    # replace the NaN in the worst-of accumulators
    nan_witness = Witness(*_nan_witness(where))
    seen = set()

    def on_first_cell(probe):
        def wrapped(w):
            first = probe not in seen
            seen.add(probe)
            return probe(nan_witness if first else w)

        return wrapped

    for name in ("restriction_identity_gaps", "hoelder_mean_margin"):
        monkeypatch.setattr(cli, name, on_first_cell(getattr(cli, name)))
    code, report = corpus_report(capsys, "--seeds", "1", "--suites", "x2_drop")
    assert code == 1
    assert report["ok"] is False
    for field in ("restriction_centered_gap", "restriction_defect_gap", "mean_bound_margin"):
        assert math.isnan(report[field]), field


def test_corpus_exits_one_on_a_red_row(monkeypatch, capsys):
    red = {"check": "x2_drop", "max_err": 1.0, "tol": 0.5, "ok": False, "detail": ""}
    monkeypatch.setitem(cli.SUITES, "x2_drop", lambda w, tol, rng: [red])
    code, report = corpus_report(capsys, "--seeds", "1", "--suites", "x2_drop")
    assert code == 1
    assert report["ok"] is False
    assert report["checks"] == [{"check": "x2_drop", "err_over_tol": 2, "cell": [0.1, 1, 0]}]


@pytest.mark.parametrize("tol", [0.5, 0.0])
def test_corpus_names_the_first_nan_cell(tol, monkeypatch, capsys):
    # a NaN row on every cell: no comparison with NaN is true, so the
    # worst-of fold has to keep the first NaN cell and its NaN ratio itself
    red = {"check": "x2_drop", "max_err": math.nan, "tol": tol, "ok": False, "detail": ""}
    monkeypatch.setitem(cli.SUITES, "x2_drop", lambda w, tol, rng: [red])
    code, report = corpus_report(capsys, "--seeds", "1", "--suites", "x2_drop")
    assert code == 1
    [worst] = report["checks"]
    assert (worst["check"], worst["cell"]) == ("x2_drop", [0.1, 1, 0])
    assert math.isnan(worst["err_over_tol"])


def test_scan_over_an_exponent_grid(capsys):
    # one scan per grid point; at p = 2 the scan is the contraction gate
    for p in (2.0, 1.5):
        assert run(["scan", "--seed", "11", "--trials", "5", "--p", str(p)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["p"], report["delta"], report["dim"], report["trials"]) == (p, 0.5, 1, 5)
        assert p != 2.0 or report["max_ratio"] <= 1.0 + 1e-9


# sha256 of the stdout of `mblab lemma1` calls
LEMMA1_DIGESTS = {
    ("--seed", "1", "--delta", "0.25", "--trials", "500"):
        "7610e3a3e1df5b4738d97d6c58340d867e5fc162a05d197ca3211ffc42e48a3f",
    ("--seed", "3", "--trials", "200", "--dim", "2", "--m", "8", "--delta", "0.25"):
        "00a78e5d1feadb0de78b0f7bcb71288bd3209e23ccae19942817b4434cdd7a20",
    ("--seed", "3", "--trials", "200", "--dim", "2", "--m", "8", "--delta", "0.1"):
        "eb359dd4e2d9455441aa39e6aeba91670565b307e9cf982c7c4b93c69c74b20d",
    ("--seed", "3", "--trials", "200", "--dim", "2", "--m", "8", "--delta", "0.3333333333333333"):
        "51b06bdbc0faf499a9841bc402203573812257374434e2276d291dc44f3253c7",
    ("--seed", "3", "--trials", "200", "--dim", "2", "--m", "8", "--delta", "0.5"):
        "ae6906e1515ddf8f38efff39644e82ae2cc83d86cb2e4a4ba1db239f6087d686",
    ("--seed", "5", "--trials", "50", "--dim", "3", "--p", "1.5", "--delta", "0.2"):
        "8e36edcd6c862b2506e3a32b39f9b0f1b10b911a26e89e5fa03bdb82d102fad0",
}


@pytest.mark.parametrize("argv", sorted(LEMMA1_DIGESTS))
def test_lemma1_stdout_is_pinned(argv, capsys):
    assert run(["lemma1", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == LEMMA1_DIGESTS[argv]


# exit code and sha256 of the stdout of the calls that read the moment
# table's points and the certificate's records: the search's root point,
# the certificate's records, root and leaves in JSON and CSV, accepted and
# failing, the duality bound's root x1, and the suite rows of check, which
# read the table's steps, means and oscillations
REPORT_DIGESTS = {
    ("check", "--seed", "1", "--depth", "5", "--delta", "0.5", "--dim", "2"):
        (0, "5f101fa20cd4409832fd9922f96619fca16e2ae834cddcc79d6b76f30d40d706"),
    ("check", "--seed", "2", "--depth", "6", "--delta", "0.25", "--dim", "3"):
        (0, "376baf69b61d26095888042aff3a370ecdcb219386e41429f15cfdf7813a665a"),
    ("check", "--seed", "3", "--depth", "9", "--delta", "0.5", "--dim", "1"):
        (0, "e6fb4b32af166e0d578088bff647bba6f1280e8c5c8b67e66b690adee5841da6"),
    # 32,767 stacked rows: the restriction cuts go through in two blocks
    ("check", "--seed", "1", "--depth", "14", "--delta", "0.5", "--dim", "1"):
        (0, "4bfd3985a7d5fa6718f6ce65855d9708a09cb998a12acebaf040dfaea13ffb53"),
    ("check", "--seed", "2", "--depth", "14", "--delta", "0.5", "--dim", "2"):
        (0, "4b24c671c4e70891f23d9ef2f32002b610a7effe320dd42b1216e74744fcfbb4"),
    ("search", "--seed", "1", "--p", "1.5", "--trials", "200", "--delta", "0.5", "--ascent", "100"):
        (0, "8f3a319a5968c81df52336859138a875c7561b5013feda3139c9dd09c4f36e16"),
    ("certify", "--seed", "1", "--depth", "5", "--delta", "0.5", "--dim", "2"):
        (0, "ea1feb307cf22294ec3fbafe9f05f576546ef8a40eefe9202bf068b4f1fe3b8d"),
    # certificates whose text is written in several blocks; the second's
    # float count also crosses the column kernel's chunk
    ("certify", "--seed", "3", "--depth", "10", "--delta", "0.5", "--dim", "2"):
        (0, "c07ebb3403ef942c951ac166aeb3974a06fbb82af68fa81dbe17a8d2295d73a0"),
    ("certify", "--seed", "5", "--depth", "12", "--delta", "0.25", "--dim", "3"):
        (0, "cd8c38b6784906979dd5572692e24a4d06911ce99cec6fa71efd09324fbc6ccf"),
    ("certify", "--seed", "2", "--depth", "6", "--delta", "0.25", "--dim", "3", "--format", "csv"):
        (0, "7c0be5e4e5860ee206beae0d9343968ebef559bc6aac03144d95a7ea4f07b1f3"),
    ("certify", "--seed", "2", "--depth", "6", "--delta", "0.25", "--dim", "3", "--candidate", "linear:0.5"):
        (1, "330a1cf8b9729bc0ab934179b420283be0b7a87135c1f058595e46944205619d"),
    ("certify", "--seed", "2", "--depth", "6", "--delta", "0.25", "--dim", "3", "--candidate", "linear:0.5",
     "--format", "csv"):
        (1, "e60667db67df8b2e58846dcbf3bead19c7688c48ca304bdb8f403891fa70fc72"),
    ("bound", "--seed", "1", "--p", "2", "--trials", "8", "--delta", "0.25"):
        (0, "94564d593559c765a6313404a99a9dd91dc7da7187539477aafa7f7f891117d4"),
    ("gen", "--seed", "1", "--depth", "6", "--delta", "0.25", "--dim", "2"):
        (0, "12b70aad9d9fa07be255e90abbd167fdeb526d948f5507770ca998363ae66897"),
    ("gen", "--seed", "0", "--depth", "3", "--delta", "0.5", "--dim", "2", "--witness", "structured"):
        (0, "892c4430c51519a567afd6f9009e6fcc3fddd39d93c98aabc3e62aabd675d921"),
    ("scan", "--seed", "1", "--p", "3", "--delta", "0.25", "--trials", "500"):
        (0, "a53e6334e2d71e9234c5a60afac6a8d32c100c6b3256c01eaff28dc5adda5fcb"),
    # the scans and searches run their trials as one tower batch per depth
    ("scan", "--seed", "1", "--p", "2", "--trials", "500"):
        (0, "67f67177b04d70731de06a2d66b0dad8981f6a9de1ee65eda0c1964722cab06a"),
    ("scan", "--seed", "2", "--p", "1.5", "--delta", "0.1", "--dim", "2", "--depth", "3", "--trials", "200"):
        (0, "5fd013970dc7dcf8ec9771004469ba1635ae577b664756f32b64486cccaf0129"),
    ("scan", "--seed", "4", "--p", "3", "--delta", "0.3333333333333333", "--trials", "300"):
        (0, "3b0e1791a803633db99660918eeea133451eac65bda1701a6410961f0acc7e98"),
    ("search", "--seed", "3", "--p", "1.25", "--delta", "0.25", "--trials", "60", "--ascent", "20"):
        (0, "b6d787082561f25384111c5381c6ef7f556431daee747be3226530d73204bf7f"),
    ("search", "--seed", "2", "--p", "2", "--delta", "0.5", "--dim", "2", "--depth", "4", "--trials", "80"):
        (0, "ac06e152a2b74603ef3767ec14c67f2984a321a509149ec0b0f1338f9b834e12"),
}


@pytest.mark.parametrize("argv", sorted(REPORT_DIGESTS))
def test_report_stdout_is_pinned(argv, capsys):
    code, digest = REPORT_DIGESTS[argv]
    assert run(list(argv)) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_no_pin_draws_an_affine_row(monkeypatch, capsys):
    # the affine ratio row is the one draw the pins above predate: no
    # pinned call and no corpus tower reaches it, so no pinned byte moved
    drawn, affine = [], filtration._affine_row

    def counted(rng, k, delta):
        drawn.append((k, delta))
        return affine(rng, k, delta)

    monkeypatch.setattr(filtration, "_affine_row", counted)
    for argv in REPORT_DIGESTS:
        run(list(argv))
    for argv in LEMMA1_DIGESTS:
        run(["lemma1", *argv])
    capsys.readouterr()
    for delta, seed, depth in sorted({(c.delta, c.seed, c.depth) for c in default_corpus()}):
        build_tower(delta, seed, depth)
    assert drawn == []
    # the count is live: three parts at 0.333 take the affine row
    build_tower(0.333, 1, 3)
    assert drawn and set(drawn) == {(3, 0.333)}


# Calls that exited 2 after work had begun, with no ratio row of 10,000
# above the floor: the default cap at 0.333, eight parts at the corpus
# floor 0.1, and four parts at 0.249
NEAR_CRITICAL_CALLS = [
    ("check", "--seed", "1", "--delta", "0.333"),
    ("gen", "--seed", "1", "--delta", "0.1", "--max-children", "8", "--depth", "3", "--split-prob", "1"),
    ("check", "--seed", "1", "--depth", "3", "--split-prob", "1", "--delta", "0.249"),
]


@pytest.mark.parametrize("argv", NEAR_CRITICAL_CALLS)
def test_near_critical_floors_build(argv, capsys):
    assert run(list(argv)) == 0
    assert capsys.readouterr().err == ""


@examples(40)
@given(
    parts=st.integers(2, 40),
    room=st.floats(0.0, 0.6),
    cap_share=st.floats(0.0, 1.0),
    split_prob=st.floats(0.0, 1.0),
    depth_share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32),
)
def test_every_accepted_floor_and_cap_builds(parts, room, cap_share, split_prob, depth_share, seed):
    # a floor (1 - room) / parts, a hair to far below 1/parts, any cap the
    # command line accepts there and a depth whose tower stays small: gen
    # exits 0, and the tower it wrote is a valid one
    delta = (1.0 - room) / parts
    cap = 2 + round(cap_share * (max_parts(delta) - 2))
    depth = 1 + round(depth_share * (max(1, int(math.log(2000) / math.log(cap))) - 1))
    argv = ["--seed", str(seed), "--delta", repr(delta), "--max-children", str(cap)]
    argv += ["--depth", str(depth), "--split-prob", repr(split_prob)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["gen", *argv]) == 0
    filt = build_tower(delta, seed, depth, cap, split_prob)
    filtration._validate(filt)
    assert json.loads(out.getvalue())["filtration"] == json.loads(to_canonical_json(filtration_to_dict(filt)))


def mblab_process(*argv, cwd=None):
    """``python -m mblab argv`` in a fresh interpreter, on this checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    env.pop("MBL_TOL", None)
    return subprocess.run(
        [sys.executable, "-m", "mblab", *argv], env=env, cwd=cwd, capture_output=True, timeout=120
    )


# the pins of the scans and searches that run their trials as tower batches
BATCHED_PINS = [argv for argv in REPORT_DIGESTS if argv[0] in ("scan", "search")]


@pytest.mark.parametrize("argv", BATCHED_PINS)
def test_batched_pins_hold_in_a_fresh_interpreter(argv):
    code, digest = REPORT_DIGESTS[argv]
    proc = mblab_process(*argv)
    assert (proc.returncode, hashlib.sha256(proc.stdout).hexdigest()) == (code, digest)


@pytest.mark.parametrize("argv", [argv for argv in BATCHED_PINS if argv[0] == "search"])
def test_search_pins_hold_in_small_batches(argv, monkeypatch, capsys):
    # at most 40 leaves a batch, so every depth group runs as several
    # batches; the best trial's witness owns its arrays, so no batch it
    # came from outlives its pass
    monkeypatch.setattr(estimator, "_BATCH_LEAVES", 40)
    batches, witnesses = [], []
    stacked, search = estimator._stacked, estimator._search_trials

    def counted(*args):
        batches.append(len(args[-1]))
        return stacked(*args)

    def recorded(*args):
        out = search(*args)
        witnesses.append(out[-1])
        return out

    monkeypatch.setattr(estimator, "_stacked", counted)
    monkeypatch.setattr(estimator, "_search_trials", recorded)
    code, digest = REPORT_DIGESTS[argv]
    assert run(list(argv)) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
    [w] = witnesses
    assert len(batches) >= 4
    assert w.f.values.base is None and w.g.values.base is None and w.op.multipliers.base is None


def test_cli_entry_freezes_the_heap_and_keeps_its_exits(tmp_path):
    # main() freezes what the imports left before it runs the command;
    # neither importing the CLI nor run() freezes anything
    assert gc.get_freeze_count() == 0
    assert run(["gen", "--depth", "1"]) == 0
    assert gc.get_freeze_count() == 0
    gen = ("gen", "--seed", "1", "--depth", "6", "--delta", "0.25", "--dim", "2")
    proc = mblab_process(*gen)
    assert (proc.returncode, hashlib.sha256(proc.stdout).hexdigest()) == REPORT_DIGESTS[gen]
    assert mblab_process(*gen, "--out", "report.json", cwd=tmp_path).returncode == 0
    assert (tmp_path / "report.json").read_bytes() == proc.stdout
    tower = ("--seed", "2", "--depth", "6", "--delta", "0.25", "--dim", "3")
    assert mblab_process("certify", *tower, "--candidate", "linear:0.5").returncode == 1
    proc = mblab_process("scan", "--seed", "1", "--p", "1")
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.decode().startswith("error: scan needs --p > 1")


def test_large_exponents_keep_the_norms_finite(capsys):
    # ||f||_p at p = 1000 and ||g||_q at q = 1001 (p = 1.001) do not
    # overflow: the scan's ratios stay finite, and no search trial after
    # the first records a pairing of exactly 0 from an infinite ||g||_q
    assert run(["scan", "--seed", "1", "--trials", "3", "--p", "1000"]) == 0
    assert math.isfinite(json.loads(capsys.readouterr().out)["max_ratio"])
    assert run(["search", "--seed", "1", "--trials", "5", "--p", "1.001"]) == 0
    assert 0 not in json.loads(capsys.readouterr().out)["history"][1:]


def test_lemma1_ratios_are_positive_by_child_count(capsys):
    for delta in ("0.1", "0.25", "0.3333333333333333", "0.5"):
        argv = ["lemma1", "--seed", "7", "--delta", delta, "--trials", "5", "--dim", "2"]
        assert run(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["min_ratio"] > 0.0
        assert all(2 <= row["children"] <= 1 / float(delta) + 1e-9 for row in report["rows"])
    assert run([*argv, "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("config,children,m,")


def test_lemma1_exits_one_on_a_nonpositive_ratio(monkeypatch, capsys):
    expand = cli.dyadic_expand
    monkeypatch.setattr(
        cli,
        "dyadic_expand",
        lambda cfgs, m=None: [dataclasses.replace(cert, ratio=0.0) for cert in expand(cfgs, m=m)],
    )
    assert run(["lemma1", "--seed", "7", "--trials", "3"]) == 1
    assert json.loads(capsys.readouterr().out)["min_ratio"] == 0.0


def test_reports_are_byte_identical(tmp_path):
    argvs = [
        ["check", "--seed", "11", "--delta", "0.25", "--depth", "3"],
        ["search", "--seed", "11", "--trials", "15"],
        ["scan", "--seed", "11", "--trials", "40", "--format", "csv"],
        ["certify", "--seed", "11", "--delta", "0.25"],
    ]
    for i, argv in enumerate(argvs):
        _, first = run_to_file(tmp_path, f"a{i}", list(argv))
        _, second = run_to_file(tmp_path, f"b{i}", list(argv))
        assert first.read_bytes() == second.read_bytes()


def test_stdout_emission(capsys):
    code = run(["gen", "--depth", "1"])
    assert code == 0
    body = capsys.readouterr().out
    assert json.loads(body)["filtration"]["depth"] == 1
