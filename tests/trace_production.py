"""Line trace of the production routes: the statements of ``src/mblab``
that no command and no in-process benchmark workload reaches.

Run from anywhere, with the package's own dependencies installed:

    python tests/trace_production.py

Under ``sys.settrace``, in this interpreter, it replays every ``mblab``
command in JSON and in CSV, each writing its report into a temporary
directory, plus the commands' error exits (bad flags, config files and
environment, infeasible towers, failing certificates), and then the
operations of the benchmark's ``corpus_sweep`` and ``deep_tower``
workloads (``perfbench/workloads.py``).  It prints, for each function of
the package, the statement lines none of them reached; the lines of a
comprehension or lambda count for the function that holds it.  The trace
starts before the package is imported, so the functions its modules call
at import count as reached; module and class bodies are not listed.  The
script uses the standard library only, and pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mblab"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


def statement_lines(path: Path) -> dict[str, set[int]]:
    """The lines holding bytecode of each function of a module, by
    qualified name; nested comprehensions and lambdas fold into their
    function."""
    out: dict[str, set[int]] = {}

    def walk(code: types.CodeType, owner: str | None) -> None:
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            name = owner
            if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                if owner is None or not const.co_name.startswith("<"):
                    name = const.co_qualname
                out.setdefault(name, set()).update(
                    line for _, _, line in const.co_lines() if line is not None
                )
            walk(const, name)

    walk(compile(path.read_text(), str(path), "exec"), None)
    return out


def tracer(reached: set[tuple[str, int]]):
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            reached.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    return calls


def command_calls(tmp: Path) -> list[tuple[list[str], dict]]:
    """(argv, extra environment) of every replayed command."""
    good = tmp / "good.json"
    good.write_text('{"seed": 3, "depth": 3, "delta": 0.25}')
    bad = {"keys": '{"sede": 1}', "list": "[1]", "type": '{"depth": "3"}', "choice": '{"witness": "x"}'}
    for name, text in bad.items():
        (tmp / f"{name}.json").write_text(text)
    reports = [
        ["gen", "--depth", "3"],
        ["gen", "--seed", "1", "--delta", "0.25", "--dim", "2", "--split-prob", "0.9"],
        ["gen", "--witness", "structured", "--depth", "2", "--dim", "2"],
        ["gen", "--config", str(good)],
        ["check", "--seed", "1", "--depth", "4", "--dim", "2"],
        ["check", "--seed", "2", "--delta", "0.25", "--suites", "support,x2_drop,restriction"],
        ["check", "--seed", "1", "--witness", "structured", "--delta", "0.25", "--max-children", "2"],
        ["certify", "--seed", "1", "--depth", "4", "--dim", "2"],
        ["certify", "--seed", "2", "--delta", "0.1", "--depth", "4", "--candidate", "quadratic:0.05"],
        ["certify", "--seed", "3", "--delta", "0.25", "--candidate", "linear:0.5", "--p", "1.5"],
        ["lemma1", "--seed", "1", "--trials", "20"],
        ["lemma1", "--seed", "1", "--delta", "0.25", "--dim", "2", "--m", "4", "--trials", "20"],
        ["search", "--seed", "1", "--trials", "20", "--p", "1.5", "--ascent", "10"],
        ["search", "--seed", "1", "--trials", "20", "--delta", "0.25", "--target", "0.5"],
        ["scan", "--seed", "1", "--trials", "50", "--p", "3", "--delta", "0.25"],
        ["scan", "--seed", "1", "--trials", "50", "--depth", "3"],
        ["bound", "--seed", "1", "--trials", "4", "--delta", "0.25"],
        ["bound", "--seed", "1", "--trials", "4", "--p", "1.5"],
        ["corpus", "--seeds", "2"],
        ["corpus", "--seeds", "1", "--suites", "contraction,support"],
    ]
    calls = []
    for i, argv in enumerate(reports):
        calls.append(([*argv, "--out", str(tmp / f"{i}.json")], {}))
        calls.append(([*argv, "--format", "csv", "--out", str(tmp / f"{i}.csv")], {}))
    calls.append((["gen", "--depth", "2"], {}))  # to stdout
    calls.append((["check", "--seed", "1", "--delta", "0.333"], {}))  # three parts near 1/3: affine rows
    # equal thirds down to depth 12, ratios below 1/3 by their endpoints' roundoff
    third = ["--delta", "0.3333333333333333", "--max-children", "3", "--depth", "12", "--split-prob", "0.5"]
    calls.append((["check", "--seed", "1", *third], {}))
    errors = [
        ["gen", "--bogus"],
        ["check", "--depth", "3"],
        ["gen", "--delta", "0.7"],
        ["gen", "--seed", "-1"],
        ["gen", "--dim", "0"],
        ["gen", "--split-prob", "2"],
        ["gen", "--max-children", "9"],
        ["gen", "--delta", "0.25"],
        ["check", "--seed", "1", "--suites", "nope"],
        ["check", "--seed", "1", "--suites", "support,support"],
        ["check", "--seed", "1", "--suites", " "],
        ["check", "--seed", "4", "--delta", "0.1", "--witness", "structured"],
        ["certify", "--seed", "1", "--candidate", "linear"],
        ["certify", "--seed", "1", "--candidate", "quadratic:nan"],
        ["certify", "--seed", "1", "--candidate", "quadratic:0.9"],
        ["certify", "--seed", "1", "--candidate", "cubic"],
        ["certify", "--seed", "1", "--p", "3"],
        ["lemma1", "--seed", "1", "--dim", "5"],
        ["lemma1", "--seed", "1", "--m", "0"],
        ["search", "--seed", "1", "--ascent", "-1"],
        ["search", "--seed", "1", "--target", "inf"],
        ["scan", "--seed", "1", "--p", "1"],
        ["scan", "--seed", "1", "--p", "inf"],
        ["scan", "--seed", "1", "--trials", "0"],
        ["corpus", "--seeds", "0"],
        ["gen", "--config", str(tmp / "missing.json")],
        ["gen", "--out", str(tmp)],
        *(["gen", "--config", str(tmp / f"{name}.json")] for name in bad),
    ]
    calls += [(argv, {}) for argv in errors]
    calls += [(["check", "--seed", "1"], {"MBL_TOL": "0"}), (["check", "--seed", "1"], {"MBL_TOL": "2"})]
    return calls


def replay_commands(tmp: Path) -> dict[int, int]:
    """Run every command call in this interpreter; the count of each exit code."""
    from mblab import cli

    exits: dict[int, int] = {}
    for argv, env in command_calls(tmp):
        saved = {key: os.environ.get(key) for key in env}
        os.environ.update(env)
        sys.argv[1:] = argv
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main()
            except SystemExit as exc:
                code = exc.code
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key)
            else:
                os.environ[key] = value
        exits[code] = exits.get(code, 0) + 1
    return exits


def replay_workloads() -> None:
    """The in-process benchmark operations: a corpus_sweep plan of 48 cells
    and one deep_tower cycle of seven towers."""
    from workloads import WORKLOADS

    for name, seconds in (("corpus_sweep", 0.5), ("deep_tower", 20.0)):
        work = WORKLOADS[name]
        for item in work.plan(1, seconds):
            res = work.verify(item, work.run(item))
            if not res.ok:
                raise SystemExit(f"{name} {item}: {res.why}")


def runs(lines: list[int], reached: set[int]) -> str:
    """The unreached statement lines as ranges; a range spans statements
    that follow one another."""
    out, start, prev = [], None, None
    for line in lines + [None]:
        if line is not None and line not in reached:
            start, prev = start or line, line
            continue
        if start is not None:
            out.append(str(start) if start == prev else f"{start}-{prev}")
            start = None
    return ", ".join(out)


def main() -> int:
    reached: set[tuple[str, int]] = set()
    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(tracer(reached))  # before the package is imported
        try:
            exits = replay_commands(Path(tmp))
            replay_workloads()
        finally:
            sys.settrace(None)
    print(f"command exits: {dict(sorted(exits.items()))}")
    total = unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        hit = {line for name, line in reached if name == str(path)}
        for qualname, lines in statement_lines(path).items():
            missed = sorted(lines - hit)
            total += len(lines)
            unreached += len(missed)
            if missed:
                print(f"{path.name}: {qualname}: {runs(sorted(lines), hit)}")
    print(f"{unreached} of {total} statement lines in functions unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
