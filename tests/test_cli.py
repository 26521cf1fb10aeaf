"""Command-line behavior: exit codes, JSON output, file emission."""

import csv
import hashlib
import json
from pathlib import Path

import pytest

from ribbonfold.cli import run_command

TREFOIL = "X(4,2,5,1) X(2,6,3,5) X(6,4,1,3)"
HOPF = "X(4,1,3,2) X(2,3,1,4)"
FIG8 = "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"


@pytest.fixture
def trefoil_pd(tmp_path):
    p = tmp_path / "trefoil.pd"
    p.write_text(TREFOIL + "\n")
    return p


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_bound_trefoil_values(trefoil_pd, capsys):
    assert run_command(["bound", str(trefoil_pd)]) == 0
    report = _json_out(capsys)
    assert report["name"] == "trefoil"
    assert report["crossings"] == 3
    assert report["certified_bound"] == 8
    assert report["theoretical_floor"] == 8
    assert report["theoretical_bound"] == 8.5
    assert report["tian_bound"] == 40


def test_bound_hopf_meets_closed_form(tmp_path, capsys):
    p = tmp_path / "hopf.pd"
    p.write_text(HOPF + "\n")
    assert run_command(["bound", str(p)]) == 0
    report = _json_out(capsys)
    assert report["certified_bound"] == 6
    assert report["theoretical_bound"] == 6.0


def test_bound_grid_input(tmp_path, capsys):
    from ribbonfold.bound import run_pipeline
    from ribbonfold.expand import bgd_to_text
    from ribbonfold.ingest import parse_pd

    g = run_pipeline(parse_pd(TREFOIL)).grid
    p = tmp_path / "trefoil.bgd"
    p.write_text(bgd_to_text(g) + "\n")
    assert run_command(["bound", str(p)]) == 0
    report = _json_out(capsys)
    assert report["certified_bound"] == 8
    assert "grid input" in report["note"]


def test_bound_grid_kink_has_no_closed_form(tmp_path, capsys):
    # one crossing: below the closed forms' range, so they stay null
    p = tmp_path / "kink.bgd"
    p.write_text(
        "MIN extent=[1,3] ends=(up,up)\n"
        "MIN X@3 extent=[2,4] ends=(up,up)\n"
        "MAX extent=[1,2] ends=(down,down)\n"
        "MAX extent=[3,4] ends=(down,down)\n"
    )
    assert run_command(["bound", str(p)]) == 0
    report = _json_out(capsys)
    assert report["crossings"] == 1
    assert report["certified_bound"] == 4
    assert report["theoretical_floor"] is None
    assert report["theoretical_bound"] is None
    assert "grid input" in report["note"]


@pytest.mark.parametrize("text", [
    "MIN extent=[1,3] ends=(up,up)\nTRANS extent=[3,2] ends=(down,up)\n"
    "MAX extent=[1,2] ends=(down,down)\n",
    "MIN extent=[2,1] ends=(up,up)\nMAX extent=[1,2] ends=(down,down)\n",
])
def test_grid_with_decreasing_extent_exits_one(tmp_path, capsys, text):
    p = tmp_path / "bad.bgd"
    p.write_text(text)
    assert run_command(["bound", str(p)]) == 1
    assert "extent" in capsys.readouterr().err


def test_grid_only_the_grid_check_rejects_exits_one(tmp_path, capsys):
    p = tmp_path / "bad.bgd"
    p.write_text("MIN extent=[1,4] ends=(up,up)\nMIN extent=[2,3] ends=(up,up)\n"
                 "MAX extent=[1,4] ends=(down,down)\nMAX extent=[2,3] ends=(down,down)\n")
    assert run_command(["bound", str(p)]) == 1
    assert capsys.readouterr().err == (
        "error: row 2: uncrossed row has strands [2, 3] inside extent\n")


KINK_BGD = (
    "MIN extent=[1,3] ends=(up,up)\n"
    "MIN X@3 extent=[2,4] ends=(up,up)\n"
    "MAX extent=[1,2] ends=(down,down)\n"
    "MAX extent=[3,4] ends=(down,down)\n"
)


def test_grid_split_readback_exits_two(tmp_path, capsys):
    # a circle beside the kink reads back as a free loop
    p = tmp_path / "split.bgd"
    p.write_text(KINK_BGD + "MIN extent=[5,6] ends=(up,up)\nMAX extent=[5,6] ends=(down,down)\n")
    assert run_command(["bound", str(p)]) == 2
    assert capsys.readouterr().err == (
        "error: grid readback failed: reconstructed diagram invalid: "
        "Disconnected: 1 free loop(s) split from 1 crossing(s)\n")


@pytest.mark.parametrize("issue", [
    ("NonPlanarRotation", "rotation system has genus 1"),
    # the exit code follows the issue's code, not a word in its message
    ("DanglingEdge", "edge 3 has one end (Disconnected from the rest)"),
])
def test_grid_invalid_readback_exits_one(tmp_path, monkeypatch, capsys, issue):
    from ribbonfold import invariants
    from ribbonfold.model import ValidationIssue

    monkeypatch.setattr(invariants, "validate_diagram", lambda d: [ValidationIssue(*issue)])
    p = tmp_path / "kink.bgd"
    p.write_text(KINK_BGD)
    assert run_command(["bound", str(p)]) == 1
    assert capsys.readouterr().err == (
        f"error: grid readback failed: reconstructed diagram invalid: {issue[0]}: {issue[1]}\n")


@pytest.mark.parametrize("text", ["", "# a comment and no rows\n"])
@pytest.mark.parametrize("command", [["bound"], ["layout", "-o", "out.svg"], ["verify"]])
def test_grid_with_no_rows_exits_one(tmp_path, monkeypatch, capsys, command, text):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.bgd").write_text(text)
    assert run_command([command[0], "empty.bgd", *command[1:]]) == 1
    assert capsys.readouterr().err == "error: no grid rows in input\n"
    assert not (tmp_path / "out.svg").exists()


def test_bound_ladder_deeper_than_the_recursion_limit(tmp_path, capsys):
    # the leveling search places 1000 crossings without recursing
    from ribbonfold.ingest import emit_pd
    from ladder import ladder

    p = tmp_path / "ladder1000.pd"
    p.write_text(emit_pd(ladder(1000)) + "\n")
    assert run_command(["bound", str(p)]) == 0
    assert _json_out(capsys)["certified_bound"] == 2002


def test_bound_unknot_needs_flag(tmp_path, capsys):
    p = tmp_path / "loop.pd"
    p.write_text("\n")
    assert run_command(["bound", str(p)]) == 1
    capsys.readouterr()
    assert run_command(["bound", str(p), "--allow-unknot"]) == 0
    report = _json_out(capsys)
    assert report["certified_bound"] == 0
    assert report["theoretical_bound"] is None


def test_nugatory_is_a_precondition_failure(tmp_path, capsys):
    p = tmp_path / "kink.pd"
    p.write_text("X(1,2,2,1)\n")
    assert run_command(["bound", str(p)]) == 2
    err = capsys.readouterr().err
    assert "crossing 0" in err


NONPLANAR = "X(1,2,3,4) X(5,6,1,2) X(3,4,5,6)"
TWO_TREFOILS = ("X(1,5,2,4) X(3,1,4,6) X(5,3,6,2) "
                "X(7,11,8,10) X(9,7,10,12) X(11,9,12,8)")
PD_COMMANDS = [["bound"], ["layout", "-o", "out.svg"], ["verify"]]


@pytest.mark.parametrize("text, code, err", [
    (NONPLANAR, 1, "error: NonPlanarRotation: rotation system has genus 1 (faces=3, need 5)\n"),
    (TWO_TREFOILS, 2, "error: split diagram: crossing graph has 3 unreachable vertices\n"),
    ("X(1,1,2,2)", 2, "error: reducible (nugatory) crossing 0: untwist before folding\n"),
], ids=["nonplanar", "split", "nugatory"])
@pytest.mark.parametrize("command", PD_COMMANDS, ids=["bound", "layout", "verify"])
def test_rejected_diagram_exit_codes_and_messages(
        command, text, code, err, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.pd").write_text(text + "\n")
    assert run_command([command[0], "bad.pd", *command[1:]]) == code
    assert capsys.readouterr() == ("", err)
    assert not (tmp_path / "out.svg").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_table_nugatory_row_names_its_entry(jobs, tmp_path, capsys):
    src = _table_csv(tmp_path / "in.csv",
                     [["trefoil", "3", TREFOIL], ["kink", "1", "X(1,1,2,2)"]])
    out = tmp_path / "out.csv"
    assert run_command(["table", str(src), "-o", str(out), "--jobs", jobs]) == 2
    assert capsys.readouterr() == (
        "", "error: kink: reducible (nugatory) crossing 0: untwist before folding\n")
    assert not out.exists()


@pytest.mark.parametrize("command", PD_COMMANDS, ids=["bound", "layout", "verify"])
def test_each_command_checks_the_parsed_diagram_once(
        command, tmp_path, monkeypatch, capsys):
    import sys

    from ribbonfold import cli, ingest, model

    parsed, calls = [], []
    parse = cli.parse_pd

    def parsing(*args, **kwargs):
        parsed.append(parse(*args, **kwargs))
        return parsed[-1]

    monkeypatch.setattr(cli, "parse_pd", parsing)
    # every module holding a check, so a stage that imports it and checks
    # again is counted too
    for check in (model.validate_diagram, ingest.detect_nugatory):
        def counting(d, check=check):
            calls.append((check.__name__, d))
            return check(d)

        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "ribbonfold":
                for key, value in list(vars(mod).items()):
                    if value is check:
                        monkeypatch.setattr(mod, key, counting)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "trefoil.pd").write_text(TREFOIL + "\n")
    assert run_command([command[0], "trefoil.pd", *command[1:]]) == 0
    [d] = parsed
    assert sorted(name for name, arg in calls if arg is d) == [
        "detect_nugatory", "validate_diagram"]


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # only table --jobs N > 1 needs multiprocessing, so only it loads it
    import os
    import subprocess
    import sys

    import ribbonfold

    env = {**os.environ, "PYTHONPATH": str(Path(ribbonfold.__file__).resolve().parents[1])}
    probe = "import sys, ribbonfold.cli; print('concurrent.futures.process' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


def test_parse_garbage_exits_one(tmp_path):
    p = tmp_path / "junk.pd"
    p.write_text("this is not a diagram\n")
    assert run_command(["bound", str(p)]) == 1


def test_unknown_extension_needs_format(tmp_path, capsys):
    p = tmp_path / "trefoil.txt"
    p.write_text(TREFOIL + "\n")
    assert run_command(["bound", str(p)]) == 1
    capsys.readouterr()
    assert run_command(["bound", str(p), "--format", "pd"]) == 0


def test_missing_file_exits_one(tmp_path):
    assert run_command(["bound", str(tmp_path / "nope.pd")]) == 1


def _table_csv(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "crossings", "pd"])
        w.writerows(rows)
    return path


@pytest.mark.parametrize("case", [
    "table_missing_csv", "bound_non_utf8_pd", "table_non_utf8_csv",
    "layout_svg_no_dir", "layout_schedule_no_dir",
])
def test_unreadable_or_unwritable_file_exits_one(case, trefoil_pd, tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.write_bytes(b"X(4,2,5,1) \xff\xfe\n")
    nodir = str(tmp_path / "nodir" / "x")
    out = str(tmp_path / "o.csv")
    argv, verb, path = {
        "table_missing_csv": (["table", nodir + ".csv", "-o", out], "read", nodir + ".csv"),
        "bound_non_utf8_pd": (["bound", str(bad), "--format", "pd"], "read", str(bad)),
        "table_non_utf8_csv": (["table", str(bad), "-o", out], "read", str(bad)),
        "layout_svg_no_dir": (
            ["layout", str(trefoil_pd), "-o", nodir + ".svg"], "write", nodir + ".svg"),
        "layout_schedule_no_dir": (
            ["layout", str(trefoil_pd), "-o", str(tmp_path / "t.svg"),
             "--schedule", nodir + ".json"], "write", nodir + ".json"),
    }[case]
    assert run_command(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot {verb} {path}: ")


def test_table_jobs_never_exceed_rows(tmp_path, monkeypatch, capsys):
    # the executor starts every worker up front, so ask for at most one
    # per row, and none for a single row or an empty table
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # cli imports the pool from concurrent.futures when it needs one
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    out = str(tmp_path / "o.csv")
    two = _table_csv(tmp_path / "two.csv", [["trefoil", "3", TREFOIL], ["hopf", "2", HOPF]])
    assert run_command(["table", str(two), "-o", out, "--jobs", "64"]) == 0
    assert asked == [2]
    one = _table_csv(tmp_path / "one.csv", [["hopf", "2", HOPF]])
    assert run_command(["table", str(one), "-o", out, "--jobs", "64"]) == 0
    empty = _table_csv(tmp_path / "empty.csv", [])
    capsys.readouterr()
    assert run_command(["table", str(empty), "-o", out, "--jobs", "4"]) == 0
    assert _json_out(capsys)["entries"] == 0
    assert asked == [2]


def test_layout_writes_svg_and_schedule(trefoil_pd, tmp_path, capsys):
    svg = tmp_path / "out.svg"
    sched = tmp_path / "sched.json"
    code = run_command(
        ["layout", str(trefoil_pd), "-o", str(svg), "--schedule", str(sched)]
    )
    assert code == 0
    summary = _json_out(capsys)
    assert summary["planes"] == 4 and summary["caps"] == 4
    assert svg.read_text().startswith("<svg")
    doc = json.loads(sched.read_text())
    assert sorted(doc) == ["caps", "epsilon", "planes", "width"]
    assert len(doc["planes"]) == 4


def test_layout_byte_determinism(trefoil_pd, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run_command(["layout", str(trefoil_pd), "-o", str(a)]) == 0
    assert run_command(["layout", str(trefoil_pd), "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_tracer_sees_emit_svg_under_run_command(
        trefoil_pd, tmp_path, monkeypatch, capsys):
    # the benchmark's tracer finds every function it wraps; the fold-line
    # check runs inside emit_svg, so its time shows in that span
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import tracing
    import ribbonfold.cli as cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        # looked up on the module, so the call goes through the wrapper
        args = ["layout", str(trefoil_pd), "-o", str(tmp_path / "t.svg")]
        assert cli.run_command(args) == 0
    finally:
        tracer.uninstall()
    _json_out(capsys)
    assert not tracer.missing
    spans = tracer.spans
    [svg] = [span for span in spans if span[0] == "layout.emit_svg"]
    _name, _start, _end, parent, _op, error, _work = svg
    assert parent >= 0 and spans[parent][0] == "cli.run_command"
    assert error is None


def test_layout_epsilon_too_large(trefoil_pd, tmp_path, capsys):
    svg = tmp_path / "out.svg"
    code = run_command(
        ["layout", str(trefoil_pd), "-o", str(svg), "--epsilon", "10"]
    )
    assert code == 1
    assert "too large" in capsys.readouterr().err


def test_layout_rejects_nonpositive_epsilon(trefoil_pd, tmp_path):
    svg = tmp_path / "out.svg"
    assert run_command(
        ["layout", str(trefoil_pd), "-o", str(svg), "--epsilon", "0"]
    ) == 1


@pytest.mark.parametrize("flag", ["--epsilon", "--width"])
@pytest.mark.parametrize("value", ["abc", "nan", "inf", "1/0"])
def test_layout_rejects_unreadable_fractions(flag, value, trefoil_pd, tmp_path, capsys):
    # a zero denominator is a usage error like any other unreadable value
    svg = tmp_path / "out.svg"
    assert run_command(["layout", str(trefoil_pd), "-o", str(svg), flag, value]) == 1
    assert capsys.readouterr().err == (
        f"error: ribbonfold layout: argument {flag}: invalid Fraction value: {value!r}\n")
    assert not svg.exists()


@pytest.mark.parametrize("argv", [["--help"], ["bound", "--help"]])
def test_help_returns_zero(argv, capsys):
    assert run_command(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: ribbonfold")


def test_parser_is_built_once(trefoil_pd, capsys):
    from ribbonfold import cli

    cli._build_parser.cache_clear()
    for _ in range(3):
        assert run_command(["bound", str(trefoil_pd)]) == 0
    assert run_command(["bogus"]) == 1
    assert cli._build_parser.cache_info().misses == 1


def test_verify_reports_all_stages(trefoil_pd, capsys):
    assert run_command(["verify", str(trefoil_pd), "--per-step"]) == 0
    report = _json_out(capsys)
    assert report["ok"] is True
    names = [s["stage"] for s in report["stages"]]
    assert names == ["leveling", "flips", "expansion", "rewrite", "layout"]
    assert all(s["ok"] for s in report["stages"])


def test_verify_runs_the_oracle_once_per_distinct_map(trefoil_pd, monkeypatch):
    import ribbonfold.cli as cli

    runs = _count_calls(monkeypatch, cli, "jones_fingerprint")
    for flags in ([], ["--per-step"]):
        runs.clear()
        assert run_command(["verify", str(trefoil_pd), *flags]) == 0
        # every flip turns the input over or around, and the expansion,
        # its rewrite steps and its pile core read back as the input's map
        assert len(runs) == 1


def test_verify_walks_the_strands_once_per_diagram(trefoil_pd, monkeypatch):
    from ribbonfold.model import PlanarDiagram

    walks = _count_calls(monkeypatch, PlanarDiagram.__dict__["orientation"], "func")
    tables = _count_calls(monkeypatch, PlanarDiagram.__dict__["sign_table"], "func")
    assert run_command(["verify", str(trefoil_pd)]) == 0
    # the input, read by the oracle and by each memo comparison, a flip
    # turned over and the expansion readback, which miss the memo's key
    # and are compared with the input: each walked once, and each one's
    # signs worked out once for the fingerprint and the writhe profiles
    assert len(walks) == 3
    assert len({id(d) for (d,) in walks}) == 3
    assert [id(d) for (d,) in tables] == [id(d) for (d,) in walks]


def test_verify_reads_each_grid_back_once(trefoil_pd, monkeypatch):
    import ribbonfold.cli as cli
    import ribbonfold.layout as layout

    readbacks = _count_calls(monkeypatch, cli, "bgd_to_pd")
    readbacks += _count_calls(monkeypatch, layout, "bgd_to_pd")
    cores = _count_calls(monkeypatch, cli, "core_diagram")
    assert run_command(["verify", str(trefoil_pd)]) == 0
    # the expansion and the normal form; the pile's core is the normal
    # form's rows, so its readback is reused
    assert len(readbacks) == 2
    assert cores == []


def test_verify_reads_back_a_pile_that_is_not_the_normal_form(
        trefoil_pd, monkeypatch, capsys):
    import ribbonfold.cli as cli
    from ribbonfold.bound import run_pipeline
    from ribbonfold.ingest import parse_pd
    from ribbonfold.layout import core_specs
    from ribbonfold.model import stack_rows

    # the figure-eight's pile is a valid core, but not the trefoil's rows
    other = cli.build_pile(run_pipeline(parse_pd(FIG8)).normal)
    piles = []

    def wrong_pile(gn):
        piles.append(gn)
        return other

    monkeypatch.setattr(cli, "build_pile", wrong_pile)
    cores = _count_calls(monkeypatch, cli, "core_diagram")
    assert run_command(["verify", str(trefoil_pd)]) == 3
    out, err = capsys.readouterr()
    stages = {s["stage"]: s["ok"] for s in json.loads(out)["stages"]}
    assert stages == {"leveling": True, "flips": True, "expansion": True,
                      "rewrite": True, "layout": False}
    assert "FAIL layout" in err
    assert stack_rows(core_specs(other)).rows != piles[0].rows
    assert cores == [(other,)]


def test_verify_runs_the_oracle_on_a_readback_of_another_map(
        trefoil_pd, monkeypatch, capsys):
    import ribbonfold.cli as cli
    from ribbonfold.model import Crossing, PlanarDiagram

    # the expansion's readback with its first crossing toggled is another
    # map, so no fingerprint can be reused for it
    readback = cli.bgd_to_pd
    toggled = []

    def toggling(g):
        d = readback(g)
        x, *rest = d.crossings
        toggled.append(PlanarDiagram(
            (Crossing(x.id, x.slots, 1 - x.over_pair), *rest), d.free_loops))
        return toggled[-1]

    monkeypatch.setattr(cli, "bgd_to_pd", toggling)
    runs = _count_calls(monkeypatch, cli, "jones_fingerprint")
    assert run_command(["verify", str(trefoil_pd)]) == 3
    out, err = capsys.readouterr()
    stages = {s["stage"]: s["ok"] for s in json.loads(out)["stages"]}
    assert stages["expansion"] is False
    assert "FAIL expansion" in err
    assert (toggled[0],) in runs


def test_verify_figure_eight(tmp_path, capsys):
    p = tmp_path / "fig8.pd"
    p.write_text(FIG8 + "\n")
    assert run_command(["verify", str(p)]) == 0
    assert _json_out(capsys)["ok"] is True


def test_verify_ladder_above_fourteen_crossings(tmp_path, capsys):
    from ribbonfold.ingest import emit_pd
    from ladder import ladder

    p = tmp_path / "ladder20.pd"
    p.write_text(emit_pd(ladder(20)) + "\n")
    assert run_command(["verify", str(p)]) == 0
    report = _json_out(capsys)
    assert report["crossings"] == 20
    assert report["ok"] is True


def test_verify_ladder_at_160_crossings(tmp_path, capsys):
    from ribbonfold.ingest import emit_pd
    from ladder import ladder

    p = tmp_path / "ladder160.pd"
    p.write_text(emit_pd(ladder(160)) + "\n")
    assert run_command(["verify", str(p)]) == 0
    report = _json_out(capsys)
    assert report["crossings"] == 160
    assert report["ok"] is True


def _count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_verify_levels_each_flip_once(trefoil_pd, monkeypatch):
    import ribbonfold.leveling as leveling

    searches = _count_calls(monkeypatch, leveling, "_search")
    replays = _count_calls(monkeypatch, leveling, "_replay")
    assert run_command(["verify", str(trefoil_pd)]) == 0
    # find_leveling searches once; the three flips that are not the
    # identity are replayed from its masks
    assert len(searches) == 1
    assert len(replays) == 3


def test_verify_checks_each_leveling_once(trefoil_pd, monkeypatch, capsys):
    import ribbonfold.cli as cli

    checks = _count_calls(monkeypatch, cli, "check_leveling")
    assert run_command(["verify", str(trefoil_pd)]) == 0
    # the identity flip is the leveling itself, checked once for both stages
    assert len(checks) == 4
    assert len({id(ld) for ld, in checks}) == 4
    capsys.readouterr()
    monkeypatch.setattr(cli, "check_leveling", lambda ld: ["unsound"])
    assert run_command(["verify", str(trefoil_pd)]) == 3
    stages = {s["stage"]: s["ok"] for s in _json_out(capsys)["stages"]}
    assert stages == {"leveling": False, "flips": False, "expansion": True,
                      "rewrite": True, "layout": True}


def test_verify_fails_when_a_flip_keeps_its_over_strand(trefoil_pd, monkeypatch, capsys):
    import ribbonfold.cli as cli
    import ribbonfold.leveling as leveling

    # a (T, F) flip that reflects the slots but keeps the over strand draws
    # the mirror; its key differs from the (F, T) flip's, so the oracle runs
    flip = leveling._flip_diagram
    mutated = []

    def keeps_over(d, flip_x, flip_y):
        out = flip(d, flip_x, flip_y)
        if (flip_x, flip_y) == (True, False):
            out = out.mirror()
            mutated.append(out)
        return out

    monkeypatch.setattr(leveling, "_flip_diagram", keeps_over)
    runs = _count_calls(monkeypatch, cli, "jones_fingerprint")
    assert run_command(["verify", str(trefoil_pd)]) == 3
    out, err = capsys.readouterr()
    stages = {s["stage"]: s["ok"] for s in json.loads(out)["stages"]}
    assert stages["flips"] is False
    assert "FAIL flips: 4 variants" in err
    assert len(mutated) == 1
    assert (mutated[0],) in runs


def test_bound_searches_once(trefoil_pd, monkeypatch):
    import ribbonfold.leveling as leveling
    from ribbonfold.model import PlanarDiagram

    searches = _count_calls(monkeypatch, leveling, "_search")
    replays = _count_calls(monkeypatch, leveling, "_replay")
    builds = {name: _count_calls(monkeypatch, PlanarDiagram.__dict__[name], "func")
              for name in ("edge_darts", "mates", "depth_first", "faces", "orientation",
                           "sign_table")}
    assert run_command(["bound", str(trefoil_pd)]) == 0
    # the flip is read off the portion counts and only it is replayed;
    # parse_pd, validate_diagram, detect_nugatory and the search share one
    # grouping of edge ends, one dart table, one DFS and one face count,
    # and only the oracle walks the strands or works out signs
    assert len(searches) == 1
    assert len(replays) <= 1
    assert {name: len(calls) for name, calls in builds.items()} == {
        "edge_darts": 1, "mates": 1, "depth_first": 1, "faces": 1, "orientation": 0,
        "sign_table": 0}


def test_layout_checks_and_draws_from_one_pass(trefoil_pd, tmp_path, monkeypatch):
    import ribbonfold.cli as cli
    import ribbonfold.layout as layout

    passes = {name: _count_calls(monkeypatch, layout, name)
              for name in ("_geometry", "_fold_segments", "_first_meeting_pair",
                           "check_fold_lines")}
    passes["emit_svg"] = _count_calls(monkeypatch, cli, "emit_svg")
    assert run_command(["layout", str(trefoil_pd), "-o", str(tmp_path / "t.svg")]) == 0
    # the SVG draws the geometry and creases of the one pass that checked them
    assert {name: len(calls) for name, calls in passes.items()} == {
        "_geometry": 1, "_fold_segments": 1, "_first_meeting_pair": 1,
        "check_fold_lines": 0, "emit_svg": 1}


def test_verify_fails_when_the_flip_counts_are_misread(tmp_path, monkeypatch, capsys):
    import ribbonfold.leveling as leveling
    from ribbonfold.ingest import bundled_table, emit_pd

    # 8_19's best flip is flip_y; a table that reads T1- for every flip
    # picks the identity, a worse bound that verify must not pass
    p = tmp_path / "8_19.pd"
    p.write_text(emit_pd(next(e for e in bundled_table() if e.name == "8_19").diagram) + "\n")
    assert run_command(["verify", str(p)]) == 0
    capsys.readouterr()
    wrong = tuple((choice, "T1-") for choice, _ in leveling._FLIP_T1_MINUS)
    monkeypatch.setattr(leveling, "_FLIP_T1_MINUS", wrong)
    assert run_command(["verify", str(p)]) == 3
    out, err = capsys.readouterr()
    stages = {s["stage"]: s["ok"] for s in json.loads(out)["stages"]}
    assert stages["flips"] is False
    assert "FAIL flips: 4 variants" in err


def _benchmark_closure(name):
    from randbraids import STUCK_9, random_braid_family

    if name == "stuck_c09":
        return STUCK_9
    # slot 12 of the random_braids workload (RANDOM_SLOTS in bench/run.py)
    slots = tuple((3 + c % 3, c) for c in range(10, 23))
    return random_braid_family(0, slots)[12][3]


@pytest.mark.parametrize("name, certified", [("stuck_c09", 20), ("rand12_c22_n4", 48)])
def test_benchmark_closures_once_stuck(name, certified, tmp_path, capsys):
    # the random_braids closures that normalization once left stuck (exit 3)
    p = tmp_path / f"{name}.pd"
    p.write_text(_benchmark_closure(name) + "\n")
    assert run_command(["bound", str(p)]) == 0
    assert _json_out(capsys)["certified_bound"] == certified
    svg, sched = tmp_path / "out.svg", tmp_path / "out.json"
    assert run_command(["layout", str(p), "-o", str(svg), "--schedule", str(sched)]) == 0
    assert 2 * _json_out(capsys)["planes"] == certified
    doc = json.loads(sched.read_text())
    slots = [v for plane in doc["planes"] for v in plane["insertion"]]
    assert sorted(map(int, slots)) == list(range(1, certified + 1))
    assert run_command(["verify", str(p), "--per-step"]) == 0
    assert _json_out(capsys)["ok"] is True


# plain sideways rows moving right (row 2) and left (row 4), crossed
# sideways rows moving right (row 3) and left (row 5) and a crossed cap
# (row 6); no diagram expands to a plain sideways row (EXPANSION_TABLE),
# so only grid input reaches those conversions
MIXED_BGD = """\
MIN extent=[20,40] ends=(up,up)
MIN X@40 extent=[30,60] ends=(up,up)
TRANS extent=[60,70] ends=(down,up)
TRANS X@40 extent=[30,50] ends=(down,up)
TRANS extent=[10,20] ends=(up,down)
TRANS X@50 extent=[45,70] ends=(up,down)
MAX X@45 extent=[40,50] ends=(down,down)
MAX extent=[10,45] ends=(down,down)
"""


def _sha(data):
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def test_mixed_grid_outputs_are_pinned(tmp_path, monkeypatch, capsys):
    # digests recorded when rows were converted on rational columns
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mixed.bgd").write_text(MIXED_BGD)
    assert run_command(["bound", "mixed.bgd"]) == 0
    assert _sha(capsys.readouterr().out) == (
        "eea9ff20d1355666bc0074742376e08c4e09009e99bfc58ce5f57ffb4f7f4eff")
    assert run_command(["layout", "mixed.bgd", "-o", "mixed.svg",
                        "--schedule", "mixed.json"]) == 0
    assert _sha((tmp_path / "mixed.svg").read_bytes()) == (
        "3f8a162ab21ca02e683a16747b022f6531ab1b90f48c6c589d7b92882f6cc2d9")
    assert _sha((tmp_path / "mixed.json").read_bytes()) == (
        "4f88cb83e862272d62f0208fd0ff4191be3c30eaba31b1be9d3fe42e4aeb1086")
    capsys.readouterr()
    assert run_command(["verify", "--per-step", "mixed.bgd"]) == 0
    out = capsys.readouterr()
    assert _sha(out.out) == (
        "933cff3b47a779d8d07cfc4f261865ab196b2b3508a5b0a9cb831c1ee3881837")
    assert "15 steps checked" in out.err


def test_table_preserves_row_order(tmp_path, capsys):
    src = tmp_path / "in.csv"
    with open(src, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "crossings", "pd"])
        w.writerow(["fig8", "4", FIG8])
        w.writerow(["trefoil", "3", TREFOIL])
        w.writerow(["hopf", "2", HOPF])
    out = tmp_path / "out.csv"
    assert run_command(["table", str(src), "-o", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["name", "crossings", "certified_bound"]
    assert [r[0] for r in rows[1:]] == ["fig8", "trefoil", "hopf"]
    assert [r[2] for r in rows[1:]] == ["10", "8", "6"]


def _corpus_csv():
    import ribbonfold

    return Path(ribbonfold.__file__).with_name("data") / "knot_table.csv"


def test_table_parallel_matches_serial(tmp_path):
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    src = _corpus_csv()
    assert run_command(["table", str(src), "-o", str(serial), "--jobs", "1"]) == 0
    assert run_command(["table", str(src), "-o", str(parallel), "--jobs", "2"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()
    assert len(serial.read_text().splitlines()) == 39


def test_table_parses_each_row_once(tmp_path, monkeypatch, capsys):
    import sys

    from ribbonfold import ingest

    calls = []
    parse = ingest.parse_pd

    def parsing(*args, **kwargs):
        calls.append(args)
        return parse(*args, **kwargs)

    # every module holding the parser, so a stage that parses again counts
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "ribbonfold":
            for key, value in list(vars(mod).items()):
                if value is parse:
                    monkeypatch.setattr(mod, key, parsing)
    out = tmp_path / "o.csv"
    assert run_command(["table", str(_corpus_csv()), "-o", str(out), "--jobs", "1"]) == 0
    assert _json_out(capsys)["entries"] == 38
    assert len(calls) == 38


def test_table_counts_each_rows_faces_once(tmp_path, monkeypatch, capsys):
    from ribbonfold.model import PlanarDiagram

    # load_table and the gate both validate a row; the second reads the
    # face count the first cached
    walks = _count_calls(monkeypatch, PlanarDiagram.__dict__["faces"], "func")
    out = tmp_path / "o.csv"
    assert run_command(["table", str(_corpus_csv()), "-o", str(out), "--jobs", "1"]) == 0
    assert _json_out(capsys)["entries"] == 38
    assert len(walks) == 38
    assert len({id(d) for d, in walks}) == 38


def test_table_cells_match_bound_json(tmp_path, capsys):
    from ribbonfold.ingest import bundled_table

    src = tmp_path / "corpus.csv"
    out = tmp_path / "out.csv"
    entries = bundled_table()
    with open(src, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["name", "crossings", "pd"])
        w.writerows([e.name, e.crossings, e.pd_text] for e in entries)
    assert run_command(["table", str(src), "-o", str(out)]) == 0
    capsys.readouterr()
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(entries) == 38
    for e, row in zip(entries, rows):
        p = tmp_path / f"{e.name}.pd"
        p.write_text(e.pd_text + "\n")
        assert run_command(["bound", str(p)]) == 0
        report = _json_out(capsys)
        for key, cell in row.items():
            want = report[key]
            assert cell == ("" if want is None else str(want)), (e.name, key)


def test_layout_default_epsilon_below_cap(tmp_path, capsys):
    # half the outer plane's fold-back budget of 1/63
    from ribbonfold.expand import bgd_to_text
    from grids import NESTED, build

    p = tmp_path / "nested.bgd"
    p.write_text(bgd_to_text(build(NESTED)) + "\n")
    assert run_command(["layout", str(p), "-o", str(tmp_path / "nested.svg")]) == 0
    assert _json_out(capsys)["epsilon"] == 1 / 126


@pytest.mark.parametrize("row, err", [
    ("3_1,3", "missing ['pd'], unexpected []"),
    (f'3_1,3,"{TREFOIL}",junk', "missing [], unexpected ['junk']"),
])
def test_table_row_with_wrong_field_count_exits_one(row, err, tmp_path, capsys):
    src = tmp_path / "in.csv"
    src.write_text(f'name,crossings,pd\n{row}\n')
    out = tmp_path / "o.csv"
    assert run_command(["table", str(src), "-o", str(out)]) == 1
    assert capsys.readouterr() == ("", (
        f"error: bad table: row 2: need the 3 fields name,crossings,pd: {err}\n"))
    assert not out.exists()


def test_table_bad_header(tmp_path, capsys):
    src = tmp_path / "in.csv"
    src.write_text("knot,pd\ntrefoil,whatever\n")
    assert run_command(["table", str(src), "-o", str(tmp_path / "o.csv")]) == 1
    assert "header" in capsys.readouterr().err


def test_bad_subcommand_exits_one(capsys):
    assert run_command(["frobnicate"]) == 1
    capsys.readouterr()