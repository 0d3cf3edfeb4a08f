"""The report comparison of tools/sweep.py, on small JSON values."""

import importlib.util
import json
import shutil
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "sweep", Path(__file__).resolve().parent.parent / "tools" / "sweep.py")
sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep)


def test_the_set_is_145_reports():
    calls = sweep.invocations()
    assert len(calls) == 145
    assert len({label for label, _ in calls}) == 145
    assert sum("--h" in argv and argv[argv.index("--h") + 1] == "1" for _, argv in calls) == 72
    assert calls[-1][1][-4:] == ["--mode", "theta-zero", "--bound", str(10**12)]


def test_patterns_star_list_indices_and_integer_keys():
    assert sweep.pattern("fibers[3].local.places[12].method") == \
        "fibers[*].local.places[*].method"
    assert sweep.pattern("summary.total") == "summary.total"
    assert sweep.pattern("fibers[0].local.blanket.sample_counts.20369") == \
        "fibers[*].local.blanket.sample_counts.*"
    assert sweep.pattern("17.x2[3].y") == "*.x2[*].y"


def test_differences_are_counted_per_pattern_without_the_dropped_keys():
    old = {"generated_at": "t0", "config": {"output_path": "a.json", "g": "1"},
           "fibers": [{"places": [{"p": "3"}, {"p": "5"}]}, {"places": [{"p": "7"}]}]}
    new = {"generated_at": "t1", "config": {"output_path": "b.json", "g": "1"},
           "fibers": [{"places": [{"p": "3"}, {"p": "11"}]}, {"places": []}]}
    assert sweep.differing_patterns(old, old) == {}
    assert sweep.differing_patterns(old, new) == {"fibers[*].places[*].p": 2}
    assert sweep.differing_patterns(None, None) == {}
    assert sweep.differing_patterns(None, {"a": 1}) == {"": 1, "a": 1}


def test_the_printed_set_runs_every_subcommand_and_both_refusals():
    calls = sweep.printed_invocations()
    assert len(calls) == 20
    assert len({label for label, _ in calls} | {label for label, _ in sweep.invocations()}) == 165
    commands = [argv[0] for _, argv in calls]
    assert set(commands) == {"certify-all", "certify-local", "certify-brauer", "point-search",
                             "instantiate", "j-report", "sieve-params"}
    assert not any("--out" in argv for _, argv in calls)
    assert ["--jobs", "2"] == calls[1][1][-2:]
    assert ["--samples", "1"] == calls[2][1][-2:]
    # above a = 1753 the surfaces sieve their slice x1 = 1
    assert ["point-search", "--theta=1/2,2", "--height", "1800"] in [argv for _, argv in calls]
    assert sum("(exit 1)" in label for label, _ in calls) == 2
    assert sum("(exit 2)" in label for label, _ in calls) == 3
    assert [argv[2] for _, argv in calls if "--theta=1/1753,3/1753,1/3073009,5/127969" in argv] \
        == ["0", "1"]


def test_a_printed_run_is_compared_as_json_and_a_refusal_by_stderr():
    tree = Path(__file__).resolve().parent.parent
    code, err, report, text = sweep.run(tree, ["sieve-params", "--count", "1"], None)
    assert (code, err) == (0, "")
    assert [q["a"] for q in report["quadruples"]] == ["1753"]
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
    argv = dict(sweep.printed_invocations())["certify-all g=7 theta-zero (exit 2)"]
    code, err, report, text = sweep.run(tree, argv, None)
    assert code == 2 and err.startswith("config error: no admissible value") and report is None
    assert text == ""


def test_a_report_text_is_compared_without_the_dropped_lines(tmp_path):
    tree = Path(__file__).resolve().parent.parent
    out = str(tmp_path / "r.json")
    argv = ["certify-all", "--theta=0", "--height", "10", "--samples", "1"]
    code, err, report, text = sweep.run(tree, argv, out)
    assert (code, err) == (0, "")
    assert report["config"]["output_path"] == out and "generated_at" in report
    stable = {k: v for k, v in report.items() if k != "generated_at"}
    del stable["config"]["output_path"]
    assert text == json.dumps(stable, indent=2, sort_keys=True) + "\n"


def test_a_layout_change_alone_makes_the_sweep_differ(monkeypatch, capsys, tmp_path):
    # a tree whose _emit writes indent=1 prints and files the same JSON
    # values in another layout: both runs differ, under (layout) alone
    root = Path(__file__).resolve().parent.parent
    trees = []
    for name in ("parent", "change"):
        shutil.copytree(root / "src", tmp_path / name / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        trees.append(str(tmp_path / name))
    cli_py = tmp_path / "change" / "src" / "hassecert" / "cli.py"
    text = cli_py.read_text()
    assert text.count("text = _json_text(payload)\n") == 1
    cli_py.write_text(text.replace("text = _json_text(payload)\n",
                                   "text = json.dumps(payload, indent=1, sort_keys=True)\n"))
    monkeypatch.setattr(sweep, "invocations", lambda: [
        ("one fiber", ["certify-all", "--theta=0", "--height", "10", "--samples", "1"])])
    monkeypatch.setattr(sweep, "printed_invocations", lambda: [
        ("sieve", ["sieve-params", "--count", "1"])])
    assert sweep.main([trees[0], trees[0]]) == 0
    assert capsys.readouterr().out.splitlines()[0] == \
        "2 invocations (1 reports, 1 printed), 0 differ"
    assert sweep.main(trees) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["differs: one fiber: exit 0 -> 0, 1 values",
                       "differs: sieve: exit 0 -> 0, 1 values",
                       "2 invocations (1 reports, 1 printed), 2 differ"]
    assert out[-1] == "       2  (layout)"


def test_the_summary_gives_both_src_line_counts(monkeypatch, capsys, tmp_path):
    # the total, then each module whose count changed: mod.py shrinks,
    # same.py does not move, and new.py exists in the change alone
    trees = []
    for name, text in (("parent", "a = 1\nb = 2\n\n"), ("change", "a = 1\n")):
        pkg = tmp_path / name / "src" / "pkg"
        pkg.mkdir(parents=True)
        (pkg / "mod.py").write_text(text)
        (pkg / "same.py").write_text("x = 1\n")
        (pkg / "notes.txt").write_text("not counted\n")
        trees.append(str(tmp_path / name))
    (tmp_path / "change" / "src" / "pkg" / "new.py").write_text("y = 2\nz = 3\n")
    assert [sweep.module_lines(tree) for tree in trees] == [
        {"pkg/mod.py": 3, "pkg/same.py": 1},
        {"pkg/mod.py": 1, "pkg/same.py": 1, "pkg/new.py": 2}]
    report = {"config": {"g": "1"}}
    monkeypatch.setattr(sweep, "sweep", lambda trees: [("one", [(0, "", report, "{}")] * 2)])
    assert sweep.main(trees) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith(", 0 differ")
    assert out[2:] == ["src/ lines, parent -> change: 4 -> 4 (+0)",
                       "  pkg/mod.py 3 -> 1 (-2)",
                       "  pkg/new.py 0 -> 2 (+2)"]
