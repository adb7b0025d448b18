"""The CLI's per-command parsers.

Each command accepts only the flags its handler reads: any other flag
exits 2 at parse time, before anything is simulated.  Every harness
command line that CI runs or the docs show must still parse.
"""

import ast
import glob
import itertools
import json
import os
import re
import shlex

import pytest

import repro.harness.__main__ as cli
from repro.harness.__main__ import COMMANDS, build_parser, main

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
PREFIX = "python -m repro.harness "


def _read(*parts):
    with open(os.path.join(ROOT, *parts)) as handle:
        return handle.read()


def _arguments(words):
    """The words before the first shell redirection or operator."""
    return list(itertools.takewhile(
        lambda word: word not in ("|", "||", "&", "&&", ";")
        and ">" not in word, words))


def _ci_lines():
    """Every harness invocation in the CI workflow, as argv lists: the
    shell lines (continuations joined, ``$VARS`` expanded) and the
    ``argv = [sys.executable, "-m", "repro.harness", ...]`` lists of
    its Python steps (a variable element reads as ``"1"``)."""
    text = _read(".github", "workflows", "ci.yml")
    joined = text.replace("\\\n", " ")
    variables = {name: " ".join(block.split()) for name, block in
                 re.findall(r"^\s*(\w+): >-\n((?:\s{8,}\S.*\n)+)", text,
                            re.M)}
    variables.update(re.findall(r'(\w+)="([^"]*)"', joined))

    def expand(line):
        for _ in range(3):
            line = re.sub(r"\$(\w+)",
                          lambda m: variables.get(m.group(1), m.group(0)),
                          line)
        return line

    lines = [_arguments(shlex.split(expand(rest)))
             for rest in re.findall(r"python -m repro\.harness (.*)",
                                    joined)]
    for elements in re.findall(r'"-m", "repro\.harness",(.*?)\]', text,
                               re.S):
        node = ast.parse(f"[{elements}]", mode="eval").body
        lines.append([element.value if isinstance(element, ast.Constant)
                      else "1" for element in node.elts])
    return lines


def _usage_lines(text):
    """The harness lines of a code block or docstring: continuations
    joined, a leading ``$ `` prompt and trailing comments dropped."""
    lines = []
    for line in text.replace("\\\n", " ").splitlines():
        line = line.strip().removeprefix("$ ")
        if line.startswith(PREFIX):
            lines.append(shlex.split(line[len(PREFIX):], comments=True))
    return lines


def _doc_lines():
    """Harness lines in the fenced code blocks of README.md and docs/."""
    lines = []
    for path in ["README.md"] + sorted(glob.glob(
            os.path.join(ROOT, "docs", "*.md"))):
        blocks = _read(path).split("```")[1::2]
        lines.extend(itertools.chain.from_iterable(
            _usage_lines(block) for block in blocks))
    return lines


def _e2e_lines():
    """The lines of every end-to-end benchmark workload's ``command``
    (``;`` separates the lines of a two-command workload)."""
    tree = ast.parse(_read("benchmarks", "e2e", "workloads.py"))
    return [shlex.split(line) for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets]
            == ["command"]
            for line in node.value.value.split(";")]


@pytest.fixture
def handlers_never_run(monkeypatch):
    """Replace every handler so that running one fails the test."""
    def never(args):
        """Fails the test."""
        raise AssertionError(f"{args.command} ran")
    for name, (_handler, flags) in list(COMMANDS.items()):
        monkeypatch.setitem(COMMANDS, name, (never, flags))


@pytest.mark.parametrize("argv", [
    "profile queue --cores 64",
    "profile queue --scale 2",
    "trace array_swaps --jobs 2",
    "validate --no-cache",
    "table3 --seed 1",
    "validate --snapshot-every 50",
    "validate --design PMEM-Spec",      # no prefix match to --designs
    "trace --benchmark queue",
    "snapshot destroy --snapshot-dir d",
])
def test_unread_flag_exits_2_at_parse_time(argv, handlers_never_run):
    with pytest.raises(SystemExit) as stopped:
        main(argv.split())
    assert stopped.value.code == 2


@pytest.mark.parametrize("argv, named", [
    ("validate --litmus --budget 5 --jobs 4 --fault torn-log "
     "--crash-states", "--budget, --crash-states, --fault, --jobs"),
    ("validate --litmus --no-shrink --seed=7", "--no-shrink, --seed"),
    ("validate --litmus --snapshot-rungs 16 --snapshot-dir d",
     "--snapshot-dir, --snapshot-rungs"),
    ("validate --snapshot-dir snaps/", "--snapshot-rungs"),
    ("validate --snapshot-rungs 0 --snapshot-dir=snaps/",
     "--snapshot-rungs"),
])
def test_flag_the_mode_ignores_is_a_usage_error(argv, named,
                                                handlers_never_run,
                                                capsys):
    """A validate flag that its mode would ignore exits 2 before the
    handler runs, naming the flags."""
    assert main(argv.split()) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "fig9 --no-cache --cache-dir d",
    "run --cache-dir=d --no-cache",
])
def test_cache_dir_with_no_cache_is_a_usage_error(argv, handlers_never_run,
                                                  capsys):
    """``--no-cache`` keeps no store for ``--cache-dir`` to name: the
    pair exits 2 before the handler runs, naming both flags."""
    assert main(argv.split()) == 2
    assert "--cache-dir, --no-cache" in capsys.readouterr().err


def _parses(line):
    args = build_parser().parse_args(line)
    cli.check_modes(args, line)


def test_ci_lines_parse():
    lines = _ci_lines()
    commands = {line[0] for line in lines}
    assert {"validate", "snapshot", "fig9", "fig10", "profile",
            "bench-history"} <= commands
    for line in lines:
        _parses(line)


def test_documented_lines_parse():
    """Every command has a line in the module docstring, and every
    docstring, README/docs code-block and e2e workload line parses."""
    usage = _usage_lines(cli.__doc__)
    assert {line[0] for line in usage} == set(COMMANDS)
    for line in usage + _doc_lines() + _e2e_lines():
        _parses(line)


def test_every_command_takes_the_common_flags():
    parser = build_parser()
    for name in COMMANDS:
        args = parser.parse_args([name, "--log-level", "warning",
                                  "--events-out", "e.jsonl"])
        assert (args.log_level, args.events_out) == ("warning", "e.jsonl")


def test_defaults_are_kept():
    args = build_parser().parse_args(["fig10"])
    assert (args.scale, args.seed, args.cores, args.jobs) == \
        (1.0, 42, "16,32,64", 1)
    args = build_parser().parse_args(["profile"])
    assert (args.benchmark, args.design, args.threads) == \
        ("tpcc", "PMEM-Spec", 8)
    args = build_parser().parse_args(["validate"])
    assert (args.budget, args.planner, args.designs) == \
        (200, "stratified", None)


@pytest.mark.parametrize("designs, checks, strand", [
    (None, 69, True),
    ("IntelX86,DPO,HOPS,PMEM-Spec", 56, False),
])
def test_litmus_checks_exactly_the_named_designs(tmp_path, designs,
                                                 checks, strand):
    """``--designs`` narrows the litmus tier even when it names the
    campaign's four designs; without it, StrandWeaver is checked too."""
    out = tmp_path / "litmus.json"
    argv = ["validate", "--litmus", "--report-out", str(out)]
    if designs:
        argv += ["--designs", designs]
    assert main(argv) == 0
    report = json.loads(out.read_text())
    assert report["checks"] == checks
    assert ("StrandWeaver" in report["designs"]) is strand
