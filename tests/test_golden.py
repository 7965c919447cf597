"""The golden invocations cover the CLI, and each two-thread one prints
what its one-thread twin prints.

``tools/golden.py`` runs every subcommand and lists every caller of the
chunk scheduler once more with ``--workers 2``; outside ``meta.run`` the
reports must be equal byte for byte, since the worker count only
schedules chunks.  Each JSON report, without its ``meta.run`` block, must
also hash to its line in ``golden_json.sha256``: the ``sha256sum`` of the
files ``tools/golden.py`` writes.  A change that moves report bytes
regenerates that manifest.
"""

import argparse
import hashlib
import importlib.util
from pathlib import Path

import pytest

from brokenrecords.cli import build_parser, main

_spec = importlib.util.spec_from_file_location(
    "golden", Path(__file__).resolve().parent.parent / "tools" / "golden.py"
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

MANIFEST = Path(__file__).with_name("golden_json.sha256")
DIGESTS = {name: digest for digest, name in map(str.split, MANIFEST.read_text().splitlines())}

TWINS = [
    name
    for name in golden.INVOCATIONS
    if name.endswith("-workers2") and name.removesuffix("-workers2") in golden.INVOCATIONS
]


def _json(capsys, argv):
    assert main([*argv, "--format", "json"]) == 0
    return golden.without_run_block(capsys.readouterr().out, "json")


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_scheduler_caller_has_a_twin():
    assert len(TWINS) == 6


def test_every_subcommand_is_invoked():
    (sub,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert {argv[0] for argv in golden.INVOCATIONS.values()} == set(sub.choices)


@pytest.mark.parametrize("name", [n for n in golden.INVOCATIONS if n not in TWINS])
def test_invocation_exits_0(name, capsys):
    # The twins run in the test below.
    code = main([*golden.INVOCATIONS[name], "--format", "json"])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert _digest(golden.without_run_block(out, "json")) == DIGESTS[f"{name}.json"]


@pytest.mark.parametrize("name", TWINS)
def test_two_threads_print_the_one_thread_report(name, capsys):
    one = golden.INVOCATIONS[name.removesuffix("-workers2")]
    two = _json(capsys, golden.INVOCATIONS[name])
    assert two == _json(capsys, one)
    assert _digest(two) == DIGESTS[f"{name}.json"]


def test_default_workers_print_the_one_thread_report(capsys):
    # The default runs on every usable CPU and must print the same report.
    one = golden.INVOCATIONS["simulate-n500"]
    assert one[-2:] == ["--workers", "1"]
    assert _json(capsys, one[:-2]) == _json(capsys, one)
