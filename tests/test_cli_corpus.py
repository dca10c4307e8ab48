"""The committed CLI corpus (`tests/data/cli_corpus.json`) replays as
recorded: text, exit codes and integers exactly, floats within
`cli_corpus.FLOAT_REL`, and every byte where the platform matches."""

import json

import pytest

from cli_corpus import (MANIFEST, differences, platform, run_jobs,
                        text_differences)


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_corpus_replays_as_recorded(manifest, tmp_path):
    recorded = {key: manifest[key] for key in platform()}
    exact = recorded == platform()
    print(f"\nCLI CORPUS tier: {'exact hashes' if exact else 'tolerance'} "
          f"(recorded {recorded}, here {platform()})")
    assert differences(manifest, run_jobs(tmp_path), exact) == []


def test_corpus_covers_every_subcommand_and_exit_code(manifest):
    argvs = [job["argv"][2:] if job["argv"][0] == "--config"
             else job["argv"] for job in manifest["jobs"]]
    commands = {" ".join(argv[:2]) if argv[0] in ("fit", "gen") else argv[0]
                for argv in argvs}
    assert commands == {"simulate", "fit trap", "fit hole", "fit expdecay",
                        "fit linear", "zeeman", "gen decay", "gen holescan",
                        "gen holedecay"}
    assert {job["exit"] for job in manifest["jobs"]} == {0, 2, 3, 4}
    # `differences` pairs the replayed jobs with the recorded ones by argv.
    assert len({" ".join(argv) for argv in argvs}) == len(argvs)


@pytest.mark.parametrize("expected, actual, problems", [
    ('{"a": 1.0}', '{"a": 1.0}', []),
    ('{"a": 1.0}', '{"a": 1.0000000000000002}', []),
    ('{"a": 1.0}', '{"a": 1.000000001}', ["float 1.000000001 != 1.0"]),
    ('{"a": 7}', '{"a": 8}', ["integer 8 != 7"]),
    ('{"a": 1.0}', '{"b": 1.0}', ["line 1: text differs"]),
    ("x\n", "x", ["line end: text differs"]),
])
def test_text_comparison(expected, actual, problems):
    assert text_differences(expected, actual) == problems
