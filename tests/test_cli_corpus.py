"""Every CLI run of the golden corpus prints and returns what it recorded.

``tests/data/cli_corpus.json`` holds each run's exit code and the SHA-256 of
its stdout and stderr; ``tests/make_cli_corpus.py`` makes it and says how to
regenerate some of its entries after a change of output made on purpose.
"""

import json

import make_cli_corpus


def _replay(run):
    try:
        return make_cli_corpus.outcome(run)
    except Exception as exc:  # a traceback is a difference too; name the run, go on
        return repr(exc)


def test_every_cli_run_matches_the_corpus(tmp_path, monkeypatch):
    corpus = json.loads(make_cli_corpus.CORPUS.read_text(encoding="utf-8"))
    assert sorted(corpus) == sorted(make_cli_corpus.RUNS)
    monkeypatch.chdir(tmp_path)
    make_cli_corpus.write_inputs(tmp_path)
    differ = [run for run, want in corpus.items() if _replay(run) != want]
    assert differ == []
