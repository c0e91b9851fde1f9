"""The CLI answer ledger: every recorded call answers as it did.

A row that differs is listed with its argv and both answers.  A change that
means to change an answer regenerates the ledger with tests/make_answers.py
and lists each changed row.
"""

from make_answers import ROOT, answer, calls, read_ledger


def test_ledger_lists_every_call_once():
    rows = [(row["argv"], row["stdin"]) for row in read_ledger()]
    assert rows == calls()
    assert len({(tuple(argv), stdin) for argv, stdin in rows}) == len(rows)


def test_every_ledger_row_answers_as_recorded(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("ISOLAB_PRECISION", raising=False)
    differ = []
    for row in read_ledger():
        got = answer(row["argv"], row["stdin"])
        if got != (row["code"], row["stdout"]):
            differ.append(f"{row['argv']} stdin={row['stdin']!r}\n"
                          f"  recorded {row['code']} {row['stdout']!r}\n"
                          f"  now      {got[0]} {got[1]!r}")
    assert not differ, f"{len(differ)} rows differ:\n" + "\n".join(differ)
