"""The mutant catalogue's runner, end to end through `mutants.main` on two
rows: one the tests kill and one that edits nothing, so a runner that reads
every row as killed, or none, fails here."""

from dataclasses import replace

import mutants


def test_main_reads_a_kill_and_a_survivor(monkeypatch, capsys):
    killed = next(m for m in mutants.MUTANTS if m.name == "splay: parent[c] = g dropped")
    noop = replace(killed, name="no-op: parent[c] = g kept", new=killed.old)
    monkeypatch.setattr(mutants, "MUTANTS", (killed, noop))
    assert mutants.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert "killed" in lines[0] and killed.name in lines[0]
    assert "SURVIVED" in lines[1] and noop.name in lines[1]
    assert lines[2] == "1 of 2 mutants killed"
