"""reprolint tests: one flagged + one clean fixture per rule, the
suppression machinery, the baseline, and the log-artifact lint."""

from __future__ import annotations

import os

from repro.analysis import Analyzer, Baseline
from repro.analysis.framework import all_rules
from repro.replication.stream import LogFrame
from repro.tools.loginspect import lint_log_segments
from repro.tools.reprolint import main as reprolint_main
from repro.wal.lsn import FIRST_LSN
from repro.wal.records import InsertRowRecord


def rules_of(findings):
    return [f.rule for f in findings]


def check(source, relpath, select=None):
    analyzer = Analyzer(select=select)
    return analyzer.check_source(source, relpath)


class TestFramework:
    def test_every_rule_registered(self):
        assert set(all_rules()) == {
            "RL001",
            "RL002",
            "RL003",
            "RL004",
            "RL005",
            "RL006",
            "RL007",
            "RL008",
        }

    def test_syntax_error_reported_as_rl000(self):
        findings = check("def broken(:\n", "src/repro/engine/x.py")
        assert rules_of(findings) == ["RL000"]

    def test_path_scope_excludes_out_of_scope_files(self):
        # Raw open() is legal outside the priced-I/O directories.
        findings = check("open('x')\n", "src/repro/tools/x.py", {"RL002"})
        assert findings == []


class TestLsnDiscipline:
    def test_literal_comparison_flagged(self):
        src = "def f(commit_lsn):\n    return commit_lsn == 42\n"
        findings = check(src, "src/repro/engine/x.py", {"RL001"})
        assert rules_of(findings) == ["RL001"]
        assert "42" in findings[0].message

    def test_literal_assignment_and_keyword_and_default_flagged(self):
        src = (
            "def f(start_lsn=8):\n"
            "    split_lsn = 16\n"
            "    g(from_lsn=0)\n"
        )
        findings = check(src, "src/repro/core/x.py", {"RL001"})
        assert rules_of(findings) == ["RL001", "RL001", "RL001"]

    def test_symbolic_constants_and_arithmetic_clean(self):
        src = (
            "from repro.wal.lsn import NULL_LSN\n"
            "def f(end_lsn, prev_lsn=NULL_LSN):\n"
            "    if end_lsn == NULL_LSN:\n"
            "        return prev_lsn\n"
            "    return end_lsn - prev_lsn\n"
        )
        assert check(src, "src/repro/engine/x.py", {"RL001"}) == []

    def test_lsn_module_itself_exempt(self):
        src = "NULL_LSN = 0\nFIRST_LSN = 8\n"
        assert check(src, "src/repro/wal/lsn.py", {"RL001"}) == []

    def test_booleans_are_not_integers(self):
        src = "def f(has_lsn):\n    return has_lsn == True\n"
        assert check(src, "src/repro/engine/x.py", {"RL001"}) == []


class TestPricedIoDiscipline:
    def test_raw_open_flagged_in_scope(self):
        src = "def f(path):\n    return open(path, 'rb').read()\n"
        findings = check(src, "src/repro/storage/x.py", {"RL002"})
        assert rules_of(findings) == ["RL002"]

    def test_os_calls_flagged_through_import_alias(self):
        src = (
            "import os as host\n"
            "def f(fh):\n"
            "    host.fsync(fh.fileno())\n"
        )
        findings = check(src, "src/repro/wal/x.py", {"RL002"})
        assert rules_of(findings) == ["RL002"]

    def test_hostio_boundary_clean(self):
        src = (
            "from repro.sim import hostio\n"
            "def f(path, blob):\n"
            "    hostio.write_blob(path, blob)\n"
        )
        assert check(src, "src/repro/archive/x.py", {"RL002"}) == []

    def test_chain_walk_read_bytes_flagged_undo_fetch_clean(self):
        src = (
            "def walk(log, lsn):\n"
            "    log.read_bytes(lsn, lsn + 10)\n"
            "    return log.undo_fetch(lsn)\n"
        )
        findings = check(src, "src/repro/core/x.py", {"RL002"})
        assert rules_of(findings) == ["RL002"]
        assert "read_bytes" in findings[0].message


class TestReplayDeterminism:
    def test_host_clock_flagged(self):
        src = "import time\ndef f():\n    return time.time()\n"
        findings = check(src, "src/repro/engine/x.py", {"RL003"})
        assert rules_of(findings) == ["RL003"]

    def test_from_import_resolved(self):
        src = "from time import perf_counter\nx = perf_counter()\n"
        findings = check(src, "src/repro/bench/x.py", {"RL003"})
        assert rules_of(findings) == ["RL003"]

    def test_global_rng_flagged_seeded_rng_clean(self):
        src = (
            "import random\n"
            "bad = random.random()\n"
            "good = random.Random(7).random()\n"
        )
        findings = check(src, "src/repro/workload/x.py", {"RL003"})
        assert rules_of(findings) == ["RL003"]
        assert findings[0].line == 2

    def test_sim_clock_and_host_boundary_clean(self):
        src = (
            "from repro.sim.clock import host_perf_counter\n"
            "def f(env):\n"
            "    return env.clock.now() + host_perf_counter()\n"
        )
        assert check(src, "src/repro/tools/x.py", {"RL003"}) == []


class TestErrorSurfaceDiscipline:
    def test_unprotected_log_read_in_public_method_flagged(self):
        src = (
            "class Engine:\n"
            "    def query_as_of(self, lsn):\n"
            "        return self.log.read(lsn)\n"
        )
        findings = check(src, "src/repro/engine/engine.py", {"RL004"})
        assert rules_of(findings) == ["RL004"]
        assert "query_as_of" in findings[0].message

    def test_protected_log_read_clean(self):
        src = (
            "from repro.errors import LogTruncatedError, RetentionExceededError\n"
            "class Engine:\n"
            "    def query_as_of(self, lsn):\n"
            "        try:\n"
            "            return self.log.read(lsn)\n"
            "        except LogTruncatedError as err:\n"
            "            raise RetentionExceededError(str(err)) from err\n"
        )
        assert check(src, "src/repro/engine/engine.py", {"RL004"}) == []

    def test_private_method_not_a_public_surface(self):
        src = (
            "class Engine:\n"
            "    def _walk(self, lsn):\n"
            "        return self.log.read(lsn)\n"
        )
        assert check(src, "src/repro/engine/engine.py", {"RL004"}) == []


class TestSharedStateDiscipline:
    def test_cross_module_mutation_flagged(self):
        src = "def hook(db, pin):\n    db.retention_pins.append(pin)\n"
        findings = check(src, "src/repro/replication/x.py", {"RL005"})
        assert rules_of(findings) == ["RL005"]
        assert "retention_pins" in findings[0].message

    def test_owner_module_mutation_clean(self):
        src = "def hook(self, pin):\n    self.retention_pins.append(pin)\n"
        assert check(src, "src/repro/engine/database.py", {"RL005"}) == []

    def test_guarded_mutation_clean(self):
        src = (
            "def hook(db, pin):\n"
            "    with db.latch:\n"
            "        db.retention_pins.append(pin)\n"
        )
        assert check(src, "src/repro/replication/x.py", {"RL005"}) == []

    def test_private_method_of_shared_owner_flagged(self):
        src = "def refresh(db):\n    db._load_boot()\n"
        findings = check(src, "src/repro/backup/x.py", {"RL005"})
        assert rules_of(findings) == ["RL005"]
        assert "_load_boot" in findings[0].message

    def test_rebinding_shared_attribute_flagged(self):
        src = "def reset(db):\n    db.retention_pins = []\n"
        findings = check(src, "src/repro/backup/x.py", {"RL005"})
        assert rules_of(findings) == ["RL005"]

    # -- strict (latched) entries ---------------------------------------

    def test_strict_owner_mutation_without_guard_flagged(self):
        # _entries is strict: even the owning module must hold the latch.
        src = "def evict(self, key):\n    del self._entries[key]\n"
        findings = check(src, "src/repro/core/snapshot_pool.py", {"RL005"})
        assert rules_of(findings) == ["RL005"]
        assert "latched shared state" in findings[0].message

    def test_strict_owner_mutation_under_guard_clean(self):
        src = (
            "def evict(self, key):\n"
            "    with self.latch:\n"
            "        del self._entries[key]\n"
        )
        assert check(src, "src/repro/core/snapshot_pool.py", {"RL005"}) == []

    def test_strict_ctor_assignment_on_self_clean(self):
        # __init__ predates sharing: the first assignment needs no guard.
        src = (
            "class SnapshotPool:\n"
            "    def __init__(self):\n"
            "        self._entries = {}\n"
        )
        assert check(src, "src/repro/core/snapshot_pool.py", {"RL005"}) == []

    def test_strict_ctor_exemption_is_self_only(self):
        # Mutating *another* object's latched state in a ctor still needs
        # the guard — only self-assignments predate sharing.
        src = (
            "class Adopter:\n"
            "    def __init__(self, pool):\n"
            "        pool._entries = {}\n"
        )
        findings = check(src, "src/repro/core/snapshot_pool.py", {"RL005"})
        assert rules_of(findings) == ["RL005"]

    def test_strict_mutating_call_outside_guard_flagged(self):
        src = "def note(self, name):\n    self._waits.pop(name, None)\n"
        findings = check(src, "src/repro/txn/locks.py", {"RL005"})
        assert rules_of(findings) == ["RL005"]

    def test_strict_mutation_outside_ctor_method_flagged(self):
        # A non-ctor method assigning on self still needs the guard.
        src = (
            "class LogManager:\n"
            "    def crash(self):\n"
            "        self._data = bytearray()\n"
        )
        findings = check(src, "src/repro/wal/log_manager.py", {"RL005"})
        assert rules_of(findings) == ["RL005"]

    def test_declared_mutator_method_needs_the_guard(self):
        # The commit directory's own methods count as mutations of it.
        bare = "def append(self, lsn, wall):\n    self._commit_dir.note(lsn, wall)\n"
        findings = check(bare, "src/repro/wal/log_manager.py", {"RL005"})
        assert rules_of(findings) == ["RL005"]
        assert "self._commit_dir" in findings[0].message
        guarded = (
            "def append(self, lsn, wall):\n"
            "    with self.latch:\n"
            "        self._commit_dir.note(lsn, wall)\n"
            "    return self._commit_dir.around(wall)\n"
        )
        assert check(guarded, "src/repro/wal/log_manager.py", {"RL005"}) == []

    def test_txn_directory_mutator_needs_the_guard(self):
        # So do the transaction directory's: every BEGIN and end notes one.
        bare = "def append(self, txn_id, lsn):\n    self._txn_dir.note(txn_id, begin=lsn)\n"
        findings = check(bare, "src/repro/wal/log_manager.py", {"RL005"})
        assert rules_of(findings) == ["RL005"]
        assert "self._txn_dir" in findings[0].message
        guarded = (
            "def append(self, txn_id, lsn):\n"
            "    with self.latch:\n"
            "        self._txn_dir.note(txn_id, begin=lsn)\n"
            "    return self._txn_dir.in_flight(lsn)\n"
        )
        assert check(guarded, "src/repro/wal/log_manager.py", {"RL005"}) == []

    def test_engine_catalog_mutation_outside_latch_flagged(self):
        # The engine catalog is strict: a retire path that forgets the
        # latch (the old ``_locked`` twin bodies) is a finding even in
        # engine.py itself.
        src = (
            "class Engine:\n"
            "    def _retire_database(self, name):\n"
            "        del self.databases[name]\n"
        )
        findings = check(src, "src/repro/engine/engine.py", {"RL005"})
        assert rules_of(findings) == ["RL005"]
        assert "self.databases" in findings[0].message


class TestObsInstrumentation:
    def test_bare_host_clock_read_flagged(self):
        src = (
            "from repro.sim.clock import host_perf_counter\n"
            "def bench():\n"
            "    t0 = host_perf_counter()\n"
            "    work()\n"
            "    return host_perf_counter() - t0\n"
        )
        findings = check(src, "src/repro/workload/x.py", {"RL006"})
        assert rules_of(findings) == ["RL006", "RL006"]
        assert "host_timing" in findings[0].message

    def test_host_timing_wrapper_clean(self):
        src = (
            "from repro.obs.timing import host_timing\n"
            "def bench():\n"
            "    with host_timing() as timer:\n"
            "        work()\n"
            "    return timer.elapsed\n"
        )
        assert check(src, "src/repro/workload/x.py", {"RL006"}) == []

    def test_obs_and_sim_modules_exempt(self):
        src = (
            "from repro.sim.clock import host_perf_counter\n"
            "t = host_perf_counter()\n"
        )
        assert check(src, "src/repro/obs/timing.py", {"RL006"}) == []
        assert check(src, "src/repro/sim/clock.py", {"RL006"}) == []


class TestFaultHandlingDiscipline:
    def test_silent_broad_swallow_flagged(self):
        src = (
            "def poll(self):\n"
            "    try:\n"
            "        self.ship()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        findings = check(src, "src/repro/replication/x.py", {"RL007"})
        assert rules_of(findings) == ["RL007"]
        assert "ReplicationFaultError" in findings[0].message

    def test_bare_except_swallow_flagged(self):
        src = (
            "def flush(self):\n"
            "    try:\n"
            "        self.store()\n"
            "    except:\n"
            "        return None\n"
        )
        findings = check(src, "src/repro/archive/x.py", {"RL007"})
        assert rules_of(findings) == ["RL007"]

    def test_wrap_typed_clean(self):
        src = (
            "def receive(self, blob):\n"
            "    try:\n"
            "        return decode(blob)\n"
            "    except Exception as err:\n"
            "        raise ReplicationFaultError(str(err), resume_lsn=0)\n"
        )
        assert check(src, "src/repro/replication/x.py", {"RL007"}) == []

    def test_recording_the_fault_clean(self):
        src = (
            "def poll(self):\n"
            "    try:\n"
            "        self.ship()\n"
            "    except Exception as err:\n"
            "        self._note_failure(sub, err, now)\n"
        )
        assert check(src, "src/repro/replication/x.py", {"RL007"}) == []

    def test_narrow_handler_out_of_scope(self):
        src = (
            "def poll(self):\n"
            "    try:\n"
            "        self.ship()\n"
            "    except KeyError:\n"
            "        pass\n"
        )
        assert check(src, "src/repro/replication/x.py", {"RL007"}) == []

    def test_outside_replication_scope_clean(self):
        src = (
            "def anywhere():\n"
            "    try:\n"
            "        work()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        assert check(src, "src/repro/engine/x.py", {"RL007"}) == []


class TestSingleReplayPath:
    def test_private_redo_and_rollback_loops_flagged(self):
        src = (
            "def roll_forward(restored, log, start, split):\n"
            "    for rec in log.scan(start, split + 1):\n"
            "        with restored.fetch_page(rec.page_id) as guard:\n"
            "            rec.redo(guard.page)\n"
            "def undo_in_flight(undo, losers):\n"
            "    for txn_id, last_lsn in sorted(losers.items()):\n"
            "        loser = RecoveredTransaction(txn_id)\n"
            "        undo.rollback_chain(loser, last_lsn)\n"
        )
        findings = check(src, "src/repro/backup/restore.py", {"RL008"})
        assert rules_of(findings) == ["RL008", "RL008"]
        assert "RedoApplier.apply" in findings[0].message
        assert "rollback_losers" in findings[1].message

    def test_shared_stages_and_their_owners_clean(self):
        src = (
            "def restore(restored, log, start, split, losers):\n"
            "    RedoApplier(restored).apply(log.scan(start, split + 1))\n"
            "    rollback_losers(restored, losers)\n"
        )
        assert check(src, "src/repro/backup/restore.py", {"RL008"}) == []
        owner = "def apply(rec, page):\n    rec.redo(page)\n"
        assert check(owner, "src/repro/wal/apply.py", {"RL008"}) == []
        owner = "def one(txn_id):\n    return RecoveredTransaction(txn_id)\n"
        assert check(owner, "src/repro/txn/undo.py", {"RL008"}) == []
        # Tests may replay a record by hand (reference implementations).
        assert check("rec.redo(page)\n", "tests/test_x.py", {"RL008"}) == []


class TestSuppressions:
    SRC = "import time\nx = time.time()  # reprolint: ignore[RL003]\n"

    def test_targeted_suppression(self):
        assert check(self.SRC, "src/repro/engine/x.py", {"RL003"}) == []

    def test_suppression_is_rule_specific(self):
        src = "import time\nx = time.time()  # reprolint: ignore[RL001]\n"
        findings = check(src, "src/repro/engine/x.py", {"RL003"})
        assert rules_of(findings) == ["RL003"]

    def test_blanket_suppression(self):
        src = "import time\nx = time.time()  # reprolint: ignore\n"
        assert check(src, "src/repro/engine/x.py", {"RL003"}) == []

    def test_skip_file(self):
        src = "# reprolint: skip-file\nimport time\nx = time.time()\n"
        assert check(src, "src/repro/engine/x.py", {"RL003"}) == []


class TestBaseline:
    def test_split_and_stale(self, tmp_path):
        src = "import time\nx = time.time()\n"
        findings = check(src, "src/repro/engine/x.py", {"RL003"})
        assert len(findings) == 1
        path = tmp_path / "baseline.json"
        path.write_text(Baseline().dump(findings))
        baseline = Baseline.load(str(path))
        new, baselined = baseline.split(findings)
        assert new == [] and baselined == findings
        assert baseline.stale_entries([]) == {findings[0].identity()}

    def test_repo_baseline_is_empty(self):
        baseline = Baseline.load("reprolint-baseline.json")
        assert baseline.split([])[1] == []
        assert baseline.stale_entries([]) == set()


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert reprolint_main([str(tmp_path)]) == 0
        assert "0 new finding(s)" in capsys.readouterr().out

    def test_gate_fails_on_violation(self, tmp_path, capsys, monkeypatch):
        pkg = tmp_path / "src" / "repro" / "engine"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text("import time\nx = time.time()\n")
        monkeypatch.chdir(tmp_path)
        assert reprolint_main(["src", "--gate"]) == 1
        assert "RL003" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert reprolint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007",
            "RL008",
        ):
            assert rule_id in out


class TestLogLint:
    @staticmethod
    def _segment(start_lsn):
        record = InsertRowRecord(slot=0, row=bytes(20), page_id=1)
        record.lsn = start_lsn
        return LogFrame(start_lsn, record.serialize(), ship_wall=0.0).encode()

    def _write(self, directory, blob, start_lsn, end_lsn, name="t"):
        path = os.path.join(
            directory, f"{name}-{start_lsn:016x}-{end_lsn:016x}.seg"
        )
        with open(path, "wb") as handle:
            handle.write(blob)
        return path

    def test_clean_archive(self, tmp_path):
        blob = self._segment(FIRST_LSN)
        frame = LogFrame.decode(blob)
        nxt = self._segment(frame.end_lsn)
        self._write(str(tmp_path), blob, FIRST_LSN, frame.end_lsn)
        self._write(
            str(tmp_path), nxt, frame.end_lsn, LogFrame.decode(nxt).end_lsn
        )
        assert lint_log_segments(str(tmp_path)) == []

    def test_crc_corruption_flagged(self, tmp_path):
        blob = bytearray(self._segment(FIRST_LSN))
        blob[-1] ^= 0xFF
        end = FIRST_LSN + 64
        self._write(str(tmp_path), bytes(blob), FIRST_LSN, end)
        findings = lint_log_segments(str(tmp_path))
        assert rules_of(findings) == ["LOG001"]

    def test_broken_record_stream_flagged_where_it_breaks(self, tmp_path):
        """A frame whose own CRC holds around a rotted or torn record."""
        good = InsertRowRecord(slot=0, row=bytes(20), page_id=1).serialize()
        rotted = good[:-1] + bytes([good[-1] ^ 0xFF])
        for name, payload in (("rot", good + rotted + good), ("torn", good + good[:50])):
            blob = LogFrame(FIRST_LSN, payload, ship_wall=0.0).encode()
            self._write(str(tmp_path), blob, FIRST_LSN, FIRST_LSN + len(payload), name)
        findings = lint_log_segments(str(tmp_path))
        assert rules_of(findings) == ["LOG002", "LOG002"]
        assert [finding.col for finding in findings] == [len(good), len(good)]
        assert "CRC mismatch" in findings[0].message
        assert "truncated" in findings[1].message

    def test_gap_between_segments_flagged(self, tmp_path):
        blob = self._segment(FIRST_LSN)
        end = LogFrame.decode(blob).end_lsn
        skipped = self._segment(end + 512)
        self._write(str(tmp_path), blob, FIRST_LSN, end)
        self._write(
            str(tmp_path), skipped, end + 512, LogFrame.decode(skipped).end_lsn
        )
        findings = lint_log_segments(str(tmp_path))
        assert rules_of(findings) == ["LOG003"]
        assert "gap" in findings[0].message
