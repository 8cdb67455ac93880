"""The differential/metamorphic verification subsystem (repro.verify).

The oracle tests here run reduced slices (one or two programs, a level
or two) so the suite stays fast; the full smoke-corpus sweep runs in CI
via ``python -m repro.verify``.
"""

import copy
import json

import pytest

from repro.config import dynamic_config
from repro.core import StaticPolicy, make_policy
from repro.verify import (
    OracleOutcome,
    check_degenerate_memory,
    check_fast_forward_equivalence,
    check_monotonicity,
    check_pin_equivalence,
    diff_payloads,
    digest_payload,
    result_digest,
)
from repro.verify.golden import (check_golden, compute_digests,
                                 load_golden, write_golden)
from repro.verify.oracles import (
    ADAPTIVE_POLICIES, SMOKE_CORPUS, report, smoke_trace, _smoke_run)


@pytest.fixture(scope="module")
def gcc_result():
    return _smoke_run(dynamic_config(3), smoke_trace("gcc"))


class TestDigest:
    def test_deterministic(self, gcc_result):
        assert result_digest(gcc_result) == result_digest(gcc_result)

    def test_identical_reruns_share_digest(self, gcc_result):
        rerun = _smoke_run(dynamic_config(3), smoke_trace("gcc"))
        assert result_digest(rerun) == result_digest(gcc_result)

    def test_sensitive_to_timing_stats(self, gcc_result):
        mutated = copy.deepcopy(gcc_result)
        mutated.stats.cycles += 1
        mutated.cycles += 1
        assert result_digest(mutated) != result_digest(gcc_result)

    def test_insensitive_to_ff_variant_counters(self, gcc_result):
        """The documented exclusions really are excluded."""
        mutated = copy.deepcopy(gcc_result)
        mutated.stats.fetch_stall_cycles += 100
        mutated.stats.dispatch_stall_cycles += 100
        mutated.stats.stall_slots["policy_timer"] = 999
        mutated.energy_nj = 123.0
        mutated.edp = 456.0
        assert result_digest(mutated) == result_digest(gcc_result)

    def test_diff_payloads_names_the_field(self, gcc_result):
        mutated = copy.deepcopy(gcc_result)
        mutated.stats.committed_loads += 7
        diffs = diff_payloads(digest_payload(gcc_result),
                              digest_payload(mutated))
        assert any("stats.committed_loads" in d for d in diffs)

    def test_diff_payloads_empty_for_equal(self, gcc_result):
        payload = digest_payload(gcc_result)
        assert diff_payloads(payload, payload) == []


class TestPinEquivalenceOracle:
    def test_passes_on_gcc_all_policies(self):
        outcomes = check_pin_equivalence(
            programs=("gcc",), levels=(2,))
        assert len(outcomes) == len(ADAPTIVE_POLICIES)
        assert all(o.passed for o in outcomes), report(outcomes)
        subjects = [o.subject for o in outcomes]
        for name in ("bandit:ucb", "bandit:egreedy"):
            assert any(name in s for s in subjects)

    def test_pinned_run_is_bit_identical_to_static(self):
        """The oracle's core relation, asserted directly for one pair —
        including the cycle count, not just the digest."""
        config = dynamic_config(3)
        trace = smoke_trace("libquantum")
        static = _smoke_run(config, trace, policy=StaticPolicy(3))
        pinned = _smoke_run(config, trace, policy=make_policy(
            "mlp", config.max_level, config.memory.min_latency).pin(3))
        assert pinned.cycles == static.cycles
        assert result_digest(pinned) == result_digest(static)


class TestDegenerateMemoryOracle:
    def test_all_policy_families(self):
        """Satellite requirement: the degenerate-memory oracle covers
        every make_policy family (static and the bandits included)."""
        outcomes = check_degenerate_memory(
            policies=("mlp", "static", "occupancy", "contribution",
                      "bandit:ucb", "bandit:egreedy"))
        assert all(o.passed for o in outcomes), report(outcomes)
        subjects = [o.subject for o in outcomes]
        for name in ("mlp", "static", "occupancy", "contribution",
                     "bandit:ucb", "bandit:egreedy"):
            assert any(s.startswith(name) for s in subjects)
        # the level-1 pinning claim is asserted for the policies whose
        # only trigger is a demand miss — miss-gated exploration makes
        # the bandits part of that set
        assert any("mlp stays at level 1" in s for s in subjects)
        assert any("bandit:ucb stays at level 1" in s for s in subjects)


class TestMonotonicityOracle:
    def test_synthetic_family(self):
        outcomes = check_monotonicity(programs=())
        assert len(outcomes) == 2
        assert all(o.passed for o in outcomes), report(outcomes)


class TestFastForwardOracle:
    def test_gcc(self):
        outcomes = check_fast_forward_equivalence(programs=("gcc",))
        assert all(o.passed for o in outcomes), report(outcomes)


class TestGolden:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "golden.json")
        payload = write_golden(path, programs=("gcc",))
        assert payload["digests"]["gcc"]
        outcomes = check_golden(path)
        assert all(o.passed for o in outcomes), report(outcomes)

    def test_detects_drift(self, tmp_path):
        path = str(tmp_path / "golden.json")
        write_golden(path, programs=("gcc",))
        with open(path) as fh:
            golden = json.load(fh)
        golden["digests"]["gcc"]["dynamic"] = "0" * 64
        with open(path, "w") as fh:
            json.dump(golden, fh)
        outcomes = check_golden(path)
        failed = [o for o in outcomes if not o.passed]
        assert [o.subject for o in failed] == ["gcc/dynamic"]

    def test_detects_version_skew(self, tmp_path):
        path = str(tmp_path / "golden.json")
        write_golden(path, programs=("gcc",))
        with open(path) as fh:
            golden = json.load(fh)
        golden["sim_version"] = "0-stale"
        with open(path, "w") as fh:
            json.dump(golden, fh)
        outcomes = check_golden(path)
        assert len(outcomes) == 1          # digests not even compared
        assert not outcomes[0].passed
        assert "regenerate" in outcomes[0].detail

    def test_missing_file(self, tmp_path):
        outcomes = check_golden(str(tmp_path / "absent.json"))
        assert len(outcomes) == 1 and not outcomes[0].passed

    def test_committed_golden_file_matches_simulator(self):
        """The repo's committed golden digests are current on the smoke
        rows (CI's ``python -m repro.verify check`` covers the full
        table).  If this fails, either regenerate (intentional behaviour
        change, with a SIM_VERSION bump) or find the unintentional
        timing change."""
        from repro.pipeline.core import SIM_VERSION
        golden = load_golden()
        assert golden["sim_version"] == SIM_VERSION
        fresh = compute_digests(SMOKE_CORPUS, golden["corpus"]["models"])
        assert fresh == {p: golden["digests"][p] for p in SMOKE_CORPUS}


class TestFuzz:
    def test_paired_fuzz_inline(self):
        from repro.verify.fuzz import run_fuzz
        outcomes = run_fuzz(n_pairs=2, jobs=1)
        assert len(outcomes) == 2
        assert {o.oracle for o in outcomes} == {"fuzz-ff", "fuzz-pin"}
        assert all(o.passed for o in outcomes), report(outcomes)

    def test_deterministic_pairs(self):
        from repro.verify.fuzz import _pair_for
        kind_a, subject_a, a1, a2 = _pair_for(3, base_seed=9)
        kind_b, subject_b, b1, b2 = _pair_for(3, base_seed=9)
        assert (kind_a, subject_a) == (kind_b, subject_b)
        assert a1.key == b1.key and a2.key == b2.key
        assert a1.key != a2.key


class TestCli:
    def test_check_subcommand(self, tmp_path):
        from repro.verify.__main__ import main
        path = str(tmp_path / "golden.json")
        write_golden(path, programs=("gcc",))
        assert main(["check", "--path", path]) == 0
        assert main(["check", "--path", str(tmp_path / "nope.json")]) == 1

    def test_regen_subcommand(self, tmp_path, capsys, monkeypatch):
        from repro.verify import golden
        from repro.verify.__main__ import main
        # one row keeps the regen + check round trip quick
        monkeypatch.setattr(golden, "program_names", lambda: ("gcc",))
        path = str(tmp_path / "golden.json")
        assert main(["regen", "--path", path]) == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["check", "--path", path]) == 0

    def test_fuzz_subcommand(self, capsys):
        from repro.verify.__main__ import main
        assert main(["fuzz", "--pairs", "2", "--jobs", "1"]) == 0
        assert "2/2" in capsys.readouterr().out


class TestOutcomeReport:
    def test_report_lines(self):
        outcomes = [OracleOutcome("o", "a", True),
                    OracleOutcome("o", "b", False, "boom")]
        text = report(outcomes)
        assert "ok   [o] a" in text
        assert "FAIL [o] b: boom" in text
        assert "1/2" in text
