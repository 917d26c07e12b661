"""Oracle verdicts: classification logic on synthetic outcomes, and a
small end-to-end sweep across all six tiers."""

import pytest

from repro.gen import GenConfig, classify, generate, run_oracle, sweep
from repro.gen.oracle import (AGREE, DIVERGENCE, PLANTED_CAUGHT,
                              PLANTED_MISSED, TierOutcome, make_tiers)

pytestmark = pytest.mark.gen


def outcome(tier, status=0, stdout=b"checksum: 1\n", detected=False,
            signatures=(), internal_error=None, limit_exceeded=False,
            crashed=False, crash_message=None):
    return TierOutcome(tier=tier, status=status, stdout=stdout,
                       detected=detected, signatures=tuple(signatures),
                       crashed=crashed, crash_message=crash_message,
                       internal_error=internal_error,
                       limit_exceeded=limit_exceeded, timed_out=False)


CLEAN = {"planted": []}
PLANTED = {"planted": [{"kind": "out-of-bounds",
                        "helper": "plant_spatial",
                        "fault_line": 13, "alloc_line": 11}]}
OOB_SIG = ("out-of-bounds@gen.c:13:17#alloc@gen.c:11:32",)
DETECTING = dict(status=None, stdout=b"", detected=True,
                 signatures=OOB_SIG)


class TestClassify:
    def test_all_agree_is_agree(self):
        report = classify(CLEAN, {
            name: outcome(name)
            for name in ("interp", "jit", "elide", "native", "asan")})
        assert report.verdict == AGREE

    def test_stdout_mismatch_is_divergence(self):
        outcomes = {name: outcome(name) for name in
                    ("interp", "jit", "elide", "native", "asan")}
        outcomes["jit"] = outcome("jit", stdout=b"checksum: 2\n")
        report = classify(CLEAN, outcomes)
        assert report.verdict == DIVERGENCE
        assert "jit" in report.detail

    def test_false_positive_on_clean_program_is_divergence(self):
        outcomes = {"interp": outcome("interp"),
                    "jit": outcome("jit"),
                    "elide": outcome("elide", **DETECTING)}
        report = classify(CLEAN, outcomes)
        assert report.verdict == DIVERGENCE
        assert "false positive" in report.detail

    def test_internal_error_is_divergence_even_when_planted(self):
        outcomes = {"interp": outcome("interp",
                                      internal_error="TypeError: boom"),
                    "jit": outcome("jit", **DETECTING),
                    "elide": outcome("elide", **DETECTING)}
        report = classify(PLANTED, outcomes)
        assert report.verdict == DIVERGENCE
        assert "internal error" in report.detail

    def test_quota_hit_on_bounded_program_is_divergence(self):
        outcomes = {"interp": outcome("interp", limit_exceeded=True),
                    "jit": outcome("jit"), "elide": outcome("elide")}
        assert classify(CLEAN, outcomes).verdict == DIVERGENCE

    def test_planted_caught(self):
        outcomes = {name: outcome(name, **DETECTING)
                    for name in ("interp", "jit", "elide")}
        outcomes["native"] = outcome("native", stdout=b"garbage\n")
        report = classify(PLANTED, outcomes)
        assert report.verdict == PLANTED_CAUGHT

    def test_native_never_compared_on_planted_programs(self):
        outcomes = {name: outcome(name, **DETECTING)
                    for name in ("interp", "jit", "elide")}
        outcomes["native"] = outcome("native", status=42,
                                     stdout=b"way off\n")
        assert classify(PLANTED, outcomes).verdict == PLANTED_CAUGHT

    def test_planted_missed_when_nothing_detects(self):
        outcomes = {name: outcome(name)
                    for name in ("interp", "jit", "elide")}
        report = classify(PLANTED, outcomes)
        assert report.verdict == PLANTED_MISSED

    def test_tier_split_on_planted_program_is_divergence(self):
        outcomes = {"interp": outcome("interp", **DETECTING),
                    "jit": outcome("jit", **DETECTING),
                    "elide": outcome("elide")}  # elided the real check
        report = classify(PLANTED, outcomes)
        assert report.verdict == DIVERGENCE

    def test_wrong_kind_detected_is_planted_missed(self):
        wrong = dict(status=None, stdout=b"", detected=True,
                     signatures=("use-after-free@gen.c:23:28",))
        outcomes = {name: outcome(name, **wrong)
                    for name in ("interp", "jit", "elide")}
        assert classify(PLANTED, outcomes).verdict == PLANTED_MISSED

    def test_asan_catch_rate_recorded(self):
        outcomes = {name: outcome(name, **DETECTING)
                    for name in ("interp", "jit", "elide")}
        outcomes["asan"] = outcome("asan", **DETECTING)
        assert classify(PLANTED, outcomes).asan_caught


@pytest.fixture(scope="module")
def shared_tiers(tmp_path_factory):
    cache = tmp_path_factory.mktemp("gen-oracle-cache")
    return make_tiers(str(cache))


class TestEndToEnd:
    def test_clean_program_agrees_across_all_tiers(
            self, shared_tiers):
        program = generate(4)
        report = run_oracle(program.source, program.manifest,
                            tiers=shared_tiers)
        assert report.verdict == AGREE, report.detail
        assert set(report.outcomes) == \
            {"interp", "jit", "elide", "speculate", "native", "asan"}

    @pytest.mark.parametrize("plant", ["spatial", "temporal"])
    def test_planted_program_is_caught(self, shared_tiers, plant):
        program = generate(9, GenConfig(plant=plant))
        report = run_oracle(program.source, program.manifest,
                            tiers=shared_tiers)
        assert report.verdict == PLANTED_CAUGHT, report.detail

    def test_small_mixed_sweep_is_clean(self, shared_tiers):
        summary = sweep(6, base_seed=0, plant_mode="mixed",
                        tiers=shared_tiers)
        assert summary.ok, [r.summary_line() for r in summary.bugs]
        assert summary.count == 6
        assert summary.verdicts.get(PLANTED_CAUGHT, 0) >= 1
        assert summary.verdicts.get(AGREE, 0) >= 1
        assert "programs: 6" in summary.table()
