"""Inequality verifiers: block bounds, constant estimators, the grid
pigeonhole, and spreading witnesses."""

import inspect
import random
from fractions import Fraction

import pytest

from banachlab import embeddings, verifiers
from banachlab.caps import Caps
from banachlab.dual import dual_norm
from banachlab.errors import CapExceeded, InputError
from banachlab.norms import NormEngine
from banachlab.report import VerifierReport
from banachlab.spaces import parse_space
from banachlab.vectors import SparseVec, parse_vector, unit
from banachlab.verifiers import (
    _check_sampled,
    c0_sampled_report,
    estimate_cm,
    estimate_dm,
    hat_sampled_report,
    hat_select,
    random_c0_instance,
    random_hat_instance,
    select_c0_subsequence,
    spreading_report,
    spreading_witness,
    tt_space,
    verify_block_c0,
    verify_lemma_l2,
)

F = Fraction


class TestBlockC0:
    def test_single_block_ratio_one(self):
        report = verify_block_c0(max_support=3, variant="strict")
        assert report.max_ratio >= 1

    def test_strict_bound_attained_by_e2_e3(self):
        assert dual_norm(parse_vector("2:1,3:1")).value == 2
        report = verify_block_c0(max_support=6, variant="strict")
        assert report.max_ratio == 2
        assert report.passed is True
        blocks = report.witness["blocks"]
        assert [sorted(b) for b in blocks] == [[2], [3]]

    def test_relaxed_bound_three(self):
        report = verify_block_c0(max_support=7, variant="relaxed")
        assert report.max_ratio <= 3
        assert report.passed is True

    def test_variant_validation(self):
        with pytest.raises(InputError):
            verify_block_c0(max_support=4, variant="loose")


class TestEstimateDM:
    def test_singleton_families(self):
        report = estimate_dm(1, 4)
        assert report.max_ratio == 1
        assert report.passed == "reported"

    def test_successive_pair_reaches_two(self):
        report = estimate_dm(2, 6)
        assert report.max_ratio >= 2

    def test_interleaved_family_measured(self):
        # the x_1 on {2,4}, x_2 on {3,5} configuration is part of the
        # search space; compute its ratio directly from the dual norms
        union = dual_norm(parse_vector("2:1,3:1,4:1,5:1")).value
        parts = max(
            dual_norm(parse_vector("2:1,4:1")).value,
            dual_norm(parse_vector("3:1,5:1")).value,
        )
        report = estimate_dm(2, 5)
        assert report.max_ratio >= union / parts

    def test_monotone_in_support(self):
        small = estimate_dm(2, 5).max_ratio
        large = estimate_dm(2, 7).max_ratio
        assert small <= large

    def test_cap_counts_the_lp_support(self):
        # [3, 11] has 9 points, [2, 12] has 11: the cap bounds the points
        # the LPs and the enumeration span, not max_support
        report = estimate_dm(3, 11, Caps())
        assert report.samples == 34105
        assert report.max_ratio == 2
        with pytest.raises(CapExceeded):
            estimate_dm(2, 12, Caps())


class TestEstimateCM:
    def test_reports_at_least_one(self):
        report = estimate_cm(max_support=6, samples=25, seed=9)
        assert report.max_ratio >= 1
        assert report.passed == "reported"

    def test_pair_ratio_is_one(self):
        engine = NormEngine(parse_space("M"))
        assert engine.norm(parse_vector("2:1,3:1")) == 1

    def test_deterministic_under_seed(self):
        a = estimate_cm(max_support=5, samples=10, seed=123)
        b = estimate_cm(max_support=5, samples=10, seed=123)
        assert a.to_json() == b.to_json()

    def test_support_precondition(self):
        with pytest.raises(CapExceeded):
            estimate_cm(max_support=13)


class TestLemmaL2:
    def test_k1_single_normalized_vector(self):
        report = verify_lemma_l2(1, [1, 4], samples=8, seed=3)
        assert report.max_ratio <= 1
        assert report.passed == "reported"

    def test_k2_unit_vectors(self):
        report = verify_lemma_l2(2, [2, 4, 8], samples=10, seed=4)
        assert report.max_ratio > 0
        assert report.passed == "reported"

    def test_cut_validation(self):
        with pytest.raises(InputError):
            verify_lemma_l2(2, [2, 4], samples=1)
        with pytest.raises(InputError):
            verify_lemma_l2(2, [3, 4, 8], samples=1)
        with pytest.raises(InputError):
            verify_lemma_l2(2, [2, 8, 4], samples=1)


class TestHatSelect:
    def test_k1_trivial(self):
        w = [F(1, 2) * unit((1, 2))]
        indices, cell, report = hat_select(1, w)
        assert indices == [1]
        assert report.passed is True

    def test_all_equal_vectors_select_first_two(self):
        base = parse_vector("1.3:1/2,2.4:1/2")
        engine = NormEngine(tt_space())
        assert engine.norm(base) <= 1
        vecs = []
        for j in range(8):
            shift = 2 * j
            vecs.append(
                SparseVec({(r, c + shift): v for (r, c), v in base.items()})
            )
        indices, cell, report = hat_select(2, vecs)
        assert indices == [1, 2]
        assert report.passed is True
        assert report.max_ratio <= 2

    def test_random_instances(self):
        rng = random.Random(51)
        for _ in range(5):
            instance = random_hat_instance(2, rng, NormEngine(tt_space()))
            indices, cell, report = hat_select(2, instance)
            assert len(indices) == 2 and indices[0] < indices[1]
            assert report.passed is True

    def test_wrong_length(self):
        with pytest.raises(InputError):
            hat_select(2, [unit((1, 5))])

    def test_support_outside_rows(self):
        rng = random.Random(52)
        instance = random_hat_instance(2, rng, NormEngine(tt_space()))
        bad = list(instance)
        bad[0] = bad[0] + F(1, 10) * unit((3, 100))
        with pytest.raises(InputError):
            hat_select(2, bad)

    def test_band_violation(self):
        rng = random.Random(53)
        instance = random_hat_instance(2, rng, NormEngine(tt_space()))
        bad = list(instance)
        bad[-1] = unit((1, 3))  # reuses the first band
        with pytest.raises(InputError):
            hat_select(2, bad)

    def test_sampled_report(self):
        report = hat_sampled_report(2, samples=10, seed=88)
        assert report.passed is True
        assert report.max_ratio <= 2
        again = hat_sampled_report(2, samples=10, seed=88)
        assert report.to_json() == again.to_json()


class TestSelectC0:
    def test_k1(self):
        x = [unit((2, 2))]
        indices, (c_low, c_up), report = select_c0_subsequence(1, x)
        assert indices == [1]
        assert (c_low, c_up) == (1, 1)

    def test_unit_blocks(self):
        vecs = []
        col = 3
        for _ in range(8):
            vecs.append(unit((1, col)))
            col += 2
        indices, (c_low, c_up), report = select_c0_subsequence(2, vecs)
        assert c_low >= 1
        assert report.passed == "reported"

    def test_random_instances(self):
        rng = random.Random(61)
        instance = random_c0_instance(2, rng, NormEngine(tt_space()))
        indices, (c_low, c_up), report = select_c0_subsequence(2, instance)
        assert c_low >= 1
        assert len(indices) == 2

    def test_normalization_required(self):
        vecs = [F(1, 2) * unit((1, 3 + 2 * j)) for j in range(8)]
        with pytest.raises(InputError):
            select_c0_subsequence(2, vecs)

    def test_sampled_report_deterministic(self):
        a = c0_sampled_report(2, samples=3, seed=7)
        b = c0_sampled_report(2, samples=3, seed=7)
        assert a.to_json() == b.to_json()
        assert a.passed == "reported"


class TestVectorBudget:
    @pytest.mark.parametrize(
        "report, instance",
        [(hat_sampled_report, "random_hat_instance"), (c0_sampled_report, "random_c0_instance")],
    )
    def test_default_samples_fit_up_to_k3(self, report, instance, monkeypatch):
        samples = inspect.signature(report).parameters["samples"].default
        for k in (1, 2, 3):
            _check_sampled(k, samples)

        def build(*args):
            raise AssertionError("an instance was built")

        monkeypatch.setattr(verifiers, instance, build)
        for k, n in [(4, samples), (5, 1), (1, 10**4 + 1), (10**9, 1)]:
            with pytest.raises(CapExceeded, match="vector budget exceeded"):
                report(k, samples=n)


class TestSampledMerge:
    """The merge rule of the sampled harnesses, on scripted instance
    reports: (ratio, failed) per instance, then the expected max_ratio,
    whether the run fails, and the witness instance."""

    SCRIPTS = [
        ("all-pass", [(1, False), (3, False), (3, False), (2, False)], 3, False, 1),
        ("one-failure", [(3, False), (2, True), (1, False)], 3, True, 1),
        ("failure-then-larger-pass", [(1, False), (2, True), (5, False)], 5, True, 1),
        ("two-failures", [(1, True), (4, False), (2, True), (3, False)], 4, True, 2),
    ]

    @pytest.mark.parametrize(
        "report, instance, select, verdict",
        [
            (hat_sampled_report, "random_hat_instance", "hat_select", True),
            (c0_sampled_report, "random_c0_instance", "select_c0_subsequence", "reported"),
        ],
    )
    @pytest.mark.parametrize("name, script, best, fails, witness", SCRIPTS, ids=[s[0] for s in SCRIPTS])
    def test_merge(self, report, instance, select, verdict, name, script, best, fails, witness, monkeypatch):
        draws = iter(range(len(script)))

        def scripted(k, index, caps):
            ratio, failed = script[index]
            return None, None, VerifierReport(
                lemma="scripted",
                params={"k": k},
                samples=1,
                max_ratio=F(ratio),
                witness={"tag": index},
                passed=False if failed else verdict,
                bound_claimed="b",
            )

        monkeypatch.setattr(verifiers, instance, lambda k, rng, engine: next(draws))
        monkeypatch.setattr(verifiers, select, scripted)
        merged = report(1, samples=len(script), seed=5)
        assert (merged.lemma, merged.params, merged.bound_claimed) == ("scripted", {"k": 1}, "b")
        assert (merged.samples, merged.seed) == (len(script), 5)
        assert merged.max_ratio == best
        assert merged.passed == (False if fails else verdict)
        assert merged.witness == {"instance": witness, "tag": witness}


class TestOneEnginePerRun:
    @pytest.mark.parametrize("report", [hat_sampled_report, c0_sampled_report])
    def test_caller_caps_win_over_the_environment(self, report, monkeypatch):
        monkeypatch.delenv("BANACHLAB_CAPS", raising=False)
        plain = report(2, samples=1, caps=Caps())
        monkeypatch.setenv("BANACHLAB_CAPS", "dual=1")
        assert report(2, samples=1, caps=Caps()) == plain

    @pytest.mark.parametrize(
        "run",
        [
            lambda: hat_sampled_report(2, samples=3),
            lambda: c0_sampled_report(2, samples=3),
            lambda: spreading_witness(parse_space("T*"), "doubleton", 3, 2),
        ],
        ids=["hat", "c0-subseq", "spreading"],
    )
    def test_one_engine_per_run(self, run, monkeypatch):
        built = []

        class Counted(NormEngine):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(verifiers, "NormEngine", Counted)
        monkeypatch.setattr(embeddings, "NormEngine", Counted)
        run()
        assert len(built) == 1


class TestSpreading:
    def test_k1(self):
        assert spreading_witness(parse_space("T"), "unit", 1, 5) == (1, 1)

    def test_tsirelson_block_units(self):
        c_low, c_up = spreading_witness(parse_space("T"), "unit", 4, 3)
        assert (c_low, c_up) == (1, 2)

    def test_truncated_tower_within_six(self):
        space = parse_space("sum(T*,indexed(sum(lpn(1,#),repeat(T*))))")
        for k in (1, 2, 3):
            c_low, c_up = spreading_witness(space, "unit", k, 4)
            assert c_up / c_low <= 6

    def test_doubleton_family(self):
        c_low, c_up = spreading_witness(parse_space("T*"), "doubleton", 2, 2)
        assert c_low >= 1

    def test_unknown_family(self):
        with pytest.raises(InputError):
            spreading_witness(parse_space("T"), "mystery", 2, 4)

    @pytest.mark.parametrize("k", [0, -1, 13, 10**6])
    @pytest.mark.parametrize("blocks", ["unit", "doubleton"])
    def test_k_is_checked_before_any_block_is_built(self, k, blocks, monkeypatch):
        def building(*args):
            raise AssertionError("blocks built before k was checked")

        monkeypatch.setattr(verifiers, "_named_blocks", building)
        with pytest.raises(InputError, match=f"^k must be between 1 and 12, got {k}$"):
            spreading_witness(parse_space("T"), blocks, k, 4)

    def test_report(self):
        report = spreading_report(parse_space("T"), "unit", 2, 4, space_text="T")
        assert report.passed == "reported"
        assert report.max_ratio >= 1
