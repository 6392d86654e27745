"""CLI surface: output formats, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from banachlab.caps import Caps, parse_caps
from banachlab.cli import main
from banachlab.errors import InputError
from banachlab.hamming import POINT_BUDGET
from banachlab.norms import NormEngine


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommands:
    def test_norm_with_oracle(self, capsys):
        code, out, _ = run_cli(
            ["norm", "--space", "T", "--vec", "4:1,5:1,6:1,7:1", "--oracle"], capsys
        )
        assert code == 0
        assert out == "2 (= 2/1)\n"

    def test_norm_rational_output(self, capsys):
        code, out, _ = run_cli(["norm", "--space", "T", "--vec", "3:1/2"], capsys)
        assert code == 0
        assert out == "0.5 (= 1/2)\n"

    def test_norm_float_space(self, capsys):
        code, out, _ = run_cli(["norm", "--space", "S(log2)", "--vec", "1:1,2:1"], capsys)
        assert code == 0
        assert out.startswith("1.261859507")

    def test_dual_norm_witness(self, capsys):
        code, out, _ = run_cli(
            ["dual-norm", "--space", "T", "--vec", "1:1,2:1", "--witness"], capsys
        )
        assert code == 0
        assert out == "2 (= 2/1)\nwitness: 1:1,2:1\n"

    # stdout of the cold LP at supports 6, 8 and 10, generated at commit
    # 41b7114, before the LP took seeds
    DUAL_WITNESS_PINS = [
        ("1:-4,5:1/3,6:-4/7,7:4,9:7/5,10:7/3",
         "10.33333333 (= 31/3)\nwitness: 1:-1,7:1,10:1\n"),
        ("4:1,5:1,6:1,7:1,8:1,9:1,10:1,11:1",
         "2.909090909 (= 32/11)\nwitness: 4:6/11,5:4/11,6:2/11,7:4/11,8:6/11,9:5/11,10:3/11,11:2/11\n"),
        ("1:1/9,2:-3,4:6,5:-1/2,8:-7/5,11:-8/3,14:-2,16:-1/2,18:-1,19:3/4",
         "11.77777778 (= 106/9)\nwitness: 1:1,2:-1,4:1,11:-1\n"),
    ]

    @pytest.mark.parametrize("vec, expected", DUAL_WITNESS_PINS, ids=["6", "8", "10"])
    def test_dual_norm_witness_pinned(self, vec, expected, capsys):
        code, out, _ = run_cli(["dual-norm", "--space", "T", "--vec", vec, "--witness"], capsys)
        assert code == 0
        assert out == expected

    def test_metric_d_e(self, capsys):
        code, out, _ = run_cli(
            ["metric", "--space", "l1", "--k", "3", "--a", "1,3,5", "--b", "2,3,7",
             "--kind", "d_e"],
            capsys,
        )
        assert code == 0
        assert out == "2\n"

    def test_metric_johnson_half_integer(self, capsys):
        code, out, _ = run_cli(
            ["metric", "--k", "2", "--a", "1,2", "--b", "2,3", "--kind", "johnson"],
            capsys,
        )
        assert code == 0
        assert out == "1\n"

    def test_diameter_with_check(self, capsys):
        code, out, _ = run_cli(
            ["diameter", "--space", "T", "--k", "3", "--check", "7"], capsys
        )
        assert code == 0
        assert out == "1\n"

    def test_parse_canonical(self, capsys):
        code, out, _ = run_cli(
            ["parse", "--space", " sum( T* , repeat(T*) ) "], capsys
        )
        assert code == 0
        assert out == "sum(T*,repeat(T*))\n"

    def test_distortion_json(self, capsys):
        code, out, _ = run_cli(
            ["distortion", "--embedding", "prop73:p=1,k=2", "--metric", "hamming",
             "--n", "5"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["distortion"] == "1/1"
        assert data["pairs"] == 45

    def test_xpq_copy_gaps_past_eight(self, capsys):
        # the gaps of [1, 12]^2 reach 11: every copy of the tree space
        # is in the lp-sum, so no copy index is refused
        code, out, err = run_cli(
            ["distortion", "--embedding", "xpq:p=2,q=1,k=2", "--n", "12", "--metric", "hamming"],
            capsys,
        )
        assert (code, err) == (0, "")
        assert out == (
            '{"argmax":[[1,3],[2,3]],"argmin":[[1,2],[1,3]],"distortion":2.0,'
            '"embedding":"xpq:p=2,q=1,k=2","lower":1.4142135623730951,"metric":"hamming",'
            '"n":12,"pairs":2145,"upper":2.8284271247461903}\n'
        )

    def test_distortion_csv(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(
            ["distortion", "--embedding", "prop73:p=1,k=1", "--metric", "hamming",
             "--n", "3", "--csv", str(target)],
            capsys,
        )
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "a,b,metric,embedded,ratio"
        assert len(lines) == 4

    def test_verify_block_c0_json(self, capsys):
        code, out, _ = run_cli(
            ["verify", "block-c0", "--max-support", "5", "--variant", "strict"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["max_ratio"] == "2/1"
        assert data["pass"] is True

    def test_verify_spreading(self, capsys):
        code, out, _ = run_cli(["verify", "spreading", "--k", "2"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["pass"] == "reported"


class TestExitCodes:
    def test_usage_error_is_two(self, capsys):
        code, _, err = run_cli(["norm", "--space", "lp(1/2)", "--vec", "1:1"], capsys)
        assert code == 2
        assert "error" in err

    def test_bad_vector_is_two(self, capsys):
        code, _, _ = run_cli(["norm", "--space", "T", "--vec", "1;1"], capsys)
        assert code == 2

    def test_cap_refusal_is_three(self, capsys, monkeypatch):
        monkeypatch.setenv("BANACHLAB_CAPS", "dual=3")
        code, _, err = run_cli(["dual-norm", "--vec", "1:1,2:1,3:1,4:1"], capsys)
        assert code == 3
        assert "refused" in err

    def test_parse_caps(self):
        assert parse_caps(" dual = 14 ,modified=8,") == Caps(modified=8, dual=14)
        assert parse_caps("tsirelson=1") == Caps(tsirelson=1)
        for text, message in [
            ("dual=0", "bad cap value '0' for 'dual'"),
            ("dual=-1", "bad cap value '-1' for 'dual'"),
            ("modified=x", "bad cap value 'x' for 'modified'"),
            ("lp=3", "unknown cap name 'lp'"),
        ]:
            with pytest.raises(InputError, match=message):
                parse_caps(text)

    def test_oracle_restricted_to_tsirelson(self, capsys):
        code, _, _ = run_cli(["norm", "--space", "l1", "--vec", "1:1", "--oracle"], capsys)
        assert code == 2

    def test_library_error_is_one(self, capsys, monkeypatch):
        from banachlab import cli
        from banachlab.simplex import SimplexError

        def fail(*args):
            raise SimplexError("pivot limit exceeded")

        monkeypatch.setattr(cli, "dual_norm", fail)
        code, out, err = run_cli(["dual-norm", "--vec", "1:1"], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: pivot limit exceeded\n"

    BAD_INPUTS = [
        ["verify", "cm", "--max-support", "0"],
        ["verify", "cm", "--max-support", "-1"],
        ["verify", "hat", "--k", "0"],
        ["verify", "c0-subseq", "--k", "0"],
        ["distortion", "--embedding", "prop73:p=1", "--n", "4"],
        ["distortion", "--embedding", "xpq:p=2,q=1", "--n", "4"],
        ["distortion", "--embedding", "prop73:k=2", "--n", "4"],
        # a parameter the embedding does not take, such as the old xpq width
        ["distortion", "--embedding", "prop73:p=1,k=2,zzz=4", "--n", "4"],
        ["distortion", "--embedding", "xpq:p=2,q=1,k=2,w=8", "--n", "4"],
        ["norm", "--space", "lp(3)", "--vec", f"1:{10**400},2:1"],
        ["verify", "l2", "--cuts", "x"],
        ["verify", "l2", "--k", "0", "--cuts", "0"],
        ["verify", "block-c0", "--max-support", "0"],
        ["verify", "hat", "--samples", "0"],
        ["verify", "c0-subseq", "--samples", "0"],
        ["verify", "l2", "--samples", "0"],
        ["verify", "hat", "--samples", "-1"],
        ["verify", "c0-subseq", "--samples", "-1"],
        ["verify", "l2", "--samples", "-1"],
        ["verify", "cm", "--samples", "-1"],
        ["norm", "--space", "S(log2)", "--vec", f"1:{10**400}"],
        ["norm", "--space", "S(log2)", "--vec", f"1:{10**400}/3"],
        # 1.5 * 1.7e308, beyond the float range
        ["norm", "--space", "S(log2)", "--vec", f"1:{17 * 10**307},2:{17 * 10**307},3:{17 * 10**307}"],
        # a path below a regular file cannot be opened for writing
        ["distortion", "--embedding", "prop73:p=1,k=2", "--n", "4", "--csv", f"{__file__}/x.csv"],
        ["distortion", "--embedding", "prop73:p=1,k=2", "--n", "3", "--decimal", "-1"],
        ["verify", "hat", "--k", "1", "--samples", "2", "--decimal", "-1"],
        # every signed sum of the normalized z_j has norm >= 1
        ["verify", "l2", "--ceiling", "0"],
        ["verify", "l2", "--ceiling", "-3"],
        # leading NAME=value words set the environment, as in a shell
        ["BANACHLAB_CAPS=dual=0", "verify", "block-c0", "--max-support", "3"],
        ["BANACHLAB_CAPS=dual=-1", "dual-norm", "--vec", "1:1"],
        # sums nested past the limit, parsed and built in code (400 levels)
        ["parse", "--space", "sum(T,repeat(" * 499 + "T" + "))" * 499],
        ["distortion", "--embedding", "xpq:p=2,q=1,k=200", "--n", "201"],
        # the first leading index would be shift + 1 < 1
        ["verify", "spreading", "--shift", "-5"],
        ["verify", "spreading", "--blocks", "doubleton", "--shift", "-1"],
        ["metric", "--k", "0", "--a", "1", "--b", "2"],
        ["metric", "--k", "-1", "--a", "1", "--b", "2"],
    ]
    # refused for their cost, with exit 3 and one `refused:` line: more
    # than 10^4 grid vectors, k^(k+1) per sample, or a diameter past the
    # point budget
    REFUSED_INPUTS = [
        ["verify", "hat", "--k", "5"],
        ["verify", "c0-subseq", "--k", "5"],
        ["verify", "hat", "--k", "4"],
        ["verify", "c0-subseq", "--k", "4"],
        ["verify", "hat", "--k", "4", "--samples", "10"],
        ["verify", "hat", "--k", "1", "--samples", "10001"],
        ["verify", "c0-subseq", "--k", str(10**9)],
        ["diameter", "--space", "T", "--k", "100000"],
        ["diameter", "--space", "T", "--k", str(10**400)],
        ["diameter", "--space", "l1", "--k", str(POINT_BUDGET + 1)],
    ]
    BAD_INPUTS += REFUSED_INPUTS
    # a generator for a metric that reads none (appended after the
    # refused rows, so that every earlier row keeps its id)
    BAD_INPUTS += [
        ["distortion", "--embedding", "prop73:p=1,k=2", "--metric", "hamming:T", "--n", "4"],
        ["distortion", "--embedding", "prop73:p=1,k=2", "--metric", "johnson:lp(2)", "--n", "4"],
    ]
    # an exact outer sum of float part norms, and an exact outer norm
    # rounded for a float part norm, beyond the float range
    BAD_INPUTS += [
        ["norm", "--space", "sum(l1,repeat(lp(2)))", "--vec",
         ",".join(f"{k}.{i}:{10**308}" for k in (1, 2) for i in (1, 2))],
        ["norm", "--space", "sum(T,repeat(lp(2)))", "--vec", f"1.1:{10**400},2.1:1,2.2:1"],
    ]

    @pytest.mark.parametrize("argv", BAD_INPUTS, ids=range(len(BAD_INPUTS)))
    def test_bad_input_is_one_error_line(self, argv, capsys, monkeypatch):
        refused = argv in self.REFUSED_INPUTS
        while "=" in argv[0]:
            name, _, value = argv[0].partition("=")
            monkeypatch.setenv(name, value)
            argv = argv[1:]
        code, out, err = run_cli(argv, capsys)
        assert code == (3 if refused else 2)
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("refused: " if refused else "error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["verify", "spreading", "--shift", "-5"], "shift must be >= 0, got -5"),
        (["metric", "--k", "0", "--a", "1", "--b", "2"], "k must be >= 1, got 0"),
        (["distortion", "--embedding", "xpq:p=2,q=1,k=2,w=8", "--n", "4"],
         "embedding 'xpq' has no parameter 'w'"),
        (["distortion", "--embedding", "prop73:p=1,k=2,zzz=4", "--n", "4"],
         "embedding 'prop73' has no parameter 'zzz'"),
        (["verify", "spreading", "--k", "1000000"], "k must be between 1 and 12, got 1000000"),
        (["verify", "spreading", "--k", "-1"], "k must be between 1 and 12, got -1"),
        (["distortion", "--embedding", "prop73:p=1,k=2", "--metric", "hamming:T", "--n", "4"],
         "metric hamming takes no generator space"),
    ])
    def test_bad_size_is_named_as_given(self, argv, message, capsys):
        code, _, err = run_cli(argv, capsys)
        assert (code, err) == (2, f"error: {message}\n")

    def test_zero_samples_still_checks_every_01_vector(self, capsys):
        code, out, _ = run_cli(
            ["verify", "cm", "--max-support", "3", "--samples", "0"], capsys
        )
        assert code == 0
        assert json.loads(out)["samples"] == 7

    def test_norm_beyond_float_range_prints_decimal(self, capsys):
        code, out, err = run_cli(["norm", "--space", "T", "--vec", f"1:{10**400}/3"], capsys)
        assert code == 0
        assert err == ""
        assert out == f"3.333333333e+399 (= {10**400}/3)\n"

    def test_gauge_part_sum_overflow_is_rescaled(self, capsys):
        # the part sums overflow the float DP, the norm 3e308/f(3) does not
        vec = f"1:{10**308},2:{10**308},3:{10**308}"
        code, out, err = run_cli(["norm", "--space", "S(log2)", "--vec", vec], capsys)
        assert code == 0
        assert err == ""
        assert out == "1.5e+308\n"

    @pytest.mark.parametrize("line", ["k: x", "a b 1.1:1"])
    def test_bad_array_file_line_is_one_error_line(self, line, tmp_path, capsys):
        lines = ["space: sum(lpn(1,2),repeat(T*))", "k: 2", line]
        path = tmp_path / "array.txt"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(
            ["distortion", "--embedding", f"array:{path}", "--n", "3"], capsys
        )
        assert code == 2
        assert out == ""
        assert err == f"error: bad array line {line!r}\n"

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1 3 3.4:1", "path 3.4: index 3 exceeds lpn width 2"),
            ("1 3 4:1", "path 4 has depth 1, space has depth 2"),
        ],
    )
    def test_array_row_outside_the_space_is_one_error_line(self, row, message, tmp_path, capsys):
        lines = ["space: sum(lpn(1,2),repeat(T*))", "k: 2", "1 5 1.5:1", row]
        path = tmp_path / "array.txt"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(
            ["distortion", "--embedding", f"array:{path}", "--n", "3"], capsys
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_argparse_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["norm"])  # missing required flags
        assert info.value.code == 2

    @pytest.mark.parametrize("argv, prog", [
        (["verify", "dm", "--k", "3"], "banachlab verify dm"),
        (["norm", "--space", "T", "--vec", "1:1", "--k", "3"], "banachlab norm"),
    ])
    def test_leftover_arguments_name_the_subcommand(self, argv, prog, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        out, err = capsys.readouterr()
        assert info.value.code == 2
        assert out == ""
        assert err.startswith(f"usage: {prog} [-h]")
        assert err.endswith(f"{prog}: error: unrecognized arguments: --k 3\n")


# the options each lemma reads; every other `verify` option is a usage
# error for it
LEMMA_OPTIONS = {
    "block-c0": {"--max-support", "--variant"},
    "dm": {"--n", "--max-support"},
    "cm": {"--max-support", "--samples", "--seed"},
    "l2": {"--k", "--cuts", "--samples", "--seed", "--ceiling"},
    "hat": {"--k", "--samples", "--seed"},
    "c0-subseq": {"--k", "--samples", "--seed"},
    "spreading": {"--space", "--blocks", "--k", "--shift"},
}
VERIFY_VALUES = {
    "--max-support": "5", "--variant": "strict", "--n": "2", "--k": "2",
    "--cuts": "2,4,8", "--samples": "1", "--seed": "1", "--ceiling": "12",
    "--shift": "4", "--blocks": "unit", "--space": "T",
}
UNREAD = [
    (lemma, option)
    for lemma, options in LEMMA_OPTIONS.items()
    for option in VERIFY_VALUES
    if option not in options
]


@pytest.mark.parametrize("lemma, option", UNREAD, ids=[f"{l}{o}" for l, o in UNREAD])
def test_unread_verify_option_is_a_usage_error(lemma, option, capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", lemma, option, VERIFY_VALUES[option]])
    out, err = capsys.readouterr()
    assert info.value.code == 2
    assert out == ""
    assert "Traceback" not in err
    assert f"unrecognized arguments: {option}" in err


class TestDistortionCsv:
    # --csv files at n = 4, produced by the separate CSV pair loop that
    # `distortion_pairs` replaced; the bytes must repeat exactly
    PINS = [
        ("prop73:p=1,k=2", "hamming",
         'a,b,metric,embedded,ratio\n'
         '1 2,1 3,1/1,2/1,2/1\n'
         '1 2,1 4,1/1,2/1,2/1\n'
         '1 2,2 3,2/1,4/1,2/1\n'
         '1 2,2 4,2/1,4/1,2/1\n'
         '1 2,3 4,2/1,4/1,2/1\n'
         '1 3,1 4,1/1,2/1,2/1\n'
         '1 3,2 3,1/1,2/1,2/1\n'
         '1 3,2 4,2/1,4/1,2/1\n'
         '1 3,3 4,2/1,4/1,2/1\n'
         '1 4,2 3,2/1,4/1,2/1\n'
         '1 4,2 4,1/1,2/1,2/1\n'
         '1 4,3 4,1/1,2/1,2/1\n'
         '2 3,2 4,1/1,2/1,2/1\n'
         '2 3,3 4,2/1,4/1,2/1\n'
         '2 4,3 4,1/1,2/1,2/1\n'),
        ("prop73:p=2,k=2", "johnson",
         'a,b,metric,embedded,ratio\n'
         '1 2,1 3,1/1,2/1,2/1\n'
         '1 2,1 4,1/1,2/1,2/1\n'
         '1 2,2 3,1/1,2.8284271247461903,2.8284271247461903\n'
         '1 2,2 4,1/1,2.8284271247461903,2.8284271247461903\n'
         '1 2,3 4,2/1,2.8284271247461903,1.4142135623730951\n'
         '1 3,1 4,1/1,2/1,2/1\n'
         '1 3,2 3,1/1,2/1,2/1\n'
         '1 3,2 4,2/1,2.8284271247461903,1.4142135623730951\n'
         '1 3,3 4,1/1,2.8284271247461903,2.8284271247461903\n'
         '1 4,2 3,2/1,2.8284271247461903,1.4142135623730951\n'
         '1 4,2 4,1/1,2/1,2/1\n'
         '1 4,3 4,1/1,2/1,2/1\n'
         '2 3,2 4,1/1,2/1,2/1\n'
         '2 3,3 4,1/1,2.8284271247461903,2.8284271247461903\n'
         '2 4,3 4,1/1,2/1,2/1\n'),
        ("prop73:p=1,k=2", "d_e:T",
         'a,b,metric,embedded,ratio\n'
         '1 2,1 3,1/1,2/1,2/1\n'
         '1 2,1 4,1/1,2/1,2/1\n'
         '1 2,2 3,1/1,4/1,4/1\n'
         '1 2,2 4,1/1,4/1,4/1\n'
         '1 2,3 4,1/1,4/1,4/1\n'
         '1 3,1 4,1/1,2/1,2/1\n'
         '1 3,2 3,1/1,2/1,2/1\n'
         '1 3,2 4,1/1,4/1,4/1\n'
         '1 3,3 4,1/1,4/1,4/1\n'
         '1 4,2 3,1/1,4/1,4/1\n'
         '1 4,2 4,1/1,2/1,2/1\n'
         '1 4,3 4,1/1,2/1,2/1\n'
         '2 3,2 4,1/1,2/1,2/1\n'
         '2 3,3 4,1/1,4/1,4/1\n'
         '2 4,3 4,1/1,2/1,2/1\n'),
    ]

    @pytest.mark.parametrize("embedding, metric, expected", PINS, ids=[p[1] for p in PINS])
    def test_csv_bytes(self, embedding, metric, expected, tmp_path, capsys):
        path = tmp_path / "pairs.csv"
        code, _, _ = run_cli(
            ["distortion", "--embedding", embedding, "--metric", metric, "--n", "4",
             "--csv", str(path)],
            capsys,
        )
        assert code == 0
        assert path.read_bytes() == expected.encode()

    def test_one_pass_gives_the_same_report(self, tmp_path, capsys, monkeypatch):
        # the rows and the report come from one enumeration, so --csv
        # evaluates no norm twice
        calls = []
        norm = NormEngine.norm

        def counted(self, x):
            calls.append(x)
            return norm(self, x)

        monkeypatch.setattr(NormEngine, "norm", counted)
        argv = ["distortion", "--embedding", "prop73:p=1,k=2", "--metric", "d_e:T", "--n", "5"]
        _, plain, _ = run_cli(argv, capsys)
        plain_calls = len(calls)
        calls.clear()
        code, out, _ = run_cli(argv + ["--csv", str(tmp_path / "pairs.csv")], capsys)
        assert code == 0
        assert out == plain
        assert len(calls) == plain_calls
        assert len((tmp_path / "pairs.csv").read_text().splitlines()) == 1 + json.loads(out)["pairs"]


class TestDeterminism:
    CASES = [
        ["norm", "--space", "T", "--vec", "4:1,5:1,6:1,7:1"],
        ["verify", "dm", "--n", "2", "--max-support", "5"],
        ["verify", "cm", "--max-support", "5", "--samples", "10"],
        ["verify", "hat", "--k", "2", "--samples", "5"],
        ["distortion", "--embedding", "xpq:p=2,q=1,k=2", "--metric", "hamming", "--n", "5"],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=[c[0] + "-" + c[1] for c in CASES])
    def test_identical_bytes(self, argv, capsys):
        code1, out1, _ = run_cli(argv, capsys)
        code2, out2, _ = run_cli(argv, capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_subprocess_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "banachlab.cli", "norm", "--space", "T",
             "--vec", "1:1,2:1"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == "1 (= 1/1)\n"
