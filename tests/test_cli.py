"""Command-line interface: output formats, JSON serialization, exit codes."""

import argparse
import io
import json
import shlex
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from detcodes import cli, detcode, formulas, gf, matq, rank1


def run(args, capsys):
    code = cli.dispatch(args)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_both_paths_match(capsys):
    code, out, _ = run(
        ["spectrum", "--q", "2", "--l", "2", "--m", "2", "--t", "1"], capsys
    )
    assert code == 0
    assert "[closed] 0:1  4:9  6:6" in out
    assert "[brute] 0:1  4:9  6:6" in out
    assert "MATCH" in out


def test_spectrum_json_counts_are_strings(capsys):
    code, out, _ = run(
        ["spectrum", "--q", "3", "--l", "2", "--m", "2", "--t", "1",
         "--format", "json", "--path", "closed"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["length"] == 16
    assert payload["dimension"] == 4
    assert payload["paths"] == ["closed"]
    for entry in payload["spectrum"]:
        assert isinstance(entry["count"], str)
    got = {e["w"]: int(e["count"]) for e in payload["spectrum"]}
    assert got == {0: 1, 9: 32, 12: 48}


def test_spectrum_closed_path_walks_no_matrix_space(capsys, monkeypatch):
    def no_walk(*args):
        raise AssertionError("the closed path walked the matrix space")

    monkeypatch.setattr(matq, "rank_table", no_walk)
    code, out, _ = run(
        ["spectrum", "--q", "5", "--l", "3", "--m", "3", "--t", "1",
         "--path", "closed", "--format", "json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["length"] == 961


def test_spectrum_both_paths_rank_the_space_once(capsys, monkeypatch):
    walks = []
    real = matq.rank_table

    def counted(*args):
        table = real(*args)
        walks.append(len(table))
        return table

    monkeypatch.setattr(matq, "rank_table", counted)
    code, out, _ = run(
        ["spectrum", "--q", "3", "--l", "2", "--m", "3", "--t", "1", "--format", "json"], capsys
    )
    assert code == 0 and json.loads(out)["match"]
    assert walks == [3**6]


def test_spectrum_affine(capsys):
    code, out, _ = run(
        ["spectrum", "--q", "2", "--l", "2", "--m", "2", "--t", "1",
         "--mode", "affine"],
        capsys,
    )
    assert code == 0
    assert "[closed] 0:1  4:9  6:6" in out
    assert "MATCH" in out


def test_spectrum_extension_field(capsys):
    code, out, _ = run(
        ["spectrum", "--q", "4", "--l", "2", "--m", "2", "--t", "1",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert payload["q"] == 4


# ---------------------------------------------------------------------------
# ghw
# ---------------------------------------------------------------------------


def test_ghw_table(capsys):
    code, out, _ = run(
        ["ghw", "--q", "2", "--l", "2", "--m", "2", "--t", "1"], capsys
    )
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln and ln[0] != "#"]
    # header row + 4 ranks, all brute-confirmed
    assert len(lines) == 5
    for ln in lines[1:]:
        assert ln.rstrip().endswith("yes")


def test_ghw_json_values(capsys):
    code, out, _ = run(
        ["ghw", "--q", "2", "--l", "2", "--m", "3", "--t", "1",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    rows = {row["r"]: row for row in payload["ghw"]}
    assert rows[1]["value"] == "8"
    assert rows[4]["value"] == "18"
    assert rows[5]["kind"] == "bounds"
    assert rows[5]["lower"] == "19" and rows[5]["upper"] == "21"
    assert rows[5]["brute_confirmed"] is True
    assert rows[6]["value"] == "21"


def test_ghw_affine_scaling_and_range(capsys):
    code, out, _ = run(
        ["ghw", "--q", "2", "--l", "2", "--m", "2", "--t", "1",
         "--mode", "affine", "--r", "1..2", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    rows = {row["r"]: row for row in payload["ghw"]}
    assert set(rows) == {1, 2}
    assert rows[1]["value"] == "4"  # (q-1) * 4 with q = 2
    code, out, _ = run(
        ["ghw", "--q", "3", "--l", "2", "--m", "2", "--t", "1",
         "--mode", "affine", "--r", "1", "--format", "json"],
        capsys,
    )
    rows = {row["r"]: row for row in json.loads(out)["ghw"]}
    assert rows[1]["value"] == "18"  # (3-1) * 9


@pytest.mark.parametrize("r", ["abc", "1..x", "3..1"])
def test_ghw_bad_r_is_a_parameter_error(r, capsys):
    code, out, err = run(
        ["ghw", "--q", "2", "--l", "2", "--m", "2", "--t", "1", "--r", r], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("parameter error:") and err.count("\n") == 1


def test_ghw_requires_t1(capsys):
    code, _, err = run(
        ["ghw", "--q", "2", "--l", "2", "--m", "2", "--t", "2"], capsys
    )
    assert code == 2
    assert "t=1" in err


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def test_count_table(capsys):
    code, out, _ = run(["count", "--q", "2", "--l", "2", "--m", "2", "--t", "1"], capsys)
    assert code == 0
    assert "n_hat = 9" in out
    assert "n     = 10" in out
    assert "k     = 4" in out
    assert "mu_1 = 9" in out


def test_count_json(capsys):
    code, out, _ = run(
        ["count", "--q", "3", "--l", "2", "--m", "2", "--t", "1",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["length_projective"] == "16"
    assert payload["length_affine"] == "33"
    assert payload["dimension"] == 4
    assert payload["mu"] == {"0": "1", "1": "32", "2": "48"}


# ---------------------------------------------------------------------------
# genmat
# ---------------------------------------------------------------------------


def test_genmat_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "gen.txt"
    code, _, _ = run(
        ["genmat", "--q", "2", "--l", "2", "--m", "2", "--t", "1",
         "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    text = out_file.read_text()
    header, *rows = text.strip().splitlines()
    assert header == "2 2 2 1 projective 9 4"
    assert len(rows) == 4
    field = gf.make_field(2, 1)
    dom = detcode.make_domain(field, 2, 2, 1, "projective")
    gen = detcode.generator_matrix(dom)
    assert [list(map(int, r.split())) for r in rows] == gen.tolist()


def test_genmat_stdout(capsys):
    code, out, _ = run(
        ["genmat", "--q", "2", "--l", "2", "--m", "2", "--t", "2"], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == "2 2 2 2 projective 15 4"


def test_genmat_large_fields(capsys):
    # Prime fields reduce mod p at any size.  At l = 1 the walk needs no
    # field arithmetic, so q = 2^11 has a generator matrix too; its brute
    # spectrum needs tables, which stop at gf.TABLE_MAX_Q = 1024.
    code, out, _ = run(["genmat", "--q", "1031", "--l", "1", "--m", "1", "--t", "1"], capsys)
    assert code == 0
    assert out.splitlines() == ["1031 1 1 1 projective 1 1", "1"]
    code, out, _ = run(["genmat", "--q", "2^11", "--l", "1", "--m", "1", "--t", "1"], capsys)
    assert code == 0
    assert out.splitlines() == ["2048 1 1 1 projective 1 1", "1"]
    argv = ["spectrum", "--path", "brute", "--q", "2^11", "--l", "1", "--m", "1", "--t", "1"]
    code, _, err = run(argv, capsys)
    assert code == 3
    assert "budget" in err.lower()


@pytest.mark.parametrize(
    "argv,last",
    [
        (["spectrum", "--path", "both", "--l", "1", "--m", "2"], "MATCH"),
        (["verify", "--l", "1", "--m", "1"], "OK: 12/12 checks passed, 0 skipped"),
        (["verify", "--l", "1", "--m", "2"], "OK: 10/10 checks passed, 2 skipped"),
        (["ghw", "--l", "1", "--m", "2"], None),
    ],
)
def test_prime_field_above_the_table_limit(argv, last, capsys):
    # p = 1031 > gf.TABLE_MAX_Q: prime fields reduce mod p and need no tables
    code, out, err = run(argv + ["--q", "1031", "--t", "1"], capsys)
    assert code == 0, err
    if last is not None:
        assert out.splitlines()[-1] == last


# ---------------------------------------------------------------------------
# rank1max
# ---------------------------------------------------------------------------


def test_rank1max(capsys):
    code, out, _ = run(
        ["rank1max", "--q", "2", "--l", "2", "--m", "2", "--r", "3",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["max_rank1"] == "5"
    assert payload["bound"] == "5"
    assert payload["bound_is_coset_argument"] is True
    assert payload["witness"] == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]


def test_rank1max_past_the_walk_budget(capsys):
    # [4, 3]_89 = 712,890 subspaces fit SUBSPACE_BUDGET; 89^4 matrices do not
    code, _, err = run(["rank1max", "--q", "89", "--l", "2", "--m", "2", "--r", "3"], capsys)
    assert code == 3
    assert f"q^(l*m) = {89**4} exceeds" in err
    assert f"MATRIX_SPACE_BUDGET = {matq.MATRIX_SPACE_BUDGET}" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_battery_passes(capsys):
    code, out, _ = run(
        ["verify", "--q", "2", "--l", "2", "--m", "2", "--t", "1"], capsys
    )
    assert code == 0
    assert "FAIL" not in out
    assert "OK:" in out


@pytest.mark.parametrize("q", ["2", "3"])
def test_verify_on_a_one_entry_space(capsys, q):
    # l = m = 1: every search walks the one 0-dimensional subspace of GF(q)^0
    code, out, _ = run(["verify", "--q", q, "--l", "1", "--m", "1", "--t", "1"], capsys)
    assert code == 0
    assert "PASS  higher weights: closed/bounds vs brute, affine transfer" in out
    assert "OK: 12/12 checks passed, 0 skipped" in out


def test_verify_witness_check_fails_on_a_worse_subcode(capsys, monkeypatch):
    # q=2 3x3 r=5 has bounds [38, 40], and the witness must attain 40; this
    # subcode has support weight 42, inside no bound.
    worse = np.eye(9, dtype=np.int64)[[0, 1, 2, 4, 8]]
    real = formulas.witness_subcode
    monkeypatch.setattr(
        formulas, "witness_subcode", lambda l, m, r, q: worse if r == 5 else real(l, m, r, q)
    )
    code, out, _ = run(["verify", "--q", "2", "--l", "3", "--m", "3", "--t", "1"], capsys)
    assert code == 1
    assert "FAIL  witness subcodes attain the known values" in out


@pytest.mark.parametrize("r", [0, 1, 2])
def test_verify_alternating_sum_check_fails_on_a_wrong_cell(capsys, monkeypatch, r):
    # The rank-2 row (t = l) is not used by the t=1 closed spectrum, so only
    # the alternating-sum check sees this cell change.
    real = formulas.delsarte_N
    monkeypatch.setattr(
        formulas, "delsarte_N",
        lambda t, rr, l, m, q: real(t, rr, l, m, q) + ((t, rr) == (2, r)),
    )
    code, out, _ = run(["verify", "--q", "2", "--l", "2", "--m", "2", "--t", "1"], capsys)
    assert code == 1
    assert "FAIL  alternating-sum rank counts vs enumeration" in out
    assert sum(line.startswith("FAIL  ") for line in out.splitlines()) == 1


def test_verify_length_check_fails_on_a_short_domain(capsys, monkeypatch):
    real = detcode.make_domain

    def short(field, l, m, t, mode):
        dom = real(field, l, m, t, mode)
        if mode == "affine":
            return dom
        return detcode.EvaluationDomain(field, l, m, t, mode, dom.points[:-1])

    monkeypatch.setattr(detcode, "make_domain", short)
    # t = 2: no subcode search reads the domain, so no support weight breaks
    code, out, _ = run(["verify", "--q", "2", "--l", "2", "--m", "2", "--t", "2"], capsys)
    assert code == 1
    assert "FAIL  closed-form lengths n, n_hat vs enumeration" in out


def test_verify_rank_class_check_fails_on_swapped_counts(capsys, monkeypatch):
    # Ranks 0 and 1 swap counts: the t = 1 length and every spectrum stay.
    real = detcode.rank_trace_counts

    def swapped(field, l, m, t, mode):
        rank_counts, trace_counts = real(field, l, m, t, mode)
        if (t, mode) == (l, "affine"):
            rank_counts = rank_counts[[1, 0, 2]]
        return rank_counts, trace_counts

    monkeypatch.setattr(detcode, "rank_trace_counts", swapped)
    code, out, _ = run(["verify", "--q", "2", "--l", "2", "--m", "2", "--t", "1"], capsys)
    assert code == 1
    assert "FAIL  rank-class counts mu vs enumeration" in out
    assert sum(line.startswith("FAIL  ") for line in out.splitlines()) == 1


def test_verify_rank1_check_fails_on_a_miscounted_witness(capsys, monkeypatch):
    # The search reads one rank-1 element of each span as rank 2, so its
    # witness holds one more rank-1 element than the count it reports.
    real = matq.span_rank_batches

    def one_fewer(field, l, m, r, js):
        for j, bases, ranks in real(field, l, m, r, js):
            ranks = ranks.copy()
            ones = ranks == 1
            rows = np.flatnonzero(ones.any(axis=1))
            ranks[rows, ones[rows].argmax(axis=1)] = 2
            yield j, bases, ranks

    monkeypatch.setattr(matq, "span_rank_batches", one_fewer)
    code, out, _ = run(["verify", "--q", "2", "--l", "2", "--m", "2", "--t", "2"], capsys)
    assert code == 1
    for r in (3, 4):
        assert f"FAIL  rank-1 extremal count within bound (r={r})" in out
    assert sum(line.startswith("FAIL  ") for line in out.splitlines()) == 2


def test_verify_reports_a_crossed_search_bound_as_a_failure(capsys, monkeypatch):
    # bounds one step too tight: the searches raise, and verify reports
    # each check whose search crossed its bound instead of crashing
    # (r = 1 runs the subcode side, r = 2..4 the section side)
    ceiling = detcode._section_ceiling
    monkeypatch.setattr(detcode, "_section_ceiling", lambda dom, s: ceiling(dom, s) - 1)
    code, out, _ = run(["verify", "--q", "2", "--l", "2", "--m", "2", "--t", "1"], capsys)
    assert code == 1
    assert "FAIL  higher weights: closed/bounds vs brute, affine transfer" in out
    assert "below the proven floor" in out and "r=2: section of " in out
    for r in (3, 4):
        assert f"FAIL  rank-1 extremal count within bound (r={r})  (section of" in out
    assert sum(line.startswith("FAIL  ") for line in out.splitlines()) == 3


def test_verify_reports_skipped_checks_and_never_counts_them(capsys):
    argv = ["verify", "--q", "2", "--l", "3", "--m", "3", "--t", "1"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    lines = out.splitlines()
    skips = [line for line in lines if line.startswith("SKIP  ")]
    ghw = "higher weights: closed/bounds vs brute, affine transfer"
    cap = f"(brute-force cost over the cap of {cli.BRUTE_GHW_COST_CAP})"
    assert skips == [f"SKIP  {ghw} (r={r})  {cap}" for r in range(3, 8)] + [
        f"SKIP  rank-1 extremal count within bound (r={r})  {cap}" for r in range(4, 8)
    ]
    assert sum(line.startswith("PASS  ") for line in lines) == 14
    assert lines[-1] == "OK: 14/14 checks passed, 9 skipped"
    code, out, _ = run(argv + ["--format", "json"], capsys)
    payload = json.loads(out)
    assert len(payload["checks"]) == 14 and len(payload["skipped"]) == 9
    assert {c["name"] for c in payload["checks"]}.isdisjoint(s["name"] for s in payload["skipped"])


def test_verify_at_t2_skips_the_t1_only_checks_with_their_reason(capsys):
    code, out, _ = run(["verify", "--q", "2", "--l", "3", "--m", "3", "--t", "2"], capsys)
    assert code == 0
    lines = out.splitlines()
    for line in (
        "SKIP  higher weights: closed/bounds vs brute, affine transfer"
        "  (closed-form higher weights are only available for t=1)",
        "SKIP  witness subcodes attain the known values  (witness subcodes are only known for t=1)",
    ):
        assert line in lines
    assert sum(line.startswith("PASS  ") for line in lines) == 12
    assert lines[-1] == "OK: 12/12 checks passed, 6 skipped"


def test_verify_skips_the_naive_oracle_over_its_budget(capsys, monkeypatch):
    monkeypatch.setattr(detcode, "NAIVE_COST_BUDGET", 0)
    code, out, _ = run(["verify", "--q", "2", "--l", "2", "--m", "2", "--t", "1"], capsys)
    assert code == 0
    for mode in ("projective", "affine"):
        assert f"SKIP  rank-grouped vs naive enumerator ({mode})  (" in out
        assert f"PASS  rank-grouped vs naive enumerator ({mode})" not in out
    assert out.splitlines()[-1].endswith(" 2 skipped")


def test_verify_battery_extension_field(capsys):
    code, out, _ = run(
        ["verify", "--q", "4", "--l", "2", "--m", "2", "--t", "2"], capsys
    )
    assert code == 0
    assert "FAIL" not in out


# ---------------------------------------------------------------------------
# exit codes for bad inputs
# ---------------------------------------------------------------------------


def test_exit_code_parameter_errors(capsys):
    # composite q
    code, _, err = run(["count", "--q", "6", "--l", "2", "--m", "2", "--t", "1"], capsys)
    assert code == 2
    # l > m
    code, _, err = run(["count", "--q", "2", "--l", "3", "--m", "2", "--t", "1"], capsys)
    assert code == 2
    # t > l
    code, _, err = run(
        ["spectrum", "--q", "2", "--l", "2", "--m", "2", "--t", "3"], capsys
    )
    assert code == 2
    # projective t = 0 variety is empty
    code, _, err = run(
        ["genmat", "--q", "2", "--l", "2", "--m", "2", "--t", "0"], capsys
    )
    assert code == 2


@pytest.mark.parametrize("q", ["abc", "2^x", "2^", " "])
def test_a_malformed_q_is_a_parameter_error(q, capsys):
    code, out, err = run(["count", "--q", q, "--l", "2", "--m", "2", "--t", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("parameter error: ") and err.count("\n") == 1


@pytest.mark.parametrize("q", ["10000000000000061^1", "2^10000000000", "2^100000000", "70001^1"])
def test_an_oversized_q_is_refused_before_it_is_computed(q, capsys):
    # p^e is never formed and a large p is never trial-divided
    start = time.perf_counter()
    code, out, err = run(["count", "--q", q, "--l", "1", "--m", "1", "--t", "1"], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == f"parameter error: q={q} exceeds the enumeration budget (max {gf.MAX_Q})\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--q", "2", "--l", "2", "--m", "3", "--t", "1", "--mode", "affine"],
    ["rank1max", "--q", "2", "--l", "2", "--m", "3", "--r", "4", "--mode", "affine"],
    ["genmat", "--q", "2", "--l", "2", "--m", "2", "--t", "1", "--format", "json"],
])
def test_a_flag_the_command_would_ignore_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.dispatch(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err


class _ReadRecorder(argparse.Namespace):
    """A namespace that records which of its attributes were read."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("argv", [
    ["spectrum", "--q", "2", "--l", "1", "--m", "2", "--t", "1", "--mode", "affine",
     "--format", "json", "--path", "both"],
    ["ghw", "--q", "2", "--l", "2", "--m", "2", "--t", "1", "--mode", "affine",
     "--format", "json", "--r", "1..2", "--no-brute"],
    ["count", "--q", "2", "--l", "1", "--m", "2", "--t", "1", "--format", "json"],
    ["genmat", "--q", "2", "--l", "1", "--m", "2", "--t", "1", "--mode", "affine"],
    ["rank1max", "--q", "2", "--l", "2", "--m", "2", "--r", "3", "--format", "json"],
    ["verify", "--q", "2", "--l", "1", "--m", "2", "--t", "1", "--format", "json"],
])
def test_every_parsed_flag_is_read(argv, tmp_path):
    parsed = cli.build_parser().parse_args(argv + ["--out", str(tmp_path / "out")])
    args = _ReadRecorder(**vars(parsed))
    assert args.func(args) == 0
    assert set(vars(parsed)) - {"func", "command"} - args._reads == set()


def test_every_readme_cli_example_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
                if line.startswith("detcodes ")]
    assert len(commands) == 7
    monkeypatch.chdir(tmp_path)  # genmat writes --out gen.txt
    for argv in commands:
        with redirect_stdout(io.StringIO()):
            assert cli.dispatch(argv) == 0, argv


FUZZ_COMMANDS = [
    ["spectrum", "--path", "closed"],
    ["spectrum", "--path", "brute"],
    ["genmat"],
    ["count"],
    ["ghw", "--no-brute"],
    ["ghw"],
    ["rank1max"],
    ["verify"],
]


@settings(max_examples=80, deadline=None, database=None)
@given(
    cmd=st.sampled_from(FUZZ_COMMANDS),
    q=st.sampled_from([2, 3, 4]),
    l=st.integers(0, 3),
    m=st.integers(0, 3),
    t=st.integers(0, 3),
    r=st.integers(0, 10),
    mode=st.sampled_from(["affine", "projective"]),
)
@example(cmd=["spectrum", "--path", "brute"], q=2, l=0, m=1, t=0, r=0, mode="affine")
@example(cmd=["genmat"], q=2, l=0, m=1, t=0, r=0, mode="affine")
@example(cmd=["verify"], q=3, l=0, m=2, t=0, r=0, mode="projective")
@example(cmd=["rank1max"], q=2, l=3, m=3, t=0, r=5, mode="projective")
def test_cli_exits_with_a_code_and_never_raises(cmd, q, l, m, t, r, mode):
    assume(q ** (l * m) <= 4096)
    argv = cmd + ["--q", str(q), "--l", str(l), "--m", str(m)]
    if cmd[0] == "rank1max":
        argv += ["--r", str(r % (l * m + 2))]  # every r in 0..l*m+1
    else:
        argv += ["--t", str(t)]
    if cmd[0] in ("spectrum", "ghw", "genmat"):
        argv += ["--mode", mode]
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = cli.dispatch(argv)
    assert code in (0, 1, 2, 3)
    # a request that passes the budget checks must also finish: the
    # slowest of these, rank1max q=2 3x3 r=5, takes under 0.1 s
    assert time.perf_counter() - start < 10


def test_exit_code_budget(capsys):
    code, _, err = run(
        ["spectrum", "--q", "2", "--l", "6", "--m", "6", "--t", "3"], capsys
    )
    assert code == 3
    assert "budget" in err.lower()


def test_budget_errors_state_the_estimate_and_the_limit(capsys, monkeypatch):
    code, _, err = run(
        ["spectrum", "--q", "2", "--l", "6", "--m", "6", "--t", "3", "--path", "brute"], capsys
    )
    assert code == 3
    assert f"q^(l*m) = {2**36} " in err
    assert f"MATRIX_SPACE_BUDGET = {matq.MATRIX_SPACE_BUDGET}" in err
    # verify, the naive oracle's only caller, reports its budget error as
    # the reason of a SKIP line: 16 forms over 9 and 10 points.
    monkeypatch.setattr(detcode, "NAIVE_COST_BUDGET", 100)
    code, out, _ = run(["verify", "--q", "2", "--l", "2", "--m", "2", "--t", "1"], capsys)
    assert code == 0
    for mode, cost in (("projective", 144), ("affine", 160)):
        assert (f"SKIP  rank-grouped vs naive enumerator ({mode})  (naive enumeration cost "
                f"q^(l*m) * n = {cost} exceeds NAIVE_COST_BUDGET = 100)") in out


def test_out_file_writing(tmp_path, capsys):
    out_file = tmp_path / "spec.json"
    code, _, _ = run(
        ["spectrum", "--q", "2", "--l", "2", "--m", "2", "--t", "1",
         "--format", "json", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["match"] is True


@pytest.mark.parametrize("argv", [
    ["rank1max", "--q", "2", "--l", "2", "--m", "2", "--r", "3"],
    ["genmat", "--q", "2", "--l", "2", "--m", "2", "--t", "1"],
])
def test_out_into_a_missing_directory_is_a_parameter_error(argv, tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = run(argv + ["--out", str(target)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("parameter error: cannot write --out") and err.count("\n") == 1
    assert not target.parent.exists()


def test_console_entry_point():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import detcodes

    # the child must import the package under test, installed or not
    src = str(Path(detcodes.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "detcodes", "count",
         "--q", "2", "--l", "2", "--m", "3", "--t", "1"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert out.returncode == 0
    assert "n_hat = 21" in out.stdout
