"""The benchmark's workloads: fixed job lists with a reference check per job.

Every job is what a user waits for: a CLI command run through
``detcodes.cli.dispatch``, or the documented library call where the CLI
would refuse the size under its own brute-force cost cap.  ``run`` does
the work that is timed; ``check`` compares its output with a reference
and returns an error message, or None when the output is right.  Checks
run outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from typing import Callable

from detcodes import cli, counting, detcode, formulas, gf, rank1


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def _cli_job(argv: list[str], marker: Callable[[str], bool], what: str) -> Job:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.dispatch(argv)
        return code, out.getvalue(), err.getvalue()

    def check(result):
        code, out, err = result
        if code != 0:
            return f"exit code {code}: {err.strip()[-200:]}"
        if not any(marker(line) for line in out.splitlines()):
            return f"no {what} line in the output"
        return None

    return Job(" ".join(argv), run, check)


def _spectrum(q: int, l: int, m: int, t: int, mode: str) -> Job:
    argv = ["spectrum", "--path", "both", "--q", str(q), "--l", str(l),
            "--m", str(m), "--t", str(t), "--mode", mode]
    return _cli_job(argv, lambda line: line.strip() == "MATCH", "MATCH")


def _verify(q: int, l: int, m: int, t: int) -> Job:
    argv = ["verify", "--q", str(q), "--l", str(l), "--m", str(m), "--t", str(t)]
    return _cli_job(argv, lambda line: line.startswith("OK:"), "OK:")


def _brute_ghw(q: int, l: int, m: int, r: int, expected: int) -> Job:
    """Projective t=1 GHW; ``expected`` is the seed's value, and it must lie
    within ``formulas.ghw_t1`` (the exact value, or its bounds)."""

    def run():
        return detcode.brute_ghw(gf.parse_q(str(q)), l, m, 1, "projective", r)

    def check(value):
        ref = formulas.ghw_t1(l, m, r, q)
        if not ref.contains(value):
            return f"d_{r} = {value} outside the closed form {ref}"
        if value != expected:
            return f"d_{r} = {value}, expected {expected}"
        return None

    return Job(f"brute_ghw q={q} {l}x{m} r={r}", run, check)


def _rank1_max(q: int, l: int, m: int, r: int, expected: int) -> Job:
    def run():
        return rank1.max_rank1_exhaustive(gf.parse_q(str(q)), l, m, r)

    def check(result):
        best, witness = result
        bound = counting.rank1_bound(r, l, m, q).max_rank1
        if best != expected or best > bound:
            return f"max rank-1 count {best}, expected {expected} (bound {bound})"
        recount = rank1.count_rank1(gf.parse_q(str(q)), witness, l, m)
        if recount != best:
            return f"witness has {recount} rank-1 elements, reported {best}"
        return None

    return Job(f"max_rank1_exhaustive q={q} {l}x{m} r={r}", run, check)


def _q2_verify_sizes():
    """Every q=2 size with l <= m and l*m <= 9, at every t."""
    for l in range(1, 4):
        for m in range(l, 9 // l + 1):
            for t in range(1, l + 1):
                yield l, m, t


# Why each workload exists, and which layers it stresses, is written out
# in README.md next to this file.
WORKLOADS: dict[str, Callable[[], list[Job]]] = {
    "spectrum_fullspace": lambda: [
        _spectrum(4, 3, 3, 1, "projective"),
        _spectrum(5, 3, 3, 1, "projective"),
        _spectrum(3, 3, 4, 2, "projective"),
        _spectrum(2, 4, 5, 1, "projective"),
        _spectrum(9, 2, 3, 1, "affine"),
    ],
    "subspace_search": lambda: [
        _brute_ghw(2, 2, 4, 5, expected=38),
        _brute_ghw(3, 2, 3, 4, expected=48),
        _brute_ghw(2, 2, 4, 6, expected=42),
        _rank1_max(2, 2, 4, 5, expected=17),
        _rank1_max(3, 2, 3, 4, expected=32),
    ],
    "verify_grid": lambda: [
        *(_verify(2, l, m, t) for l, m, t in _q2_verify_sizes()),
        _verify(3, 3, 3, 2),
        _verify(4, 2, 2, 1),
        _verify(4, 2, 2, 2),
        _verify(5, 2, 3, 1),
    ],
}

# Per-pass counts the traced run saw at the commit that introduced this
# benchmark.  They confirm the tracer catches every alias of the wrapped
# kernels on that code; later changes to the enumeration may move them.
SEED_COUNTS = {
    # every job ranks its whole matrix space once
    "spectrum_fullspace": {"kernels.rank_batch.matrices": 4**9 + 5**9 + 3**12 + 2**20 + 9**6},
    # every search visits all [l*m, r]_q subspaces
    "subspace_search": {
        "matq.subspace_batches.subspaces": sum(
            k * counting.gaussian_binomial(n, r, q)
            for k, n, r, q in ((2, 8, 5, 2), (2, 6, 4, 3), (1, 8, 6, 2))
        )
    },
}
