"""Batch command line for constructing the codes, tabulating spectra and
higher-weight hierarchies, counting, extremal rank-1 searches, and
running the closed-form-vs-brute-force verification battery.

Counts are serialized as decimal strings in JSON so arbitrary precision
survives any consumer.  Exit codes: 0 ok, 1 verification failure,
2 parameter error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import counting, detcode, formulas, matq, rank1
from .errors import BadParameters, BudgetExceeded, DetcodeError
from .gf import parse_q

# Subspaces x span size before brute is skipped.  It prices the full
# primal search, [l*m, r]_q subspaces of q^r elements, on purpose:
# brute_ghw reads only the spaces that contain some E_j, from the
# cheaper of the subcode and section sides, and pricing that would run
# more checks on the benchmark's verify grid and change what that
# workload measures.
BRUTE_GHW_COST_CAP = 2_000_000


def _write(args, text: str) -> None:
    """Write text to ``--out`` if given, else to stdout."""
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise BadParameters(f"cannot write --out {args.out}: {exc.strerror}") from None


def _emit(args, payload: dict, table_lines: list[str]) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2)
    else:
        text = "\n".join(table_lines)
    _write(args, text + "\n")


def _length(field, l, m, t, mode) -> int:
    """Code length n (affine) or n_hat (projective), from the closed form."""
    return counting.lengths(l, m, t, field.q)[0 if mode == "affine" else 1]


def _spectrum_payload(field, l, m, t, mode, rep: detcode.SpectrumReport) -> dict:
    return {
        "q": field.q,
        "l": l,
        "m": m,
        "t": t,
        "mode": mode,
        "length": _length(field, l, m, t, mode),
        "dimension": l * m,
        "spectrum": [{"w": w, "count": str(c)} for w, c in rep.pairs],
    }


def cmd_spectrum(args) -> int:
    field = parse_q(args.q)
    l, m, t, mode = args.l, args.m, args.t, args.mode
    reports = {}
    if args.path in ("closed", "both"):
        reports["closed"] = formulas.closed_weight_enumerator(t, l, m, field.q, mode)
    if args.path in ("brute", "both"):
        reports["brute"] = detcode.brute_weight_enumerator(field, l, m, t, mode)
    rep = reports.get("closed") or reports["brute"]
    lines = [f"# spectrum q={field.q} l={l} m={m} t={t} mode={mode}"]
    for name, r in reports.items():
        lines.append(f"[{name}] " + "  ".join(f"{w}:{c}" for w, c in r.pairs))
    payload = _spectrum_payload(field, l, m, t, mode, rep)
    payload["paths"] = sorted(reports)
    if len(reports) == 2:
        match = reports["closed"].pairs == reports["brute"].pairs
        lines.append("MATCH" if match else "MISMATCH")
        payload["match"] = match
        if not match:
            _emit(args, payload, lines)
            return 1
    _emit(args, payload, lines)
    return 0


def _parse_r_range(text: str, rmax: int) -> list[int]:
    if text is None:
        return list(range(1, rmax + 1))
    lo, sep, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise BadParameters(f"--r must be an integer or a range lo..hi, got {text!r}") from None
    if hi < lo:
        raise BadParameters(f"--r range {text!r} is empty")
    return list(range(lo, hi + 1))


def _brute_ghw_feasible(field, l, m, r) -> bool:
    nsub = counting.gaussian_binomial(l * m, r, field.q)
    return nsub * field.q**r <= BRUTE_GHW_COST_CAP


def cmd_ghw(args) -> int:
    field = parse_q(args.q)
    l, m, t, mode = args.l, args.m, args.t, args.mode
    if t != 1:
        print("closed-form higher weights are only available for t=1", file=sys.stderr)
        return 2
    rows, cells = [], [("r", "kind", "value", "source", "brute")]
    failed = False
    for r in _parse_r_range(args.r, l * m):
        res = formulas.ghw_t1(l, m, r, field.q)
        scale = 1 if mode == "projective" else field.q - 1
        brute_val = None
        if not args.no_brute and _brute_ghw_feasible(field, l, m, r):
            brute_val = detcode.brute_ghw(field, l, m, t, mode, r)
        row = {"r": r, "kind": res.kind, "source": ",".join(res.sources)}
        if res.kind == "exact":
            row["value"] = str(res.value * scale)
            shown = row["value"]
        else:
            row["lower"] = str(res.lower * scale)
            row["upper"] = str(res.upper * scale)
            shown = f"[{row['lower']}, {row['upper']}]"
        confirmed = None
        if brute_val is not None:
            confirmed = res.lower * scale <= brute_val <= res.upper * scale
            failed = failed or not confirmed
        row["brute_confirmed"] = confirmed
        rows.append(row)
        mark = {None: "-", True: "yes", False: "NO"}[confirmed]
        cells.append((r, res.kind, shown, row["source"], mark))
    width = max(len(cell[3]) for cell in cells)  # the longest source
    lines = [f"# ghw q={field.q} l={l} m={m} t={t} mode={mode}"] + [
        f"{r:>3} {kind:>6} {shown:>16} {source:<{width}} {mark}"
        for r, kind, shown, source, mark in cells]
    payload = {
        "q": field.q, "l": l, "m": m, "t": t, "mode": mode,
        "length": _length(field, l, m, t, mode),
        "dimension": l * m,
        "ghw": rows,
    }
    _emit(args, payload, lines)
    return 1 if failed else 0


def cmd_count(args) -> int:
    field = parse_q(args.q)
    l, m, t = args.l, args.m, args.t
    n, n_hat = counting.lengths(l, m, t, field.q)
    mus = {r: counting.mu(l, m, r, field.q) for r in range(l + 1)}
    lines = [
        f"# count q={field.q} l={l} m={m} t={t}",
        f"n_hat = {n_hat}",
        f"n     = {n}",
        f"k     = {l * m}",
    ] + [f"mu_{r} = {v}" for r, v in mus.items()]
    payload = {
        "q": field.q, "l": l, "m": m, "t": t,
        "length_affine": str(n), "length_projective": str(n_hat),
        "dimension": l * m,
        "mu": {str(r): str(v) for r, v in mus.items()},
    }
    _emit(args, payload, lines)
    return 0


def cmd_genmat(args) -> int:
    field = parse_q(args.q)
    dom = detcode.make_domain(field, args.l, args.m, args.t, args.mode)
    _write(args, detcode.export_generator(dom))
    return 0


def cmd_rank1max(args) -> int:
    field = parse_q(args.q)
    l, m, r = args.l, args.m, args.r
    best, witness = rank1.max_rank1_exhaustive(field, l, m, r)
    bound = counting.rank1_bound(r, l, m, field.q)
    lines = [
        f"# rank1max q={field.q} l={l} m={m} r={r}",
        f"max rank-1 count = {best}",
        f"bound            = {bound.max_rank1}"
        + (" (coset bound)" if bound.from_coset_argument else " (q^r - 1)"),
        "witness basis (rows, flattened forms):",
        matq.format_matrix(witness),
    ]
    payload = {
        "q": field.q, "l": l, "m": m, "r": r,
        "max_rank1": str(best),
        "bound": str(bound.max_rank1),
        "bound_is_coset_argument": bound.from_coset_argument,
        "witness": [[int(x) for x in row] for row in witness],
    }
    _emit(args, payload, lines)
    return 0


# -- the verification battery --


def _verify_checks(field, l, m, t):
    """(checks run, checks skipped with their reason)."""
    q = field.q
    over_cap = f"brute-force cost over the cap of {BRUTE_GHW_COST_CAP}"

    def check(name, ok, detail=""):
        return {"name": name, "ok": bool(ok), "detail": detail}

    def skip(name, reason):
        skipped.append({"name": name, "reason": reason})

    out = []
    skipped = []
    n, n_hat = counting.lengths(l, m, t, q)
    rank_counts, direct = detcode.rank_trace_counts(field, l, m, l, "affine")
    proj_dom = detcode.make_domain(field, l, m, t, "projective")
    out.append(check("closed-form lengths n, n_hat vs enumeration",
                     n == rank_counts[: t + 1].sum() and n_hat == len(proj_dom)))
    out.append(
        check("closed-form rank-class counts mu sum to q^(l*m)",
              sum(counting.mu(l, m, r, q) for r in range(l + 1)) == q ** (l * m))
    )
    out.append(
        check("rank-class counts mu vs enumeration",
              all(counting.mu(l, m, r, q) == rank_counts[r] for r in range(l + 1)))
    )

    # The affine weights are rows j <= t of the affine counts above, and the
    # projective ones are counted over the projective points, so the
    # transfer check below compares two enumerations.  Both spectra take
    # their forms per rank from the projective count: the mu check alone
    # reads the affine one's, so a wrong rank count fails that check alone.
    proj_ranks, proj_traces = detcode.rank_trace_counts(field, l, m, t, "projective")
    spectra = {"projective": detcode.weight_spectrum("projective", proj_ranks, proj_traces),
               "affine": detcode.weight_spectrum("affine", proj_ranks, direct[: t + 1])}
    for mode, brute in spectra.items():
        closed = formulas.closed_weight_enumerator(t, l, m, q, mode)
        out.append(check(f"closed vs brute spectrum ({mode})", closed.pairs == brute.pairs,
                         f"closed={dict(closed.pairs)} brute={dict(brute.pairs)}"))
        name = f"rank-grouped vs naive enumerator ({mode})"
        try:
            naive = detcode.naive_weight_enumerator(field, l, m, t, mode)
        except BudgetExceeded as exc:
            skip(name, str(exc))
        else:
            out.append(check(name, naive.pairs == brute.pairs))

    aff, proj = spectra["affine"].as_dict(), spectra["projective"].as_dict()
    ok_transfer = all(aff.get(i * (q - 1), 0) == c for i, c in proj.items()) and all(
        j % (q - 1) == 0 for j in aff if j
    )
    out.append(check("spectrum transfer A_{i(q-1)} = A_hat_i", ok_transfer))

    # alternating-sum count vs direct enumeration, all (t, r) cells
    ok_dels = all(formulas.delsarte_N(tt, r, l, m, q) == direct[tt, r]
                  for tt in range(l + 1) for r in range(l + 1))
    out.append(check("alternating-sum rank counts vs enumeration", ok_dels))

    gen = detcode.generator_matrix(proj_dom)
    # rank is unchanged by transposition, and gen.T has only l*m columns
    out.append(check("generator rank = l*m and no zero column",
                     matq.rank(field, gen.T) == l * m and bool(gen.any(axis=0).all())))

    ghw_name = "higher weights: closed/bounds vs brute, affine transfer"
    witness_name = "witness subcodes attain the known values"
    if t != 1:
        skip(ghw_name, "closed-form higher weights are only available for t=1")
        skip(witness_name, "witness subcodes are only known for t=1")
    else:
        ran = False
        details = []
        for r in range(1, l * m + 1):
            res = formulas.ghw_t1(l, m, r, q)
            if not _brute_ghw_feasible(field, l, m, r):
                skip(f"{ghw_name} (r={r})", over_cap)
                continue
            ran = True
            try:
                bp = detcode.brute_ghw(field, l, m, 1, "projective", r)
                ba = detcode.brute_ghw(field, l, m, 1, "affine", r)
            except AssertionError as exc:  # a search crossed its proven bound
                details.append(f"r={r}: {exc}")
                continue
            if not res.contains(bp) or ba != (q - 1) * bp:
                details.append(f"r={r}: closed={res} brute={bp} affine={ba}")
        if ran:
            out.append(check(ghw_name, not details, "; ".join(details)))

        dom = detcode.make_domain(field, l, m, 1, "projective")
        ok_wit = True
        for r in range(1, l + m):
            sw = detcode.support_weight(dom, formulas.witness_subcode(l, m, r, q))
            res = formulas.ghw_t1(l, m, r, q)
            ok_wit &= sw == res.upper
        out.append(check(witness_name, ok_wit))

    for r in range(m + 1, l * m + 1):
        name = f"rank-1 extremal count within bound (r={r})"
        if not _brute_ghw_feasible(field, l, m, r):
            skip(name, over_cap)
            continue
        try:
            best, witness = rank1.max_rank1_exhaustive(field, l, m, r)
        except AssertionError as exc:  # a section crossed its proven ceiling
            out.append(check(name, False, str(exc)))
            continue
        bound = counting.rank1_bound(r, l, m, q)
        out.append(check(name,
                         best <= bound.max_rank1
                         and rank1.count_rank1(field, witness, l, m) == best,
                         f"max={best} bound={bound.max_rank1}"))
    return out, skipped


def cmd_verify(args) -> int:
    field = parse_q(args.q)
    checks, skipped = _verify_checks(field, args.l, args.m, args.t)
    lines = [f"# verify q={field.q} l={args.l} m={args.m} t={args.t}"]
    for c in checks:
        status = "PASS" if c["ok"] else "FAIL"
        lines.append(f"{status}  {c['name']}" + (f"  ({c['detail']})" if c["detail"] and not c["ok"] else ""))
    lines += [f"SKIP  {s['name']}  ({s['reason']})" for s in skipped]
    ok = all(c["ok"] for c in checks)
    lines.append(f"{'OK' if ok else 'FAILED'}: {sum(c['ok'] for c in checks)}/{len(checks)} checks passed, "
                 f"{len(skipped)} skipped")
    payload = {"q": field.q, "l": args.l, "m": args.m, "t": args.t, "checks": checks,
               "skipped": skipped}
    _emit(args, payload, lines)
    return 0 if ok else 1


_OPTIONS = {
    "q": dict(required=True, help="field size: p, p^e, or a prime power literal"),
    "l": dict(type=int, required=True),
    "m": dict(type=int, required=True),
    "t": dict(type=int, required=True),
    "mode": dict(choices=("affine", "projective"), default="projective"),
    "format": dict(choices=("table", "json"), default="table"),
    "out": dict(default=None),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="detcodes",
        description="Determinantal codes over GF(q): spectra, higher weights, verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, summary, flags):
        """A subcommand that declares only the options ``func`` reads."""
        p = sub.add_parser(name, help=summary)
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_OPTIONS[flag])
        p.set_defaults(func=func)
        return p

    p = command("spectrum", cmd_spectrum, "weight enumerator", "q l m t mode format out")
    p.add_argument("--path", choices=("closed", "brute", "both"), default="both")

    p = command("ghw", cmd_ghw, "generalized Hamming weight table", "q l m t mode format out")
    p.add_argument("--r", default=None, help="single r or an inclusive range like 1..6")
    p.add_argument("--no-brute", action="store_true", help="skip brute-force confirmation")

    command("count", cmd_count, "lengths, dimension, and rank-class counts", "q l m t format out")
    command("genmat", cmd_genmat, "export the generator matrix", "q l m t mode out")

    p = command("rank1max", cmd_rank1max, "exhaustive extremal rank-1 search", "q l m format out")
    p.add_argument("--r", type=int, required=True)

    command("verify", cmd_verify, "run the closed-form-vs-brute cross-check battery",
            "q l m t format out")
    return ap


def dispatch(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except DetcodeError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
