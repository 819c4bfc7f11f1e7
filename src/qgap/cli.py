"""Command-line frontend.

Subcommands: expand, c0, survey, gap, theta, minima, verify.  Human-readable
output by default, machine output (JSON / JSON-lines) with --json.  Exit
codes: 0 when no verdict fails (``Verdict.fails``: FAIL, ZERO_CONSTANT_TERM
and ERROR do; EXPERIMENTAL, RECORDED and the rest never fail a run), 1 when
one does, 2 on bad input or usage, 3 on an internal defect (a one-line
``internal error:`` message on stderr, never a traceback), 141 when the
reader closes stdout early (128 + SIGPIPE; nothing on stderr).

``verify --json`` prints two kinds of row.  A check row has exactly the
keys check, predicted, observed and verdict, exact values as text, and the
closing suite line reads FAIL exactly when some check row fails.  A summary
row keeps keys of its own: the ``rules`` summary, the counts of each
``sec33`` table, and the suite line.  The check rows, as ``check``:
predicted / observed:

- identities, the identity: ``equal`` / ``equal`` or ``differ``;
- satz, ``vanishing level{l} h={h} basis[{d}]``: ``0`` / c0[f_d * T];
  ``sign c0[T2({h})]``: ``+`` or ``-`` / c0[T2(h)];
  ``c0[T2({h})] nonzero (h=2 mod 4)``, EXPERIMENTAL: ``nonzero`` / c0[T2(h)];
- theorems4, ``{theorem} {instance}``: the order or residue of c0 the
  theorem states / the one read;
- rules, ``{expr} {rule}`` for each failing clause of the first 20 failing
  forms: the clause's predicted / observed text;
- sec33, ``{table} n={n} p={p}`` for the first 20 failing rows per table:
  the predicted / delta_{p,n} (delta), ord_p(c_n[Delta]) / ord_p(c_n[1/j])
  (reciprocal), Lehner's bound / ord_p(c_n[j]) (lehner).
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
from functools import partial
from typing import Callable, NamedTuple

from qgap import congruence, siegel
from qgap.congruence import desk_rules_config, full_rules_config, render_summary, render_table, run_survey
from qgap.exprs import ParseError
from qgap.forms import constant_term, eval_expr, identity_checks
from qgap.quadratic import load_gram, theta, verify_theorem51
from qgap.series import ReachError
from qgap.verdict import Verdict

__all__ = ["main"]


@contextlib.contextmanager
def _full_digits():
    """Print exact values of any size: CPython's cap on int-to-text digits
    (4,300 by default) is lifted while ``main`` prints a command's result,
    after it has read its inputs, which keep the cap; the cap is restored."""
    if not hasattr(sys, "set_int_max_str_digits"):  # before 3.10.7
        yield
        return
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(cap)


def _report(args, verdicts, lines, rows) -> int:
    """Print ``rows`` as JSON lines under --json, else the text ``lines``
    (either may be lazy); the exit code is 1 when some verdict fails, else 0."""
    if args.json:
        lines = map(json.dumps, rows)
    for line in lines:
        print(line)
    return 1 if any(v.fails for v in verdicts) else 0


# Each _cmd_* returns (verdicts, lines, rows) for ``_report``; values past
# the digit cap (expand, c0, survey) render lazily, when ``main`` prints them.

def _cmd_expand(args):
    series = eval_expr(args.expr, args.prec)
    coeffs = series.coefficients(args.prec)
    return ([], (f"val {series.valuation}: [{', '.join(map(str, c))}]" for c in [coeffs]),
            ({"expr": args.expr, "valuation": series.valuation,
              "coefficients": [*map(str, c)]} for c in [coeffs]))


def _cmd_c0(args):
    c0 = constant_term(args.expr)
    return [], [c0], ({"expr": args.expr, "c0": str(c)} for c in [c0])


def _cmd_survey(args):
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.config}:{exc.lineno}: {exc.msg}") from None
    report = run_survey(config)
    # a full survey has about 91k records
    rows = itertools.chain((rec.to_dict() for rec in report.records), [{
        "summary": report.summary, "config": config.get("name"),
        "timestamp": report.timestamp}])
    return report.summary["verdicts"], map(render_table, [report]), rows


def _cmd_gap(args):
    out = siegel.run_gap_suite(level=args.level, hmax=args.hmax,
                               combos=args.combos, seed=args.seed)
    records = out["records"]
    verdicts = [r.verdict for r in records]
    failed = sum(v.fails for v in verdicts)
    lines = []
    for rec in records:
        extra = ""
        if rec.conjectured_bound is not None:
            mark = "<=" if rec.within_conjectured else ">"
            extra = (f"  [experimental: first {mark} conjectured bound "
                     f"{rec.conjectured_bound}]")
        lines.append(f"{rec.form}: first={rec.first_nonzero_index} "
                     f"bound={rec.bound} {rec.verdict}{extra}")
    lines.append(f"seed={out['seed']} total={len(records)} failed={failed}")
    rows = [rec.to_dict() for rec in records]
    rows.append({"level": out["level"], "hmax": out["hmax"], "seed": out["seed"],
                 "total": len(records), "failed": failed})
    return verdicts, lines, rows


def _cmd_theta(args):
    gram = load_gram(args.gram, max_rank=args.max_rank)
    counts = theta(gram, args.terms)
    return ([], [f"{n}\t{c}" for n, c in enumerate(counts)],
            [{"gram": str(args.gram), "rank": gram.rank, "counts": counts}])


def _cmd_minima(args):
    rec = verify_theorem51(load_gram(args.gram, max_rank=args.max_rank))
    bound = "n/a" if rec["bound"] is None else rec["bound"]
    return [rec["verdict"]], [f"min={rec['min']} bound={bound} {rec['verdict']}"], [rec]


def _check(check: str, predicted, observed, verdict: Verdict) -> dict:
    """The one verify check row, exact values as text.  Each _suite_* returns
    (rows, lines): these rows and any summary rows, which have keys of their own."""
    return dict(check=check, predicted=str(predicted), observed=str(observed), verdict=verdict)


def _suite_identities():
    rows = [_check(name, "equal", "equal" if ok else "differ", Verdict.PASS if ok else Verdict.FAIL)
            for name, ok in identity_checks(200)]
    return rows, [f"identity {r['check']}: {r['verdict']}" for r in rows]


def _suite_satz():
    out = siegel.run_satz_suite()
    vanishing = [_check(f"vanishing {r['form']}", 0, r["c0"], r["verdict"])
                 for r in out["vanishing"]]
    signs = [_check(f"sign c0[T2({r['weight']})]", r["expected_sign"], r["c0"], r["verdict"])
             for r in out["signs"]]
    experimental = [_check(f"c0[T2({r['weight']})] nonzero (h=2 mod 4)", "nonzero", r["c0"],
                           r["verdict"]) for r in out["experimental"]]
    lines = [f"{kind} checks: {sum(r['verdict'] == Verdict.PASS for r in rows)}/{len(rows)} pass"
             for kind, rows in (("vanishing", vanishing), ("sign", signs))]
    lines.append(f"experimental nonvanishing records (h=2 mod 4): {len(experimental)}")
    return vanishing + signs + experimental, lines


def _suite_theorems4():
    rows = [_check(f"{r['theorem']} {r['instance']}", r["predicted"], r["observed"], r["verdict"])
            for r in siegel.theorem4_checks()]
    return rows, [f"{r['check']}: {r['verdict']}" for r in rows]


def _suite_rules(rules_config):
    config = rules_config()
    report = run_survey(config)
    rows, lines = [{"summary": report.summary, "config": config["name"]}], [render_summary(report)]
    for rec in report.failed[:20]:
        lines.append(f"{rec.verdict}: {rec.expr} " + "; ".join(
            f"{c.rule} {c.predicted} {c.observed} {c.verdict}" for c in rec.checks))
        rows += [_check(f"{rec.expr} {c.rule}", c.predicted, c.observed, c.verdict)
                 for c in rec.checks if c.verdict.fails]
    return rows, lines


def _suite_sec33(n_delta: int, n_recip: int):
    tables = [(f"delta_{p}n", n_delta, congruence.delta_pn_compare(p, n_delta),
               "predicted", "delta_pn") for p in (2, 3, 5)]
    tables += [("reciprocal", n_recip, congruence.reciprocal_compare(n_recip), "ord_delta",
                "ord_inv_j"), ("lehner", n_recip, congruence.lehner_check(n_recip), "required", "ord")]
    summaries, checks, lines = [], [], []
    for name, n_max, rows, predicted_key, observed_key in tables:
        failed = [r for r in rows if r["verdict"].fails]
        exceptions = [r["n"] for r in rows if r["verdict"] == Verdict.EXCEPTION]
        summaries.append({"table": name, "n_max": n_max, "rows": len(rows), "failed": len(failed)}
                         | ({"exceptions": exceptions} if name.startswith("delta_") else {}))
        lines.append(f"{name} (n<={n_max}): {len(rows)} rows, {len(failed)} failed"
                     + (f", exceptions at {exceptions}" if exceptions else ""))
        checks += [_check(f"{name} n={r['n']} p={r['p']}", r[predicted_key], r[observed_key],
                          r["verdict"]) for r in failed[:20]]
    return summaries + checks, lines


class _Suite(NamedTuple):
    """A verify suite: its desk run and its paper-scale run."""

    desk: Callable
    full: Callable | None = None


_SUITES = {
    "identities": _Suite(_suite_identities),
    "satz": _Suite(_suite_satz),
    "theorems4": _Suite(_suite_theorems4),
    "rules": _Suite(partial(_suite_rules, desk_rules_config),
                    partial(_suite_rules, full_rules_config)),
    "sec33": _Suite(partial(_suite_sec33, 512, 512), partial(_suite_sec33, 2470, 4096)),
}


def _cmd_verify(args):
    suite = _SUITES[args.suite]
    if args.full and not suite.full:
        takers = ", ".join(n for n, s in _SUITES.items() if s.full)
        raise ValueError(f"suite {args.suite} takes no --full; --full is for {takers} only")
    if args.full:
        print("warning: --full runs paper-scale ranges; expect a long run", file=sys.stderr)
    rows, lines = (suite.full if args.full else suite.desk)()
    verdict = Verdict.FAIL if any(r["verdict"].fails for r in rows if "check" in r) else Verdict.PASS
    return ([verdict], [*lines, f"suite {args.suite}: {verdict}"],
            [*rows, {"suite": args.suite, "verdict": verdict}])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgap",
        description="Exact q-expansions, constant-term congruence surveys, "
                    "gap checks, and lattice theta series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    gram = argparse.ArgumentParser(add_help=False)
    gram.add_argument("gram")
    gram.add_argument("--max-rank", type=int, default=16,
                      help="largest rank read from the Gram file")

    p = sub.add_parser("expand", help="print the expansion of an expression")
    p.add_argument("expr")
    p.add_argument("--prec", type=int, default=10,
                   help="number of coefficients from the valuation")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("c0", help="print the exact constant term")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_c0)

    p = sub.add_parser("survey", help="run a survey config (JSON)")
    p.add_argument("config")
    p.add_argument("--json", action="store_true",
                   help="JSON-lines records instead of a table")
    p.set_defaults(func=_cmd_survey)

    p = sub.add_parser("gap", help="gap bounds over bases plus random combinations")
    p.add_argument("--level", type=int, choices=(1, 2), default=2)
    p.add_argument("--hmax", type=int, default=40)
    p.add_argument("--combos", type=int, default=20)
    p.add_argument("--seed", type=int, default=siegel.DEFAULT_SEED)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("theta", parents=[gram], help="theta series of a Gram matrix file")
    p.add_argument("--terms", type=int, default=10)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("minima", parents=[gram],
                       help="minimum represented value and its bound")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_minima)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=sorted(_SUITES), required=True)
    p.add_argument("--full", action="store_true",
                   help="paper-scale ranges instead of desk defaults ("
                        f"{', '.join(n for n, s in _SUITES.items() if s.full)} only)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        verdicts, lines, rows = args.func(args)
        with _full_digits():
            code = _report(args, verdicts, lines, rows)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader closed stdout: stop as SIGPIPE would, silently
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the exit flush
        return 141
    except (ParseError, ReachError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # DefectError or any other internal fault
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
