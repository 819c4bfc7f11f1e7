"""Spans around the calls into each qgap layer, recorded from outside qgap.

``Tracer.install()`` replaces each traced function by a timing wrapper in
every qgap module namespace that holds it, and the ``QSeries`` methods on
the class, so calls that go through a module global (the recursion in
``generator_series``, ``congruence.eval_expr``, ``siegel.eval_expr``) are
caught as well.  Spans stay in memory as flat arrays and are written out by
``write()`` when the pass ends; ``summarize()`` reads such a file back and
derives the per-layer metrics.

A span's self time is its duration minus the intervals its child spans
cover, where a child's interval includes the tracer's own bookkeeping
around it, so no layer is charged for tracing.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from fractions import Fraction

#: span name -> the functions it covers, as "module:attribute" (a dotted
#: attribute is a method of a class in that module).
TARGETS = {
    "series.mul": ["qgap.series:QSeries.__mul__"],
    "series.invert": ["qgap.series:QSeries.invert"],
    "series.pow": ["qgap.series:QSeries.__pow__"],
    "series.root": ["qgap.series:QSeries.root"],
    "series.product_expand": ["qgap.series:product_expand"],
    "forms.generator_series": ["qgap.forms:generator_series"],
    "forms.factor_power": ["qgap.forms:factor_power"],
    "forms.eval_expr": ["qgap.forms:eval_expr"],
    "forms.basis": ["qgap.forms:basis_m1", "qgap.forms:basis_m2"],
    "forms.t_series": ["qgap.forms:t_series"],
    "arith.ord_p": ["qgap.arith:ord_p"],
    "arith.sigma": ["qgap.arith:sigma"],
    "exprs.parse_expr": ["qgap.exprs:parse_expr"],
    "congruence.classify_expr": ["qgap.congruence:classify_expr"],
    "congruence.run_survey": ["qgap.congruence:run_survey"],
    "congruence.tables": [
        "qgap.congruence:delta_pn_compare",
        "qgap.congruence:reciprocal_compare",
        "qgap.congruence:lehner_check",
    ],
    "siegel.satz1_check": ["qgap.siegel:satz1_check"],
    "siegel.gap_check": ["qgap.siegel:gap_check"],
    "siegel.theorem4_checks": ["qgap.siegel:theorem4_checks"],
    "siegel.constant_term_t2": ["qgap.siegel:constant_term_t2"],
    "quadratic.theta": ["qgap.quadratic:theta"],
    "quadratic.validate": ["qgap.quadratic:validate"],
    "quadratic.level": ["qgap.quadratic:level"],
    "quadratic.min_represented": ["qgap.quadratic:min_represented"],
}

#: the lru_cache'd functions whose cache_info() the summary reads.
CACHES = {
    "forms.generator_series": "qgap.forms:generator_series",
    "forms.factor_power": "qgap.forms:factor_power",
}


def _resolve(spec: str):
    module, _, attr = spec.partition(":")
    obj = sys.modules[module]
    owner = None
    for part in attr.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, obj


def _coeff_stats(series_or_scalar):
    """(coefficient count, bits, Fraction count) of an operand."""
    if isinstance(series_or_scalar, (int, Fraction)):
        coeffs = [series_or_scalar]
    else:
        coeffs = series_or_scalar.coefficients()
    bits = fractions = 0
    for c in coeffs:
        if isinstance(c, Fraction):
            bits += c.numerator.bit_length() + c.denominator.bit_length()
            fractions += 1
        else:
            bits += c.bit_length()
    return len(coeffs), bits, fractions


def _schoolbook_products(la: int, lb: int, n_out: int) -> int:
    """Coefficient products of the truncated convolution: sum over
    i < min(la, n_out) of min(lb, n_out - i)."""
    m = min(la, n_out)
    if m <= 0 or lb <= 0:
        return 0
    k = max(0, min(m, n_out - lb + 1))  # rows that use all lb terms
    return k * lb + (m - k) * n_out - (m - 1 + k) * (m - k) // 2


def _note_mul(counters, args, kwargs, result):
    a, b = args
    la, bits_a, frac_a = _coeff_stats(a)
    lb, bits_b, frac_b = _coeff_stats(b)
    if isinstance(b, (int, Fraction)):
        products = la
    else:
        n_out = min(a.reach + b.valuation, b.reach + a.valuation) - (a.valuation + b.valuation)
        products = _schoolbook_products(la, lb, n_out)
    counters["series.mul.coeff_products"] += products
    counters["series.mul.operand_bits"] += bits_a + bits_b
    counters["series.mul.operand_coeffs"] += la + lb
    counters["series.mul.fraction_coeffs"] += frac_a + frac_b


def _note_eval_expr(counters, args, kwargs, result):
    prec = kwargs["prec"] if "prec" in kwargs else args[1]
    counters["forms.eval_expr.prec"] += prec
    counters["forms.eval_expr.window"] += result.window


def _note_theta(counters, args, kwargs, result):
    counters["quadratic.theta.points"] += sum(result)


NOTES = {
    "series.mul": _note_mul,
    "forms.eval_expr": _note_eval_expr,
    "quadratic.theta": _note_theta,
}


class Tracer:
    """Records one span per traced call: name, start, end, parent, and the
    tracer's own time around the call.  All spans share one pass id."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.names = list(TARGETS)
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.overhead = array("d")
        self.counters = dict.fromkeys((
            "series.mul.coeff_products", "series.mul.operand_bits",
            "series.mul.operand_coeffs", "series.mul.fraction_coeffs",
            "forms.eval_expr.prec", "forms.eval_expr.window",
            "quadratic.theta.points",
        ), 0)
        self._stack = [-1]
        self._caches = {}

    def _wrap(self, name_id: int, fn, note):
        clock = time.perf_counter
        stack, counters = self._stack, self.counters
        names, parents, starts, ends, overheads = (
            self.name_id, self.parent, self.start, self.end, self.overhead)

        def traced(*args, **kwargs):
            t0 = clock()
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            overheads.append(0.0)
            stack.append(idx)
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = clock()
                stack.pop()
                starts[idx] = t1
                ends[idx] = t2
            if note is not None:
                note(counters, args, kwargs, result)
            overheads[idx] = (t1 - t0) + (clock() - t2)
            return result

        return traced

    def install(self):
        """Wrap every target wherever qgap holds it.  Call once qgap and
        its submodules are imported."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qgap" or n.startswith("qgap."))]
        originals = {}
        for name_id, span in enumerate(self.names):
            for spec in TARGETS[span]:
                owner, original = _resolve(spec)
                originals[spec] = original
                wrapper = self._wrap(name_id, original, NOTES.get(span))
                holders = modules if isinstance(owner, type(sys)) else [owner]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
        self._caches = {span: originals[spec] for span, spec in CACHES.items()}

    def write(self, path, header: dict):
        """Spans as one JSON header line followed by the raw arrays."""
        info = {span: fn.cache_info()._asdict() for span, fn in self._caches.items()}
        head = dict(header, pass_id=self.pass_id, names=self.names,
                    count=len(self.start), counters=self.counters, caches=info)
        with open(path, "wb") as fh:
            fh.write(json.dumps(head).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end, self.overhead):
                arr.tofile(fh)


def read_spans(path):
    """(header, name, parent, start, end, overhead) from a file ``write``
    produced."""
    with open(path, "rb") as fh:
        head = json.loads(fh.readline())
        n = head["count"]
        arrays = []
        for code in "iiddd":
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (head, *arrays)


def summarize(path) -> dict:
    """Per-layer metrics of one traced pass, from its span file."""
    head, name, parent, start, end, overhead = read_spans(path)
    names = head["names"]
    n = head["count"]
    covered = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            covered[p] += end[i] - start[i] + overhead[i]
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    for i in range(n):
        key = names[name[i]]
        calls[key] += 1
        self_s[key] += end[i] - start[i] - covered[i]

    out = {}
    for key in names:
        out[f"{key}.calls"] = calls[key]
        out[f"{key}.self_s"] = self_s[key]
    c = head["counters"]
    out["series.mul.coeff_products"] = c["series.mul.coeff_products"]
    out["series.mul.operand_kbits"] = c["series.mul.operand_bits"] / 1000
    out["series.mul.fraction_share"] = _ratio(c["series.mul.fraction_coeffs"],
                                              c["series.mul.operand_coeffs"])
    entries = 0
    for key, info in head["caches"].items():
        out[f"{key}.hit_ratio"] = _ratio(info["hits"], info["hits"] + info["misses"])
        out[f"{key}.misses"] = info["misses"]
        entries += info["currsize"]
    out["forms.cache_entries"] = entries
    out["forms.eval_expr.useful_ratio"] = _ratio(c["forms.eval_expr.prec"],
                                                 c["forms.eval_expr.window"])
    out["quadratic.theta.points"] = c["quadratic.theta.points"]
    out["quadratic.theta.points_per_s"] = _ratio(c["quadratic.theta.points"],
                                                 self_s["quadratic.theta"])
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
