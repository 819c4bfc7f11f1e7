import functools
import importlib
import pkgutil

import qgap
from qgap import memo
from qgap.arith import bernoulli
from qgap.congruence import (delta_pn_compare, desk_rules_config, lehner_check,
                             reciprocal_compare, run_survey)
from qgap.forms import t_series

MEMOS = ["qgap.arith._signed_bernoulli", "qgap.congruence._SHARED_CHECKS",
         "qgap.congruence._residues", "qgap.congruence._rule_checks", "qgap.forms._largest",
         "qgap.forms.factor_power", "qgap.forms.g4_cubed", "qgap.forms.generator_series"]


def _size(m) -> int:
    return len(m) if isinstance(m, dict) else m.cache_info().currsize


def _run():
    """A desk survey, the section 3.3 tables to n = 64, B_20 and one pairing
    series: together they fill every memo."""
    records = [r.to_dict() for r in run_survey(desk_rules_config()).records]
    rows = [delta_pn_compare(p, 64) for p in (2, 3, 5)]
    rows += [reciprocal_compare(64), lehner_check(64)]
    return records, rows, bernoulli(20), t_series(2, 12, 4).coefficients()


def test_clear_empties_every_memo_and_a_cold_run_equals_a_warm_one():
    warm = _run()
    assert sorted(memo._MEMOS) == MEMOS
    assert all(_size(m) > 0 for m in memo._MEMOS.values())
    memo.clear()
    assert {name: _size(m) for name, m in memo._MEMOS.items()} == dict.fromkeys(MEMOS, 0)
    assert _run() == warm


def test_every_lru_memo_of_the_package_is_registered():
    registered = {id(m) for m in memo._MEMOS.values()}
    for info in pkgutil.iter_modules(qgap.__path__, "qgap."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if isinstance(value, functools._lru_cache_wrapper):
                assert id(value) in registered, f"{info.name}.{name} is not registered"
