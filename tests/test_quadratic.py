import functools
import itertools
import time
import random
from fractions import Fraction
from math import lcm

import pytest
import theta_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from qgap.catalog import Generator, gap_bounds
from qgap.forms import generator_series
from qgap.quadratic import (
    D4,
    E8,
    GramMatrix,
    direct_sum,
    level,
    min_represented,
    parse_gram,
    theorem51_applies,
    theta,
    validate,
    verify_theorem51,
)
from qgap.series import DefectError, QSeries
from qgap.verdict import Verdict


def box_counts(gram: GramMatrix, n_max: int, radius: int) -> list[int]:
    """Independent oracle: enumerate the full coordinate box and bucket by
    value.  `radius` must be large enough to contain the ellipsoid; callers
    verify stability by checking radius and radius+1 agree."""
    a, counts = gram.entries, [0] * (n_max + 1)
    for x in itertools.product(range(-radius, radius + 1), repeat=gram.rank):
        v = sum(a[i][j] * xi * xj for i, xi in enumerate(x) for j, xj in enumerate(x))
        if v <= 2 * n_max:
            counts[v // 2] += 1
    return counts


def gauss_jordan(rows) -> tuple[Fraction, list[list[Fraction]]]:
    """Independent oracle: determinant and inverse by Fraction Gauss-Jordan
    elimination with row swaps."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    det = Fraction(1)
    for col in range(n):
        pivot_row = next(r for r in range(col, n) if m[r][col] != 0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return det, [row[n:] for row in m]


def oracle_level(rows) -> int:
    _, inv = gauss_jordan(rows)
    return lcm(*(x.denominator for row in inv for x in row),
               *((inv[i][i] / 2).denominator for i in range(len(rows))))


def leading_minors(rows) -> list[Fraction]:
    """Independent oracle: every leading minor by ``gauss_jordan``, 0 where
    the block is singular (no pivot to swap in)."""
    minors = []
    for k in range(1, len(rows) + 1):
        try:
            minors.append(gauss_jordan([row[:k] for row in rows[:k]])[0])
        except StopIteration:
            minors.append(Fraction(0))
    return minors


#: Gram matrices of the A2 and E6 root lattices (determinant 3, level 3).
A2 = ((2, -1), (-1, 2))
E6 = (
    (2, 0, -1, 0, 0, 0),
    (0, 2, 0, -1, 0, 0),
    (-1, 0, 2, -1, 0, 0),
    (0, -1, -1, 2, -1, 0),
    (0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, -1, 2),
)


def skewed(rows, below: int, above: int) -> list[list[int]]:
    """U^T A U for U = L R, with L unit lower triangular holding ``below``
    under the diagonal and R unit upper triangular holding ``above`` over
    it."""
    n = len(rows)
    u = [[sum((below if i > k else i == k) * (above if k < j else k == j)
              for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(u[k][i] * rows[k][l] * u[l][j] for k in range(n) for l in range(n))
             for j in range(n)] for i in range(n)]


def unimodular_change(rows, seed: int) -> list[list[int]]:
    """P^T A P for a seeded unimodular P: a signed permutation times a few
    elementary column operations with multipliers in -1..1."""
    rng = random.Random(seed)
    n = len(rows)
    perm = rng.sample(range(n), n)
    p = [[rng.choice((-1, 1)) if perm[j] == i else 0 for j in range(n)]
         for i in range(n)]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for r in range(n):
            p[r][j] += c * p[r][i]
    return [[sum(p[k][i] * rows[k][l] * p[l][j] for k in range(n) for l in range(n))
             for j in range(n)] for i in range(n)]


@st.composite
def symmetric_even(draw):
    """Symmetric integer matrices of rank 1..8 with even diagonal: mostly
    indefinite, some positive definite when the diagonal dominates."""
    v = draw(st.integers(1, 8))
    rows = [[0] * v for _ in range(v)]
    for i in range(v):
        rows[i][i] = 2 * draw(st.integers(-3, 12))
        for j in range(i + 1, v):
            rows[i][j] = rows[j][i] = draw(st.integers(-6, 6))
    return rows


@st.composite
def e8_sublattice_grams(draw):
    """B^T E8 B for an integer 8 x v matrix B, v = 1..8: even and positive
    semi-definite, singular exactly when the columns of B are dependent."""
    v = draw(st.integers(1, 8))
    b = draw(st.lists(st.lists(st.integers(-2, 2), min_size=v, max_size=v),
                      min_size=8, max_size=8))
    if v > 1 and draw(st.booleans()):
        # a column that is a multiple of another makes the matrix singular
        i = draw(st.integers(0, v - 1))
        j = (i + draw(st.integers(1, v - 1))) % v
        c = draw(st.sampled_from((-1, 2)))
        for row in b:
            row[j] = c * row[i]
    return [[sum(b[k][i] * E8[k][m] * b[m][j] for k in range(8) for m in range(8))
             for j in range(v)] for i in range(v)]


class TestValidation:
    def test_d4_valid(self):
        g = validate(D4)
        assert g.rank == 4
        assert g.det == 4

    def test_identity_rejected_odd_diagonal(self):
        with pytest.raises(ValueError, match="odd"):
            validate([[1, 0], [0, 1]])

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            validate([[2, 3], [3, 2]])

    def test_zero_leading_minor_rejected(self):
        with pytest.raises(ValueError, match="leading minor 2 is 0"):
            validate([[2, 2], [2, 2]])
        with pytest.raises(ValueError, match="leading minor 2 is 0"):
            validate([[2, 2, 0], [2, 2, 0], [0, 0, 2]])

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            validate([[2, 1], [0, 2]])

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            validate([[2.0, 0], [0, 2]])

    def test_e8_unimodular(self):
        assert validate(E8).det == 1

    def test_d4_leading_minors(self):
        # the pivots of the fraction-free elimination are the leading minors
        from qgap.quadratic import _eliminate

        minors, adj = _eliminate(validate(D4).entries)
        assert minors == leading_minors(D4) == [2, 3, 4, 4]
        assert adj == [[4 * x for x in row] for row in gauss_jordan(D4)[1]]

    def test_factors_once_per_matrix(self, monkeypatch):
        import qgap.quadratic

        calls = []
        real = qgap.quadratic._eliminate
        monkeypatch.setattr(qgap.quadratic, "_eliminate",
                            lambda rows: calls.append(rows) or real(rows))
        g = validate(D4)
        assert (g.det, level(g), min_represented(g)) == (4, 2, 2)
        assert theta(g, 2) == [1, 24, 24]
        assert verify_theorem51(g)["verdict"] is Verdict.PASS
        assert calls == [g.entries]

    def test_factors_stay_out_of_equality_and_repr(self):
        assert validate(D4) == validate(list(map(list, D4)))
        assert hash(validate(D4)) == hash(GramMatrix(D4))
        assert repr(validate(D4)) == f"GramMatrix(entries={D4!r})"

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.one_of(symmetric_even(), e8_sublattice_grams()))
    def test_against_the_leading_minors_oracle(self, rows):
        minors = leading_minors(rows)
        first = next((k for k, d in enumerate(minors, 1) if d <= 0), None)
        if first is not None:
            with pytest.raises(ValueError) as err:
                validate(rows)
            assert str(err.value) == (f"not positive definite: leading minor "
                                      f"{first} is {minors[first - 1]}")
            return
        g = validate(rows)
        assert (g.det, level(g)) == (gauss_jordan(rows)[0], oracle_level(rows))


class TestLevel:
    def test_d4(self):
        assert level(validate(D4)) == 2

    def test_e8(self):
        assert level(validate(E8)) == 1

    def test_direct_sum_lcm(self):
        d4 = validate(D4)
        e8 = validate(E8)
        assert level(direct_sum(d4, e8)) == 2
        assert level(direct_sum(d4, d4)) == 2

    def test_scaled_d4_level_4(self):
        scaled = validate([[2 * x for x in row] for row in D4])
        assert level(scaled) == 4

    def test_a1(self):
        assert level(validate([[2]])) == 4  # inverse 1/2; 1/4 on half-diagonal


class TestAgainstGaussJordan:
    FORMS = {
        "D4": (D4, 4, 2),
        "E8": (E8, 1, 1),
        "D4+D4": (direct_sum(validate(D4), validate(D4)).entries, 16, 2),
    }

    @pytest.mark.parametrize("name", sorted(FORMS))
    @pytest.mark.parametrize("seed", [None, 1, 2, 3])
    def test_det_and_level(self, name, seed):
        rows, det, lev = self.FORMS[name]
        if seed is not None:
            rows = unimodular_change(rows, seed)
        g = validate(rows)
        assert (g.det, level(g)) == (det, lev)
        assert (g.det, level(g)) == (gauss_jordan(rows)[0], oracle_level(rows))


class TestTheta:
    def test_zero_entry_is_one(self):
        assert theta(validate(D4), 0) == [1]

    def test_d4_is_egamma2(self):
        counts = theta(validate(D4), 12)
        eg = generator_series(Generator("Egamma2"), 13)
        assert counts == [1] + [eg.coeff(n) for n in range(1, 13)]

    def test_d4_against_box_oracle(self):
        g = validate(D4)
        fast = theta(g, 5)
        assert fast == box_counts(g, 5, 5)
        assert fast == box_counts(g, 5, 6)  # stability: box was big enough

    def test_2x2_against_box_oracle(self):
        g = validate([[2, 1], [1, 4]])
        assert theta(g, 8) == box_counts(g, 8, 8)

    def test_entries_even_pairing(self):
        counts = theta(validate(D4), 10)
        assert counts[0] == 1
        assert all(c % 2 == 0 for c in counts[1:])

    def test_direct_sum_is_convolution(self):
        d4 = validate(D4)
        pair = direct_sum(d4, d4)
        n = 6
        a = QSeries(0, theta(d4, n))
        prod = a * a
        assert theta(pair, n) == [prod.coeff(m) for m in range(n + 1)]

    def test_e8_roots(self):
        assert theta(validate(E8), 1) == [1, 240]

    def test_over_budget_raises_before_enumerating(self, monkeypatch):
        # E6 lies outside the minimum bound's domain, so every point is
        # enumerated: (200 pi)^3 / (3! sqrt(3)) = 2.39e7 points
        g = validate(E6)
        monkeypatch.setattr(GramMatrix, "reduction", property(
            lambda self: pytest.fail("reduced before the budget check")))
        with pytest.raises(ValueError, match="2.39e"):
            theta(g, 100)

    def test_e6(self):
        # the E6 root lattice has 72 roots; level 3 takes the LLL route
        g = validate(E6)
        assert not theorem51_applies(g)
        assert theta(g, 6) == [1, 72, 270, 720, 936, 2160, 2214]


class TestMinima:
    def test_d4(self):
        assert min_represented(validate(D4)) == 2

    def test_e8(self):
        assert min_represented(validate(E8)) == 2

    def test_scaled_d4(self):
        scaled = validate([[2 * x for x in row] for row in D4])
        assert min_represented(scaled) == 4

    def test_missing_diagonal_value_is_defect(self, monkeypatch):
        import qgap.quadratic

        monkeypatch.setattr(qgap.quadratic, "theta", lambda gram, n: [1] + [0] * n)
        with pytest.raises(DefectError):
            min_represented(validate(D4))


    @pytest.mark.parametrize("rows, below, above", [(E8, 3, 2), (E6, 9, 7)])
    def test_skewed_basis(self, rows, below, above):
        g = validate(skewed(rows, below, above))
        assert max(map(max, g.entries)) > 3000
        start = time.perf_counter()
        assert min_represented(g) == 2
        assert time.perf_counter() - start < 1


class TestTheorem51:
    def test_d4(self):
        rec = verify_theorem51(validate(D4))
        assert rec["bound"] == 4  # v = 4 mod 8: 2 + v/2
        assert rec["min"] == 2
        assert rec["verdict"] == "PASS"

    def test_d4_powers(self):
        g = validate(D4)
        acc = g
        for k in range(2, 5):
            acc = direct_sum(acc, g)
            rec = verify_theorem51(acc)
            v = 4 * k
            want = 2 + v // 4 if v % 8 == 0 else 2 + v // 2
            assert rec["bound"] == want
            assert rec["verdict"] == "PASS"

    def test_e8(self):
        rec = verify_theorem51(validate(E8))
        assert rec["bound"] == 4  # 8 | v: 2 + v/4
        assert rec["verdict"] == "PASS"

    def test_rank_6_rejected(self):
        g = validate([[2, 1, 0, 0, 0, 0],
                      [1, 2, 0, 0, 0, 0],
                      [0, 0, 2, 0, 0, 0],
                      [0, 0, 0, 2, 0, 0],
                      [0, 0, 0, 0, 2, 0],
                      [0, 0, 0, 0, 0, 2]])
        rec = verify_theorem51(g)
        assert (rec["rank"], rec["min"], rec["bound"]) == (6, 2, None)
        assert "level" not in rec
        assert rec["verdict"] == Verdict.NOT_APPLICABLE

    def test_level_4_rejected(self):
        scaled = validate([[2 * x for x in row] for row in D4])
        rec = verify_theorem51(scaled)
        assert (rec["rank"], rec["min"], rec["bound"]) == (4, 4, None)
        assert "level" not in rec
        assert rec["verdict"] == Verdict.NOT_APPLICABLE

    @pytest.mark.parametrize("v", range(4, 65, 4))
    def test_bound_is_twice_the_level_2_gap_bound(self, v):
        # theta is an entire weight-v/2 Gamma_0(2) form with c_0 = 1
        want = 2 + v // 4 if v % 8 == 0 else 2 + v // 2
        assert 2 * gap_bounds(2, v // 2)[1] == want


class TestGramFiles:
    def test_round_trip(self):
        text = "# D4 lattice\n4\n2 -1 0 0\n-1 2 -1 -1\n0 -1 2 0\n0 -1 0 2\n"
        assert parse_gram(text).entries == validate(D4).entries

    def test_trailing_comment(self):
        text = "1\n2  # single variable\n"
        assert parse_gram(text).rank == 1

    def test_error_carries_line_number(self):
        with pytest.raises(ValueError, match=":2:"):
            parse_gram("2\nfoo bar\n1 2\n")

    def test_wrong_row_length(self):
        with pytest.raises(ValueError, match="expected 2 entries"):
            parse_gram("2\n2 0 0\n0 2\n")

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            parse_gram("# nothing\n")


D4D4 = direct_sum(validate(D4), validate(D4)).entries
E8D4 = direct_sum(validate(E8), validate(D4)).entries

#: base form -> (Gram matrix, terms the oracle counts, terms it counts on
#: the LLL-reduced matrix).  The last two are level 3, outside the minimum
#: bound's domain.
BASES = {
    "D4": (D4, 8, 8),
    "E8": (E8, 3, 1),
    "D4+D4": (D4D4, 3, 2),
    "E8+D4": (E8D4, 2, 1),
    "A2": (A2, 12, 12),
    "E6": (E6, 3, 2),
}


@functools.lru_cache(maxsize=None)
def oracle_theta(name: str) -> list[int]:
    rows, n, _ = BASES[name]
    return theta_oracle.theta(validate(rows), n)


def elementary(rows, moves):
    """(E^T A E, E) for the product E of the elementary column moves
    (i, j, c): column j += c * column i, with i and j taken mod the rank."""
    n = len(rows)
    a = [list(r) for r in rows]
    e = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, c in moves:
        i, j = i % n, j % n
        if i == j:
            continue
        for m in (a, e):
            for r in m:
                r[j] += c * r[i]
        a[j] = [x + c * y for x, y in zip(a[j], a[i])]
    return a, e


MOVES = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11),
                           st.one_of(st.integers(-2, 2), st.integers(-500, 500))),
                 max_size=12)


class TestThetaRoutes:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.sampled_from(sorted(BASES)), MOVES)
    def test_both_routes_match_oracle(self, name, moves):
        from qgap.quadratic import _enumerate

        rows, n, _ = BASES[name]
        g = validate(elementary(rows, moves)[0])
        want = oracle_theta(name)
        assert theorem51_applies(g) is (name not in ("A2", "E6"))
        assert theta(g, n) == want
        assert _enumerate(g, n) == want
        assert min_represented(g) == 2

    def test_modular_route_against_oracle_beyond_its_head(self):
        # D4+D4 to 5 terms: 2 counted, 4 produced by the basis of M_4
        g = validate(D4D4)
        assert theta(g, 5) == theta_oracle.theta(g, 5)

    def test_non_integral_solve_is_defect(self, monkeypatch):
        import qgap.quadratic

        monkeypatch.setattr(qgap.quadratic, "_enumerate",
                            lambda gram, n: [1, Fraction(481, 2)][:n + 1])
        with pytest.raises(DefectError, match="non-integral"):
            theta(validate(E8), 4)


class TestReduction:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.sampled_from(sorted(BASES)), MOVES)
    def test_keeps_the_form(self, name, moves):
        from qgap.quadratic import _lll

        rows, _, n = BASES[name]
        a, _ = elementary(rows, moves)
        red = _lll(a)
        v = len(a)
        u = red.basis
        assert abs(gauss_jordan(u)[0]) == 1
        assert [[sum(u[k][i] * a[k][m] * u[m][j] for k in range(v) for m in range(v))
                 for j in range(v)] for i in range(v)] == list(map(list, red.entries))
        g, r = validate(a), validate(red.entries)
        assert (r.det, level(r)) == (g.det, level(g))
        assert theta_oracle.theta(r, n) == oracle_theta(name)[:n + 1]
        assert min(r.entries[i][i] for i in range(v)) <= min(a[i][i] for i in range(v))
        # size-reduced and Lovasz with delta = 3/4, in integers: the
        # enumerator's loop sees no other numbers
        d, lam = red.minors, red.lam
        assert all(type(x) is int for x in d + sum(lam, ()))
        assert list(d[1:]) == leading_minors(r.entries)
        for k in range(v):
            for j in range(k):
                assert 2 * abs(lam[k][j]) <= d[j + 1]
            if k:
                assert 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2

    def test_reduces_a_skewed_e8_to_roots(self):
        red = validate(skewed(E8, 3, 2)).reduction
        assert {red.entries[i][i] for i in range(8)} == {2}

    def test_starts_from_the_shortest_basis_vector(self):
        # from the input order, LLL ends with every diagonal entry above 42
        rows = ((84, -34, -4), (-34, 66, 28), (-4, 28, 42))
        red = validate(rows).reduction
        assert min(red.entries[i][i] for i in range(3)) <= 42
        assert min_represented(validate(rows)) == 2 * next(
            n for n, c in enumerate(theta_oracle.theta(validate(rows), 21)) if n and c)
