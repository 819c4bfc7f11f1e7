"""The divisor-sum recursion for negative powers of E_inf4: an exact oracle,
independent of series inversion, for the generic ``Einf4^-s`` path."""

from qgap.series import QSeries


def neg_power_einf4(s: int, prec: int) -> QSeries:
    """E_{inf,4}^(-s) as q^(-s) * sum R(n) q^n via the divisor-sum recursion

        R(0) = 1,   R(n) = (8s/n) * sum_{a=1..n} sigma_alt_1(a) R(n-a),

    where sigma_alt_1(a) = sum_{d|a} (-1)^d d.  R(n) has sign (-1)^n.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if prec <= 0:
        raise ValueError(f"prec must be >= 1, got {prec}")
    salt = [0] * prec
    for d in range(1, prec):
        v = -d if d % 2 else d
        for k in range(d, prec, d):
            salt[k] += v
    R = [1] + [0] * (prec - 1)
    for n in range(1, prec):
        t = 0
        for a in range(1, n + 1):
            if salt[a] and R[n - a]:
                t += salt[a] * R[n - a]
        q, r = divmod(8 * s * t, n)
        if r:
            raise ArithmeticError("non-integral coefficient in E_{inf,4} power recursion")
        R[n] = q
    return QSeries(-s, R)
