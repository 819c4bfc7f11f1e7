"""qgap: exact q-expansion toolkit for low-level modular forms.

Laurent q-expansions over exact rationals, a generator catalog for levels
1-3 (Eisenstein series, Delta, j and friends), constant-term congruence
surveys, Fourier gap-bound and vanishing checks, and lattice theta series.
"""

from qgap.arith import INFINITE, alpha_coeff, bernoulli, digit_sum, largest_digit, ord_p
from qgap.series import QSeries, ReachError, product_expand

__version__ = "0.1.0"
