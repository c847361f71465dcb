"""besselzeta: exact verification of local zeta integrals in Bessel models
of GSp(4) and of the constants assembled from them.

The package is organized by layer:

- ``symfield``: exact multivariate Laurent rational functions over Q,
  matrices over them, and the closed geometric series (I - X M)^{-1}.
- ``localrep``: descriptors of the representation types I, IIb, IIIa, VIb
  with their spinor/standard L-factors and local epsilon factors.
- ``localzeta``: Hecke and Atkin-Lehner matrices on the fixed space,
  Bessel basis values at the identity, the diagonal-value generating
  series, the computed zeta-integral cases, the local periods, and the
  per-prime spectral correction factor.
- ``padicring``: residue rings Z/p^e and the quadratic Galois ring,
  characters and Gauss sums, the Smith normal form, and the ramified
  coset-sum computations.
- ``classgroup``: positive definite binary quadratic forms, reduction,
  composition, class-group structure and characters.
- ``globalasm``: archimedean Gamma factors, Dirichlet Gauss sums, the
  global epsilon factor, the spectral-average prefactor, and L-function
  composition identities.
- ``suites`` / ``cli``: machine-checkable verification suites and the
  command-line front end.
"""

from .classgroup import (
    ClassChar,
    ClassGroup,
    QuadForm,
    bessel_coeff_sum,
    reduce_form,
    t_theta,
)
from .globalasm import (
    DirichletChar,
    GlobalParams,
    arch_lfactor,
    average_prefactor,
    composite_lfactors,
    global_epsilon,
    partial_spinor_L,
)
from .localrep import (
    LocalRep,
    TwistData,
    UNRAMIFIED,
    dims,
    local_epsilon,
    spinor_lfactor,
    std_lfactor,
)
from .localzeta import (
    HeckePair,
    bessel_identity_values,
    bessel_norms,
    diag_series,
    hecke_matrices,
    local_period,
    local_period_closed,
    recursion_consistency,
    t_factor,
    zeta_case1,
    zeta_case4,
    zeta_case4_series,
    zeta_case5_6,
    zeta_case5_6_series,
)
from .padicring import (
    BesselSetup,
    GaloisRing,
    MultChar,
    ResidueRing,
    gauss_sum_F,
    gauss_sum_L,
    norm_char_sum,
    smith_form_2x2,
    y_eta_check,
    zeta_case2_3_numeric,
)
from .symfield import (
    LaurentPoly,
    RatFunc,
    RatMatrix,
    geom_resolvent,
    parse_ratfunc,
    rf_var,
)

__version__ = "0.1.0"
