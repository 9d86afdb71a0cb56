"""Gaussian-integer Fermat tests, arithmetic functions of the norm-one
group mod n, number classifications, and parallel range censuses."""

from .arith import (
    Factorization,
    GroupDescriptor,
    classical_lambda,
    classical_phi,
    factorize,
    gaussian_lambda,
    gaussian_phi,
    group_structure,
    is_prime,
    script_F,
)
from .census import (
    CensusTable,
    RangeQuery,
    VerificationReport,
    carmichael_intersection_scan,
    joint_census,
    record_line,
    search_classifier,
    search_gfp,
    table_to_csv,
    table_to_records,
    values_to_csv,
    verify_external_list,
)
from .classify import (
    PREDICATES,
    ClassificationReport,
    ConsistencyError,
    carmichael_and_g_carmichael_3mod4,
    classify,
    giuga_membership,
    is_carmichael,
    is_cyclic_number,
    is_g_carmichael,
    is_g_carmichael_via_lambda,
    is_g_cyclic,
    is_g_lehmer,
    is_r_williams,
    lambda_power_congruence,
    phi_power_congruence,
)
from .fermat import (
    BASE_PANEL,
    TABLE_GAUSSIAN_BASES,
    TABLE_INTEGER_BASES,
    TestOutcome,
    classical_fermat_test,
    gaussian_fermat_im_test,
    gaussian_fermat_test,
    is_fermat_psp,
    is_gfp,
)
from .residues import GaussianBase

__version__ = "0.1.0"
