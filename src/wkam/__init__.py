"""Discrete weak KAM solver on finite cost instances.

Exact min-plus arithmetic, on rationals or, in float mode, on the values of
doubles with each output rounded once: critical constants by minimum mean
cycle, Mane potentials, Peierls barriers, weak KAM solutions, Aubry sets,
strict critical sub-solutions, and a brute-force oracle harness validating
every structural identity.
"""

from .barrier import (
    AubryData,
    BarrierData,
    aubry,
    barrier_closed_form,
    is_weak_kam,
    peierls_barrier,
    u_minus,
    u_plus,
    weak_kam_neg,
    weak_kam_pos,
)
from .core import (
    CostInstance,
    PotentialTable,
    ValueFunction,
    as_value_function,
    lax_oleinik_neg,
    lax_oleinik_pos,
    make_instance,
    reverse_cost,
)
from .critical import (
    CriticalData,
    DominationResult,
    SubsolutionResult,
    critical_value,
    is_dominated,
    solve_subsolution,
)
from .models import (
    LengthSpaceReport,
    check_apriori,
    check_length_space,
    gen_constant,
    gen_fk,
    gen_random,
    lipschitz_constants,
    lipschitz_large_check,
    load,
    save,
)
from .numbers import (
    EXACT,
    INF,
    ConstructionError,
    InputError,
    Mode,
    NonConvergenceError,
    SizeGuardError,
)
from .oracle import (
    OracleReport,
    enum_zero_cycles,
    liminf_barrier_bounded,
    subsolution_sampler,
    verify_all,
)
from .potential import jump_F, jump_f, mane_potential, phi_n
from .subsolution import (
    aubry_of,
    is_calibrated,
    max_strict_subsolution,
    strict_pairs,
    strict_subsolution,
    uniform_subsolution_mix,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
