"""Online fair division of indivisible goods, in exact rational arithmetic.

Streaming allocation rules (three greedy strategies, uniform random, and a
potential-function rule driven by maximum-item-value predictions), exact
fairness metrics with witnesses (PROP1, EF1, PROPX, MMS), adversarial
lower-bound generators, closed-form tail-bound oracles, and an experiment
harness.  The ``fairdiv`` CLI exposes all of it.
"""

from .algorithms import (
    ALLOCATORS,
    AllocationTrace,
    Greedy1Allocator,
    Greedy2Allocator,
    Greedy3Allocator,
    MivAllocator,
    OnlineAllocator,
    RandAllocator,
    RobustifiedAllocator,
    make_allocator,
    robust_beta,
    robustify,
    run,
)
from .adversaries import (
    AdaptiveAdversary,
    AdversaryRun,
    Greedy3Adversary,
    MivImpossibilityAdversary,
    greedy1_adversary,
    greedy2_adversary,
    impossibility_constants,
    run_adaptive,
    verify_greedy1_failure,
    verify_greedy2_failure,
)
from .core import (
    INF,
    Allocation,
    Instance,
    Predictions,
    bundle_value,
    check_predictions,
    format_rational,
    instance_from_columns,
    instance_from_rows,
    load_allocation,
    load_instance,
    load_predictions,
    parse_rational,
    perfect_predictions,
    save_allocation,
    save_instance,
)
from .errors import (
    DomainError,
    FairdivError,
    InstanceTooLargeError,
    InvariantError,
    ParseError,
    PredictionContractError,
)
from .harness import (
    MonteCarloReport,
    PotentialGrid,
    campaign,
    equal_goods_instance,
    montecarlo_rand,
    potential_grid,
)
from .metrics import (
    FairnessReport,
    Prop1State,
    alpha_it,
    build_fairness_report,
    check_alpha_ef1,
    check_alpha_mms,
    check_alpha_propx,
    check_alpha_prop1,
    check_ef1,
    check_prop1,
    check_propx,
    mms_exact,
    mms_profile,
    prop1_ratio,
)
from .oracles import (
    BernsteinParams,
    RandMoments,
    analytic_moments,
    bernstein_tail,
    best_allocation_search,
    rand_alpha_bound,
    rand_tail_certificate,
)

__version__ = "0.1.0"
