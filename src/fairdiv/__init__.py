"""Online fair division of indivisible goods, in exact rational arithmetic.

Streaming allocation rules (three greedy strategies, uniform random, and a
potential-function rule driven by maximum-item-value predictions), exact
fairness metrics with witnesses (PROP1, EF1, PROPX, MMS), adversarial
lower-bound generators, closed-form tail-bound oracles, and an experiment
harness.  The ``fairdiv`` CLI exposes all of it.
"""

from .algorithms import (
    ALLOCATORS,
    Greedy1Allocator,
    Greedy2Allocator,
    Greedy3Allocator,
    MivAllocator,
    OnlineAllocator,
    RandAllocator,
    RobustifiedAllocator,
    TraceRecorder,
    make_allocator,
    run,
)
from .adversaries import (
    CONSTRUCTIONS,
    AdaptiveAdversary,
    AdversaryRun,
    Greedy3Adversary,
    MivImpossibilityAdversary,
    OneThenFixedAdversary,
    impossibility_constants,
    run_adaptive,
    run_construction,
)
from .core import (
    INF,
    Allocation,
    Instance,
    Predictions,
    format_rational,
    instance_from_rows,
    load_allocation,
    load_instance,
    load_predictions,
    parse_rational,
    perfect_predictions,
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
    campaign,
    montecarlo_rand,
)
from .metrics import (
    Prop1State,
    check_alpha_ef1,
    check_alpha_mms,
    check_alpha_propx,
    check_alpha_prop1,
    mms_exact,
    prop1_ratio,
)
from .oracles import (
    RandMoments,
    analytic_moments,
    bernstein_tail,
    best_allocation_search,
    rand_alpha_bound,
    rand_tail_certificate,
)

__version__ = "0.1.0"
