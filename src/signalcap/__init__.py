"""Communication strength of tripartite boxes violating monogamy bounds.

Library layout:

- boxes:     probability tables, conditional correlators, the chained Bell
             expression, no-signaling checks, canonical boxes, box JSON IO
- monogamy:  monogamy functionals, triple-inequality families and the
             minimal-set search
- channels:  binary asymmetric channels, capacity (closed form and a
             certified bisection oracle), channel families of a box
- geometry:  exact-rational polytopes, vertex enumeration, exact LP
             feasibility, box-preimage characterization checks; the exact
             work runs on one engine, the integer double description of
             rational_lp
- strength:  min-max capacity over violation polytopes, grid oracle,
             optimal family, closed-form bounds, strength curves
- cli:       the `signalcap` command
"""

from .boxes import (
    BoxError,
    BoxFormatError,
    CorrelatorVector,
    NegativeProbability,
    NotNormalized,
    TripartiteBox,
    check_no_signaling,
    correlator,
    correlator_vector,
    from_correlators,
    load_box,
    local_deterministic,
    make_box,
    pr_times_coin,
    random_nonsignaling,
    reference_box,
    save_box,
    symmetrize,
    two_body_tables,
)
from .channels import (
    BinaryChannel,
    ChannelFamily,
    NoConvergence,
    binary_entropy,
    capacity,
    capacity_oracle,
    capacity_oracle_array,
    channels_from_box,
    channels_from_correlators,
)
from .geometry import (
    HPolytope,
    UnboundedPolytope,
    build_q_delta,
    enumerate_vertices,
    verify_characterization,
)
from .monogamy import (
    InequalitySet,
    MonogamyReport,
    StrictModeInapplicable,
    TripleInequality,
    generate_inequality_set,
    monogamy_lhs,
    triple_inequality_holds,
    verify_minimal_set,
)
from .rational_lp import lp_feasible
from .strength import (
    NoRoot,
    StrengthCurve,
    StrengthResult,
    c2_analytic,
    c_delta,
    chained_polytope_bound,
    curve,
    gava_bound,
    grid_oracle,
    minimax_capacity,
    optimal_family,
)

__version__ = "0.1.0"
