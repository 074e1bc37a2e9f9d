"""treelab: invariant processes on regular trees and random regular graphs.

Exact kernels and Dobrushin coefficients, branching-chain samplers on
truncated trees, simultaneous heat-bath dynamics driven by i.i.d. labels,
configuration-entropy inequalities, pairing-model random graphs, local
statistics of colored graphs, and covering-error thresholds.
"""

from .covering import (CoveringMatrix, RigidityVerdict, ThresholdReport,
                       bipartite_matrix, delta_lower_bound, dominating_matrix,
                       dominating_table, epsilon0, error_ratio, format_dominating_table,
                       independence_threshold,
                       is_covering_at, min_error_exact, min_error_local_search,
                       read_covering_matrix, rigidity_check, write_covering_matrix)
from .entropy import (CounterexampleCertificate, EntropyReport, bmc_entropy_report,
                      expander_counterexample, pinsker_tv_bound, shannon, total_correlation)
from .errors import BudgetExceededError, ImpossibleConfigurationError
from .glauber import (ConvergenceReport, CoupledPair, DecayReport, FixedPointReport,
                      WakingSet, conditional_dist, converge_from_iid, coupled_sweep,
                      estimate_hamming_decay, fixed_point_test, glauber_sweep,
                      maximal_coupling, wake_probability, waking_set)
from .graphs import (EigenReport, RegularGraph, adjacency_matrix, circulant_graph,
                     complete_bipartite, complete_graph, cycle_graph,
                     eigen_experiment, girth_profile, graph_from_edges,
                     iter_perfect_matchings, matching_color_count, matching_identity_check,
                     pm_count, read_graph, sample_regular_graph, write_graph)
from .kernels import (NeighborConfig, TransitionKernel, dobrushin_coefficient,
                      kernel_from_matrix, load_kernel, make_ising, make_potts,
                      make_walk_kernel, spectral_radius, uniform_kernel, write_kernel)
from .localstats import (DcnEstimate, ball_distribution, canonical_ball, dcn_estimate,
                         hausdorff_distance, load_ball_distribution,
                         save_ball_distribution, tv_distance)
from .trees import (Configuration, CorrelationEstimate, CorrelationVerdict, RealField,
                    TruncatedTree, build_tree, classify_correlation_decay,
                    dump_configuration, estimate_correlation, exact_bmc_marginals,
                    exact_correlations, local_correlation_bound, sample_bmc,
                    sample_bmc_batch, sample_iid, sample_uniform_labels, tree_distance,
                    tree_vertex_count)

__version__ = "0.1.0"
