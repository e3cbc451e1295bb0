"""Tolerances, workload names and the known-defect table shared by the benchmark.

Tolerances are the ones the acceptance suite pins (tests/test_acceptance.py);
checks that recompute a quantity by another route and have no pinned
tolerance use the route-agreement tolerance.
"""

from __future__ import annotations

ROUTE_TOL = 1e-10          # recurrence routes agree (criterion 1)
WRONSKIAN_TOL = 1e-9       # W + 2 z^n, normalized (criterion 2)
CLOSED_FORM_TOL = 1e-8     # closed form against recurrence (criterion 3)
UNIT_COLUMN_TOL = 1e-12    # Hessenberg unit columns (criterion 7)
ZERO_ROUTE_TOL = 1e-7      # Schur zeros against companion zeros (criterion 7)
ZERO_ROUTE_MAX_N = 20      # the companion route drifts by itself beyond this
RECOVERY_TOL = 1e-6        # moments -> coefficients at orders <= 15 (criterion 13)
RECON_ARC_TOL = 0.01       # arc-mass reconstruction on a subarc (criterion 14)
RECON_GAP_TOL = 0.005      # reconstruction over the gap (criterion 14)
LOG_DBL_MAX = 709.782712893384

# why each workload exists is recorded in BENCHMARK.json
WORKLOADS = ("cli-cold", "grid-sweep", "pointwise-deep", "measure-side")

# Failures the benchmark expects at the commit that defined it. They are
# counted in `failed` and `error_rate` like any other failure; `correct`
# only turns false for a failure that matches none of them.
KNOWN_DEFECTS = {
    "nan-coefficient-accepted": (
        "a NaN reflection coefficient passes validation because `abs(v) >= 1` is "
        "False for NaN, so the call returns NaN or a silent 0 instead of raising "
        "InvalidCoefficientError"
    ),
    "cli-nan-exit-0": (
        "`opuc eval --coeffs const:nan` exits 0 and prints NaN rows instead of "
        "exiting 1 (same validation gap)"
    ),
    "kappa-overflow-nan": (
        "szego.pair_evaluate and szego.schur_sum_eval carry kappa_n explicitly; it "
        "overflows to inf once sum -log(1-|c_k|^2)/2 exceeds 709.78 (n ~ 4,934 at "
        "|a| = 0.5) and the inf / inf quotients that follow give NaN"
    ),
    "christoffel-mass-point-divergence": (
        "spectral.christoffel_sum sums all N terms with no stopping rule; at a mass "
        "point of a complex constant a, rounding feeds the growing mode, the sum "
        "diverges by N ~ 120 and the mass is reported as 0"
    ),
    "recovery-conditioning-undetected": (
        "verblunsky_from_moments at order >= 13 returns coefficients off by more than "
        "1e-6 without raising RankDeficiencyError: moment errors (quad target 1e-10) "
        "grow with the Toeplitz condition number, which the 1e-12 pivot test misses; "
        "|a| ~ 0.7 loses all accuracy"
    ),
}

# The end-to-end metric and workload each per-layer metric should move,
# written down before any optimization (printed with every traced run).
_CLI = "latency_p50_ms, peak_rss_mb @ cli-cold"
_SWEEP = "throughput_ops_s, latency_p50_ms @ grid-sweep"
_POINT = "latency_p50_ms @ pointwise-deep"
_MEASURE = "latency_p90_ms, throughput_ops_s @ measure-side"
_INFO = "none: informational"
SHOULD_MOVE = {
    "cli.interp_start_ms": _CLI, "cli.import_ms": _CLI, "cli.handler_ms": _CLI,
    "cli.scipy_loaded": _CLI,
    "szego.sweep_abs_phi.busy_s": _SWEEP, "szego.point_steps": _SWEEP,
    "szego.ns_per_point_step": _SWEEP,
    "szego.evaluate.busy_s": "latency_p50_ms @ pointwise-deep and grid-sweep (per-angle loop)",
    "szego.evaluate.calls": "latency_p50_ms @ pointwise-deep and grid-sweep (per-angle loop)",
    "szego.ns_per_step": "latency_p50_ms @ pointwise-deep and grid-sweep (per-angle loop)",
    "szego.pair_evaluate.busy_s": "none: an independent oracle route, should not move",
    "szego.schur_sum_eval.busy_s": "none: an independent oracle route, should not move",
    "core.coeffs.busy_s": _POINT, "core.ns_per_coeff": _POINT,
    "special.jacobi_arc_coeffs.busy_s": "latency_p90_ms, peak_rss_mb @ pointwise-deep",
    "special.us_per_coeff": "latency_p90_ms, peak_rss_mb @ pointwise-deep",
    "special.ratio_cache_entries": "latency_p90_ms, peak_rss_mb @ pointwise-deep",
    "geronimus.envelope_check.busy_s": _SWEEP,
    "geronimus.closed_eval.busy_s": _POINT, "geronimus.mu_a_spec.busy_s": _POINT,
    "perturbation.sup_envelope.busy_s": _SWEEP,
    "perturbation.s_n_bound.busy_s": _POINT, "perturbation.kappa_limit.busy_s": _POINT,
    "perturbation.classify_conditions.busy_s": _POINT,
    "spectral.hessenberg.busy_s": "latency_p90_ms @ measure-side",
    "spectral.truncation_zeros.busy_s": "latency_p90_ms @ measure-side",
    "spectral.eig_dim_sum": "latency_p90_ms @ measure-side",
    "spectral.support_report.busy_s": "latency_p90_ms @ measure-side",
    "spectral.christoffel_sum.busy_s": _POINT, "spectral.krein_check.busy_s": _POINT,
    "oracle.trig_moments.busy_s": _MEASURE, "oracle.moments_computed": _MEASURE,
    "oracle.verblunsky_from_moments.busy_s": _MEASURE,
    "oracle.reconstruct_arc_mass.busy_s": _MEASURE,
    "oracle.mu_prime_floor.busy_s": _SWEEP,
    "szego.max_route_residual": _INFO, "szego.max_wronskian_residual": _INFO,
    "geronimus.max_closed_form_residual": _INFO, "spectral.max_column_unit_defect": _INFO,
    "spectral.max_zero_route_distance": _INFO, "oracle.max_recovery_error": _INFO,
    "oracle.max_reconstruct_error": _INFO,
    **{f"{layer}.fp_warnings": _INFO for layer in (
        "cli", "core", "special", "szego", "geronimus", "perturbation", "spectral", "oracle")},
    "trace.overhead_pct": "none: the cost of tracing itself",
}
