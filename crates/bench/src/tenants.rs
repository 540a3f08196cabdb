//! Multi-tenant chaos sweep (`repro -- tenants`): load vs per-class SLO.
//!
//! One fixed scenario, swept over an offered-load multiplier: four named
//! tenants (two interactive, two batch) share a 4-node Samba-CoE cluster
//! while a correlated chaos outage kills two nodes during the peak burst
//! and an SLO-driven autoscaler fights back. Each sweep point is a pure
//! function of `(seed, load multiplier)` — fresh cluster, fresh chaos
//! schedule, fresh controller — so points are independent, reorderable,
//! and the whole sweep routes through the ordered-merge engine with the
//! usual bit-for-bit `parallel == sequential` contract.
//!
//! The table this produces is the robustness claim in one screen: as the
//! load multiplier climbs, interactive p99 stays pinned near its SLO
//! bound while the *batch* class absorbs the pain (shed + preempted
//! counts grow), and every row conserves requests exactly
//! (`submitted = completed + shed`, nothing silently dropped).

use sn_arch::{NodeSpec, TimeSecs};
use sn_coe::scheduler::ArrivalPattern;
use sn_coe::{
    AutoscaleConfig, AutoscaleController, ClassPolicy, CoeCluster, ExpertLibrary, RateLimit,
    SloClass, TenancyConfig, TenancyReport, TenantSpec,
};
use sn_faults::{ChaosSchedule, FaultSite, FaultSpec};
use sn_obs::Obs;
use sn_profile::MachineProfile;
use std::hash::Hasher;

/// Seed shared by every sweep point.
pub const SWEEP_SEED: u64 = 0x7e4a;

/// Nodes the cluster starts with.
pub const SWEEP_NODES: usize = 4;

/// Experts in the library.
pub const SWEEP_EXPERTS: usize = 120;

/// Prompt length of every tenant request.
pub const SWEEP_PROMPT_TOKENS: usize = 512;

/// Baseline interactive requests per tenant at multiplier 1.0.
pub const BASE_INTERACTIVE_REQUESTS: usize = 48;

/// Baseline batch requests per tenant at multiplier 1.0.
pub const BASE_BATCH_REQUESTS: usize = 24;

/// Offered-load multipliers swept.
pub const SWEEP_LOADS: &[f64] = &[0.5, 1.0, 2.0, 4.0];

/// Correlated outage: these nodes crash together during the peak burst.
pub const OUTAGE_NODES: &[usize] = &[2, 3];

/// The outage window (also carries a degraded-fabric fault window), in
/// model time. The peak burst of the arrival mix lands inside it.
pub const OUTAGE_START: TimeSecs = TimeSecs::from_secs(0.05);

/// End of the outage window: crashed nodes restore here.
pub const OUTAGE_END: TimeSecs = TimeSecs::from_secs(0.60);

/// End of the degraded-fabric window. Congestion outlives the outage:
/// restored nodes re-fill their HBM working sets over the same links,
/// so the fabric stays degraded for a while after the crash window.
pub const FABRIC_WINDOW_END: TimeSecs = TimeSecs::from_secs(1.20);

/// One row of the multi-tenant sweep table.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSweepPoint {
    /// Offered-load multiplier applied to every tenant's request count.
    pub load: f64,
    /// Requests submitted across all tenants.
    pub submitted: usize,
    /// Requests completed.
    pub completed: usize,
    /// Requests shed, all reasons.
    pub shed: usize,
    /// Batch chunks bumped by interactive traffic at wave boundaries.
    pub preempted: usize,
    /// Interactive end-to-end p99 latency.
    pub interactive_p99: TimeSecs,
    /// Batch end-to-end p99 latency.
    pub batch_p99: TimeSecs,
    /// Interactive completions inside the class SLO bound, per second.
    pub interactive_goodput: f64,
    /// Batch completions inside the class SLO bound, per second.
    pub batch_goodput: f64,
    /// Autoscaler grow actions applied.
    pub scale_ups: usize,
    /// Autoscaler shrink actions applied.
    pub scale_downs: usize,
    /// Experts re-homed by reactive failover during the run.
    pub rehomed: usize,
    /// Healthy nodes when the run finished.
    pub final_nodes: usize,
    /// Serving waves executed.
    pub waves: usize,
    /// Model time to drain the scenario.
    pub makespan: TimeSecs,
    /// Whether `submitted = completed + shed` held exactly.
    pub conserved: bool,
}

/// The class policies and engine tuning every point shares.
pub fn sweep_config() -> TenancyConfig {
    TenancyConfig {
        seed: SWEEP_SEED,
        prompt_tokens: SWEEP_PROMPT_TOKENS,
        wave_tokens: 8,
        per_node_slots: 4,
        interactive: ClassPolicy {
            queue_cap: 64,
            deadline: TimeSecs::from_secs(2.0),
            slo_bound: TimeSecs::from_secs(1.0),
            chunks: 1,
        },
        batch: ClassPolicy {
            queue_cap: 256,
            deadline: TimeSecs::from_secs(30.0),
            slo_bound: TimeSecs::from_secs(10.0),
            chunks: 4,
        },
        max_waves: 100_000,
    }
}

/// The four-tenant mix at a given load multiplier: a steady interactive
/// tenant, a bursty interactive tenant whose burst train peaks inside
/// the outage window, a rate-limited batch tenant, and an unlimited
/// batch backlog that lands at t = 0.
pub fn sweep_tenants(load: f64) -> Vec<TenantSpec> {
    let scaled = |base: usize| ((base as f64 * load).round() as usize).max(1);
    vec![
        TenantSpec {
            name: "chat-steady".into(),
            class: SloClass::Interactive,
            pattern: ArrivalPattern::Poisson { rate_rps: 120.0 },
            requests: scaled(BASE_INTERACTIVE_REQUESTS),
            rate_limit: RateLimit::unlimited(),
        },
        TenantSpec {
            name: "chat-bursty".into(),
            class: SloClass::Interactive,
            pattern: ArrivalPattern::BurstTrain {
                size: 8,
                period: TimeSecs::from_millis(100.0),
            },
            requests: scaled(BASE_INTERACTIVE_REQUESTS),
            rate_limit: RateLimit::unlimited(),
        },
        TenantSpec {
            name: "lab-metered".into(),
            class: SloClass::Batch,
            pattern: ArrivalPattern::Poisson { rate_rps: 60.0 },
            requests: scaled(BASE_BATCH_REQUESTS),
            rate_limit: RateLimit::per_sec(40.0, 16.0),
        },
        TenantSpec {
            name: "lab-backlog".into(),
            class: SloClass::Batch,
            pattern: ArrivalPattern::Burst,
            requests: scaled(BASE_BATCH_REQUESTS),
            rate_limit: RateLimit::unlimited(),
        },
    ]
}

/// The chaos schedule every point replays: [`OUTAGE_NODES`] crash
/// together at [`OUTAGE_START`] and restore at [`OUTAGE_END`], while
/// the socket fabric runs 1.5x slow with a 10% retransmit rate from the
/// crash until [`FABRIC_WINDOW_END`].
pub fn sweep_chaos(seed: u64) -> ChaosSchedule {
    ChaosSchedule::new(seed)
        .with_outage(OUTAGE_NODES, OUTAGE_START, Some(OUTAGE_END))
        .with_window(
            FaultSite::SocketLink,
            FaultSpec {
                fail_rate: 0.10,
                slow_rate: 0.25,
                slow_factor: 1.5,
            },
            OUTAGE_START,
            FABRIC_WINDOW_END,
        )
}

/// The capacity controller every point starts with: act at half the
/// interactive SLO bound (well before the class blows it), never below
/// 2 or above 6 nodes, two-breach patience and a four-wave cooldown so
/// it acts on trends, not spikes.
pub fn sweep_controller() -> AutoscaleController {
    AutoscaleController::new(
        MachineProfile::from_node(&NodeSpec::sn40l_node()),
        AutoscaleConfig {
            min_nodes: 2,
            max_nodes: 6,
            latency_high: TimeSecs::from_millis(400.0),
            latency_low: TimeSecs::from_millis(40.0),
            patience: 2,
            cooldown: 4,
            window: 16,
        },
    )
}

/// The sweep's starting cluster, shared by the report helpers here and
/// the `obs` replay so both serve the same shape.
pub fn sweep_cluster() -> CoeCluster {
    cluster_of(SWEEP_NODES)
}

/// A fresh `nodes`-node cluster hosting the sweep's expert library.
///
/// # Panics
///
/// Panics if the expert library cannot be placed on the starting
/// cluster (a configuration bug, not a runtime condition).
fn cluster_of(nodes: usize) -> CoeCluster {
    CoeCluster::new(
        NodeSpec::sn40l_node(),
        nodes,
        ExpertLibrary::new(SWEEP_EXPERTS),
        SWEEP_PROMPT_TOKENS,
    )
    .expect("sweep library fits the starting cluster")
}

/// Serves one tenant mix on a fresh `nodes`-node cluster with a fresh
/// controller, under the sweep chaos schedule when `chaos` is set.
fn serve_scenario(seed: u64, nodes: usize, tenants: &[TenantSpec], chaos: bool) -> TenancyReport {
    let mut config = sweep_config();
    config.seed = seed;
    let chaos = chaos.then(|| sweep_chaos(seed));
    let mut controller = sweep_controller();
    cluster_of(nodes)
        .serve_tenants_observed(
            tenants,
            &config,
            chaos.as_ref(),
            Some(&mut controller),
            None,
            &Obs::disabled(),
        )
        .expect("tenant scenario serves")
}

/// Runs the full scenario report for one `(seed, load)` point.
pub fn tenants_report_seeded(seed: u64, load: f64) -> TenancyReport {
    serve_scenario(seed, SWEEP_NODES, &sweep_tenants(load), true)
}

/// Summarizes one sweep point at `load`.
pub fn tenants_point(load: f64) -> TenantSweepPoint {
    tenants_point_seeded(SWEEP_SEED, load)
}

/// [`tenants_point`] with an explicit seed — the differential tests
/// sweep several seeds to show the parallel/sequential bit-identity is
/// not an artifact of one lucky arrival pattern.
pub fn tenants_point_seeded(seed: u64, load: f64) -> TenantSweepPoint {
    let report = tenants_report_seeded(seed, load);
    let scale_ups = report
        .scale_events
        .iter()
        .filter(|e| e.decision == sn_coe::ScaleDecision::Up)
        .count();
    let scale_downs = report.scale_events.len() - scale_ups;
    TenantSweepPoint {
        load,
        submitted: report.submitted,
        completed: report.records.len(),
        shed: report.shed.len(),
        preempted: report.preemptions,
        interactive_p99: report.latency_percentile(SloClass::Interactive, 0.99),
        batch_p99: report.latency_percentile(SloClass::Batch, 0.99),
        interactive_goodput: report.goodput_rps(SloClass::Interactive),
        batch_goodput: report.goodput_rps(SloClass::Batch),
        scale_ups,
        scale_downs,
        rehomed: report.rehomed_experts,
        final_nodes: report.final_nodes,
        waves: report.waves,
        makespan: report.makespan,
        conserved: report.conservation_holds(),
    }
}

/// The full load sweep over [`SWEEP_LOADS`], sequentially.
pub fn tenants_sweep() -> Vec<TenantSweepPoint> {
    tenants_sweep_jobs(1)
}

/// [`tenants_sweep`] fanned across `jobs` worker threads via the
/// ordered-merge engine. Bit-identical to `tenants_sweep()` for every
/// `jobs` value: each point builds its own cluster, chaos schedule, and
/// controller.
pub fn tenants_sweep_jobs(jobs: usize) -> Vec<TenantSweepPoint> {
    tenants_sweep_seeded_jobs(SWEEP_SEED, jobs)
}

/// [`tenants_sweep_jobs`] with an explicit scenario seed.
pub fn tenants_sweep_seeded_jobs(seed: u64, jobs: usize) -> Vec<TenantSweepPoint> {
    crate::par::ordered_map(jobs, SWEEP_LOADS, |_, &load| {
        tenants_point_seeded(seed, load)
    })
}

/// Load multipliers of the capacity grid: 0.25 .. 6.0 in quarter steps.
pub const GRID_LOAD_STEPS: usize = 24;

/// Cluster sizes of the capacity grid (the autoscaler's legal range).
pub const GRID_NODES: &[usize] = &[2, 3, 4, 5, 6];

/// Per-cell metrics of the capacity grid, index-aligned with
/// [`GridMetrics`].
pub const GRID_METRICS: [&str; 7] = [
    "interactive_p99_ms",
    "batch_p99_ms",
    "interactive_goodput_rps",
    "batch_goodput_rps",
    "hbm_hit_rate",
    "switch_bound_fraction",
    "makespan_ms",
];

/// One cell's values of [`GRID_METRICS`].
pub type GridMetrics = [f64; 7];

/// Index of `hbm_hit_rate`, the one grid metric whose worst case is
/// its minimum.
const HIT_RATE: usize = 4;

/// One cell of the capacity grid: the sweep scenario generalized over
/// cluster size, chaos, tenant mix, and load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridCase {
    /// Nodes the cluster starts with.
    pub nodes: usize,
    /// Offered-load multiplier.
    pub load: f64,
    /// Whether the sweep chaos schedule applies.
    pub chaos: bool,
    /// Whether the batch tenants' request counts are doubled.
    pub batch_heavy: bool,
}

/// The full grid in fixed order: nodes, then chaos, then mix, then load
/// (innermost), so each run of [`GRID_LOAD_STEPS`] cells is one
/// nodes × chaos × mix surface. 480 cells.
pub fn grid() -> Vec<GridCase> {
    let mut cells = Vec::new();
    for &nodes in GRID_NODES {
        for chaos in [false, true] {
            for batch_heavy in [false, true] {
                for step in 1..=GRID_LOAD_STEPS {
                    cells.push(GridCase {
                        nodes,
                        load: step as f64 * 0.25,
                        chaos,
                        batch_heavy,
                    });
                }
            }
        }
    }
    cells
}

/// The sweep mix at a load multiplier, with the batch tenants' request
/// counts doubled on `batch_heavy` cells.
pub fn grid_tenants(load: f64, batch_heavy: bool) -> Vec<TenantSpec> {
    let mut specs = sweep_tenants(load);
    if batch_heavy {
        for t in specs.iter_mut().filter(|t| t.class == SloClass::Batch) {
            t.requests *= 2;
        }
    }
    specs
}

/// Runs one grid cell exactly. The `nodes = 4`, chaos-on, standard-mix
/// cells reproduce [`tenants_report_seeded`] bit for bit.
pub fn exact_report(case: &GridCase) -> TenancyReport {
    serve_scenario(
        SWEEP_SEED,
        case.nodes,
        &grid_tenants(case.load, case.batch_heavy),
        case.chaos,
    )
}

/// Folds a grid cell's report into [`GRID_METRICS`], classifying
/// switch-bound time against the sweep's expert library.
pub fn exact_metrics(report: &TenancyReport) -> GridMetrics {
    [
        report
            .latency_percentile(SloClass::Interactive, 0.99)
            .as_millis(),
        report.latency_percentile(SloClass::Batch, 0.99).as_millis(),
        report.goodput_rps(SloClass::Interactive),
        report.goodput_rps(SloClass::Batch),
        report.expert_hit_rate(),
        crate::placement::switch_bound_fraction_for(report, SWEEP_EXPERTS),
        report.makespan.as_millis(),
    ]
}

/// Every [`grid`] cell served exactly, fanned across `jobs` worker
/// threads via the ordered-merge engine: byte-identical at any `jobs`.
pub fn grid_sweep_jobs(jobs: usize) -> Vec<(GridCase, GridMetrics)> {
    crate::par::ordered_map(jobs, &grid(), |_, case| {
        (*case, exact_metrics(&exact_report(case)))
    })
}

/// One nodes × chaos × mix surface of the grid, folded over its loads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSurface {
    /// The surface's first (lightest-load) cell.
    pub case: GridCase,
    /// Per metric, the worst value across the surface's loads: the
    /// minimum HBM hit rate, the maximum of every other metric (peak
    /// goodput, worst p99, switch-bound share, and makespan).
    pub envelope: GridMetrics,
    /// Highest load up to which every load holds the interactive SLO
    /// bound; `None` when even the lightest load misses it.
    pub slo_load: Option<f64>,
}

/// Folds grid-ordered cells into one [`GridSurface`] per
/// [`GRID_LOAD_STEPS`]-cell surface.
pub fn grid_surfaces(cells: &[(GridCase, GridMetrics)]) -> Vec<GridSurface> {
    let bound_ms = sweep_config().interactive.slo_bound.as_millis();
    cells
        .chunks(GRID_LOAD_STEPS)
        .map(|surface| {
            let mut envelope = surface[0].1;
            for (_, m) in &surface[1..] {
                for (i, (e, &v)) in envelope.iter_mut().zip(m).enumerate() {
                    *e = if i == HIT_RATE { e.min(v) } else { e.max(v) };
                }
            }
            let slo_load = surface
                .iter()
                .take_while(|(_, m)| m[0] <= bound_ms)
                .last()
                .map(|(case, _)| case.load);
            GridSurface {
                case: surface[0].0,
                envelope,
                slo_load,
            }
        })
        .collect()
}

/// Digest of every cell's metric bits in grid order, so one line pins
/// all 480 cells.
pub fn grid_digest(cells: &[(GridCase, GridMetrics)]) -> u64 {
    let mut h = sn_arch::hash::StableHasher::new();
    for (_, m) in cells {
        for v in m {
            h.write_u64(v.to_bits());
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sn_coe::ShedReason;

    #[test]
    fn points_are_deterministic() {
        let a = tenants_point(1.0);
        let b = tenants_point(1.0);
        assert_eq!(a, b, "same load, same row");
    }

    #[test]
    fn every_row_conserves_requests() {
        for p in tenants_sweep() {
            assert!(p.conserved, "load {} leaked requests", p.load);
            assert_eq!(p.submitted, p.completed + p.shed);
        }
    }

    #[test]
    fn chaos_actually_bites_and_recovery_happens() {
        let report = tenants_report_seeded(SWEEP_SEED, 2.0);
        assert!(report.rehomed_experts > 0, "outage must force re-homing");
        assert!(
            report.final_nodes >= SWEEP_NODES - OUTAGE_NODES.len(),
            "crashed nodes restore after the window"
        );
        assert!(report.conservation_holds());
    }

    #[test]
    fn batch_class_absorbs_the_overload() {
        let heavy = tenants_point(*SWEEP_LOADS.last().unwrap());
        assert!(
            heavy.shed > 0 && heavy.preempted > 0,
            "4x load over a half-capacity window must shed and preempt"
        );
        // Priority shows in the tails: batch eats the outage delay while
        // the interactive tail stays an order of magnitude tighter.
        assert!(
            heavy.batch_p99 > heavy.interactive_p99 * 2.0,
            "batch p99 {} should dwarf interactive p99 {}",
            heavy.batch_p99,
            heavy.interactive_p99
        );
        // And the metered batch tenant is the one the token bucket bites.
        let report = tenants_report_seeded(SWEEP_SEED, *SWEEP_LOADS.last().unwrap());
        assert!(
            report
                .shed
                .iter()
                .any(|s| s.class == SloClass::Batch && s.reason == ShedReason::RateLimited),
            "lab-metered must hit its rate limit at 4x load"
        );
    }

    #[test]
    fn interactive_p99_holds_its_bound_across_the_sweep() {
        let bound = sweep_config().interactive.slo_bound;
        for p in tenants_sweep() {
            assert!(
                p.interactive_p99 <= bound,
                "load {}: interactive p99 {} blew the {} bound",
                p.load,
                p.interactive_p99,
                bound
            );
        }
    }

    #[test]
    fn grid_covers_every_surface_once() {
        let cells = grid();
        assert_eq!(
            cells.len(),
            GRID_NODES.len() * 2 * 2 * GRID_LOAD_STEPS,
            "nodes x chaos x mix x load"
        );
        for (i, a) in cells.iter().enumerate() {
            assert!(!cells[i + 1..].contains(a), "duplicate cell {a:?}");
        }
        for surface in cells.chunks(GRID_LOAD_STEPS) {
            assert!(surface.iter().all(|c| c.nodes == surface[0].nodes
                && c.chaos == surface[0].chaos
                && c.batch_heavy == surface[0].batch_heavy));
        }
    }

    #[test]
    fn standard_cells_match_the_exact_sweep_scenario() {
        // The nodes=4 chaos-on standard cells are the sweep points.
        for &load in SWEEP_LOADS {
            let case = GridCase {
                nodes: SWEEP_NODES,
                load,
                chaos: true,
                batch_heavy: false,
            };
            assert_eq!(
                exact_report(&case),
                tenants_report_seeded(SWEEP_SEED, load),
                "grid cell at load {load} must reproduce the sweep bit for bit"
            );
        }
    }

    #[test]
    fn batch_heavy_doubles_only_batch_tenants() {
        let std = grid_tenants(1.0, false);
        let heavy = grid_tenants(1.0, true);
        for (s, h) in std.iter().zip(&heavy) {
            let factor = if s.class == SloClass::Batch { 2 } else { 1 };
            assert_eq!(h.requests, factor * s.requests, "{}", s.name);
        }
    }
}
