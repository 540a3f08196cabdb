//! Scenario constants of the four workloads.
//!
//! They are copies of the `repro` sweep scenarios (`placement`,
//! `tenants`/`obs` and `intra`) and of the Figure 10 suite, kept here so
//! the benchmark depends only on the layer crates, never on the
//! `sn-bench` harness it bypasses. The reference pass of every workload
//! replays these exactly, at the `repro` seeds, so its outputs can be
//! checked against committed numbers.

use sn_arch::{Bytes, NodeSpec, TimeSecs};
use sn_coe::scheduler::ArrivalPattern;
use sn_coe::{
    AutoscaleConfig, AutoscaleController, ClassPolicy, PagedKvConfig, PlacementPolicy,
    PolicyConfig, PrefetchPolicy, RateLimit, SloClass, TenancyConfig, TenantSpec,
};
use sn_faults::{ChaosSchedule, FaultSite, FaultSpec};
use sn_obs::{AlertCondition, AlertRule, LabelSet, ObsConfig, RecorderConfig, SeriesKey};
use sn_profile::MachineProfile;

/// Scenario seed of `repro placement`.
pub const PLACEMENT_SEED: u64 = 0x51ac;
/// Scenario seed of `repro tenants` and `repro obs`.
pub const TENANTS_SEED: u64 = 0x7e4a;
/// Prompt-stream seed of `repro intra`.
pub const INTRA_SEED: u64 = 0x1a7e5;
/// Base of the seeded sequence-length draws of `compile-suite`.
pub const COMPILE_SEED: u64 = 0xc0de;

/// Prompt length of every serving request.
pub const PROMPT_TOKENS: usize = 512;

/// Fabric fault window of both chaos scenarios: 10% retransmits and
/// 25% 1.5x slowdowns on the socket links.
fn fabric_faults() -> FaultSpec {
    FaultSpec {
        fail_rate: 0.10,
        slow_rate: 0.25,
        slow_factor: 1.5,
    }
}

/// `kv-thrash`: the `placement.chaos2x.managed` cell of `repro placement`.
pub mod placement {
    use super::*;

    pub const NODES: usize = 2;
    pub const EXPERTS: usize = 150;
    pub const SLOTS_PER_NODE: usize = 72;
    pub const BASE_INTERACTIVE_REQUESTS: usize = 96;
    pub const BASE_BATCH_REQUESTS: usize = 32;
    pub const LOAD: f64 = 2.0;
    pub const OUTAGE_NODE: usize = 1;
    pub const OUTAGE_START: TimeSecs = TimeSecs::from_secs(0.2);
    pub const OUTAGE_END: TimeSecs = TimeSecs::from_secs(6.0);
    pub const FABRIC_WINDOW_END: TimeSecs = TimeSecs::from_secs(10.0);

    pub fn config(seed: u64) -> TenancyConfig {
        TenancyConfig {
            seed,
            prompt_tokens: PROMPT_TOKENS,
            wave_tokens: 8,
            per_node_slots: SLOTS_PER_NODE,
            interactive: ClassPolicy {
                queue_cap: 512,
                deadline: TimeSecs::from_secs(30.0),
                slo_bound: TimeSecs::from_secs(2.0),
                chunks: 4,
            },
            batch: ClassPolicy {
                queue_cap: 512,
                deadline: TimeSecs::from_secs(120.0),
                slo_bound: TimeSecs::from_secs(30.0),
                chunks: 6,
            },
            max_waves: 100_000,
        }
    }

    pub fn tenants() -> Vec<TenantSpec> {
        let scaled = |base: usize| ((base as f64 * LOAD).round() as usize).max(1);
        vec![
            TenantSpec {
                name: "chat-steady".into(),
                class: SloClass::Interactive,
                pattern: ArrivalPattern::Poisson { rate_rps: 150.0 },
                requests: scaled(BASE_INTERACTIVE_REQUESTS),
                rate_limit: RateLimit::unlimited(),
            },
            TenantSpec {
                name: "chat-bursty".into(),
                class: SloClass::Interactive,
                pattern: ArrivalPattern::BurstTrain {
                    size: 16,
                    period: TimeSecs::from_millis(50.0),
                },
                requests: scaled(BASE_INTERACTIVE_REQUESTS),
                rate_limit: RateLimit::unlimited(),
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

    /// The fault script: node 1 crashes during the burst while the
    /// fabric runs degraded. Its fault draws stay at the `repro` seed for
    /// every workload seed (see `NOTES.md`).
    pub fn chaos() -> ChaosSchedule {
        ChaosSchedule::new(PLACEMENT_SEED)
            .with_outage(&[OUTAGE_NODE], OUTAGE_START, Some(OUTAGE_END))
            .with_window(
                FaultSite::SocketLink,
                fabric_faults(),
                OUTAGE_START,
                FABRIC_WINDOW_END,
            )
    }

    /// The managed bundle: prefetch, placement and paged KV under a
    /// 32 GiB budget.
    pub fn policies() -> PolicyConfig {
        PolicyConfig {
            ewma_alpha: 0.25,
            prefetch: Some(PrefetchPolicy {
                threshold: 0.35,
                max_per_wave: 8,
            }),
            placement: Some(PlacementPolicy {
                hot_threshold: 0.5,
                max_replicas_per_eval: 4,
                max_cold_moves: 12,
            }),
            placement_cadence: 4,
            kv: Some(PagedKvConfig {
                page_tokens: 16,
                page_bytes: Bytes::from_mib(8),
                budget: Bytes::from_gib(32),
            }),
        }
    }
}

/// `tenant-chaos`: the `repro tenants` scenario with the `repro obs`
/// pipeline attached.
pub mod tenants {
    use super::*;

    pub const NODES: usize = 4;
    pub const EXPERTS: usize = 120;
    pub const BASE_INTERACTIVE_REQUESTS: usize = 48;
    pub const BASE_BATCH_REQUESTS: usize = 24;
    pub const LOADS: &[f64] = &[0.5, 1.0, 2.0, 4.0];
    /// The load whose `sn-obs/v1` export is rendered.
    pub const FOCUS_LOAD: f64 = 4.0;
    pub const OUTAGE_NODES: &[usize] = &[2, 3];
    pub const OUTAGE_START: TimeSecs = TimeSecs::from_secs(0.05);
    pub const OUTAGE_END: TimeSecs = TimeSecs::from_secs(0.60);
    pub const FABRIC_WINDOW_END: TimeSecs = TimeSecs::from_secs(1.20);
    const ERROR_BUDGET: f64 = 0.05;
    const FAST_WINDOW: usize = 8;
    const SLOW_WINDOW: usize = 32;
    const BURN_FACTOR: f64 = 4.0;
    const TAIL_WAVES: usize = 30;

    pub fn config(seed: u64) -> TenancyConfig {
        TenancyConfig {
            seed,
            prompt_tokens: PROMPT_TOKENS,
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

    pub fn tenants(load: f64) -> Vec<TenantSpec> {
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

    /// The fault script: nodes 2 and 3 crash together during the peak
    /// burst while the fabric runs degraded. Its fault draws stay at the
    /// `repro` seed for every workload seed (see `NOTES.md`).
    pub fn chaos() -> ChaosSchedule {
        ChaosSchedule::new(TENANTS_SEED)
            .with_outage(OUTAGE_NODES, OUTAGE_START, Some(OUTAGE_END))
            .with_window(
                FaultSite::SocketLink,
                fabric_faults(),
                OUTAGE_START,
                FABRIC_WINDOW_END,
            )
    }

    pub fn controller() -> AutoscaleController {
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

    /// Per-tenant SLO burn-rate rules, a shed-rate guard per class and an
    /// HBM hit-rate floor, as `repro obs` watches them.
    pub fn obs_config(load: f64) -> ObsConfig {
        let mut rules = Vec::new();
        for tenant in tenants(load) {
            let labels = [
                ("slo_class", tenant.class.name()),
                ("tenant", tenant.name.as_str()),
            ];
            rules.push(AlertRule {
                name: format!("slo_burn:{}", tenant.name),
                labels: LabelSet::from_pairs(&labels),
                condition: AlertCondition::BurnRate {
                    bad: SeriesKey::new("slo_bad", &labels),
                    total: SeriesKey::new("slo_total", &labels),
                    budget: ERROR_BUDGET,
                    fast_window: FAST_WINDOW,
                    slow_window: SLOW_WINDOW,
                    factor: BURN_FACTOR,
                },
            });
        }
        for class in ["interactive", "batch"] {
            rules.push(AlertRule {
                name: format!("shed_rate:{class}"),
                labels: LabelSet::from_pairs(&[("slo_class", class)]),
                condition: AlertCondition::RatioAbove {
                    bad: SeriesKey::new("requests_shed", &[("slo_class", class)]),
                    total: SeriesKey::new("slo_total", &[("slo_class", class)]),
                    threshold: 0.5,
                    window: FAST_WINDOW,
                },
            });
        }
        rules.push(AlertRule {
            name: "hbm_hit_floor".into(),
            labels: LabelSet::empty(),
            condition: AlertCondition::GaugeBelow {
                series: SeriesKey::new("hbm_hit_rate", &[]),
                threshold: 0.10,
                window: SLOW_WINDOW,
            },
        });
        ObsConfig {
            registry: Default::default(),
            recorder: RecorderConfig {
                ring_capacity: 256,
                tail_waves: TAIL_WAVES,
            },
            rules,
        }
    }
}

/// `cluster-scale`: the `repro intra` cluster shape.
pub mod intra {
    pub const NODES: usize = 16;
    pub const EXPERTS: usize = 480;
    pub const WAVE_SLOTS: usize = 4096;
    pub const WAVE_TOKENS: usize = 8;
}
