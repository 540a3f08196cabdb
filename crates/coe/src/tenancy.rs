//! Multi-tenant serving: admission control, load shedding, preemption,
//! and SLO-driven autoscaling over the cluster, proven under chaos.
//!
//! The paper's serving story assumes a cooperative single stream; a
//! production Samba-CoE deployment faces *named tenants* with different
//! service classes misbehaving together. This module layers that
//! frontend over [`CoeCluster::serve_wave`]:
//!
//! - **Tenants and classes.** Each [`TenantSpec`] carries an SLO class
//!   ([`SloClass::Interactive`] or [`SloClass::Batch`]), a seeded
//!   arrival process, and a token-bucket rate limit. Per-tenant streams
//!   merge into one deterministic arrival sequence ordered by
//!   `(arrival, tenant, index)`.
//! - **Admission and shedding.** Requests pass the tenant's token
//!   bucket, then a bounded per-class queue. Every loss is a first-class
//!   [`ShedRecord`] with a [`ShedReason`] — rate-limited, queue-full,
//!   timed out, or capacity lost — never a silent drop, and the
//!   conservation identity `admitted = completed + shed + pending` is
//!   checkable on every report.
//! - **Priority and preemption.** Waves fill interactive-first; when
//!   interactive demand saturates a wave, in-flight batch chunks are
//!   preempted at the wave boundary (progress kept, resumed later).
//! - **Autoscaling.** An optional [`AutoscaleController`] watches
//!   interactive completions; its decisions apply as
//!   [`CoeCluster::add_node`] + [`CoeCluster::rebalance_experts`] or
//!   [`CoeCluster::drain_node`], each recorded as a `ScaleEvent`.
//! - **Chaos.** An optional [`ChaosSchedule`] crashes/restores
//!   correlated node sets at model-time instants and degrades the wave
//!   fabric inside fault windows — so the degradation modes above are
//!   exercised exactly when capacity matters most.
//!
//! Everything is model time and seed-deterministic: two runs of the same
//! scenario produce byte-identical reports.
//!
//! # Examples
//!
//! Merge two tenants' seeded arrival streams into the deterministic
//! submission order the serving engine consumes:
//!
//! ```
//! use sn_coe::scheduler::ArrivalPattern;
//! use sn_coe::tenancy::{merged_stream, TenancyConfig, TenantSpec};
//! use sn_coe::{RateLimit, SloClass};
//!
//! let tenants = [
//!     TenantSpec {
//!         name: "chat".into(),
//!         class: SloClass::Interactive,
//!         pattern: ArrivalPattern::Poisson { rate_rps: 100.0 },
//!         requests: 4,
//!         rate_limit: RateLimit::unlimited(),
//!     },
//!     TenantSpec {
//!         name: "lab".into(),
//!         class: SloClass::Batch,
//!         pattern: ArrivalPattern::Burst,
//!         requests: 2,
//!         rate_limit: RateLimit::unlimited(),
//!     },
//! ];
//! let stream = merged_stream(&tenants, &TenancyConfig::default());
//! assert_eq!(stream.len(), 6);
//! // Global submission indices follow (arrival, tenant, index) order,
//! // so the t = 0 batch burst lands ahead of the Poisson arrivals.
//! assert!(stream.windows(2).all(|w| w[0].arrival <= w[1].arrival));
//! assert_eq!(stream[0].submit, 0);
//! ```

use crate::autoscale::{AutoscaleController, ScaleDecision, ScaleEvent};
use crate::cluster::{CoeCluster, RebalanceReport, WaveOutcome, WavePlacement, WaveSlot};
use crate::placement::ServingPolicies;
use crate::router::Prompt;
use crate::scheduler::{ArrivalPattern, ArrivalProcess};
use serde::{Deserialize, Serialize};
use sn_arch::{Bytes, TimeSecs};
use sn_faults::{ChaosEvent, ChaosEventKind, ChaosSchedule, FaultDecision, FaultSite};
use sn_obs::Obs;
use sn_profile::BatchObservation;
use sn_runtime::coe::CoeError;
use sn_trace::{Counter, Tracer};
use std::collections::VecDeque;
use std::mem::take;

/// Service class a tenant's traffic belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SloClass {
    /// Latency-sensitive: admitted first, preempts batch, short chunks.
    Interactive,
    /// Throughput traffic: best-effort, preemptible, longer decodes.
    Batch,
}

impl SloClass {
    /// Human-readable class name for tables.
    pub fn name(self) -> &'static str {
        match self {
            SloClass::Interactive => "interactive",
            SloClass::Batch => "batch",
        }
    }
}

/// Token-bucket rate limit for one tenant, in requests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateLimit {
    /// Bucket capacity: the burst a tenant may land at once.
    pub burst: f64,
    /// Sustained refill rate, requests per second of model time.
    pub refill_per_sec: f64,
}

impl RateLimit {
    /// No rate limiting for this tenant.
    pub fn unlimited() -> Self {
        RateLimit {
            burst: f64::INFINITY,
            refill_per_sec: 0.0,
        }
    }

    /// A sustained rate with a burst allowance.
    pub fn per_sec(refill_per_sec: f64, burst: f64) -> Self {
        RateLimit {
            burst,
            refill_per_sec,
        }
    }
}

/// One named tenant: class, traffic shape, and rate limit.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name (reports key summaries by it).
    pub name: String,
    /// Service class of every request this tenant submits.
    pub class: SloClass,
    /// Seeded arrival process shape.
    pub pattern: ArrivalPattern,
    /// Requests the tenant submits over the run.
    pub requests: usize,
    /// Token-bucket admission limit.
    pub rate_limit: RateLimit,
}

/// Per-class queueing and SLO policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassPolicy {
    /// Bounded queue depth; arrivals beyond it shed as
    /// [`ShedReason::QueueFull`] (backpressure).
    pub queue_cap: usize,
    /// A request still queued this long after arrival sheds as
    /// [`ShedReason::TimedOut`].
    pub deadline: TimeSecs,
    /// End-to-end latency bound for goodput accounting (and, for
    /// interactive, the p99 target the autoscaler defends).
    pub slo_bound: TimeSecs,
    /// Decode chunks a request needs: its output is
    /// `chunks * wave_tokens` tokens, one chunk per wave.
    pub chunks: usize,
}

/// Tenancy-engine configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenancyConfig {
    /// Seed for every per-tenant arrival/prompt stream.
    pub seed: u64,
    /// Prompt length in tokens.
    pub prompt_tokens: usize,
    /// Decode tokens served per wave chunk.
    pub wave_tokens: usize,
    /// Wave admission slots per healthy node.
    pub per_node_slots: usize,
    /// Interactive-class policy.
    pub interactive: ClassPolicy,
    /// Batch-class policy.
    pub batch: ClassPolicy,
    /// Safety valve: after this many waves the run sheds whatever is
    /// left as capacity loss instead of looping forever.
    pub max_waves: usize,
}

impl TenancyConfig {
    /// The policy governing `class`.
    pub fn policy(&self, class: SloClass) -> &ClassPolicy {
        match class {
            SloClass::Interactive => &self.interactive,
            SloClass::Batch => &self.batch,
        }
    }
}

impl Default for TenancyConfig {
    fn default() -> Self {
        TenancyConfig {
            seed: 0x007e_4a47,
            prompt_tokens: 512,
            wave_tokens: 8,
            per_node_slots: 4,
            interactive: ClassPolicy {
                queue_cap: 32,
                deadline: TimeSecs::from_millis(500.0),
                slo_bound: TimeSecs::from_millis(250.0),
                chunks: 1,
            },
            batch: ClassPolicy {
                queue_cap: 128,
                deadline: TimeSecs::from_secs(30.0),
                slo_bound: TimeSecs::from_secs(10.0),
                chunks: 4,
            },
            max_waves: 100_000,
        }
    }
}

/// One request of the merged multi-tenant arrival stream.
#[derive(Debug, Clone)]
pub struct TenantRequest {
    /// Index into the scenario's tenant slice.
    pub tenant: usize,
    /// The tenant's class.
    pub class: SloClass,
    /// Global submission index (merged-stream order).
    pub submit: usize,
    /// The prompt to serve.
    pub prompt: Prompt,
    /// Arrival in model time.
    pub arrival: TimeSecs,
}

/// Why a request was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShedReason {
    /// The tenant's token bucket was empty at arrival.
    RateLimited,
    /// The class queue was at capacity (backpressure).
    QueueFull,
    /// Queued past the class deadline.
    TimedOut,
    /// Lost to capacity: no survivor could host the expert, or the run
    /// ended (total outage / wave budget) with the request unserved.
    CapacityLost,
}

impl ShedReason {
    /// Snake-case reason name for tables.
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::RateLimited => "rate_limited",
            ShedReason::QueueFull => "queue_full",
            ShedReason::TimedOut => "timed_out",
            ShedReason::CapacityLost => "capacity_lost",
        }
    }
}

/// A shed request: a first-class outcome, not a silent drop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShedRecord {
    /// Tenant index.
    pub tenant: usize,
    /// The tenant's class.
    pub class: SloClass,
    /// Global submission index.
    pub submit: usize,
    /// When the request arrived.
    pub arrival: TimeSecs,
    /// When it was shed.
    pub at: TimeSecs,
    /// Why it was shed.
    pub reason: ShedReason,
    /// True when the request had been admitted past ingress (queue entry)
    /// before being shed — the flag the conservation identity sorts by.
    pub was_admitted: bool,
}

/// A completed request's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TenantRecord {
    /// Tenant index.
    pub tenant: usize,
    /// The tenant's class.
    pub class: SloClass,
    /// Global submission index.
    pub submit: usize,
    /// Arrival in model time.
    pub arrival: TimeSecs,
    /// When the request first entered a serving wave.
    pub admitted: TimeSecs,
    /// When its first token landed (end of its prefill chunk).
    pub first_token: TimeSecs,
    /// When its last chunk finished.
    pub completed: TimeSecs,
    /// Tokens produced.
    pub output_tokens: usize,
    /// Times the request was bumped from a wave by interactive traffic.
    pub preemptions: u32,
}

impl TenantRecord {
    /// Arrival to first wave entry.
    pub fn queue_delay(&self) -> TimeSecs {
        self.admitted - self.arrival
    }

    /// Arrival to first token.
    pub fn ttft(&self) -> TimeSecs {
        self.first_token - self.arrival
    }

    /// Arrival to completion.
    pub fn latency(&self) -> TimeSecs {
        self.completed - self.arrival
    }
}

/// Per-tenant roll-up for tables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSummary {
    /// Tenant name.
    pub name: String,
    /// Tenant class.
    pub class: SloClass,
    /// Requests the tenant submitted.
    pub submitted: usize,
    /// Requests completed.
    pub completed: usize,
    /// Requests shed (all reasons).
    pub shed: usize,
    /// End-to-end p99 latency over completions (zero when none).
    pub latency_p99: TimeSecs,
}

/// Per-wave phase/occupancy snapshot recorded at every wave boundary
/// of [`CoeCluster::serve_tenants_observed`]. Pure readers of loop
/// state — collecting them never perturbs the serving timeline, so the
/// tracked report fields stay bit-identical with or without consumers.
/// `perfbench` reads them to check per-wave slot accounting and to
/// count served and prefill slots.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WaveFeature {
    /// Wave index (0-based).
    pub wave: usize,
    /// Model time the wave started serving.
    pub start: TimeSecs,
    /// Wave latency after chaos stretching.
    pub latency: TimeSecs,
    /// Occupied slots this wave served.
    pub slots: usize,
    /// Slot capacity at composition time (`per_node_slots × healthy`).
    pub capacity: usize,
    /// Occupied slots holding interactive-class requests.
    pub interactive_slots: usize,
    /// Occupied slots holding batch-class requests.
    pub batch_slots: usize,
    /// Occupied slots running prefill (first chunk) vs pure decode.
    pub prefill_slots: usize,
    /// Interactive queue depth after composition.
    pub queue_interactive: usize,
    /// Batch queue depth after composition.
    pub queue_batch: usize,
    /// Healthy nodes when the wave completed.
    pub healthy_nodes: usize,
    /// Warm expert activations in this wave.
    pub expert_hits: usize,
    /// Cold expert activations in this wave.
    pub expert_misses: usize,
    /// Chaos fabric factor applied to the wave (1.0 = clean).
    pub chaos_factor: f64,
}

/// Result of a multi-tenant serving run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenancyReport {
    /// Completed requests, in completion order.
    pub records: Vec<TenantRecord>,
    /// Shed requests, in shed order.
    pub shed: Vec<ShedRecord>,
    /// Applied capacity actions, in order.
    pub scale_events: Vec<ScaleEvent>,
    /// Serving waves executed.
    pub waves: usize,
    /// Model time from t = 0 to the last wave's completion.
    pub makespan: TimeSecs,
    /// Requests submitted across all tenants.
    pub submitted: usize,
    /// Requests admitted past ingress (token bucket + queue bound).
    pub admitted: usize,
    /// Requests still in the system when the run returned (always zero:
    /// every exit path completes or sheds what remains; kept explicit so
    /// the conservation identity reads in full).
    pub pending: usize,
    /// Preemption events (one per bumped chunk).
    pub preemptions: usize,
    /// Experts re-homed by reactive failover during waves.
    pub rehomed_experts: usize,
    /// Warm expert activations across all waves (HBM-resident on
    /// demand — including activations a prefetch staged).
    pub expert_hits: usize,
    /// Cold expert activations across all waves (each paid a DDR→HBM
    /// switch on the serving path).
    pub expert_misses: usize,
    /// Total DDR→HBM switch time charged on serving paths.
    pub switch_time: TimeSecs,
    /// Waves retransmitted due to a chaos fault-window `Fail` draw on
    /// the socket fabric (each doubled its wave's latency).
    pub chaos_retransmits: usize,
    /// Waves stretched by a chaos fault-window `Slow` draw on the
    /// socket fabric.
    pub chaos_slowdowns: usize,
    /// Healthy nodes when the run returned.
    pub final_nodes: usize,
    /// Per-wave phase/occupancy snapshots, one per executed wave (in
    /// wave order). Collected unconditionally from loop state the run
    /// already computes, so tracked metrics are unaffected.
    pub wave_features: Vec<WaveFeature>,
    /// Tenant names and classes, index-aligned with record fields.
    pub tenants: Vec<(String, SloClass)>,
    /// The engine configuration the run used (carries the class SLO
    /// bounds goodput accounting needs).
    pub config: TenancyConfig,
    /// What the policy layer did, when the run passed
    /// [`CoeCluster::serve_tenants_observed`] a policy bundle; `None` on
    /// plain runs.
    pub policy: Option<crate::placement::PolicyReport>,
}

impl TenancyReport {
    /// Requests shed for `reason`.
    pub fn shed_by(&self, reason: ShedReason) -> usize {
        self.shed.iter().filter(|s| s.reason == reason).count()
    }

    /// Requests rejected at ingress (never admitted).
    pub fn rejected(&self) -> usize {
        self.shed.iter().filter(|s| !s.was_admitted).count()
    }

    /// Admitted requests shed later (timeout, preemption starvation,
    /// capacity loss).
    pub fn shed_after_admission(&self) -> usize {
        self.shed.iter().filter(|s| s.was_admitted).count()
    }

    /// The conservation identity every run must satisfy:
    /// `submitted = admitted + rejected` and
    /// `admitted = completed + shed-after-admission + pending`.
    pub fn conservation_holds(&self) -> bool {
        self.submitted == self.admitted + self.rejected()
            && self.admitted == self.records.len() + self.shed_after_admission() + self.pending
    }

    /// HBM hit rate over demand expert activations: warm over
    /// warm-plus-cold. 1.0 when nothing activated (no switches is a
    /// perfect outcome for this metric).
    pub fn expert_hit_rate(&self) -> f64 {
        let total = self.expert_hits + self.expert_misses;
        if total == 0 {
            1.0
        } else {
            self.expert_hits as f64 / total as f64
        }
    }

    /// Completed records of one class.
    pub fn class_records(&self, class: SloClass) -> impl Iterator<Item = &TenantRecord> {
        self.records.iter().filter(move |r| r.class == class)
    }

    /// Nearest-rank end-to-end latency percentile for a class; zero when
    /// the class completed nothing (NaN-safe by construction).
    pub fn latency_percentile(&self, class: SloClass, q: f64) -> TimeSecs {
        let mut secs: Vec<f64> = self
            .class_records(class)
            .map(|r| r.latency().as_secs())
            .collect();
        sn_profile::sort_for_quantiles(&mut secs);
        TimeSecs::from_secs(sn_profile::nearest_rank_sorted(&secs, q))
    }

    /// Nearest-rank TTFT percentile for a class; zero when empty.
    pub fn ttft_percentile(&self, class: SloClass, q: f64) -> TimeSecs {
        let mut secs: Vec<f64> = self
            .class_records(class)
            .map(|r| r.ttft().as_secs())
            .collect();
        sn_profile::sort_for_quantiles(&mut secs);
        TimeSecs::from_secs(sn_profile::nearest_rank_sorted(&secs, q))
    }

    /// Goodput for a class: completions inside the class SLO bound per
    /// second of makespan. Zero on an empty run (no NaN).
    pub fn goodput_rps(&self, class: SloClass) -> f64 {
        let bound = self.config.policy(class).slo_bound;
        let good = self
            .class_records(class)
            .filter(|r| r.latency() <= bound)
            .count();
        if self.makespan.is_zero() {
            0.0
        } else {
            good as f64 / self.makespan.as_secs()
        }
    }

    /// Per-tenant roll-ups, in tenant order.
    pub fn tenant_summaries(&self) -> Vec<TenantSummary> {
        self.tenants
            .iter()
            .enumerate()
            .map(|(t, (name, class))| {
                let completed: Vec<&TenantRecord> =
                    self.records.iter().filter(|r| r.tenant == t).collect();
                let shed = self.shed.iter().filter(|s| s.tenant == t).count();
                let mut secs: Vec<f64> = completed.iter().map(|r| r.latency().as_secs()).collect();
                sn_profile::sort_for_quantiles(&mut secs);
                TenantSummary {
                    name: name.clone(),
                    class: *class,
                    submitted: completed.len() + shed,
                    completed: completed.len(),
                    shed,
                    latency_p99: TimeSecs::from_secs(sn_profile::nearest_rank_sorted(&secs, 0.99)),
                }
            })
            .collect()
    }
}

/// Builds the deterministic merged arrival stream: each tenant's seeded
/// process generates independently, then streams merge ordered by
/// `(arrival, tenant index, per-tenant index)` and take global
/// submission indices in that order.
pub fn merged_stream(tenants: &[TenantSpec], config: &TenancyConfig) -> Vec<TenantRequest> {
    let mut merged: Vec<(TimeSecs, usize, usize, Prompt)> = Vec::new();
    for (t, spec) in tenants.iter().enumerate() {
        let seed = tenant_seed(config.seed, t);
        let process = ArrivalProcess::new(seed, config.prompt_tokens, spec.pattern);
        for (i, r) in process.generate(spec.requests).into_iter().enumerate() {
            merged.push((r.arrival, t, i, r.prompt));
        }
    }
    merged.sort_by(|a, b| {
        a.0.as_secs()
            .total_cmp(&b.0.as_secs())
            .then_with(|| a.1.cmp(&b.1))
            .then_with(|| a.2.cmp(&b.2))
    });
    merged
        .into_iter()
        .enumerate()
        .map(|(submit, (arrival, tenant, _, prompt))| TenantRequest {
            tenant,
            class: tenants[tenant].class,
            submit,
            prompt,
            arrival,
        })
        .collect()
}

/// Splitmix64-style per-tenant stream seed, so tenants draw independent
/// arrival and prompt streams from one scenario seed.
fn tenant_seed(seed: u64, tenant: usize) -> u64 {
    let mut z = seed ^ (tenant as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Token bucket refilled on model time; deterministic because the
/// merged stream visits it in nondecreasing arrival order per tenant.
#[derive(Debug)]
struct TokenBucket {
    level: f64,
    last: TimeSecs,
    limit: RateLimit,
}

impl TokenBucket {
    fn new(limit: RateLimit) -> Self {
        assert!(
            limit.burst >= 0.0 && limit.refill_per_sec >= 0.0,
            "negative rate limit"
        );
        TokenBucket {
            level: limit.burst,
            last: TimeSecs::ZERO,
            limit,
        }
    }

    fn admit(&mut self, now: TimeSecs) -> bool {
        let dt = (now - self.last).as_secs().max(0.0);
        self.level = (self.level + dt * self.limit.refill_per_sec).min(self.limit.burst);
        self.last = now;
        if self.level >= 1.0 {
            self.level -= 1.0;
            true
        } else {
            false
        }
    }
}

/// A request inside the engine (queued or in flight).
#[derive(Debug, Clone)]
struct Pending {
    req: TenantRequest,
    /// First wave entry, set on first admission to a wave.
    admitted: Option<TimeSecs>,
    /// First token landing, set by the first served chunk.
    first_token: Option<TimeSecs>,
    chunks_left: usize,
    preemptions: u32,
}

impl CoeCluster {
    /// Runs the multi-tenant serving engine to completion: merges the
    /// tenants' arrival streams, applies admission control, serves
    /// priority waves via [`CoeCluster::serve_wave`], applies `chaos`
    /// crash/restore events and fault windows at wave boundaries, and
    /// lets `autoscaler` grow/shrink the cluster between waves.
    ///
    /// Every submitted request ends exactly one way — completed, or shed
    /// with a reason — so [`TenancyReport::conservation_holds`] is an
    /// invariant of every return path (a run that hits a total outage
    /// with no scheduled recovery sheds the remainder as
    /// [`ShedReason::CapacityLost`] rather than erroring).
    ///
    /// A [`ServingPolicies`] bundle drives predictive prefetch,
    /// stats-driven placement, and paged KV management at wave
    /// boundaries: each wave's router pass feeds
    /// [`crate::placement::ExpertStats`] and the prefetch policy stages
    /// predicted-hot experts DDR→HBM for the *next* wave; on a cadence
    /// the placement policy replicates hot experts and spreads cold ones
    /// via [`CoeCluster::apply_placement`]; each served chunk touches the
    /// [`crate::kv::PagedKvCache`], whose evictions ride
    /// [`Counter::KvPagesEvicted`] and whose refaulted live pages charge
    /// a DDR→HBM refill. These background transfers overlap the next
    /// wave's compute; only the excess beyond the wave's latency is
    /// exposed on the model clock (and reported as `transfer_exposed`),
    /// so mispredictions cost real bandwidth and — under short waves —
    /// real time. With `policies = None` every hook is a no-op and the
    /// report's `policy` field is `None`.
    ///
    /// An enabled [`Obs`] pipeline samples labeled per-tenant/per-node
    /// series at every wave boundary (wave latency, queue depths, HBM
    /// hit rate, per-tenant SLO good/bad counters), evaluates its alert
    /// rules, and feeds the flight recorder — chaos crashes, fault-window
    /// openings, and firing alerts open post-mortem captures. It only
    /// *reads* serving state: the report is bit-identical to the same
    /// run with `Obs::disabled()` (the contract `sn-trace` keeps). Alert
    /// transitions and frozen bundles ride the tracer as
    /// [`Counter::AlertsFired`], [`Counter::AlertsResolved`], and
    /// [`Counter::PostmortemsCaptured`].
    ///
    /// # Errors
    ///
    /// Propagates unexpected runtime errors from expert placement;
    /// exhausting capacity is *not* an error (it sheds).
    pub fn serve_tenants_observed(
        &mut self,
        tenants: &[TenantSpec],
        config: &TenancyConfig,
        chaos: Option<&ChaosSchedule>,
        autoscaler: Option<&mut AutoscaleController>,
        policies: Option<&mut ServingPolicies>,
        obs: &Obs,
    ) -> Result<TenancyReport, CoeError> {
        TenancyEngine::new(self, tenants, config, chaos, autoscaler, policies, obs).run()
    }
}

/// One tenancy run. [`TenancyEngine::run`] calls one method per phase of
/// a wave boundary, in the order DESIGN.md §9 explains. The report
/// accumulates in place (its `config` and `tenants` are the run's
/// inputs), and each event — shed, scale action, completion, wave — is
/// recorded, counted, and observed by exactly one method.
struct TenancyEngine<'a> {
    cluster: &'a mut CoeCluster,
    chaos: Option<&'a ChaosSchedule>,
    autoscaler: Option<&'a mut AutoscaleController>,
    policies: Option<&'a mut ServingPolicies>,
    obs: &'a Obs,
    tracer: Tracer,
    /// Requests not yet taken, in submission order.
    stream: VecDeque<TenantRequest>,
    /// Crash/restore events not yet applied, in timeline order.
    chaos_events: VecDeque<ChaosEvent>,
    /// Fault-window openings not yet crossed, in start order (stable
    /// sort keeps declaration order for ties). Only materialized when
    /// the pipeline records: each crossing opens a post-mortem capture.
    window_opens: VecDeque<(TimeSecs, FaultSite)>,
    buckets: Vec<TokenBucket>,
    /// Admitted requests awaiting a wave, one arrival-ordered queue per
    /// class, indexed by `SloClass as usize`.
    queues: [VecDeque<Pending>; 2],
    inflight: Vec<Pending>,
    clock: TimeSecs,
    /// Background-transfer debt: prefetch, placement, and KV-refill
    /// time incurred at a wave boundary, drained against the next
    /// wave's latency (hidden) with the excess exposed on the clock.
    transfer_debt: TimeSecs,
    last_placement_wave: Option<usize>,
    report: TenancyReport,
}

/// What the phases after serving read of one served wave.
struct ServedWave {
    outcome: WaveOutcome,
    slots: Vec<WaveSlot>,
    feature: WaveFeature,
}

impl<'a> TenancyEngine<'a> {
    fn new(
        cluster: &'a mut CoeCluster,
        tenants: &[TenantSpec],
        config: &TenancyConfig,
        chaos: Option<&'a ChaosSchedule>,
        autoscaler: Option<&'a mut AutoscaleController>,
        policies: Option<&'a mut ServingPolicies>,
        obs: &'a Obs,
    ) -> Self {
        let stream: VecDeque<TenantRequest> = merged_stream(tenants, config).into();
        let buckets = tenants.iter().map(|t| TokenBucket::new(t.rate_limit));
        let mut window_opens: Vec<(TimeSecs, FaultSite)> = match chaos {
            Some(c) if obs.is_enabled() => c.windows().iter().map(|w| (w.start, w.site)).collect(),
            _ => Vec::new(),
        };
        window_opens.sort_by(|a, b| a.0.as_secs().total_cmp(&b.0.as_secs()));
        TenancyEngine {
            tracer: cluster.tracer().clone(),
            cluster,
            chaos,
            autoscaler,
            policies,
            obs,
            chaos_events: chaos.map(|c| c.events()).unwrap_or_default().into(),
            window_opens: window_opens.into(),
            buckets: buckets.collect(),
            queues: Default::default(),
            inflight: Vec::new(),
            clock: TimeSecs::ZERO,
            transfer_debt: TimeSecs::ZERO,
            last_placement_wave: None,
            report: TenancyReport {
                records: Vec::new(),
                shed: Vec::new(),
                scale_events: Vec::new(),
                waves: 0,
                makespan: TimeSecs::ZERO,
                submitted: stream.len(),
                admitted: 0,
                pending: 0,
                preemptions: 0,
                rehomed_experts: 0,
                expert_hits: 0,
                expert_misses: 0,
                switch_time: TimeSecs::ZERO,
                chaos_retransmits: 0,
                chaos_slowdowns: 0,
                final_nodes: 0,
                wave_features: Vec::new(),
                tenants: tenants.iter().map(|t| (t.name.clone(), t.class)).collect(),
                config: config.clone(),
                policy: None,
            },
            stream,
        }
    }

    fn run(mut self) -> Result<TenancyReport, CoeError> {
        loop {
            self.admit_arrivals();
            if self.is_idle() {
                // Idle: jump model time to the next arrival, or finish.
                let Some(next) = self.stream.front() else {
                    break;
                };
                self.clock = self.clock.max(next.arrival);
                continue;
            }
            self.apply_chaos();
            self.shed_expired();
            if self.is_idle() {
                continue;
            }
            if self.cluster.healthy_nodes() == 0 {
                // Total outage: wait for a scheduled recovery, else shed out.
                let Some(at) = self.next_restore() else { break };
                self.clock = self.clock.max(at);
                continue;
            }
            if self.report.waves >= self.report.config.max_waves {
                break;
            }
            self.autoscale();
            self.place();
            let (wave, capacity) = self.compose();
            let Some(served) = self.serve(&wave, capacity)? else {
                // Fault-plan draws downed the rest mid-wave: requeue in
                // order and let the outage check decide next iteration.
                for p in wave.into_iter().rev() {
                    self.queues[p.req.class as usize].push_front(p);
                }
                continue;
            };
            self.settle(wave, &served);
            self.check_conservation();
            self.prefetch(&served);
            self.wave_observed(served.feature);
        }
        Ok(self.finish())
    }

    fn is_idle(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty) && self.inflight.is_empty()
    }

    /// Every request taken from the stream sits in exactly one place:
    /// completed, shed, queued, or in flight.
    fn check_conservation(&self) {
        let queued: usize = self.queues.iter().map(VecDeque::len).sum();
        debug_assert_eq!(
            self.report.submitted - self.stream.len(),
            self.report.records.len() + self.report.shed.len() + queued + self.inflight.len(),
            "wave {} lost or duplicated a request",
            self.report.waves
        );
    }

    /// Takes the next submitted request if it arrived by `by`.
    fn take_request(&mut self, by: TimeSecs) -> Option<TenantRequest> {
        let r = self.stream.pop_front_if(|r| r.arrival <= by)?;
        self.tracer.count(Counter::TenantRequests, 1);
        Some(r)
    }

    /// Ingress: admit (or shed) everything that has arrived.
    fn admit_arrivals(&mut self) {
        while let Some(r) = self.take_request(self.clock) {
            if !self.buckets[r.tenant].admit(r.arrival) {
                self.shed(&r, r.arrival, ShedReason::RateLimited, false);
                continue;
            }
            let policy = *self.report.config.policy(r.class);
            let queue = &mut self.queues[r.class as usize];
            if queue.len() >= policy.queue_cap {
                self.shed(&r, r.arrival, ShedReason::QueueFull, false);
                continue;
            }
            queue.push_back(Pending {
                req: r,
                admitted: None,
                first_token: None,
                chunks_left: policy.chunks.max(1),
                preemptions: 0,
            });
            self.report.admitted += 1;
            self.tracer.count(Counter::RequestsAdmitted, 1);
        }
    }

    /// Chaos timeline: crashes and restores due by now, then the fault
    /// windows opening by now, each of which starts a post-mortem capture
    /// (a crash window here is redundant with the crash event; the
    /// recorder extends the open capture instead of forking a second one).
    fn apply_chaos(&mut self) {
        let (wave, clock) = (self.report.waves, self.clock);
        while let Some(ev) = self.chaos_events.pop_front_if(|e| e.at <= clock) {
            if ev.node >= self.cluster.nodes() {
                continue;
            }
            let kind = match ev.kind {
                ChaosEventKind::Crash => {
                    self.cluster.fail_node(ev.node);
                    "node_crash"
                }
                ChaosEventKind::Restore => {
                    self.cluster.restore_node(ev.node);
                    "node_restore"
                }
            };
            self.obs.event(wave, clock, Some(ev.node), kind, "", 0.0);
            if ev.kind == ChaosEventKind::Crash {
                self.obs.incident("chaos_outage", wave, clock);
            }
        }
        while let Some((start, site)) = self.window_opens.pop_front_if(|w| w.0 <= clock) {
            let name = site.name();
            self.obs
                .event(wave, clock, None, "fault_window_open", name, 0.0);
            let trigger = format!("fault_window:{name}");
            self.obs.incident(&trigger, wave, start.max(clock));
        }
    }

    /// Deadline sheds: queues are arrival-ordered, pop stale fronts.
    fn shed_expired(&mut self) {
        let clock = self.clock;
        for class in [SloClass::Interactive, SloClass::Batch] {
            let deadline = self.report.config.policy(class).deadline;
            let queue = class as usize;
            let stale = |p: &mut Pending| clock - p.req.arrival > deadline;
            while let Some(p) = self.queues[queue].pop_front_if(stale) {
                self.shed(&p.req, clock, ShedReason::TimedOut, true);
            }
        }
    }

    /// The next scheduled restore of a node that exists, if any.
    fn next_restore(&self) -> Option<TimeSecs> {
        let nodes = self.cluster.nodes();
        let restore = |e: &&ChaosEvent| e.kind == ChaosEventKind::Restore && e.node < nodes;
        self.chaos_events.iter().find(restore).map(|e| e.at)
    }

    /// Capacity control at the wave boundary.
    fn autoscale(&mut self) {
        let Some(controller) = self.autoscaler.as_deref_mut() else {
            return;
        };
        let from_nodes = self.cluster.healthy_nodes();
        let decision = controller.evaluate(from_nodes);
        let rebalance = match decision {
            ScaleDecision::Hold => return,
            ScaleDecision::Up => {
                self.cluster.add_node();
                self.cluster.rebalance_experts()
            }
            ScaleDecision::Down => {
                let failed = self.cluster.failed_nodes();
                let victim = (0..self.cluster.nodes()).rfind(|i| !failed.contains(i));
                match victim.map(|v| self.cluster.drain_node(v)) {
                    Some(Ok(rebalance)) => rebalance,
                    _ => return,
                }
            }
        };
        self.scaled(decision, from_nodes, rebalance);
    }

    /// Stats-driven placement on its cadence: replicate hot experts,
    /// spread cold ones. Weight movement is backgroundable (it joins the
    /// transfer debt, not the serving path).
    fn place(&mut self) {
        let wave = self.report.waves;
        let Some(pol) = self.policies.as_deref_mut() else {
            return;
        };
        if !pol.placement_due(wave as u64) || self.last_placement_wave == Some(wave) {
            return;
        }
        self.last_placement_wave = Some(wave);
        if let Some(plan) = pol.plan_placement(&self.cluster.placement_view()) {
            if !plan.is_empty() {
                let applied = self.cluster.apply_placement(&plan);
                pol.report.experts_replicated += applied.replicated;
                pol.report.cold_moves += applied.moves;
                self.transfer_debt += applied.transfer_time;
            }
        }
    }

    /// Composes the wave: continuing interactive, new interactive, then
    /// batch into whatever slots remain — interactive demand preempts
    /// in-flight batch at this boundary. Returns the wave and its slot
    /// capacity.
    fn compose(&mut self) -> (Vec<Pending>, usize) {
        let capacity = self.report.config.per_node_slots.max(1) * self.cluster.healthy_nodes();
        let (mut wave, mut continuing_batch): (Vec<Pending>, Vec<Pending>) = self
            .inflight
            .drain(..)
            .partition(|p| p.req.class == SloClass::Interactive);
        self.fill(&mut wave, SloClass::Interactive, capacity);
        let room = capacity.saturating_sub(wave.len());
        let bumped = continuing_batch.split_off(room.min(continuing_batch.len()));
        wave.append(&mut continuing_batch);
        for mut p in bumped.into_iter().rev() {
            p.preemptions += 1;
            self.report.preemptions += 1;
            self.tracer.count(Counter::RequestsPreempted, 1);
            self.queues[SloClass::Batch as usize].push_front(p);
        }
        self.fill(&mut wave, SloClass::Batch, capacity);
        (wave, capacity)
    }

    /// Fills `wave` up to `capacity` from the front of `class`'s queue,
    /// stamping first admission at the clock.
    fn fill(&mut self, wave: &mut Vec<Pending>, class: SloClass, capacity: usize) {
        while wave.len() < capacity {
            let Some(mut p) = self.queues[class as usize].pop_front() else {
                break;
            };
            p.admitted.get_or_insert(self.clock);
            wave.push(p);
        }
    }

    /// Serves the wave, stretches it by the chaos fabric factor, and
    /// drains the transfer debt against it. `None` when fault-plan draws
    /// downed every node mid-wave.
    fn serve(&mut self, wave: &[Pending], capacity: usize) -> Result<Option<ServedWave>, CoeError> {
        let slots: Vec<WaveSlot> = wave
            .iter()
            .map(|p| WaveSlot {
                prompt: p.req.prompt.clone(),
                prefill: p.first_token.is_none(),
            })
            .collect();
        let outcome = match self
            .cluster
            .serve_wave(&slots, self.report.config.wave_tokens)
        {
            Ok(outcome) => outcome,
            Err(CoeError::NoHealthyNodes) => return Ok(None),
            Err(e) => return Err(e),
        };
        self.report.rehomed_experts += outcome.rehomed_experts;
        self.report.expert_hits += outcome.expert_hits;
        self.report.expert_misses += outcome.expert_misses;
        self.report.switch_time += outcome.switch_time;

        // Chaos fault windows degrade the wave fabric: a slowdown
        // stretches the wave, a failure retransmits it (×2).
        let start = self.clock;
        let factor = match self.chaos.map(|c| c.decide(FaultSite::SocketLink, start)) {
            None | Some(FaultDecision::Ok) => 1.0,
            Some(FaultDecision::Slow(f)) => {
                self.report.chaos_slowdowns += 1;
                f
            }
            Some(FaultDecision::Fail) => {
                self.report.chaos_retransmits += 1;
                2.0
            }
        };
        let latency = stretch(outcome.latency, factor);
        self.clock = start + latency;

        // Drain background-transfer debt against this wave: the wave's
        // compute hides what it can; the rest stalls the clock.
        let debt = take(&mut self.transfer_debt);
        let exposed = debt - TimeSecs::from_secs(debt.as_secs().min(latency.as_secs()));
        if !exposed.is_zero() {
            self.clock += exposed;
            if let Some(pol) = self.policies.as_deref_mut() {
                pol.report.transfer_exposed += exposed;
            }
        }

        let interactive_slots = wave
            .iter()
            .filter(|p| p.req.class == SloClass::Interactive)
            .count();
        let feature = WaveFeature {
            wave: self.report.waves,
            start,
            latency,
            slots: slots.len(),
            capacity,
            interactive_slots,
            batch_slots: slots.len() - interactive_slots,
            prefill_slots: slots.iter().filter(|s| s.prefill).count(),
            queue_interactive: self.queues[SloClass::Interactive as usize].len(),
            queue_batch: self.queues[SloClass::Batch as usize].len(),
            healthy_nodes: self.cluster.healthy_nodes(),
            expert_hits: outcome.expert_hits,
            expert_misses: outcome.expert_misses,
            chaos_factor: factor,
        };
        let served = ServedWave {
            outcome,
            slots,
            feature,
        };
        Ok(Some(served))
    }

    /// Settles slots: complete, keep in flight, or shed drops.
    fn settle(&mut self, wave: Vec<Pending>, served: &ServedWave) {
        let (start, factor) = (served.feature.start, served.feature.chaos_factor);
        for (mut p, placement) in wave.into_iter().zip(&served.outcome.placements) {
            let WavePlacement::Served {
                first_token, done, ..
            } = *placement
            else {
                // Dropped: no survivor could host the slot's expert.
                if let Some(kv) = self.policies.as_deref_mut().and_then(|pol| pol.kv.as_mut()) {
                    kv.finish(p.req.submit as u64);
                }
                self.shed(&p.req, self.clock, ShedReason::CapacityLost, true);
                continue;
            };
            p.first_token
                .get_or_insert(start + stretch(first_token, factor));
            p.chunks_left -= 1;
            self.touch_kv(&p);
            if p.chunks_left > 0 {
                self.inflight.push(p);
                continue;
            }
            let config = &self.report.config;
            self.completed(TenantRecord {
                tenant: p.req.tenant,
                class: p.req.class,
                submit: p.req.submit,
                arrival: p.req.arrival,
                admitted: p.admitted.expect("served implies admitted"),
                first_token: p.first_token.expect("first chunk set it"),
                completed: start + stretch(done, factor),
                output_tokens: config.policy(p.req.class).chunks.max(1) * config.wave_tokens,
                preemptions: p.preemptions,
            });
        }
    }

    /// Paged KV: the request's context grew by one chunk. Evictions are
    /// pressure; refaulted live pages refill DDR→HBM as background debt.
    fn touch_kv(&mut self, p: &Pending) {
        let Some(kv) = self.policies.as_deref_mut().and_then(|pol| pol.kv.as_mut()) else {
            return;
        };
        let config = &self.report.config;
        let done_chunks = config.policy(p.req.class).chunks.max(1) - p.chunks_left;
        let tokens = config.prompt_tokens + done_chunks * config.wave_tokens;
        let touch = kv.touch(p.req.submit as u64, tokens);
        if touch.evicted > 0 {
            self.tracer.count(Counter::KvPagesEvicted, touch.evicted);
        }
        if touch.refaulted > 0 {
            let bytes = kv.config().page_bytes * touch.refaulted;
            self.transfer_debt += bytes / self.cluster.node_spec().model_switch_bandwidth();
        }
        if p.chunks_left == 0 {
            kv.finish(p.req.submit as u64);
        }
    }

    /// Router statistics + predictive prefetch at the wave boundary:
    /// observe where this wave's router pass went, then stage the
    /// predicted-hot set for the *next* wave (stale speculation expires
    /// as wasted bandwidth at the next boundary).
    fn prefetch(&mut self, served: &ServedWave) {
        let Some(pol) = self.policies.as_deref_mut() else {
            return;
        };
        let route = |s: &WaveSlot| self.cluster.routed_expert(&s.prompt);
        pol.stats
            .observe_wave(&served.slots.iter().map(route).collect::<Vec<_>>());
        let candidates = pol.prefetch_candidates();
        if !candidates.is_empty() {
            let cap = pol.max_prefetch_per_wave();
            let loads = &served.outcome.prompts_per_node;
            let issued = self.cluster.prefetch_experts(&candidates, loads, cap);
            pol.report.prefetch_issued += issued.issued;
            self.transfer_debt += issued.transfer_time;
        }
    }

    /// Sheds a request: records it, counts it, and burns its tenant's
    /// SLO budget in the telemetry pipeline.
    fn shed(&mut self, r: &TenantRequest, at: TimeSecs, reason: ShedReason, was_admitted: bool) {
        self.report.shed.push(ShedRecord {
            tenant: r.tenant,
            class: r.class,
            submit: r.submit,
            arrival: r.arrival,
            at,
            reason,
            was_admitted,
        });
        self.tracer.count(Counter::RequestsShed, 1);
        if self.obs.is_enabled() {
            let tenant_name = self.report.tenants[r.tenant].0.as_str();
            let labels = [("slo_class", r.class.name()), ("tenant", tenant_name)];
            self.obs.add("requests_shed", &labels, 1.0);
            let by_reason = [("reason", reason.name()), labels[0], labels[1]];
            self.obs.add("requests_shed_by_reason", &by_reason, 1.0);
            // Sheds burn SLO budget: a request the platform lost is a bad
            // outcome for its tenant's error budget.
            self.obs.add("slo_bad", &labels, 1.0);
            self.obs.add("slo_total", &labels, 1.0);
            let detail = format!("{tenant_name} {}", reason.name());
            self.obs
                .event(self.report.waves, at, None, "shed", &detail, 1.0);
        }
    }

    /// Records an applied capacity action.
    fn scaled(&mut self, decision: ScaleDecision, from_nodes: usize, rebalance: RebalanceReport) {
        let (counter, kind) = if decision == ScaleDecision::Up {
            (Counter::ScaleUps, "scale_up")
        } else {
            (Counter::ScaleDowns, "scale_down")
        };
        self.tracer.count(counter, 1);
        let (wave, at, moved) = (self.report.waves, self.clock, rebalance.moved_experts);
        self.report.scale_events.push(ScaleEvent {
            wave,
            at,
            decision,
            from_nodes,
            to_nodes: self.cluster.healthy_nodes(),
            moved_experts: moved,
            transfer_time: rebalance.transfer_time,
        });
        self.obs.event(wave, at, None, kind, "", moved as f64);
    }

    /// Records a completion: interactive latencies feed the autoscaler,
    /// and every completion counts toward its tenant's SLO.
    fn completed(&mut self, record: TenantRecord) {
        if record.class == SloClass::Interactive {
            if let Some(controller) = self.autoscaler.as_deref_mut() {
                controller.observe(BatchObservation {
                    latency: record.latency(),
                    ttft: record.ttft(),
                    prompts: 1,
                    tokens: record.output_tokens,
                    hbm_bytes: Bytes::ZERO,
                    ddr_bytes: Bytes::ZERO,
                });
            }
        }
        if self.obs.is_enabled() {
            let tenant_name = self.report.tenants[record.tenant].0.as_str();
            let labels = [("slo_class", record.class.name()), ("tenant", tenant_name)];
            self.obs.add("completions", &labels, 1.0);
            self.obs.add("slo_total", &labels, 1.0);
            if record.latency() > self.report.config.policy(record.class).slo_bound {
                self.obs.add("slo_bad", &labels, 1.0);
            }
        }
        self.report.records.push(record);
    }

    /// Closes a served wave: counts it, keeps its feature snapshot, and
    /// flushes its gauges into the telemetry pipeline. The snapshot and
    /// the gauges only read state the wave already computed, so observed
    /// and blind runs serve bit-identical timelines.
    fn wave_observed(&mut self, f: WaveFeature) {
        self.report.waves += 1;
        self.tracer.count(Counter::AdmissionWaves, 1);
        if self.obs.is_enabled() {
            let obs = self.obs;
            obs.gauge("wave_latency_ms", &[], f.latency.as_secs() * 1e3);
            obs.gauge("healthy_nodes", &[], f.healthy_nodes as f64);
            let activations = f.expert_hits + f.expert_misses;
            if activations > 0 {
                obs.gauge(
                    "hbm_hit_rate",
                    &[],
                    f.expert_hits as f64 / activations as f64,
                );
            }
            let (interactive, batch) = (f.queue_interactive as f64, f.queue_batch as f64);
            obs.gauge("queue_depth", &[("slo_class", "interactive")], interactive);
            obs.gauge("queue_depth", &[("slo_class", "batch")], batch);
            self.end_obs_wave(f.wave);
        }
        self.report.wave_features.push(f);
    }

    /// Ends an obs wave at the clock: evaluates alert rules, ticks the
    /// flight recorder, and counts the alert transitions and closed
    /// post-mortems it reports.
    fn end_obs_wave(&self, wave: usize) {
        let seen = self.obs.end_wave(wave, self.clock);
        if seen.fired > 0 {
            self.tracer.count(Counter::AlertsFired, seen.fired as u64);
        }
        if seen.resolved > 0 {
            self.tracer
                .count(Counter::AlertsResolved, seen.resolved as u64);
        }
        if seen.postmortem_closed {
            self.tracer.count(Counter::PostmortemsCaptured, 1);
        }
    }

    /// Final drain and policy settle, then the report.
    fn finish(mut self) -> TenancyReport {
        // Whatever is still in the system (total outage or wave budget)
        // sheds as capacity loss; requests never ingested shed at their
        // arrival, un-admitted.
        let left = take(&mut self.queues).into_iter().flatten();
        for p in left.chain(take(&mut self.inflight)) {
            self.shed(&p.req, self.clock, ShedReason::CapacityLost, true);
        }
        while let Some(r) = self.take_request(TimeSecs::from_secs(f64::INFINITY)) {
            let at = r.arrival.max(self.clock);
            self.shed(&r, at, ShedReason::CapacityLost, false);
        }

        // Settle the policy bundle: expire leftover speculation as waste,
        // then fold the cluster's prefetch totals and the KV cache's
        // conservation stats into the report.
        if let Some(pol) = self.policies.as_deref_mut() {
            self.cluster.expire_prefetches();
            (pol.report.prefetch_hits, pol.report.prefetch_wasted) = self.cluster.prefetch_totals();
            if let Some(kv) = pol.kv.as_ref() {
                pol.report.absorb_kv(kv.stats());
            }
        }

        // One last boundary so final-drain sheds land in the series and a
        // still-open capture gets counted (finalize() will freeze it).
        if self.obs.is_enabled() {
            self.end_obs_wave(self.report.waves);
            if self.obs.is_capturing() {
                self.tracer.count(Counter::PostmortemsCaptured, 1);
            }
        }
        self.check_conservation();
        self.report.makespan = self.clock;
        self.report.final_nodes = self.cluster.healthy_nodes();
        self.report.policy = self.policies.as_deref().map(|p| p.report);
        self.report
    }
}

/// Scales a wave-relative offset by the chaos fabric factor (1.0 leaves
/// it bit-exact).
fn stretch(t: TimeSecs, factor: f64) -> TimeSecs {
    if factor == 1.0 {
        t
    } else {
        t * factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expert::ExpertLibrary;
    use sn_arch::NodeSpec;

    fn cluster(nodes: usize) -> CoeCluster {
        CoeCluster::new(NodeSpec::sn40l_node(), nodes, ExpertLibrary::new(120), 512).expect("fits")
    }

    fn interactive_tenant(requests: usize) -> TenantSpec {
        TenantSpec {
            name: "chat".into(),
            class: SloClass::Interactive,
            pattern: ArrivalPattern::Burst,
            requests,
            rate_limit: RateLimit::unlimited(),
        }
    }

    fn batch_tenant(requests: usize) -> TenantSpec {
        TenantSpec {
            name: "lab".into(),
            class: SloClass::Batch,
            pattern: ArrivalPattern::Burst,
            requests,
            rate_limit: RateLimit::unlimited(),
        }
    }

    #[test]
    fn merged_stream_is_sorted_and_deterministic() {
        let tenants = [
            TenantSpec {
                pattern: ArrivalPattern::Poisson { rate_rps: 50.0 },
                ..interactive_tenant(20)
            },
            TenantSpec {
                pattern: ArrivalPattern::BurstTrain {
                    size: 5,
                    period: TimeSecs::from_millis(40.0),
                },
                ..batch_tenant(15)
            },
        ];
        let config = TenancyConfig::default();
        let a = merged_stream(&tenants, &config);
        let b = merged_stream(&tenants, &config);
        assert_eq!(a.len(), 35);
        assert!(
            a.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "arrival-ordered"
        );
        assert!(a.iter().enumerate().all(|(i, r)| r.submit == i));
        let fmt = |s: &[TenantRequest]| format!("{s:?}");
        assert_eq!(fmt(&a), fmt(&b), "same seed, same stream");
    }

    #[test]
    fn burst_of_interactive_requests_all_complete() {
        let mut cluster = cluster(2);
        let report = cluster
            .serve_tenants_observed(
                &[interactive_tenant(12)],
                &TenancyConfig::default(),
                None,
                None,
                None,
                &Obs::disabled(),
            )
            .unwrap();
        assert_eq!(report.submitted, 12);
        assert_eq!(report.admitted, 12);
        assert_eq!(report.records.len(), 12);
        assert!(report.shed.is_empty());
        assert!(report.conservation_holds());
        assert!(report.waves >= 2, "12 requests > 8 slots: several waves");
        for r in &report.records {
            assert!(r.arrival <= r.admitted);
            assert!(r.admitted < r.first_token);
            assert!(r.first_token <= r.completed);
            assert!(r.completed <= report.makespan);
            assert_eq!(r.output_tokens, 8);
        }
        assert!(report.goodput_rps(SloClass::Interactive) > 0.0);
    }

    #[test]
    fn token_bucket_sheds_rate_limited_requests() {
        let mut cluster = cluster(2);
        let tenant = TenantSpec {
            rate_limit: RateLimit::per_sec(0.0, 5.0),
            ..interactive_tenant(12)
        };
        let report = cluster
            .serve_tenants_observed(
                &[tenant],
                &TenancyConfig::default(),
                None,
                None,
                None,
                &Obs::disabled(),
            )
            .unwrap();
        assert_eq!(report.shed_by(ShedReason::RateLimited), 7, "burst of 5");
        assert_eq!(report.records.len(), 5);
        assert_eq!(report.rejected(), 7);
        assert!(report.conservation_holds());
    }

    #[test]
    fn bounded_queue_sheds_queue_full() {
        let mut cluster = cluster(2);
        let mut config = TenancyConfig::default();
        config.interactive.queue_cap = 4;
        let report = cluster
            .serve_tenants_observed(
                &[interactive_tenant(30)],
                &config,
                None,
                None,
                None,
                &Obs::disabled(),
            )
            .unwrap();
        // A t = 0 burst of 30 hits a queue bounded at 4: the burst beyond
        // the cap sheds as backpressure.
        assert_eq!(report.shed_by(ShedReason::QueueFull), 26);
        assert_eq!(report.records.len(), 4);
        assert!(report.conservation_holds());
    }

    #[test]
    fn interactive_preempts_inflight_batch() {
        let mut cluster = cluster(2);
        let mut config = TenancyConfig::default();
        config.batch.chunks = 6;
        config.per_node_slots = 2; // 4 slots over 2 nodes
        let tenants = [
            // Batch backlog lands first and occupies the wave...
            batch_tenant(8),
            // ...then an interactive burst arrives and wants every slot.
            TenantSpec {
                pattern: ArrivalPattern::Poisson { rate_rps: 400.0 },
                ..interactive_tenant(24)
            },
        ];
        let report = cluster
            .serve_tenants_observed(&tenants, &config, None, None, None, &Obs::disabled())
            .unwrap();
        assert!(report.preemptions > 0, "batch chunks must get bumped");
        assert!(report.conservation_holds());
        let batch_done: Vec<&TenantRecord> = report.class_records(SloClass::Batch).collect();
        assert!(
            batch_done.iter().any(|r| r.preemptions > 0),
            "some completed batch request resumed after preemption"
        );
        assert!(
            report.latency_percentile(SloClass::Interactive, 0.99)
                < report.latency_percentile(SloClass::Batch, 0.99),
            "priority shows in the per-class tail"
        );
    }

    #[test]
    fn deadline_sheds_timed_out_requests() {
        let mut cluster = cluster(1);
        let mut config = TenancyConfig {
            per_node_slots: 1,
            ..TenancyConfig::default()
        };
        config.interactive.deadline = TimeSecs::from_millis(1.0);
        config.interactive.queue_cap = 64;
        let report = cluster
            .serve_tenants_observed(
                &[interactive_tenant(24)],
                &config,
                None,
                None,
                None,
                &Obs::disabled(),
            )
            .unwrap();
        assert!(
            report.shed_by(ShedReason::TimedOut) > 0,
            "a 1 ms deadline on a deep queue must expire requests"
        );
        assert!(report.conservation_holds());
    }

    #[test]
    fn correlated_outage_degrades_and_recovers() {
        let mut cluster = cluster(3);
        let config = TenancyConfig {
            batch: ClassPolicy {
                chunks: 3,
                ..TenancyConfig::default().batch
            },
            ..TenancyConfig::default()
        };
        // Kill 2 of 3 nodes almost immediately, restore mid-run (the
        // scenario's single-survivor makespan is ~1 s).
        let chaos = ChaosSchedule::new(5).with_outage(
            &[1, 2],
            TimeSecs::from_millis(1.0),
            Some(TimeSecs::from_millis(500.0)),
        );
        let tenants = [interactive_tenant(16), batch_tenant(16)];
        let report = cluster
            .serve_tenants_observed(
                &tenants,
                &config,
                Some(&chaos),
                None,
                None,
                &Obs::disabled(),
            )
            .unwrap();
        assert!(report.conservation_holds());
        assert!(
            report.rehomed_experts > 0,
            "dead homes must re-home onto the survivor"
        );
        assert_eq!(report.final_nodes, 3, "restored after the window");
        assert_eq!(
            report.records.len() + report.shed.len(),
            32,
            "every request accounted"
        );
    }

    #[test]
    fn permanent_total_outage_sheds_everything() {
        let mut cluster = cluster(2);
        let chaos = ChaosSchedule::new(1).with_outage(&[0, 1], TimeSecs::ZERO, None);
        let report = cluster
            .serve_tenants_observed(
                &[interactive_tenant(6)],
                &TenancyConfig::default(),
                Some(&chaos),
                None,
                None,
                &Obs::disabled(),
            )
            .unwrap();
        assert_eq!(report.records.len(), 0);
        assert_eq!(report.shed_by(ShedReason::CapacityLost), 6);
        assert_eq!(report.final_nodes, 0);
        assert!(report.conservation_holds());
    }

    #[test]
    fn reports_are_deterministic_across_runs() {
        let run = || {
            let mut cluster = cluster(2);
            let tenants = [
                TenantSpec {
                    pattern: ArrivalPattern::Poisson { rate_rps: 120.0 },
                    ..interactive_tenant(20)
                },
                batch_tenant(10),
            ];
            let chaos = ChaosSchedule::new(9)
                .with_outage(
                    &[1],
                    TimeSecs::from_millis(50.0),
                    Some(TimeSecs::from_millis(400.0)),
                )
                .with_window(
                    FaultSite::SocketLink,
                    sn_faults::FaultSpec::slow(1.0, 1.5),
                    TimeSecs::from_millis(50.0),
                    TimeSecs::from_millis(400.0),
                );
            cluster
                .serve_tenants_observed(
                    &tenants,
                    &TenancyConfig::default(),
                    Some(&chaos),
                    None,
                    None,
                    &Obs::disabled(),
                )
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same scenario, byte-identical report");
    }

    #[test]
    fn forced_cold_prefetch_is_bit_identical_to_policy_off() {
        // Property: speculation never changes served outputs. With the
        // prefetch threshold above 1.0 every prediction is forced cold, so
        // no prefetch is ever issued — the report must match the policy-off
        // run byte for byte (modulo the `policy` attachment itself).
        use crate::placement::{PolicyConfig, PrefetchPolicy, ServingPolicies};
        let tenants = [
            TenantSpec {
                pattern: ArrivalPattern::Poisson { rate_rps: 150.0 },
                ..interactive_tenant(20)
            },
            batch_tenant(12),
        ];
        let config = TenancyConfig::default();
        let chaos = ChaosSchedule::new(11).with_outage(
            &[1],
            TimeSecs::from_millis(40.0),
            Some(TimeSecs::from_millis(300.0)),
        );

        let mut plain = cluster(2);
        let want = plain
            .serve_tenants_observed(
                &tenants,
                &config,
                Some(&chaos),
                None,
                None,
                &Obs::disabled(),
            )
            .unwrap();

        let mut speculative = cluster(2);
        let mut policies = ServingPolicies::new(
            120,
            PolicyConfig {
                prefetch: Some(PrefetchPolicy {
                    threshold: 2.0, // unreachable: probabilities cap at 1.0
                    max_per_wave: 8,
                }),
                placement: None,
                kv: None,
                ..PolicyConfig::default()
            },
        );
        let mut got = speculative
            .serve_tenants_observed(
                &tenants,
                &config,
                Some(&chaos),
                None,
                Some(&mut policies),
                &Obs::disabled(),
            )
            .unwrap();

        let policy = got.policy.take().expect("policy report attached");
        assert_eq!(policy.prefetch_issued, 0, "forced cold: nothing issued");
        assert_eq!(policy.prefetch_wasted, Bytes::ZERO);
        assert_eq!(want, got, "speculation must not perturb serving");
    }

    #[test]
    fn policy_bundle_reports_prefetch_and_kv_activity() {
        use crate::placement::{PolicyConfig, ServingPolicies};
        use crate::PagedKvConfig;
        // A 48-slot wave on one node cycles through more distinct experts
        // than the 36-expert HBM budget holds, so plain LRU thrashes: the
        // experts a wave starts with were evicted by the experts it ended
        // with. Those victims stay hot in the router statistics, making
        // them exactly what the prefetcher should re-stage.
        let mut cluster = cluster(1);
        let mut config = TenancyConfig {
            per_node_slots: 56,
            ..TenancyConfig::default()
        };
        config.interactive.chunks = 4;
        config.interactive.queue_cap = 64;
        config.interactive.deadline = TimeSecs::from_secs(30.0);
        let tenants = [interactive_tenant(56), batch_tenant(16)];
        let mut policies = ServingPolicies::new(
            120,
            PolicyConfig {
                kv: Some(PagedKvConfig {
                    page_tokens: 16,
                    page_bytes: Bytes::from_mib(8),
                    // Tiny budget (8 pages) forces eviction + refault churn.
                    budget: Bytes::from_mib(64),
                }),
                ..PolicyConfig::default()
            },
        );
        let report = cluster
            .serve_tenants_observed(
                &tenants,
                &config,
                None,
                None,
                Some(&mut policies),
                &Obs::disabled(),
            )
            .unwrap();
        assert!(report.conservation_holds());
        let policy = report.policy.expect("policy report attached");
        assert!(policy.prefetch_issued > 0, "hot experts should be staged");
        assert!(policy.kv_pages_in > 0, "decode allocates KV pages");
        assert!(
            policy.kv_pages_evicted > 0,
            "a 64 MiB budget cannot hold every sequence"
        );
        assert!(
            policy.kv_pages_in >= policy.kv_pages_evicted,
            "conservation: evictions never exceed allocations"
        );
        assert!(
            report.expert_hits + report.expert_misses > 0,
            "activation accounting populated"
        );
        let rate = report.expert_hit_rate();
        assert!((0.0..=1.0).contains(&rate));
    }

    #[test]
    fn policy_off_report_leaves_policy_field_empty() {
        let mut cluster = cluster(1);
        let report = cluster
            .serve_tenants_observed(
                &[interactive_tenant(4)],
                &TenancyConfig::default(),
                None,
                None,
                None,
                &Obs::disabled(),
            )
            .unwrap();
        assert!(report.policy.is_none());
        assert!(
            report.expert_misses > 0,
            "first activation of each routed expert is cold"
        );
        let rate = report.expert_hit_rate();
        assert!((0.0..1.0).contains(&rate));
    }

    #[test]
    fn empty_tenant_list_yields_an_empty_report() {
        let mut cluster = cluster(1);
        let report = cluster
            .serve_tenants_observed(
                &[],
                &TenancyConfig::default(),
                None,
                None,
                None,
                &Obs::disabled(),
            )
            .unwrap();
        assert_eq!(report.submitted, 0);
        assert_eq!(report.waves, 0);
        assert!(report.makespan.is_zero());
        assert!(report.conservation_holds());
        assert_eq!(
            report.latency_percentile(SloClass::Interactive, 0.99),
            TimeSecs::ZERO
        );
        assert_eq!(report.goodput_rps(SloClass::Batch), 0.0);
    }
}
