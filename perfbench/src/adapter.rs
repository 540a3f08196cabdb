//! The one place the benchmark enters the tenancy engine and reads its
//! report, so a change to the tenancy entry points is a one-line edit
//! here.

use crate::workload::{Check, Fnv};
use sn_arch::{Bytes, Flops, NodeSpec, TimeSecs};
use sn_coe::{
    AutoscaleController, CoeCluster, ExpertLibrary, ServingPolicies, SloClass, TenancyConfig,
    TenancyReport, TenantSpec,
};
use sn_faults::ChaosSchedule;
use sn_models::{build, Phase, TransformerConfig};
use sn_obs::Obs;
use sn_profile::{Bound, MachineProfile, PhaseKind, PhaseSample, ServeAttribution};

/// Everything one tenancy run takes besides the cluster.
pub struct Serve<'a> {
    pub tenants: &'a [TenantSpec],
    pub config: &'a TenancyConfig,
    pub chaos: Option<&'a ChaosSchedule>,
    pub autoscaler: Option<&'a mut AutoscaleController>,
    pub policies: Option<&'a mut ServingPolicies>,
    pub obs: &'a Obs,
}

pub fn serve(cluster: &mut CoeCluster, s: Serve) -> TenancyReport {
    cluster
        .serve_tenants_observed(
            s.tenants,
            s.config,
            s.chaos,
            s.autoscaler,
            s.policies,
            s.obs,
        )
        .expect("benchmark scenarios serve")
}

pub fn cluster(nodes: usize, experts: usize, prompt_tokens: usize) -> CoeCluster {
    CoeCluster::new(
        NodeSpec::sn40l_node(),
        nodes,
        ExpertLibrary::new(experts),
        prompt_tokens,
    )
    .expect("scenario library fits the cluster")
}

/// Dataflow ops of the prefill and decode graphs every cluster compiles
/// at build time (the same graphs `CoeCluster::new` builds).
#[derive(Debug, Clone, Copy)]
pub struct ExpertOps {
    pub prefill: u64,
    pub decode: u64,
}

impl ExpertOps {
    pub fn new(prompt_tokens: usize) -> Self {
        let cfg = TransformerConfig::llama2_7b();
        let sockets = NodeSpec::sn40l_node().sockets;
        let ops = |phase| {
            build(&cfg, phase, 1, sockets)
                .expect("expert graph builds")
                .node_count() as u64
        };
        ExpertOps {
            prefill: ops(Phase::Prefill { prompt_tokens }),
            decode: ops(Phase::Decode {
                past_tokens: prompt_tokens,
            }),
        }
    }

    /// Ops compiled by one cluster build.
    pub fn compiled(&self) -> u64 {
        self.prefill + self.decode
    }

    /// Ops executed by `slots` wave slots of which `prefill` start a
    /// request: a first chunk runs the prefill graph once, every chunk
    /// runs the decode graph once per wave token.
    pub fn executed(&self, slots: u64, prefill: u64, wave_tokens: u64) -> u64 {
        prefill * self.prefill + slots * wave_tokens * self.decode
    }
}

/// Simulated outputs a user of the scenario reads, computed through the
/// `sn-profile` percentile, goodput and roofline-attribution calls.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub hit_rate: f64,
    pub interactive_p99: TimeSecs,
    pub interactive_goodput: f64,
    pub switch_bound: f64,
}

pub fn summarize(report: &TenancyReport, experts: usize) -> Summary {
    Summary {
        hit_rate: report.expert_hit_rate(),
        interactive_p99: report.latency_percentile(SloClass::Interactive, 0.99),
        interactive_goodput: report.goodput_rps(SloClass::Interactive),
        switch_bound: switch_bound_fraction(report, experts),
    }
}

/// Share of the serve bound by the DDR expert-switch path, as
/// `repro placement` classifies it.
fn switch_bound_fraction(report: &TenancyReport, experts: usize) -> f64 {
    let machine =
        MachineProfile::from_node(&NodeSpec::sn40l_node()).scale(report.final_nodes.max(1) as f64);
    let expert_bytes = ExpertLibrary::new(experts).expert_bytes();
    let policy = report.policy.unwrap_or_default();
    let switch_time = report.switch_time + policy.transfer_exposed;
    let switch_bytes = expert_bytes.scale(report.expert_misses as f64)
        + expert_bytes.scale(policy.prefetch_issued as f64);
    let serve_time = if report.makespan > switch_time {
        report.makespan - switch_time
    } else {
        TimeSecs::ZERO
    };
    let serve_bytes = machine.hbm_bandwidth * serve_time;
    let attribution = ServeAttribution::from_samples(
        machine,
        vec![
            PhaseSample {
                kind: PhaseKind::Switching,
                time: switch_time,
                flops: Flops::ZERO,
                hbm_bytes: switch_bytes,
                ddr_bytes: switch_bytes,
            },
            PhaseSample {
                kind: PhaseKind::Decode,
                time: serve_time,
                flops: Flops::new(serve_bytes.as_f64() * 2.0),
                hbm_bytes: serve_bytes,
                ddr_bytes: Bytes::ZERO,
            },
        ],
    );
    attribution.bound_fraction(Bound::DdrBandwidth) + attribution.bound_fraction(Bound::Switching)
}

/// Folds every output field of a tenancy report into `h`.
pub fn fold_report(h: &mut Fnv, r: &TenancyReport) {
    for x in [
        r.submitted,
        r.admitted,
        r.pending,
        r.preemptions,
        r.rehomed_experts,
        r.expert_hits,
        r.expert_misses,
        r.chaos_retransmits,
        r.chaos_slowdowns,
        r.final_nodes,
        r.waves,
    ] {
        h.usize(x);
    }
    h.time(r.makespan);
    h.time(r.switch_time);
    for rec in &r.records {
        h.usize(rec.tenant);
        h.str(rec.class.name());
        h.usize(rec.submit);
        h.time(rec.arrival);
        h.time(rec.admitted);
        h.time(rec.first_token);
        h.time(rec.completed);
        h.usize(rec.output_tokens);
        h.u64(u64::from(rec.preemptions));
    }
    for s in &r.shed {
        h.usize(s.tenant);
        h.usize(s.submit);
        h.time(s.arrival);
        h.time(s.at);
        h.str(s.reason.name());
        h.u64(u64::from(s.was_admitted));
    }
    for e in &r.scale_events {
        h.usize(e.wave);
        h.time(e.at);
        h.str(&format!("{:?}", e.decision));
        h.usize(e.from_nodes);
        h.usize(e.to_nodes);
        h.usize(e.moved_experts);
        h.time(e.transfer_time);
    }
    if let Some(p) = r.policy {
        for x in [
            p.prefetch_issued,
            p.prefetch_hits,
            p.experts_replicated,
            p.cold_moves,
            p.kv_pages_in,
            p.kv_pages_evicted,
            p.kv_refaults,
        ] {
            h.u64(x);
        }
        h.f64(p.prefetch_wasted.as_f64());
        h.time(p.transfer_exposed);
    }
}

/// Slot totals of a run, read off its per-wave snapshots.
pub struct Slots {
    pub slots: u64,
    pub prefill: u64,
}

/// Checks the invariants every tenancy run must keep and reads the
/// per-layer counts off its report.
pub fn check_report(c: &mut Check, r: &TenancyReport, tag: &str) -> Slots {
    c.expect(r.conservation_holds(), format!("{tag}conservation"));
    let mut slots = Slots {
        slots: 0,
        prefill: 0,
    };
    for w in &r.wave_features {
        c.expect(
            w.interactive_slots + w.batch_slots == w.slots && w.slots <= w.capacity,
            format!("{tag}wave_slots[{}]", w.wave),
        );
        slots.slots += w.slots as u64;
        slots.prefill += w.prefill_slots as u64;
    }
    c.expect(r.wave_features.len() == r.waves, format!("{tag}wave_count"));
    if let Some(p) = r.policy {
        c.expect(
            p.kv_pages_in >= p.kv_pages_evicted,
            format!("{tag}kv_pages_in>=evicted"),
        );
    }
    slots
}

/// Adds the tenancy, fault and placement counts of one report.
pub fn report_counts(counts: &mut Vec<(&'static str, f64)>, r: &TenancyReport, slots: &Slots) {
    let policy = r.policy.unwrap_or_default();
    let admitted_ratio = if r.submitted == 0 {
        1.0
    } else {
        r.admitted as f64 / r.submitted as f64
    };
    counts.extend([
        ("tenancy.waves", r.waves as f64),
        ("tenancy.slots", slots.slots as f64),
        ("tenancy.admitted_ratio", admitted_ratio),
        ("tenancy.shed", r.shed.len() as f64),
        ("tenancy.preemptions", r.preemptions as f64),
        ("autoscale.scale_events", r.scale_events.len() as f64),
        ("faults.chaos_retransmits", r.chaos_retransmits as f64),
        ("faults.chaos_slowdowns", r.chaos_slowdowns as f64),
        ("coe.rehomed_experts", r.rehomed_experts as f64),
        ("runtime.expert_hits", r.expert_hits as f64),
        ("runtime.expert_misses", r.expert_misses as f64),
        ("placement.prefetch_issued", policy.prefetch_issued as f64),
        ("placement.prefetch_accuracy", policy.prefetch_accuracy()),
        (
            "placement.prefetch_wasted_gib",
            policy.prefetch_wasted.as_gib(),
        ),
        ("placement.replicas", policy.experts_replicated as f64),
        ("placement.cold_moves", policy.cold_moves as f64),
        ("kv.pages_in", policy.kv_pages_in as f64),
        ("kv.pages_evicted", policy.kv_pages_evicted as f64),
        ("kv.refaults", policy.kv_refaults as f64),
    ]);
}

/// Bytes moved DDR→HBM by demand switches and prefetches, in GiB.
pub fn switch_gib(r: &TenancyReport, experts: usize) -> f64 {
    let moves = r.expert_misses as u64 + r.policy.unwrap_or_default().prefetch_issued;
    ExpertLibrary::new(experts).expert_bytes().as_gib() * moves as f64
}

/// The simulated end-user outputs of one scenario run.
pub fn sim_counts(counts: &mut Vec<(&'static str, f64)>, r: &TenancyReport, s: &Summary) {
    counts.extend([
        ("sim_hbm_hit_rate", s.hit_rate),
        ("sim_interactive_p99_ms", s.interactive_p99.as_millis()),
        ("sim_interactive_goodput_rps", s.interactive_goodput),
        ("sim_makespan_s", r.makespan.as_secs()),
    ]);
}
