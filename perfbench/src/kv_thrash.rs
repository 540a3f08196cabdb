//! `kv-thrash`: the HBM-pressured managed-policy cell of `repro
//! placement` (`placement.chaos2x.managed`), on a fresh cluster per
//! iteration.

use crate::adapter::{self, ExpertOps, Serve, Summary};
use crate::scenarios::{placement as sc, PLACEMENT_SEED, PROMPT_TOKENS};
use crate::spans::Recorder;
use crate::workload::{iter_seed, Check, Fnv, Workload};
use sn_coe::{PromptGenerator, ServingPolicies, TenancyReport, WaveSlot};
use sn_obs::Obs;

/// `placement.chaos2x.managed.*` rows of the committed BENCH_PR10.json
/// snapshot, which the reference pass must reproduce.
const BENCH_PR10_HIT_RATE: f64 = 0.45454545454545453;
const BENCH_PR10_SWITCH_BOUND: f64 = 0.3284551049772986;
const BENCH_PR10_MAKESPAN_MS: f64 = 22961.5615011177;
const BENCH_PR10_KV_PAGES_EVICTED: u64 = 24372;
const BENCH_PR10_PREFETCH_ISSUED: u64 = 128;
const BENCH_PR10_EXPERTS_REPLICATED: u64 = 16;
const BENCH_PR10_COLD_MOVES: u64 = 48;

/// Slots of the traced run's wave probe: the `cluster-scale` wave size.
const PROBE_SLOTS: usize = 4096;

pub struct KvThrash {
    seed: u64,
    ops: ExpertOps,
}

impl KvThrash {
    pub fn new(seed: u64) -> Self {
        KvThrash {
            seed,
            ops: ExpertOps::new(PROMPT_TOKENS),
        }
    }
}

impl Workload for KvThrash {
    /// Request-stream seed of the cell.
    type Input = u64;
    /// The report, its summary, and the slots the traced run's wave
    /// probe served (0 untraced).
    type Output = (TenancyReport, Summary, usize);

    /// The cell takes about 1 s.
    const UNITS: u64 = 1;

    fn input(&mut self, index: u64) -> u64 {
        iter_seed(PLACEMENT_SEED, self.seed, index)
    }

    fn run(&mut self, _twin: usize, &seed: &u64, rec: &mut Recorder) -> Self::Output {
        let mut cluster = rec.time("coe.cluster_build", || {
            adapter::cluster(sc::NODES, sc::EXPERTS, PROMPT_TOKENS)
        });
        let tenants = sc::tenants();
        let config = sc::config(seed);
        let chaos = sc::chaos();
        let mut policies = ServingPolicies::new(sc::EXPERTS, sc::policies());
        let report = rec.time("tenancy.serve", || {
            adapter::serve(
                &mut cluster,
                Serve {
                    tenants: &tenants,
                    config: &config,
                    chaos: Some(&chaos),
                    autoscaler: None,
                    policies: Some(&mut policies),
                    obs: &Obs::disabled(),
                },
            )
        });
        let summary = rec.time("profile.summarize", || {
            adapter::summarize(&report, sc::EXPERTS)
        });
        // Probe of the traced run: the router alone, then one wave, over
        // fresh prompts on the served cluster, so the router and the wave
        // engine are measured on this workload too. Its outputs are not
        // part of the unit's.
        let probe_slots = if rec.is_on() {
            let slots: Vec<WaveSlot> = rec.time("probe.input", || {
                PromptGenerator::new(seed, PROMPT_TOKENS)
                    .batch(PROBE_SLOTS)
                    .into_iter()
                    .map(|prompt| WaveSlot {
                        prompt,
                        prefill: true,
                    })
                    .collect()
            });
            let routed = rec.time("probe.router", || {
                slots
                    .iter()
                    .map(|s| cluster.routed_expert(&s.prompt))
                    .fold(0usize, usize::wrapping_add)
            });
            std::hint::black_box(routed);
            rec.time("probe.wave", || {
                cluster.serve_wave(&slots, config.wave_tokens)
            })
            .map_or(0, |_| slots.len())
        } else {
            0
        };
        (report, summary, probe_slots)
    }

    fn check(&self, _seed: &u64, (report, summary, probe_slots): &Self::Output) -> Check {
        let mut c = Check::default();
        let slots = adapter::check_report(&mut c, report, "");
        c.expect(report.policy.is_some(), "policy_report_present");
        let mut h = Fnv::new();
        adapter::fold_report(&mut h, report);
        for x in [
            summary.hit_rate,
            summary.interactive_goodput,
            summary.switch_bound,
        ] {
            h.f64(x);
        }
        h.time(summary.interactive_p99);
        c.digest = h.finish();
        c.slots = slots.slots;
        c.graph_ops = self.ops.compiled()
            + self
                .ops
                .executed(slots.slots, slots.prefill, report.config.wave_tokens as u64);
        adapter::report_counts(&mut c.counts, report, &slots);
        adapter::sim_counts(&mut c.counts, report, summary);
        c.counts.push((
            "memsim.switch_gib",
            adapter::switch_gib(report, sc::EXPERTS),
        ));
        c.counts.push(("cluster.slots", *probe_slots as f64));
        c
    }

    fn reference_checks(&self, (report, summary, _): &Self::Output) -> Vec<String> {
        let policy = report.policy.unwrap_or_default();
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs();
        let rows = [
            ("hit_rate", summary.hit_rate == BENCH_PR10_HIT_RATE),
            (
                "switch_bound_fraction",
                close(summary.switch_bound, BENCH_PR10_SWITCH_BOUND),
            ),
            (
                "makespan_ms",
                close(report.makespan.as_millis(), BENCH_PR10_MAKESPAN_MS),
            ),
            (
                "kv_pages_evicted",
                policy.kv_pages_evicted == BENCH_PR10_KV_PAGES_EVICTED,
            ),
            (
                "prefetch_issued",
                policy.prefetch_issued == BENCH_PR10_PREFETCH_ISSUED,
            ),
            (
                "experts_replicated",
                policy.experts_replicated == BENCH_PR10_EXPERTS_REPLICATED,
            ),
            ("cold_moves", policy.cold_moves == BENCH_PR10_COLD_MOVES),
        ];
        rows.iter()
            .filter(|(_, ok)| !ok)
            .map(|(row, _)| format!("bench_pr10.placement.chaos2x.managed.{row}"))
            .collect()
    }
}
