//! `cluster-scale`: one `CoeCluster::serve_wave` of 4096 fresh prompts
//! per iteration on the `repro intra` cluster (16 nodes, 480 experts),
//! warmed in set-up until every expert the router can reach is
//! HBM-resident.

use crate::adapter::{self, ExpertOps};
use crate::scenarios::{intra as sc, INTRA_SEED, PROMPT_TOKENS};
use crate::spans::Recorder;
use crate::workload::{iter_seed, Check, Fnv, Workload, REFERENCE};
use sn_coe::{CoeCluster, Domain, Prompt, PromptGenerator, WaveOutcome, WavePlacement, WaveSlot};

/// The router keys a prompt on `(domain, id mod 16)`.
const ROUTE_RESIDUES: u64 = 16;

/// Warm-up prompt ids start here, far beyond any id a timed stream
/// reaches, so timed waves never replay a warm-up prompt.
const WARM_ID_BASE: u64 = 1 << 48;

pub struct ClusterScale {
    /// One identically driven cluster per twin.
    clusters: Vec<CoeCluster>,
    /// The timed prompt stream; it starts past the reference wave's ids.
    prompts: PromptGenerator,
    ops: ExpertOps,
}

/// One wave's slots; two thirds charge prefill, as in `repro intra`.
fn wave(prompts: Vec<Prompt>, wave: u64) -> Vec<WaveSlot> {
    prompts
        .into_iter()
        .enumerate()
        .map(|(i, prompt)| WaveSlot {
            prompt,
            prefill: !(i as u64 + wave).is_multiple_of(3),
        })
        .collect()
}

impl ClusterScale {
    pub fn new(seed: u64, twins: usize) -> Self {
        let warm: Vec<WaveSlot> = Domain::ALL
            .iter()
            .flat_map(|&domain| {
                (0..ROUTE_RESIDUES).map(move |r| WaveSlot {
                    prompt: Prompt {
                        id: WARM_ID_BASE + r,
                        domain,
                        tokens: PROMPT_TOKENS,
                    },
                    prefill: true,
                })
            })
            .collect();
        let clusters = (0..twins)
            .map(|_| {
                let mut cluster = adapter::cluster(sc::NODES, sc::EXPERTS, PROMPT_TOKENS);
                cluster
                    .serve_wave(&warm, sc::WAVE_TOKENS)
                    .expect("healthy cluster serves the warm-up");
                cluster
            })
            .collect();
        let mut prompts = PromptGenerator::new(iter_seed(INTRA_SEED, seed, 0), PROMPT_TOKENS);
        prompts.batch(sc::WAVE_SLOTS);
        ClusterScale {
            clusters,
            prompts,
            ops: ExpertOps::new(PROMPT_TOKENS),
        }
    }
}

impl Workload for ClusterScale {
    type Input = Vec<WaveSlot>;
    type Output = WaveOutcome;

    /// A wave takes 0.1 to 0.2 ms.
    const UNITS: u64 = 2048;

    fn input(&mut self, index: u64) -> Vec<WaveSlot> {
        if index == REFERENCE {
            let prompts = PromptGenerator::new(INTRA_SEED, PROMPT_TOKENS).batch(sc::WAVE_SLOTS);
            return wave(prompts, 0);
        }
        wave(self.prompts.batch(sc::WAVE_SLOTS), index)
    }

    fn run(&mut self, twin: usize, slots: &Vec<WaveSlot>, rec: &mut Recorder) -> WaveOutcome {
        let cluster = &mut self.clusters[twin];
        let out = rec.time("cluster.wave", || {
            cluster
                .serve_wave(slots, sc::WAVE_TOKENS)
                .expect("healthy cluster serves")
        });
        if rec.is_on() {
            // Probe of the traced run: the router alone over the wave.
            let cluster = &self.clusters[twin];
            let routed = rec.time("probe.router", || {
                slots
                    .iter()
                    .map(|s| cluster.routed_expert(&s.prompt))
                    .fold(0usize, |acc, e| acc.wrapping_add(e))
            });
            std::hint::black_box(routed);
        }
        out
    }

    fn check(&self, slots: &Vec<WaveSlot>, out: &WaveOutcome) -> Check {
        let mut c = Check::default();
        let mut h = Fnv::new();
        let served = out
            .placements
            .iter()
            .filter(|p| matches!(p, WavePlacement::Served { .. }))
            .count();
        let dropped = out.placements.len() - served;
        c.expect(
            out.placements.len() == slots.len() && served + dropped == slots.len(),
            "served+dropped==slots",
        );
        c.expect(
            out.prompts_per_node.iter().sum::<usize>() == served,
            "per_node_sum==served",
        );
        c.expect(out.expert_misses == 0, "warm_cluster_all_hits");
        h.time(out.latency);
        h.time(out.switch_time);
        h.usize(out.expert_hits);
        h.usize(out.expert_misses);
        for (t, n) in out.per_node.iter().zip(&out.prompts_per_node) {
            h.time(*t);
            h.usize(*n);
        }
        for p in &out.placements {
            match *p {
                WavePlacement::Served {
                    node,
                    first_token,
                    done,
                } => {
                    h.usize(node);
                    h.time(first_token);
                    h.time(done);
                }
                WavePlacement::Dropped => h.u64(u64::MAX),
            }
        }
        c.digest = h.finish();
        let prefill = slots.iter().filter(|s| s.prefill).count() as u64;
        c.slots = slots.len() as u64;
        c.graph_ops = self.ops.executed(c.slots, prefill, sc::WAVE_TOKENS as u64);
        let activations = out.expert_hits + out.expert_misses;
        c.counts = vec![
            ("runtime.expert_hits", out.expert_hits as f64),
            ("runtime.expert_misses", out.expert_misses as f64),
            ("cluster.slots", c.slots as f64),
            (
                "sim_hbm_hit_rate",
                out.expert_hits as f64 / activations.max(1) as f64,
            ),
            ("sim_makespan_s", out.latency.as_secs()),
        ];
        c
    }
}
