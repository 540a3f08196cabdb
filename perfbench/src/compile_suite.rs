//! `compile-suite`: the 17 Table II configurations built, compiled
//! unfused and spatially fused by a fresh compiler, run software- and
//! hardware-orchestrated on an SN40L node, with every fused kernel
//! replayed on the `sn-rdusim` pipeline simulator.
//!
//! Each LLM's sequence length is drawn per iteration from below its
//! published length, without repeats inside a run, so no cache that
//! outlives an iteration can serve a graph twice.

use crate::scenarios::COMPILE_SEED;
use crate::spans::Recorder;
use crate::workload::{iter_seed, splitmix64, Check, Fnv, Workload, REFERENCE};
use sn_arch::{Calibration, NodeSpec, Orchestration, SocketSpec, TimeSecs};
use sn_compiler::{Compiler, Executable, FusionPolicy};
use sn_dataflow::Graph;
use sn_models::{table2, Benchmark};
use sn_rdusim::pipeline::{PipelineSim, Stage};
use sn_runtime::executor::NodeExecutor;

/// Tiles streamed through each fused kernel's pipeline replay.
const REPLAY_TILES: u64 = 64;

/// Multiplier of the per-config length permutation. It is prime, so it
/// is coprime with every draw range and iteration `i` of a run gets a
/// length no other iteration of that run gets.
const PERMUTE: u64 = 2_654_435_761;

pub struct Row {
    pub name: String,
    pub seq: usize,
    pub batch: usize,
    pub graph_ops: usize,
    pub kernels_unfused: usize,
    pub kernels_fused: usize,
    pub unfused_so: TimeSecs,
    pub fused_so: TimeSecs,
    pub fused_ho: TimeSecs,
    pub launches: usize,
    pub sim_cycles: u64,
    /// Largest relative error of the static pipeline model against the
    /// cycle simulation over the fused kernels.
    pub model_error_max: f64,
}

pub struct CompileSuite {
    seed: u64,
    published: Vec<Benchmark>,
}

impl CompileSuite {
    pub fn new(seed: u64) -> Self {
        CompileSuite {
            seed,
            published: table2(),
        }
    }
}

/// Stage chain of a fused kernel: one stage per compute op, service
/// time proportional to its share of the kernel's FLOPs, double
/// buffered.
fn kernel_pipeline(graph: &Graph, nodes: &[sn_dataflow::NodeId]) -> PipelineSim {
    let mut work: Vec<(String, f64)> = nodes
        .iter()
        .map(|&n| (graph.node(n).name.clone(), graph.node_flops(n).as_f64()))
        .filter(|(_, flops)| *flops > 0.0)
        .collect();
    if work.is_empty() {
        work.push(("identity".to_string(), 1.0));
    }
    let max = work.iter().map(|(_, f)| *f).fold(0.0f64, f64::max);
    PipelineSim::new(
        work.into_iter()
            .map(|(name, f)| Stage::new(name, ((f / max) * 64.0).ceil().max(1.0) as u64, 2))
            .collect(),
    )
}

/// Replays every fused kernel; returns simulated cycles and the largest
/// static-model error.
fn replay(graph: &Graph, fused: &Executable) -> (u64, f64) {
    let mut cycles = 0;
    let mut err_max = 0.0f64;
    for kernel in fused.kernels() {
        let sim = kernel_pipeline(graph, &kernel.nodes);
        let simulated = sim.run(REPLAY_TILES).total.as_u64();
        let predicted = sim.predicted_cycles(REPLAY_TILES).as_u64();
        cycles += simulated;
        err_max = err_max.max((simulated as f64 - predicted as f64).abs() / predicted as f64);
    }
    (cycles, err_max)
}

impl Workload for CompileSuite {
    type Input = Vec<Benchmark>;
    type Output = Vec<Row>;

    /// A pass over the suite takes about 0.33 s.
    const UNITS: u64 = 2;

    fn input(&mut self, index: u64) -> Vec<Benchmark> {
        if index == REFERENCE {
            return self.published.clone();
        }
        let base = iter_seed(COMPILE_SEED, self.seed, 0);
        self.published
            .iter()
            .enumerate()
            .map(|(k, b)| {
                let mut b = b.clone();
                if !b.fft_conv {
                    // Lengths in [7/8, 1) of the published one: the
                    // offset runs over 1..range in a seeded permutation.
                    let range = u128::from((b.seq / 8) as u64 - 1);
                    let start = u128::from(splitmix64(base ^ k as u64));
                    let offset = 1 + (start + u128::from(index) * u128::from(PERMUTE)) % range;
                    b.seq -= offset as usize;
                }
                b
            })
            .collect()
    }

    fn run(&mut self, _twin: usize, suite: &Vec<Benchmark>, rec: &mut Recorder) -> Vec<Row> {
        let calib = Calibration::baseline();
        let compiler = Compiler::new(SocketSpec::sn40l(), calib.clone());
        let node = NodeExecutor::new(NodeSpec::sn40l_node(), calib);
        let mut rows = Vec::with_capacity(suite.len());
        for b in suite {
            let open = rec.enter("compile_suite.config");
            let graph = rec.time("models.build", || b.build_graph());
            let unfused = rec.time("compiler.compile", || {
                compiler
                    .compile(&graph, FusionPolicy::Unfused)
                    .expect("benchmarks compile unfused")
            });
            let fused = rec.time("compiler.compile", || {
                compiler
                    .compile(&graph, FusionPolicy::Spatial)
                    .expect("benchmarks compile fused")
            });
            let runs = rec.time("runtime.run", || {
                [
                    node.run(&unfused, Orchestration::Software),
                    node.run(&fused, Orchestration::Software),
                    node.run(&fused, Orchestration::Hardware),
                ]
            });
            let (sim_cycles, model_error_max) =
                rec.time("rdusim.pipeline", || replay(&graph, &fused));
            rec.exit(open);
            rows.push(Row {
                name: b.name.clone(),
                seq: b.seq,
                batch: b.batch,
                graph_ops: graph.node_count(),
                kernels_unfused: unfused.kernel_count(),
                kernels_fused: fused.kernel_count(),
                unfused_so: runs[0].total,
                fused_so: runs[1].total,
                fused_ho: runs[2].total,
                launches: runs.iter().map(|r| r.launches).sum(),
                sim_cycles,
                model_error_max,
            });
        }
        rows
    }

    fn check(&self, suite: &Vec<Benchmark>, rows: &Vec<Row>) -> Check {
        let mut c = Check::default();
        let mut h = Fnv::new();
        c.expect(rows.len() == suite.len(), "one_row_per_config");
        let mut log_speedup = 0.0;
        let (mut ops, mut unfused, mut fused, mut launches, mut cycles) = (0, 0, 0, 0, 0);
        let mut err_max = 0.0f64;
        for (r, b) in rows.iter().zip(suite) {
            let ok_times = [r.unfused_so, r.fused_so, r.fused_ho]
                .iter()
                .all(|t| t.as_secs().is_finite() && t.as_secs() > 0.0);
            c.expect(ok_times, format!("{}.positive_times", r.name));
            c.expect(
                r.kernels_fused >= 1 && r.kernels_fused <= r.kernels_unfused,
                format!("{}.fused<=unfused_kernels", r.name),
            );
            c.expect(r.fused_ho <= r.fused_so, format!("{}.ho<=so", r.name));
            c.expect(
                r.model_error_max.is_finite(),
                format!("{}.model_error_finite", r.name),
            );
            c.expect(
                r.seq
                    <= self
                        .published
                        .iter()
                        .find(|p| p.name == b.name)
                        .map_or(0, |p| p.seq),
                format!("{}.seq<=published", r.name),
            );
            h.str(&r.name);
            for x in [
                r.seq,
                r.graph_ops,
                r.kernels_unfused,
                r.kernels_fused,
                r.launches,
            ] {
                h.usize(x);
            }
            h.u64(r.sim_cycles);
            for t in [r.unfused_so, r.fused_so, r.fused_ho] {
                h.time(t);
            }
            h.f64(r.model_error_max);
            log_speedup += (r.unfused_so / r.fused_ho).ln();
            ops += r.graph_ops;
            unfused += r.kernels_unfused;
            fused += r.kernels_fused;
            launches += r.launches;
            cycles += r.sim_cycles;
            err_max = err_max.max(r.model_error_max);
            // Three node runs, each serving the configuration's batch.
            c.slots += 3 * r.batch as u64;
            // Compiled under both policies, executed three times.
            c.graph_ops += 5 * r.graph_ops as u64;
        }
        c.digest = h.finish();
        c.counts = vec![
            ("dataflow.graph_ops", ops as f64),
            ("compiler.kernels_unfused", unfused as f64),
            ("compiler.kernels_fused", fused as f64),
            (
                "compiler.fusion_ratio",
                unfused as f64 / fused.max(1) as f64,
            ),
            ("runtime.kernel_launches", launches as f64),
            ("rdusim.sim_cycles", cycles as f64),
            ("rdusim.model_error_max", err_max),
            (
                "sim_fusion_speedup",
                (log_speedup / rows.len().max(1) as f64).exp(),
            ),
        ];
        c
    }
}
