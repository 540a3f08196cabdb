//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Each function returns a small comparison struct so the `repro` binary
//! can report them uniformly.

use sn_arch::{Bytes, Calibration, NodeSpec, Orchestration, SocketSpec, TimeSecs};
use sn_compiler::{memplan, Compiler, FusionPolicy, SpillPolicy};
use sn_models::{build, Phase, TransformerConfig};
use sn_rdusim::pmu::{BankMapping, PmuModel, ReorderBuffer};
use sn_rdusim::rdn::{Coord, Flow, FlowIdMode, NetConfig, NetSim};
use sn_runtime::coe::{CoeRuntime, CoeRuntimeConfig, EvictionPolicy, ModelBinary};
use sn_runtime::executor::NodeExecutor;

/// A generic before/after comparison.
#[derive(Debug, Clone)]
pub struct Ablation {
    pub name: &'static str,
    /// The SN40L / paper design point.
    pub with_feature: f64,
    /// The baseline without the feature.
    pub without_feature: f64,
    /// What the numbers are (unit label).
    pub unit: &'static str,
    /// Whether larger metric values are better (throughput) rather than
    /// worse (time, stalls, traffic).
    pub higher_is_better: bool,
}

impl Ablation {
    /// Improvement factor of the feature (always >= 1 when the feature
    /// helps).
    pub fn factor(&self) -> f64 {
        if self.higher_is_better {
            self.with_feature / self.without_feature
        } else {
            self.without_feature / self.with_feature
        }
    }
}

/// Flow-ID allocation: SN10 global pool vs SN40L MPLS relabeling (§IV-E).
/// Metric: cycles to drain six crossing flows on an 8x8 mesh.
pub fn flow_ids() -> Ablation {
    let flows: Vec<Flow> = (0..6)
        .map(|i| Flow::unicast(Coord::new(0, i), Coord::new(7, 5 - i), 40))
        .collect();
    let run = |mode| {
        NetSim::new(NetConfig {
            flow_mode: mode,
            ..NetConfig::default()
        })
        .run(&flows)
        .cycles as f64
    };
    Ablation {
        name: "flow-id allocation (MPLS vs global pool)",
        with_feature: run(FlowIdMode::Mpls),
        without_feature: run(FlowIdMode::GlobalPool { pool_size: 3 }),
        unit: "cycles",
        higher_is_better: false,
    }
}

/// Programmable bank bits vs fixed banking on a power-of-two double-buffer
/// stride (§VII). Metric: cycles per 16-lane vector access.
pub fn bank_bits() -> Ablation {
    let spec = sn_arch::PmuSpec::sn40l();
    let word = spec.vector_width.as_u64() / spec.banks as u64;
    let stride = word * spec.banks as u64 * 4;
    let addrs: Vec<u64> = (0..16).map(|i| i * stride).collect();
    let fixed = PmuModel::new(spec, BankMapping::Fixed);
    let tuned = PmuModel::new(
        spec,
        BankMapping::Programmable {
            shift: stride.trailing_zeros(),
        },
    );
    Ablation {
        name: "programmable bank bits (double-buffer stride)",
        with_feature: tuned.access_cycles(&addrs).as_u64() as f64,
        without_feature: fixed.access_cycles(&addrs).as_u64() as f64,
        unit: "cycles/access",
        higher_is_better: false,
    }
}

/// Packet throttling vs unmanaged bursts (§VII). Metric: total stall
/// cycles while a bursty flow shares links with a victim flow.
pub fn throttling() -> Ablation {
    let flows = vec![
        Flow {
            src: Coord::new(0, 2),
            dsts: vec![Coord::new(7, 2)],
            packets: 60,
            injection_interval: 2,
            burst: 12,
        },
        Flow {
            src: Coord::new(1, 2),
            dsts: vec![Coord::new(7, 2)],
            packets: 60,
            injection_interval: 2,
            burst: 1,
        },
    ];
    let run = |throttle| {
        NetSim::new(NetConfig {
            throttle,
            ..NetConfig::default()
        })
        .run(&flows)
        .stall_cycles as f64
    };
    Ablation {
        name: "packet throttling under bursty traffic",
        with_feature: run(Some(2)),
        without_feature: run(None),
        unit: "stall cycles",
        higher_is_better: false,
    }
}

/// Fused (pipelined) P2P collectives vs standalone AllReduce kernels
/// (§VII). Metric: exposed collective seconds for one llama2-7B decode
/// step at TP8.
pub fn p2p_overlap() -> Ablation {
    let cfg = TransformerConfig::llama2_7b();
    let g = build(&cfg, Phase::Decode { past_tokens: 4096 }, 1, 8).expect("decode builds");
    let compiler = Compiler::new(SocketSpec::sn40l(), Calibration::baseline());
    let exposed = |policy| {
        let exe = compiler.compile(&g, policy).expect("compiles");
        exe.estimates()
            .iter()
            .map(|e| e.collective)
            .sum::<TimeSecs>()
            .as_micros()
    };
    Ablation {
        name: "pipelined P2P collectives",
        with_feature: exposed(FusionPolicy::Spatial),
        without_feature: exposed(FusionPolicy::Unfused),
        unit: "exposed collective microseconds",
        higher_is_better: false,
    }
}

/// Bandwidth-sorted DDR spill vs naive declaration-order spilling (§V-A).
/// Metric: DDR traffic implied by the spill set under a constrained HBM,
/// counting the serving-loop reuse of every spilled weight.
///
/// The scenario isolates the policy: a 16-layer chain whose weights and
/// activations are the same size (32 MiB), with HBM sized so that exactly
/// the activations' share must spill. The §V-A policy sheds the cold
/// single-use activations; the naive policy sheds hot weights that the
/// decode loop re-reads every launch.
pub fn spill_policy() -> Ablation {
    use sn_dataflow::{DType, GraphBuilder, OpKind, Shape, TensorKind, UnaryKind};
    let mut b = GraphBuilder::new("spill-ablation");
    let mut cur = b.tensor("x", Shape::mat(8192, 8192), DType::Bf16, TensorKind::Input);
    for l in 0..4u32 {
        b.set_region(l);
        let w = b.tensor(
            format!("w{l}"),
            Shape::mat(8192, 8192),
            DType::Bf16,
            TensorKind::Weight,
        );
        cur = b
            .node("proj", OpKind::Gemm { transpose_b: false }, &[cur, w])
            .expect("builds");
        cur = b
            .node("act", OpKind::Unary(UnaryKind::Gelu), &[cur])
            .expect("builds");
    }
    b.mark_output(cur);
    let g = b.build().expect("non-empty");
    let mut socket = SocketSpec::sn40l();
    // Weights total 512 MiB; two 128 MiB activations are live at each
    // kernel. 640 MiB forces exactly one activation's worth of spill per
    // peak; spilling a cheap cold activation costs 2x its bytes in DDR
    // traffic, spilling a hot weight costs 32x (2 crossings x 16-launch
    // reuse).
    socket.hbm.capacity = Bytes::from_mib(640);
    let compiler = Compiler::new(socket.clone(), Calibration::baseline());
    let exe = compiler
        .compile(&g, FusionPolicy::Unfused)
        .expect("compiles");
    let traffic = |policy| {
        memplan::plan_with_policy(&g, exe.kernels(), &socket, policy)
            .spill_traffic()
            .as_gb()
    };
    Ablation {
        name: "bandwidth-sorted DDR spill",
        with_feature: traffic(SpillPolicy::BandwidthSorted),
        without_feature: traffic(SpillPolicy::DeclarationOrder),
        unit: "GB of DDR traffic",
        higher_is_better: false,
    }
}

/// LRU vs FIFO expert eviction under a looping request trace (§V-B).
/// Metric: total switch seconds over the trace.
pub fn expert_cache() -> Ablation {
    let trace: Vec<usize> = {
        // A hot set of 30 experts with occasional excursions: LRU keeps
        // the hot set; FIFO churns it.
        let mut t = Vec::new();
        for round in 0..20 {
            for hot in 0..30 {
                t.push(hot);
            }
            t.push(40 + round); // cold excursion
        }
        t
    };
    let run = |eviction| {
        let mut rt = CoeRuntime::new(
            &NodeSpec::sn40l_node(),
            CoeRuntimeConfig {
                eviction,
                ..Default::default()
            },
        );
        for i in 0..64 {
            rt.register(ModelBinary::weights_only(
                format!("e{i}"),
                Bytes::from_gb(13.48),
            ))
            .expect("64 experts fit DDR");
        }
        let mut total = TimeSecs::ZERO;
        for &e in &trace {
            total += rt
                .activate(&format!("e{e}"))
                .expect("registered")
                .switch_time;
        }
        total.as_secs()
    };
    Ablation {
        name: "LRU expert cache (vs FIFO)",
        with_feature: run(EvictionPolicy::Lru),
        without_feature: run(EvictionPolicy::Fifo),
        unit: "switch seconds over trace",
        higher_is_better: false,
    }
}

/// Read-only copy-back elision on eviction (§V-B). Metric: total switch
/// seconds over a cache-thrashing trace.
pub fn readonly_elision() -> Ablation {
    let run = |skip| {
        let mut rt = CoeRuntime::new(
            &NodeSpec::sn40l_node(),
            CoeRuntimeConfig {
                skip_readonly_copyback: skip,
                ..Default::default()
            },
        );
        for i in 0..50 {
            rt.register(ModelBinary::weights_only(
                format!("e{i}"),
                Bytes::from_gb(13.48),
            ))
            .expect("50 experts fit DDR");
        }
        let mut total = TimeSecs::ZERO;
        for round in 0..3 {
            for i in 0..50 {
                let _ = round;
                total += rt
                    .activate(&format!("e{i}"))
                    .expect("registered")
                    .switch_time;
            }
        }
        total.as_secs()
    };
    Ablation {
        name: "read-only copy-back elision",
        with_feature: run(true),
        without_feature: run(false),
        unit: "switch seconds over trace",
        higher_is_better: false,
    }
}

/// Voltage-droop mitigation: SN40L hardware management vs SN10's
/// conservative software scheme costing up to 25% (§IV-E). Metric: peak
/// BF16 TFLOPS per socket, normalized per PCU-GHz so only the droop policy
/// differs.
pub fn power_management() -> Ablation {
    let sn40l = sn_arch::RduChipSpec::sn40l();
    let mut sn40l_with_sn10_droop = sn40l.clone();
    sn40l_with_sn10_droop.droop_penalty = sn_arch::RduChipSpec::sn10().droop_penalty;
    Ablation {
        name: "hardware droop management",
        with_feature: sn40l.peak_bf16().as_tflops(),
        without_feature: sn40l_with_sn10_droop.peak_bf16().as_tflops(),
        unit: "peak TFLOPS",
        higher_is_better: true,
    }
}

/// HBM tier existence: the SN40L's decode executes from HBM; the SN10
/// ablation streams weights from DDR (§IV-E "the addition of the HBM
/// memory tier is critical"). Metric: llama2-7B decode step seconds.
pub fn hbm_tier() -> Ablation {
    let calib = Calibration::baseline();
    let cfg = TransformerConfig::llama2_7b();
    let step = |socket: SocketSpec, tp: usize| {
        let g = build(&cfg, Phase::Decode { past_tokens: 4096 }, 1, tp).expect("decode builds");
        let compiler = Compiler::new(socket, calib.clone());
        let exe = compiler
            .compile(&g, FusionPolicy::Spatial)
            .expect("compiles");
        let node = NodeExecutor::new(NodeSpec::sn40l_node(), calib.clone());
        node.run(&exe, Orchestration::Hardware).total.as_secs()
    };
    Ablation {
        name: "HBM tier for decode",
        with_feature: step(SocketSpec::sn40l(), 8),
        without_feature: step(SocketSpec::sn10(), 8),
        unit: "seconds per decode step",
        higher_is_better: false,
    }
}

/// Expert prefetching: overlap the next prompt's DDR→HBM copy with the
/// current prompt's execution (enabled by the dual off-chip tiers).
/// Metric: batch latency for 8 cold prompts, 20 tokens each.
pub fn expert_prefetch() -> Ablation {
    use sn_coe::{ExpertLibrary, PromptGenerator, SambaCoeNode};
    let batch = PromptGenerator::new(11, 1024).batch(8);
    let mut sequential = SambaCoeNode::new(NodeSpec::sn40l_node(), ExpertLibrary::new(150), 1024);
    let mut prefetched = SambaCoeNode::new(NodeSpec::sn40l_node(), ExpertLibrary::new(150), 1024);
    Ablation {
        name: "expert prefetch overlap",
        with_feature: prefetched
            .serve_batch_prefetched(&batch, 20)
            .total()
            .as_secs(),
        without_feature: sequential.serve_batch(&batch, 20).total().as_secs(),
        unit: "batch seconds (8 cold prompts)",
        higher_is_better: false,
    }
}

/// All ablations in report order.
pub fn all() -> Vec<Ablation> {
    vec![
        flow_ids(),
        bank_bits(),
        throttling(),
        p2p_overlap(),
        spill_policy(),
        expert_cache(),
        readonly_elision(),
        expert_prefetch(),
        power_management(),
        hbm_tier(),
    ]
}

/// Re-export for the reorder-correctness smoke check in the repro binary.
pub fn reorder_smoke() -> bool {
    let mut rb = ReorderBuffer::new(8);
    for i in (0..8).rev() {
        rb.accept(i, i as u64);
    }
    rb.complete() && rb.drain_ordered() == (0..8).map(|i| i as u64).collect::<Vec<_>>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_feature_helps() {
        for a in all() {
            assert!(
                a.factor() >= 1.0,
                "{}: {} vs {} ({})",
                a.name,
                a.with_feature,
                a.without_feature,
                a.unit
            );
        }
    }

    #[test]
    fn droop_ablation_is_25_percent() {
        let a = power_management();
        assert!((a.without_feature / a.with_feature - 0.75).abs() < 1e-6);
    }

    #[test]
    fn lru_beats_fifo_on_looping_trace() {
        let a = expert_cache();
        assert!(
            a.factor() > 1.2,
            "LRU should clearly win: factor {:.2}",
            a.factor()
        );
    }

    #[test]
    fn elision_halves_thrashing_cost() {
        let a = readonly_elision();
        assert!(a.factor() > 1.5, "factor {:.2}", a.factor());
    }

    #[test]
    fn hbm_tier_is_critical_for_decode() {
        let a = hbm_tier();
        assert!(
            a.factor() > 5.0,
            "HBM vs DDR decode factor {:.2}",
            a.factor()
        );
    }

    #[test]
    fn reorder_smoke_passes() {
        assert!(reorder_smoke());
    }
}
