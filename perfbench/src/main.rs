//! Single-threaded benchmark of the SN40L simulator.
//!
//! ```text
//! perfbench --workload <kv-thrash|tenant-chaos|cluster-scale|compile-suite>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --self-test
//! ```
//!
//! One process, one thread, closed loop: the next unit of work starts
//! when the previous one returns. `--trace 0` times iterations of
//! `Workload::UNITS` units untraced and reports the end-to-end metrics;
//! `--trace 1` runs every unit twice on the same inputs, untraced and
//! inside spans, and reports the per-layer metrics. The last line of stdout is the result as JSON.
//! See `NOTES.md` for the workloads and what each metric should move.

mod adapter;
mod cluster_scale;
mod compile_suite;
mod kv_thrash;
mod scenarios;
mod spans;
mod tenant_chaos;
mod workload;

use spans::Recorder;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Check, Workload, REFERENCE};

const WORKLOADS: [&str; 4] = [
    "kv-thrash",
    "tenant-chaos",
    "cluster-scale",
    "compile-suite",
];

/// Digest of each workload's reference pass (see `workload::REFERENCE`).
/// A model change that alters any output changes these; update them
/// only together with that change.
const GOLDEN: [(&str, u64); 4] = [
    ("kv-thrash", 0x2154_5d6d_f629_7647),
    ("tenant-chaos", 0x72bf_2db9_8cd1_a620),
    ("cluster-scale", 0x05b0_70b1_1c36_9cba),
    ("compile-suite", 0x4c14_ee51_dd30_3bae),
];

/// `setup_s` is the median of the set-up repetitions of an untraced
/// run. The first comes before the first timed iteration; the rest are
/// spread evenly through the timed run, so they sample the same host
/// phases as the iterations. There are at least [`SETUP_REPS`], more if
/// the first took less than [`SETUP_SECONDS`] / [`SETUP_REPS`], at most
/// [`SETUP_MAX_REPS`].
const SETUP_REPS: usize = 5;
const SETUP_SECONDS: f64 = 2.0;
const SETUP_MAX_REPS: usize = 40;

/// Iteration id of the traced run's set-up in the span file.
const SETUP_ITER: u64 = u64::MAX;

const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("iter_ms_p50", "ms"),
    ("iter_ms_tail", "ms"),
    ("slots_per_host_s", "1/s"),
    ("graph_ops_per_host_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

const PER_LAYER: [(&str, &str); 53] = [
    ("models.build_ms", "ms"),
    ("dataflow.graph_ops", "count"),
    ("compiler.compile_ms", "ms"),
    ("compiler.cold_compile_ms", "ms"),
    ("compiler.kernels_unfused", "count"),
    ("compiler.kernels_fused", "count"),
    ("compiler.fusion_ratio", "ratio"),
    ("runtime.run_ms", "ms"),
    ("runtime.kernel_launches", "count"),
    ("runtime.expert_hits", "count"),
    ("runtime.expert_misses", "count"),
    ("rdusim.pipeline_ms", "ms"),
    ("rdusim.sim_cycles", "cycles"),
    ("rdusim.model_error_max", "fraction"),
    ("coe.cluster_build_ms", "ms"),
    ("tenancy.serve_ms", "ms"),
    ("tenancy.us_per_wave", "us"),
    ("tenancy.waves", "count"),
    ("tenancy.slots", "count"),
    ("tenancy.admitted_ratio", "fraction"),
    ("tenancy.shed", "count"),
    ("tenancy.preemptions", "count"),
    ("autoscale.scale_events", "count"),
    ("faults.chaos_retransmits", "count"),
    ("faults.chaos_slowdowns", "count"),
    ("coe.rehomed_experts", "count"),
    ("placement.prefetch_issued", "count"),
    ("placement.prefetch_accuracy", "fraction"),
    ("placement.prefetch_wasted_gib", "GiB"),
    ("placement.replicas", "count"),
    ("placement.cold_moves", "count"),
    ("kv.pages_in", "count"),
    ("kv.pages_evicted", "count"),
    ("kv.refaults", "count"),
    ("kv.evict_ratio", "fraction"),
    ("kv.host_us_per_page_in", "us"),
    ("cluster.ns_per_slot", "ns"),
    ("router.route_ns", "ns"),
    ("memsim.switch_gib", "GiB"),
    ("obs.overhead_ms", "ms"),
    ("obs.finalize_ms", "ms"),
    ("obs.series", "count"),
    ("obs.samples", "count"),
    ("obs.alerts_fired", "count"),
    ("obs.postmortems", "count"),
    ("profile.summarize_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("sim_hbm_hit_rate", "fraction"),
    ("sim_interactive_p99_ms", "ms"),
    ("sim_interactive_goodput_rps", "1/s"),
    ("sim_makespan_s", "s"),
    ("sim_fusion_speedup", "x"),
    ("error_rate", "fraction"),
];

/// Per-layer host time: span name and the metric its per-unit
/// self time feeds.
const SPAN_MS: [(&str, &str); 8] = [
    ("models.build", "models.build_ms"),
    ("compiler.compile", "compiler.compile_ms"),
    ("runtime.run", "runtime.run_ms"),
    ("rdusim.pipeline", "rdusim.pipeline_ms"),
    ("coe.cluster_build", "coe.cluster_build_ms"),
    ("tenancy.serve", "tenancy.serve_ms"),
    ("obs.finalize", "obs.finalize_ms"),
    ("profile.summarize", "profile.summarize_ms"),
];

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    setup_reps: usize,
    setup_seconds: f64,
    /// Where the traced run writes its spans.
    spans_out: Option<PathBuf>,
}

/// A finished run: the result line's fields.
struct Outcome {
    tally: Tally,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// A metric that is not finite cannot be written as JSON: it reads 0
    /// and fails the run by name.
    fn new(
        mut tally: Tally,
        metrics: impl IntoIterator<Item = (&'static str, f64, &'static str)>,
    ) -> Self {
        let metrics = metrics
            .into_iter()
            .map(|(name, value, unit)| {
                if value.is_finite() {
                    (name, value, unit)
                } else {
                    tally.failed += 1;
                    tally
                        .failures
                        .insert(format!("non_finite_metric:{name}"), 1);
                    (name, 0.0, unit)
                }
            })
            .collect();
        Outcome { tally, metrics }
    }

    fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    fn result_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let _ = write!(
                m,
                "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed
        )
    }
}

/// Tallies checks across every unit of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Failed check names with how often each failed.
    failures: BTreeMap<String, u64>,
}

impl Tally {
    fn record(&mut self, failures: &[String]) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
        }
        for f in failures {
            *self.failures.entry(f.clone()).or_insert(0) += 1;
        }
    }

    fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The value at the highest percentile with at least ten samples beyond
/// it, never below the median; returns `(value, percentile)`.
fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 21 {
        return (median(xs), 50.0);
    }
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// The benchmark's own directory: spans go below it.
fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Output of a command run in the benchmark's directory, or `unknown`.
fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(bench_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

fn env_stamp(opts: &Opts) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"threads_used\": 1, \"commit\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        command_output("git", &["rev-parse", "HEAD"]),
        command_output("rustc", &["-V"]),
        build_profile(),
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.traced)
    )
}

/// One set-up: builds the workload and runs its reference pass on every
/// twin, checked against the golden. Only twin 0 is recorded in `rec`,
/// so a traced set-up holds one process-cold pass. Returns the workload
/// and the host seconds the set-up took.
fn set_up<W: Workload>(
    golden: u64,
    twins: usize,
    make: &mut dyn FnMut(usize) -> W,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> (W, f64) {
    let mut off = Recorder::new(false);
    let start = Instant::now();
    let mut w = make(twins);
    let input = w.input(REFERENCE);
    for twin in 0..twins {
        let rec = if twin == 0 { &mut *rec } else { &mut off };
        rec.set_iter(SETUP_ITER);
        let open = rec.enter("setup.reference");
        let out = w.run(twin, &input, rec);
        rec.exit(open);
        let mut check = w.check(&input, &out);
        check.failures.extend(w.reference_checks(&out));
        if check.digest != golden {
            check.failures.push(format!(
                "golden_digest(expected {golden:#018x}, got {:#018x})",
                check.digest
            ));
        }
        tally.record(&check.failures);
    }
    (w, start.elapsed().as_secs_f64())
}

fn drive<W: Workload>(opts: &Opts, golden: u64, make: &mut dyn FnMut(usize) -> W) -> Outcome {
    if opts.traced {
        drive_traced(opts, golden, make)
    } else {
        drive_untraced(opts, golden, make)
    }
}

fn drive_untraced<W: Workload>(
    opts: &Opts,
    golden: u64,
    make: &mut dyn FnMut(usize) -> W,
) -> Outcome {
    let mut tally = Tally::default();
    let mut off = Recorder::new(false);
    let (mut w, first_setup) = set_up(golden, 1, make, &mut off, &mut tally);
    let mut setup_times = vec![first_setup];
    let reps = ((opts.setup_seconds / first_setup).ceil() as usize)
        .clamp(opts.setup_reps, SETUP_MAX_REPS.max(opts.setup_reps));
    // Set-up repetition k is due once k/reps of the timed run is done;
    // time spent in them does not count against the run.
    let due = |k: usize| Duration::from_secs_f64(opts.seconds * k as f64 / reps as f64);
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut in_setup = Duration::ZERO;
    let (mut times, mut slots, mut ops) = (Vec::new(), 0u64, 0u64);
    let mut first: Option<Check> = None;
    for index in 0.. {
        let mut host_s = 0.0;
        for unit in index * W::UNITS..(index + 1) * W::UNITS {
            let input = w.input(unit);
            let t0 = Instant::now();
            let out = w.run(0, &input, &mut off);
            host_s += t0.elapsed().as_secs_f64();
            let check = w.check(&input, &out);
            tally.record(&check.failures);
            slots += check.slots;
            ops += check.graph_ops;
            first.get_or_insert(check);
        }
        times.push(host_s);
        let measured = start.elapsed() - in_setup;
        if setup_times.len() < reps && measured >= due(setup_times.len()) {
            let (_, t) = set_up(golden, 1, make, &mut off, &mut tally);
            setup_times.push(t);
            in_setup += Duration::from_secs_f64(t);
        }
        if measured >= budget {
            break;
        }
    }
    // Repetitions the run ended before.
    while setup_times.len() < reps {
        setup_times.push(set_up(golden, 1, make, &mut off, &mut tally).1);
    }
    let host_s: f64 = times.iter().sum();
    let (tail_ms, tail_pct) = tail(&times);
    println!(
        "# iterations of {} units: {} timed in {:.3} s; iter_ms_tail is p{tail_pct:.2} of {} samples; setup_s is the median of {} set-ups",
        W::UNITS,
        times.len(),
        host_s,
        times.len(),
        setup_times.len()
    );
    if let Some(first) = &first {
        let sim: Vec<String> = first
            .counts
            .iter()
            .filter(|(n, _)| n.starts_with("sim_"))
            .map(|(n, v)| format!("{n}={v}"))
            .collect();
        println!(
            "# simulated outputs of unit 0 (deterministic model outputs, unvalidated against hardware; correctness checks, not accuracy claims): {}",
            sim.join(" ")
        );
    }
    let values = [
        median(&setup_times),
        median(&times) * 1e3,
        tail_ms * 1e3,
        slots as f64 / host_s,
        ops as f64 / host_s,
        peak_rss_mb(),
    ];
    Outcome::new(
        tally,
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit)),
    )
}

fn drive_traced<W: Workload>(
    opts: &Opts,
    golden: u64,
    make: &mut dyn FnMut(usize) -> W,
) -> Outcome {
    let mut tally = Tally::default();
    let mut rec = Recorder::new(true);
    let mut off = Recorder::new(false);
    let (mut w, _) = set_up(golden, 2, make, &mut rec, &mut tally);
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut first: Option<Check> = None;
    let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut identical = 0u64;
    for index in 0u64.. {
        let input = w.input(index);
        let (mut out_plain, mut out_traced) = (None, None);
        // Alternate which twin runs first so neither gets warmer caches.
        let order = if index % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for with_spans in order {
            if with_spans {
                rec.set_iter(index);
                let from = rec.spans().len();
                let open = rec.enter("unit");
                out_traced = Some(w.run(1, &input, &mut rec));
                rec.exit(open);
                let root = rec.spans()[from];
                let probes: u64 = rec.spans()[from..]
                    .iter()
                    .filter(|s| s.name.starts_with("probe."))
                    .map(|s| s.end_ns - s.start_ns)
                    .sum();
                traced.push((root.end_ns - root.start_ns - probes) as f64 / 1e9);
            } else {
                let t0 = Instant::now();
                out_plain = Some(w.run(0, &input, &mut off));
                plain.push(t0.elapsed().as_secs_f64());
            }
        }
        let check_plain = w.check(&input, &out_plain.expect("untraced twin ran"));
        let mut check = w.check(&input, &out_traced.expect("traced twin ran"));
        if check.digest == check_plain.digest {
            identical += 1;
        } else {
            check.failures.push("traced_output==untraced_output".into());
        }
        tally.record(&check_plain.failures);
        tally.record(&check.failures);
        for (name, v) in &check.counts {
            *totals.entry(name).or_insert(0.0) += v;
        }
        first.get_or_insert(check);
        if start.elapsed() >= budget {
            break;
        }
    }
    let n = traced.len() as f64;
    let self_ns = rec.self_time_ns(|it| it != SETUP_ITER);
    let cold_ns = rec.self_time_ns(|it| it == SETUP_ITER);
    let per_unit_ms = |span: &str| self_ns.get(span).copied().unwrap_or(0) as f64 / n / 1e6;
    let total_ns = |span: &str| self_ns.get(span).copied().unwrap_or(0) as f64;
    let per = |span: &str, count: &str| match totals.get(count) {
        Some(&c) if c > 0.0 => total_ns(span) / c,
        _ => 0.0,
    };

    let mut m: BTreeMap<&str, f64> = BTreeMap::new();
    for (span, metric) in SPAN_MS {
        m.insert(metric, per_unit_ms(span));
    }
    if let Some(first) = &first {
        m.extend(first.counts.iter().copied());
    }
    m.insert(
        "compiler.cold_compile_ms",
        cold_ns.get("compiler.compile").copied().unwrap_or(0) as f64 / 1e6,
    );
    m.insert(
        "tenancy.us_per_wave",
        per("tenancy.serve", "tenancy.waves") / 1e3,
    );
    m.insert(
        "kv.host_us_per_page_in",
        per("tenancy.serve", "kv.pages_in") / 1e3,
    );
    // `cluster-scale` times its waves; the `kv-thrash` traced run probes
    // one wave per unit.
    let wave_ns = total_ns("cluster.wave") + total_ns("probe.wave");
    m.insert(
        "cluster.ns_per_slot",
        match totals.get("cluster.slots") {
            Some(&slots) if slots > 0.0 => wave_ns / slots,
            _ => 0.0,
        },
    );
    m.insert("router.route_ns", per("probe.router", "cluster.slots"));
    if self_ns.contains_key("probe.blind_serve") {
        m.insert(
            "obs.overhead_ms",
            per_unit_ms("tenancy.serve") - per_unit_ms("probe.blind_serve"),
        );
    }
    let pages_in = m.get("kv.pages_in").copied().unwrap_or(0.0);
    if pages_in > 0.0 {
        m.insert("kv.evict_ratio", m["kv.pages_evicted"] / pages_in);
    }
    let (p_plain, p_traced) = (median(&plain), median(&traced));
    m.insert("trace.overhead_pct", (p_traced - p_plain) / p_plain * 100.0);

    print_self_times(&rec, n, p_traced);
    println!(
        "# traced twins byte-identical to untraced twins (output digest): {identical} of {} units; untraced p50 {:.4} ms, traced p50 {:.4} ms",
        traced.len(),
        p_plain * 1e3,
        p_traced * 1e3
    );
    if let Some(path) = &opts.spans_out {
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, rec.to_json()));
        match written {
            Ok(()) => println!("# spans: {} ({} spans)", path.display(), rec.spans().len()),
            Err(e) => println!("# spans not written to {}: {e}", path.display()),
        }
    }
    m.insert("error_rate", tally.error_rate());
    Outcome::new(
        tally,
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, m.get(name).copied().unwrap_or(0.0), unit)),
    )
}

/// Prints the per-span self-time table of the timed traced units.
fn print_self_times(rec: &Recorder, n: f64, p50_s: f64) {
    let self_ns = rec.self_time_ns(|it| it != SETUP_ITER);
    let total: u64 = self_ns
        .iter()
        .filter(|(k, _)| !k.starts_with("probe.") && !k.starts_with("setup."))
        .map(|(_, v)| v)
        .sum();
    println!(
        "# self time per span over {n} traced units (p50 {:.4} ms; probes are traced-only and excluded from the share)",
        p50_s * 1e3
    );
    println!("# {:<24} {:>14} {:>8}", "span", "ms/unit", "share");
    let mut rows: Vec<_> = self_ns.iter().collect();
    rows.sort_by(|a, b| b.1.cmp(a.1));
    for (name, ns) in rows {
        let share = if name.starts_with("probe.") {
            "-".to_string()
        } else {
            format!("{:.1}%", *ns as f64 / total.max(1) as f64 * 100.0)
        };
        println!("# {name:<24} {:>14.4} {share:>8}", *ns as f64 / n / 1e6);
    }
}

fn run_workload(opts: &Opts, golden: u64) -> Outcome {
    let seed = opts.seed;
    match opts.workload.as_str() {
        "kv-thrash" => drive(opts, golden, &mut |_| kv_thrash::KvThrash::new(seed)),
        "tenant-chaos" => drive(opts, golden, &mut |_| tenant_chaos::TenantChaos::new(seed)),
        "cluster-scale" => drive(opts, golden, &mut |twins| {
            cluster_scale::ClusterScale::new(seed, twins)
        }),
        "compile-suite" => drive(opts, golden, &mut |_| {
            compile_suite::CompileSuite::new(seed)
        }),
        other => unreachable!("workload {other} is validated before it runs"),
    }
}

fn golden_of(workload: &str) -> u64 {
    GOLDEN
        .iter()
        .find(|(w, _)| *w == workload)
        .map_or(0, |&(_, g)| g)
}

fn print_outcome(o: &Outcome) {
    for (name, count) in &o.tally.failures {
        println!("# FAILED {name} ({count}x)");
    }
    for (name, value, unit) in &o.metrics {
        println!("# {name:<30} {value:>22} {unit}");
    }
}

/// Options of a one-iteration (untraced) or one-unit (traced) run at the
/// default seed.
fn tiny(workload: &str, traced: bool) -> Opts {
    Opts {
        workload: workload.into(),
        seed: 0,
        seconds: 0.0,
        traced,
        setup_reps: 1,
        setup_seconds: 0.0,
        spans_out: None,
    }
}

/// A tiny run of every workload, untraced and traced, printing every
/// metric; then a run against a deliberately wrong golden, which must
/// fail. Returns whether everything behaved.
fn self_test() -> bool {
    let mut ok = true;
    for workload in WORKLOADS {
        for traced in [false, true] {
            let o = run_workload(&tiny(workload, traced), golden_of(workload));
            println!("# self-test {workload} trace={}:", u8::from(traced));
            print_outcome(&o);
            let expected = if traced {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            if !o.correct() || o.metrics.len() != expected {
                println!("# self-test FAILED: {workload} trace={}", u8::from(traced));
                ok = false;
            }
        }
    }
    let wrong = run_workload(&tiny("tenant-chaos", false), golden_of("tenant-chaos") ^ 1);
    let error_rate = wrong.tally.error_rate();
    println!("# self-test wrong golden: error_rate {error_rate} (must be > 0)");
    ok &= error_rate > 0.0 && !wrong.correct();
    ok
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       perfbench --self-test",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to time a debug build; build with --release");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--self-test") {
        let ok = self_test();
        println!("# self-test {}", if ok { "passed" } else { "FAILED" });
        std::process::exit(if ok { 0 } else { 1 });
    }
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        traced: false,
        setup_reps: SETUP_REPS,
        setup_seconds: SETUP_SECONDS,
        spans_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                opts.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        usage();
    }
    if opts.traced {
        opts.spans_out = Some(
            bench_dir()
                .join("out")
                .join(format!("spans-{}-seed{}.json", opts.workload, opts.seed)),
        );
    }
    println!("# env: {}", env_stamp(&opts));
    let outcome = run_workload(&opts, golden_of(&opts.workload));
    print_outcome(&outcome);
    println!("{}", outcome.result_json());
}
