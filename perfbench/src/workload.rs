//! What the driver needs from a workload, and the helpers they share.

use crate::spans::Recorder;
use sn_arch::TimeSecs;

/// Index of the reference pass: the workload's scenario at the `repro`
/// seeds, whatever `--seed` is, so every run can check its outputs
/// against the committed goldens.
pub const REFERENCE: u64 = u64::MAX;

/// Scenario seed of iteration `index` of a run at `seed`. The default
/// seed's first iteration and the reference pass replay `base` itself.
pub fn iter_seed(base: u64, seed: u64, index: u64) -> u64 {
    if index == REFERENCE || (seed == 0 && index == 0) {
        return base;
    }
    base ^ splitmix64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(index)
            .wrapping_add(1),
    )
}

pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over 64-bit words: the output digest. Floats fold in as raw
/// bits, so two outputs digest equal only if they are bit-identical.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, word: u64) {
        self.0 ^= word;
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }

    pub fn usize(&mut self, word: usize) {
        self.u64(word as u64);
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub fn time(&mut self, t: TimeSecs) {
        self.f64(t.as_secs());
    }

    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The driver's view of one iteration's outputs.
#[derive(Debug, Default)]
pub struct Check {
    /// Digest of every output value.
    pub digest: u64,
    /// Names of the correctness checks that failed.
    pub failures: Vec<String>,
    /// Simulated request slots served.
    pub slots: u64,
    /// Dataflow ops compiled plus executed.
    pub graph_ops: u64,
    /// Per-layer counts and simulated outputs, by metric name.
    pub counts: Vec<(&'static str, f64)>,
}

impl Check {
    pub fn expect(&mut self, ok: bool, name: impl Into<String>) {
        if !ok {
            self.failures.push(name.into());
        }
    }
}

/// One benchmark workload. `run` is one timed unit of work; everything
/// else is set-up or checking and stays outside the timer.
pub trait Workload {
    type Input;
    type Output;

    /// Units (calls of `run`, each on fresh inputs) in one timed
    /// iteration of an untraced run; the iteration's time is the sum of
    /// theirs. Units are grouped so that an iteration takes 0.5 to 1 s:
    /// slow phases of a shared host then average out inside each
    /// iteration instead of deciding which side of the median most
    /// iterations fall on.
    const UNITS: u64;

    /// The inputs of unit `index` (or of [`REFERENCE`]).
    fn input(&mut self, index: u64) -> Self::Input;

    /// Runs one unit on state copy `twin`. Workloads that keep state
    /// between units hold one identical copy per twin, so a traced twin
    /// sees exactly what its untraced twin saw.
    fn run(&mut self, twin: usize, input: &Self::Input, rec: &mut Recorder) -> Self::Output;

    /// Checks one unit and reads its counts off the reports.
    fn check(&self, input: &Self::Input, out: &Self::Output) -> Check;

    /// Checks of the reference pass against numbers committed elsewhere
    /// in the repository.
    fn reference_checks(&self, _out: &Self::Output) -> Vec<String> {
        Vec::new()
    }
}
