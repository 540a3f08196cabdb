//! `tenant-chaos`: the `repro tenants` scenario at every load, each
//! point on a fresh cluster with the autoscaler and the `sn-obs`
//! pipeline of `repro obs` attached.

use crate::adapter::{self, ExpertOps, Serve, Summary};
use crate::scenarios::{tenants as sc, PROMPT_TOKENS, TENANTS_SEED};
use crate::spans::Recorder;
use crate::workload::{iter_seed, Check, Fnv, Workload};
use sn_coe::TenancyReport;
use sn_obs::{AlertKind, Obs, ObsReport};

pub struct Point {
    pub load: f64,
    pub report: TenancyReport,
    pub obs: ObsReport,
    /// The `sn-obs/v1` export, rendered at the focus load only.
    pub export: Option<String>,
    pub summary: Summary,
    /// Traced runs re-serve each point blind: whether the blind report
    /// equalled the observed one. `None` on untraced runs.
    pub blind_identical: Option<bool>,
}

pub struct TenantChaos {
    seed: u64,
    ops: ExpertOps,
}

impl TenantChaos {
    pub fn new(seed: u64) -> Self {
        TenantChaos {
            seed,
            ops: ExpertOps::new(PROMPT_TOKENS),
        }
    }
}

impl Workload for TenantChaos {
    /// Request-stream seed of the four-load pass.
    type Input = u64;
    type Output = Vec<Point>;

    /// A four-load pass takes about 20 ms.
    const UNITS: u64 = 32;

    fn input(&mut self, index: u64) -> u64 {
        iter_seed(TENANTS_SEED, self.seed, index)
    }

    fn run(&mut self, _twin: usize, &seed: &u64, rec: &mut Recorder) -> Vec<Point> {
        let mut points = Vec::with_capacity(sc::LOADS.len());
        for &load in sc::LOADS {
            let open = rec.enter("tenant_chaos.point");
            let mut cluster = rec.time("coe.cluster_build", || {
                adapter::cluster(sc::NODES, sc::EXPERTS, PROMPT_TOKENS)
            });
            let config = sc::config(seed);
            let chaos = sc::chaos();
            let mut controller = sc::controller();
            let tenants = sc::tenants(load);
            let obs = Obs::enabled(sc::obs_config(load));
            let report = rec.time("tenancy.serve", || {
                adapter::serve(
                    &mut cluster,
                    Serve {
                        tenants: &tenants,
                        config: &config,
                        chaos: Some(&chaos),
                        autoscaler: Some(&mut controller),
                        policies: None,
                        obs: &obs,
                    },
                )
            });
            // The blind re-run is a probe of the traced run only: its
            // spans are excluded from the traced iteration time.
            let blind_identical = if rec.is_on() {
                let mut blind_cluster = rec.time("probe.blind_build", || {
                    adapter::cluster(sc::NODES, sc::EXPERTS, PROMPT_TOKENS)
                });
                // Fresh scenario objects: a chaos schedule carries its
                // own fault-draw stream.
                let blind_chaos = sc::chaos();
                let mut blind_controller = sc::controller();
                let blind = rec.time("probe.blind_serve", || {
                    adapter::serve(
                        &mut blind_cluster,
                        Serve {
                            tenants: &tenants,
                            config: &config,
                            chaos: Some(&blind_chaos),
                            autoscaler: Some(&mut blind_controller),
                            policies: None,
                            obs: &Obs::disabled(),
                        },
                    )
                });
                Some(blind == report)
            } else {
                None
            };
            let (obs_report, export) = rec.time("obs.finalize", || {
                let r = obs.finalize().expect("enabled pipeline finalizes");
                let export = (load == sc::FOCUS_LOAD).then(|| r.to_json());
                (r, export)
            });
            let summary = rec.time("profile.summarize", || {
                adapter::summarize(&report, sc::EXPERTS)
            });
            rec.exit(open);
            points.push(Point {
                load,
                report,
                obs: obs_report,
                export,
                summary,
                blind_identical,
            });
        }
        points
    }

    fn check(&self, _seed: &u64, points: &Vec<Point>) -> Check {
        let mut c = Check::default();
        let mut h = Fnv::new();
        let mut totals = adapter::Slots {
            slots: 0,
            prefill: 0,
        };
        let mut sums: Vec<(&'static str, f64)> = Vec::new();
        let (mut series, mut samples, mut fired, mut postmortems) = (0, 0, 0, 0);
        for p in points {
            let tag = format!("load{}.", p.load);
            let slots = adapter::check_report(&mut c, &p.report, &tag);
            if let Some(same) = p.blind_identical {
                c.expect(same, format!("{tag}observed==blind"));
            }
            adapter::fold_report(&mut h, &p.report);
            h.f64(p.load);
            h.str(p.export.as_deref().unwrap_or(""));
            h.usize(p.obs.series.len());
            h.usize(p.obs.alerts.len());
            h.usize(p.obs.postmortems.len());
            h.f64(p.summary.switch_bound);
            totals.slots += slots.slots;
            totals.prefill += slots.prefill;
            let mut counts = Vec::new();
            adapter::report_counts(&mut counts, &p.report, &slots);
            for (name, v) in counts {
                match sums.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, s)) => *s += v,
                    None => sums.push((name, v)),
                }
            }
            series += p.obs.series.len();
            samples += p
                .obs
                .series
                .iter()
                .map(|(_, b)| b.total_samples())
                .sum::<u64>();
            fired += p.obs.alerts_of(AlertKind::Firing).count();
            postmortems += p.obs.postmortems.len();
        }
        c.expect(
            points.len() == sc::LOADS.len()
                && points.iter().filter(|p| p.export.is_some()).count() == 1,
            "one_obs_export",
        );
        c.digest = h.finish();
        c.slots = totals.slots;
        let wave_tokens = sc::config(0).wave_tokens as u64;
        c.graph_ops = points.len() as u64 * self.ops.compiled()
            + self.ops.executed(totals.slots, totals.prefill, wave_tokens);
        // Counts are summed over the four points, except the ratio,
        // which is recomputed from the summed report fields.
        let submitted: usize = points.iter().map(|p| p.report.submitted).sum();
        let admitted: usize = points.iter().map(|p| p.report.admitted).sum();
        for (name, v) in &mut sums {
            if *name == "tenancy.admitted_ratio" {
                *v = admitted as f64 / submitted.max(1) as f64;
            }
        }
        c.counts = sums;
        let switch_gib: f64 = points
            .iter()
            .map(|p| adapter::switch_gib(&p.report, sc::EXPERTS))
            .sum();
        c.counts.extend([
            ("memsim.switch_gib", switch_gib),
            ("obs.series", series as f64),
            ("obs.samples", samples as f64),
            ("obs.alerts_fired", fired as f64),
            ("obs.postmortems", postmortems as f64),
        ]);
        if let Some(focus) = points.iter().find(|p| p.load == sc::FOCUS_LOAD) {
            adapter::sim_counts(&mut c.counts, &focus.report, &focus.summary);
        }
        c
    }
}
