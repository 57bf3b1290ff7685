//! End-to-end and per-layer benchmark of the P2 overlay workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload chord_steady --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of one workload, measured on
//! the public harness clusters. `--trace 1` runs the workload untraced and
//! then again on a replica whose nodes sit behind a timing wrapper, and
//! prints the per-layer ledger. `--workload all` runs every workload, each
//! in its own process. The last line of standard output is one JSON object;
//! the exit code is non-zero when a correctness check fails.

mod churn;
mod layers;
mod rings;
mod stats;
mod traced;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use workload::{specs, Overlay, Spec, Window, RING_SEED};

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in report order, plus the run's check results.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    /// Failed correctness checks, one line each.
    pub broken: Vec<String>,
}

impl Report {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.broken.push(what.into());
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.broken.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The paper's metrics over a window's deterministic part.
fn push_paper_metrics(r: &mut Report, spec: &Spec, w: &Window) {
    let latencies_ms: Vec<f64> = w.lookups.latencies.iter().map(|s| s * 1e3).collect();
    let tail = stats::tail(&latencies_ms, 990);
    eprintln!(
        "  lookups: {} issued, {} unanswered, {} wrong owner; p50 {:.3} ms, p{:.1} {:.3} ms over {} samples ({} beyond)",
        w.lookups.issued,
        w.lookups.unanswered,
        w.lookups.wrong_owner,
        stats::median(&latencies_ms),
        tail.quantile * 100.0,
        tail.value,
        tail.samples,
        tail.beyond
    );
    r.push("lookup_mean_ms", stats::mean(&latencies_ms), "ms");
    r.push("lookup_tail_ms", tail.beyond_mean, "ms");
    r.push("lookup_ok_rate", 1.0 - w.lookups.fail_rate(), "fraction");
    r.push(
        "maint_bytes_per_node_s",
        w.maint_bytes as f64
            / (spec.min_steps as f64 * spec.step.as_secs_f64())
            / spec.nodes as f64,
        "B/s",
    );
    let ring = if spec.churn.is_some() {
        stats::mean(&w.ring_samples)
    } else {
        w.ring_samples.last().copied().unwrap_or(0.0)
    };
    r.push("ring_correct", ring, "fraction");
    r.push(
        "lookup_consistency",
        stats::mean(&w.consistency),
        "fraction",
    );
    r.attempted = w.lookups.issued;
    if spec.stable_ring {
        r.failed = w.lookups.failed();
    }
    r.check(w.lookups.issued > 0, "no lookups were issued");
    r.check(
        !w.lookups.latencies.is_empty(),
        "no lookup was answered in time",
    );
}

/// A ring built through the public harness.
enum Harness {
    P2(p2_harness::ChordCluster),
    Baseline(p2_harness::BaselineCluster),
}

impl Harness {
    fn set_up(spec: &Spec) -> (Harness, f64) {
        match spec.overlay {
            Overlay::P2 => {
                let (c, s) = rings::set_up_chord(spec.nodes, RING_SEED);
                (Harness::P2(c), s)
            }
            Overlay::Baseline => {
                let (c, s) = rings::set_up_baseline(spec.nodes, RING_SEED);
                (Harness::Baseline(c), s)
            }
        }
    }

    fn ring(&mut self) -> &mut dyn workload::Ring {
        match self {
            Harness::P2(c) => c,
            Harness::Baseline(c) => c,
        }
    }

    /// Warm-up, then the structural check the workload asks for.
    fn warm_up(&mut self, spec: &Spec, r: &mut Report) {
        rings::warm_up(self.ring(), spec.warmup);
        if let (Harness::P2(c), true) = (&*self, spec.stable_ring) {
            r.check(
                c.is_single_cycle(),
                format!(
                    "ring is not one cycle after set-up (ring_correctness {:.3})",
                    c.ring_correctness()
                ),
            );
        }
    }
}

fn run_untraced(spec: &Spec, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut r = Report::default();
    let mut setups = Vec::with_capacity(spec.setups);
    let mut kept = None;
    for _ in 0..spec.setups {
        drop(kept.take());
        let (h, secs) = Harness::set_up(spec);
        setups.push(secs);
        kept = Some(h);
    }
    let mut h = kept.expect("at least one set-up");
    h.warm_up(spec, &mut r);
    let w = workload::run_window(h.ring(), spec, seed, true, seconds)?;
    let speeds: Vec<f64> = w
        .step_wall_s
        .iter()
        .map(|wall| spec.step.as_secs_f64() / wall)
        .collect();
    let fastest = speeds.iter().copied().fold(0.0, f64::max);
    let slowest = speeds.iter().copied().fold(f64::INFINITY, f64::min);
    eprintln!(
        "  set-ups {setups:?} s; {} steps ({} deterministic) in {:.2} s wall, {slowest:.2} to {fastest:.2} virtual s/s",
        w.steps,
        spec.min_steps,
        w.step_wall_s.iter().sum::<f64>()
    );
    r.push("setup_s", stats::median(&setups), "s");
    r.push("sim_speed", stats::median(&speeds), "virtual_s/s");
    r.push("peak_rss_mb", w.peak_rss_mb, "MB");
    push_paper_metrics(&mut r, spec, &w);
    Ok(r)
}

fn run(args: &Args) -> Result<Report, String> {
    let spec = specs()
        .into_iter()
        .find(|s| s.name == args.workload)
        .ok_or(format!("unknown workload {:?}", args.workload))?;
    eprintln!(
        "{} (seed {}, {} nodes, trace {})",
        spec.name,
        args.seed,
        spec.nodes,
        u8::from(args.trace)
    );
    if args.trace {
        layers::run_traced(&spec, args.seed)
    } else {
        run_untraced(&spec, args.seed, args.seconds)
    }
}

/// Runs every workload in its own process and passes their output on.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    for spec in specs() {
        let status = std::process::Command::new(&exe)
            .args(["--workload", spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| e.to_string())?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let started = Instant::now();
    let mut report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &report.metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    report.check(finite, "a metric is not a finite number");
    for b in &report.broken {
        eprintln!("CHECK FAILED: {b}");
    }
    eprintln!("  run took {:.1} s", started.elapsed().as_secs_f64());
    if !finite {
        return ExitCode::FAILURE;
    }
    println!("{}", report.json());
    if report.broken.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
