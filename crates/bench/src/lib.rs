//! Shared helpers for the experiment binaries and Criterion benches that
//! regenerate the paper's tables and figures.
//!
//! Every binary accepts the environment variables
//!
//! * `PP_USERS` — number of synthetic users for MobileTab/Timeshift
//!   (default 400; the paper uses 10^6),
//! * `PP_MPU_USERS` — number of MPU users (default 80; the paper uses 279),
//! * `PP_DAYS` — number of days of logs (default 30),
//! * `PP_HIDDEN` — RNN hidden dimensionality (default 64; the paper uses 128),
//! * `PP_EPOCHS` — RNN training epochs (default 1; the paper uses 8 for MPU),
//! * `PP_SEED` — global seed (default 17),
//!
//! so the same binaries scale from a quick smoke run to a paper-scale run.

use pp_baselines::{GbdtConfig, LogRegConfig};
use pp_core::experiments::OfflineExperimentConfig;
use pp_data::synth::{MobileTabConfig, MpuConfig, TimeshiftConfig};
use pp_rnn::{RnnModelConfig, TrainerConfig};

/// Reads a numeric environment variable with a default.
pub fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Benchmark-scale knobs resolved from the environment.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Users for MobileTab / Timeshift.
    pub users: usize,
    /// Users for MPU.
    pub mpu_users: usize,
    /// Days of logs.
    pub days: u32,
    /// RNN hidden dimensionality.
    pub hidden: usize,
    /// RNN epochs.
    pub epochs: usize,
    /// Global seed.
    pub seed: u64,
}

impl Scale {
    /// Resolves the scale from the environment.
    pub fn from_env() -> Self {
        Self {
            users: env_or("PP_USERS", 400),
            mpu_users: env_or("PP_MPU_USERS", 80),
            days: env_or("PP_DAYS", 30),
            hidden: env_or("PP_HIDDEN", 64),
            epochs: env_or("PP_EPOCHS", 1),
            seed: env_or("PP_SEED", 17),
        }
    }

    /// MobileTab generator configuration at this scale.
    pub fn mobiletab(&self) -> MobileTabConfig {
        MobileTabConfig {
            num_users: self.users,
            num_days: self.days,
            ..Default::default()
        }
    }

    /// Timeshift generator configuration at this scale.
    pub fn timeshift(&self) -> TimeshiftConfig {
        TimeshiftConfig {
            num_users: self.users,
            num_days: self.days,
            ..Default::default()
        }
    }

    /// MPU generator configuration at this scale.
    pub fn mpu(&self) -> MpuConfig {
        MpuConfig {
            num_users: self.mpu_users,
            num_days: self.days.min(28),
            median_notifications_per_day: 20.0,
            ..Default::default()
        }
    }

    /// Offline experiment configuration at this scale.
    pub fn experiment(&self) -> OfflineExperimentConfig {
        OfflineExperimentConfig {
            rnn_model: RnnModelConfig {
                hidden_dim: self.hidden,
                mlp_width: self.hidden,
                ..Default::default()
            },
            rnn_trainer: TrainerConfig {
                epochs: self.epochs,
                seed: self.seed,
                ..Default::default()
            },
            gbdt: GbdtConfig {
                num_trees: 60,
                max_depth: 6,
                ..Default::default()
            },
            logreg: LogRegConfig {
                epochs: 6,
                ..Default::default()
            },
            seed: self.seed,
            ..Default::default()
        }
    }
}

/// Prints a labelled section header so the text output of the binaries is
/// easy to scan and diff against `EXPERIMENTS.md`.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints a [`pp_obs::TailReport`] — the sampled-trace tail-latency
/// attribution both benchmark binaries embed as their `trace` block.
pub fn print_tail_report(report: &pp_obs::TailReport) {
    if !report.enabled || report.sample_every == 0 {
        return;
    }
    section("trace (sampled request lifecycle)");
    if report.sampled_requests == 0 && report.spans == 0 {
        println!(
            "  no sampled spans (1/{} sampling; set PP_TRACE_SAMPLE=1 to trace every user)",
            report.sample_every
        );
        return;
    }
    println!(
        "  {} sampled requests (1/{} users), {} spans, {} dropped",
        report.sampled_requests, report.sample_every, report.spans, report.spans_dropped
    );
    if report.sampled_requests > 0 {
        println!(
            "  end-to-end: p50 {:>9.1} µs   p90 {:>9.1} µs   p99 {:>9.1} µs   max {:>9.1} µs",
            report.e2e_p50_us, report.e2e_p90_us, report.e2e_p99_us, report.e2e_max_us
        );
    }
    for stage in &report.stages {
        println!(
            "  {:<16} p50 {:>9.1} µs   p99 {:>9.1} µs   (n={:<6} {:>5.1}% of request time)",
            stage.stage,
            stage.p50_us,
            stage.p99_us,
            stage.count,
            stage.share_of_request_time * 100.0
        );
    }
    if report.tail_requests > 0 {
        println!(
            "  slowest {} request(s) (>= {:.1} µs, beyond p99 {:.1} µs): {:.1}% queued, {:.1}% in service",
            report.tail_requests,
            report.tail_threshold_us,
            report.e2e_p99_us,
            report.tail_queue_share * 100.0,
            report.tail_service_share * 100.0
        );
    }
}

/// A periodic metrics time-series sink: when `PP_OBS_REPORT=path` is set,
/// drives a [`pp_obs::Reporter`] off the caller's clock and appends one
/// JSON line per fired tick — `{"at":…,"label":…,"snapshot":{…}}` — so a
/// run yields a queue-depth/throughput/bucket timeline instead of only the
/// final snapshot.
#[derive(Debug)]
pub struct ReportSink {
    inner: Option<SinkInner>,
}

#[derive(Debug)]
struct SinkInner {
    reporter: pp_obs::Reporter,
    file: std::fs::File,
    path: String,
    label: String,
    lines: u64,
}

impl ReportSink {
    /// Creates the sink from `PP_OBS_REPORT` (inert when unset or when
    /// instrumentation is compiled out), ticking every `period` units of
    /// the clock later passed to [`ReportSink::tick`].
    ///
    /// # Panics
    ///
    /// Panics when `PP_OBS_REPORT` is set but the file cannot be created —
    /// a requested time-series must not be silently skipped.
    #[must_use]
    pub fn from_env(period: i64) -> Self {
        let inner = std::env::var("PP_OBS_REPORT")
            .ok()
            .filter(|_| pp_obs::is_enabled())
            .map(|path| SinkInner {
                reporter: pp_obs::Reporter::new(period),
                file: std::fs::File::create(&path)
                    .unwrap_or_else(|e| panic!("PP_OBS_REPORT={path}: {e}")),
                path,
                label: String::new(),
                lines: 0,
            });
        Self { inner }
    }

    /// Whether a report file is being written.
    #[must_use]
    pub fn active(&self) -> bool {
        self.inner.is_some()
    }

    /// Starts a new labelled segment (a benchmark mode or simulator
    /// scenario) and resets the reporter — segment clocks restart at zero,
    /// and without the reset a backwards clock jump would silence the
    /// reporter forever.
    pub fn begin(&mut self, label: &str) {
        if let Some(inner) = &mut self.inner {
            inner.label = label.to_string();
            inner.reporter.reset();
        }
    }

    /// Feeds the caller's clock; appends a snapshot line when a reporting
    /// period has elapsed since the last one.
    pub fn tick(&mut self, now: i64) {
        let Some(inner) = &mut self.inner else { return };
        if let Some(snapshot) = inner.reporter.tick(pp_obs::MetricsRegistry::global(), now) {
            use std::io::Write;
            let line = format!(
                "{{\"at\":{},\"label\":{},\"snapshot\":{}}}\n",
                now,
                serde_json::to_string(&inner.label).expect("label serializes"),
                serde_json::to_string(&snapshot).expect("snapshot serializes"),
            );
            inner
                .file
                .write_all(line.as_bytes())
                .unwrap_or_else(|e| panic!("PP_OBS_REPORT write: {e}"));
            inner.lines += 1;
        }
    }

    /// Prints where the time-series went (call once, at the end of a run).
    pub fn summarize(&self) {
        if let Some(inner) = &self.inner {
            println!(
                "metrics time-series: {} lines -> {}",
                inner.lines, inner.path
            );
        }
    }
}

/// Formats a simple ASCII series (x, y) for terminal inspection of figures.
pub fn print_series(name: &str, xs: &[f64], ys: &[f64]) {
    println!("{name}:");
    for (x, y) in xs.iter().zip(ys) {
        println!("  {x:>12.4}  {y:>10.4}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults_apply() {
        assert_eq!(env_or("PP_DOES_NOT_EXIST", 7usize), 7);
        let s = Scale {
            users: 10,
            mpu_users: 5,
            days: 8,
            hidden: 16,
            epochs: 2,
            seed: 1,
        };
        assert_eq!(s.mobiletab().num_users, 10);
        assert_eq!(s.timeshift().num_days, 8);
        assert_eq!(s.mpu().num_users, 5);
        assert_eq!(s.experiment().rnn_model.hidden_dim, 16);
    }
}
