//! Run bookkeeping (attempts, failures, checks) and metric output.

/// The state one benchmark run accumulates.
#[derive(Debug)]
pub struct Run {
    /// The workload seed.
    pub seed: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    notes: Vec<String>,
}

impl Run {
    /// A run for `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Counts `n` operations attempted.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `n` failed operations (already counted as attempted).
    pub fn fail(&mut self, n: u64, what: &str) {
        if n > 0 {
            self.failed += n;
            self.failures.push(format!("{n} x {what}"));
        }
    }

    /// An output check: one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.to_string());
        }
    }

    /// Records an FNV-1a digest of some output, printed with the report so
    /// runs of different workloads on one seed can be compared by eye.
    pub fn note_digest(&mut self, what: &str, bytes: &str) {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in bytes.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
        self.notes
            .push(format!("{what} digest {hash:016x} ({} bytes)", bytes.len()));
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted.max(1)
    }

    /// Operations failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// What failed.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Free-form notes for the report.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of metrics.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds a metric.
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The metrics as the JSON object of the result line.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// A finite JSON number with every digit of the measurement.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        // An unbounded latency (a request that was never answered) is
        // reported as the largest finite number; the run has failed anyway.
        format!("{:?}", f64::MAX)
    }
}

/// The process high-water resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
