//! The parent process: spawns one single-threaded child per iteration,
//! one at a time, and reads back what each printed.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

pub struct SpanRec {
    pub name: String,
    pub index: i64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: i64,
}

/// What one child printed.
#[derive(Default)]
pub struct Sample {
    pub values: BTreeMap<String, f64>,
    pub digest: String,
    pub violations: Vec<String>,
    pub spans: Vec<SpanRec>,
    /// (host ns, events) per traced one-second slice.
    pub slices: Vec<(f64, f64)>,
}

impl Sample {
    /// A value the child printed; 0 when it printed none by that name.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Host time of the whole iteration that the clock attributes.
    pub fn total_ns(&self) -> f64 {
        self.get("setup_ns") + self.get("run_ns")
    }

    /// Summed duration of every span with this name.
    pub fn span_ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum()
    }

    fn parse(text: &str) -> Option<Sample> {
        let mut s = Sample::default();
        for line in text.lines() {
            let (key, rest) = line.split_once(' ')?;
            match key {
                "digest" => s.digest = rest.to_string(),
                "violation" => s.violations.push(rest.to_string()),
                "slice" => {
                    let (ns, events) = rest.split_once(' ')?;
                    s.slices.push((ns.parse().ok()?, events.parse().ok()?));
                }
                "span" => {
                    let f: Vec<&str> = rest.split(' ').collect();
                    s.spans.push(SpanRec {
                        name: f.first()?.to_string(),
                        index: f.get(1)?.parse().ok()?,
                        start_ns: f.get(2)?.parse().ok()?,
                        end_ns: f.get(3)?.parse().ok()?,
                        parent: f.get(4)?.parse().ok()?,
                    });
                }
                _ => {
                    s.values.insert(key.to_string(), rest.parse().ok()?);
                }
            }
        }
        Some(s)
    }
}

/// Run one child to its end. `None` when it crashed or printed something
/// unreadable: a failed iteration, not a dead benchmark.
pub fn spawn(seed: u64, workload: &str, arm: &str, traced: bool, wheel_len: u64) -> Option<Sample> {
    let exe = std::env::current_exe().ok()?;
    let output = Command::new(exe)
        .args(["--child", workload, "--arm", arm])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--wheel-len", &wheel_len.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    if !output.status.success() {
        eprintln!("child {workload}/{arm} ended with {}", output.status);
        return None;
    }
    Sample::parse(&String::from_utf8_lossy(&output.stdout))
}
