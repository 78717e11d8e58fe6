//! End-to-end benchmark of the incsim serving stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml --bin e2ebench -- \
//!     --workload citation-growth --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each invocation runs one workload (`citation-growth`, `churn-durable`
//! or `probe-scale`) in this process as a closed loop driven by one
//! client thread, checks the answers against references, and prints one
//! JSON object as its last stdout line. `--trace 0` reports the gated
//! end-to-end metrics; `--trace 1` first runs the same workload and seed
//! untraced in a child process, then again with spans, and reports the
//! per-layer metrics, the layer shares and the tracing overhead. See
//! `e2ebench/README.md` for the workloads and what each metric targets.

mod checks;
mod churn;
mod citation;
mod probe_scale;
mod record;

use checks::{Margins, Tally};
use record::{Phase, Recorder};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Gated end-to-end metrics, reported by every workload with tracing off:
/// the ones two sets of runs of the same code on the shared host keep
/// within their bounds (see the README's steadiness section).
pub const E2E: &[(&str, &str)] = &[("setup_s", "s"), ("peak_rss_mb", "MB")];

/// End-to-end metrics that are reported but not gated: rates and
/// latencies that the host's speed states move by more than any bound
/// allows, and metrics only some workloads have. Untraced runs print them
/// as detail lines; traced runs carry them as `e2e.<name>`, 0 where the
/// workload has no such operation (or too few samples for a tail).
pub const E2E_EXTRA: &[(&str, &str)] = &[
    ("ingest_ops_per_s", "1/s"),
    ("fresh_p50_ms", "ms"),
    ("fresh_p90_ms", "ms"),
    ("pair_p50_us", "us"),
    ("topk_p50_ms", "ms"),
    ("topk_p90_ms", "ms"),
    ("pair_at_p50_ms", "ms"),
    ("pair_at_p90_ms", "ms"),
    ("recover_s", "s"),
    ("disk_mb", "MB"),
    ("error_rate", "fraction"),
];

/// Per-layer metrics a workload measures itself (0 = the layer is not on
/// that workload's path).
pub const LAYERS: &[(&str, &str)] = &[
    ("core.batch_s", "s"),
    ("core.affected_pairs", "pairs"),
    ("core.pruned_fraction", "fraction"),
    ("core.gamma_density", "fraction"),
    ("core.walks_sampled", "count"),
    ("core.probe_expansions", "count"),
    ("api.eager_updates", "count"),
    ("api.fused_updates", "count"),
    ("api.lazy_updates", "count"),
    ("api.recompressions", "count"),
    ("api.rank_cap_flushes", "count"),
    ("serve.build_s", "s"),
    ("serve.update_ms.p50", "ms"),
    ("serve.update_ms.p90", "ms"),
    ("serve.publish_ms.p50", "ms"),
    ("serve.publish_ms.p90", "ms"),
    ("serve.publish_wait_ms", "ms"),
    ("serve.pair_us", "us"),
    ("serve.topk_ms.p50", "ms"),
    ("serve.pair_at_ms.p50", "ms"),
    ("serve.epoch_reconstructions", "count"),
    ("serve.epoch_evictions", "count"),
    ("serve.ring_bytes", "bytes"),
    ("serve.rehydrate_s", "s"),
    ("wal.checkpoint_update_ms", "ms"),
    ("wal.appends", "count"),
    ("wal.checkpoints", "count"),
    ("wal.op_bytes", "bytes"),
    ("wal.checkpoint_bytes", "bytes"),
    ("wal.epoch_bytes", "bytes"),
    ("wal.read_log_s", "s"),
    ("wal.rebuild_s", "s"),
    ("wal.replayed_ops", "count"),
    ("count.ops", "count"),
    ("count.update_calls", "count"),
    ("count.publishes", "count"),
    ("count.pair_reads", "count"),
    ("count.topk_reads", "count"),
    ("count.pair_at_reads", "count"),
];

/// Ingest-phase self-time shares, by the call spans they sum.
const SHARES: &[(&str, &[&str])] = &[
    ("share.update", &["update", "update_batch"]),
    ("share.publish", &["publish"]),
    ("share.pair", &["pair_block"]),
    ("share.topk", &["top_k_block", "top_k"]),
    ("share.pair_at", &["pair_at_block"]),
];

/// Every per-layer metric name with its unit, in output order.
pub fn layer_table() -> Vec<(String, &'static str)> {
    let mut t: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    t.extend(SHARES.iter().map(|&(n, _)| (n.to_string(), "fraction")));
    t.push(("trace.coverage".to_string(), "fraction"));
    t.extend(
        E2E.iter()
            .chain(E2E_EXTRA)
            .map(|&(n, u)| (format!("trace.overhead.{n}"), u)),
    );
    t.extend(E2E_EXTRA.iter().map(|&(n, u)| (format!("e2e.{n}"), u)));
    t
}

/// What one workload run measured: every metric it has, by name, plus
/// the operations it attempted and failed and how close its answers came
/// to each check's tolerance.
#[derive(Debug, Default)]
pub struct Outcome {
    pub values: BTreeMap<&'static str, f64>,
    pub tally: Tally,
    pub margins: Margins,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// Workload sizes: the benchmark's own, or toy sizes for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Toy,
}

/// Where a run keeps its scratch files (the durable workload's logs).
/// Removed when the run ends, however it ends.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create(root: &Path) -> Result<Self, String> {
        let dir = root.join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `workload` once in this process.
pub fn run_workload(
    workload: &str,
    seed: u64,
    scale: Scale,
    perturb: bool,
    rec: &mut Recorder,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let work = WorkDir::create(out_dir)?;
    let mut outcome = match workload {
        "citation-growth" => citation::run(&citation::Size::new(scale), seed, perturb, rec)?,
        "churn-durable" => churn::run(&churn::Size::new(scale), seed, perturb, rec, work.path())?,
        "probe-scale" => probe_scale::run(&probe_scale::Size::new(scale), seed, perturb, rec)?,
        other => return Err(format!("unknown workload `{other}`")),
    };
    let t = outcome.tally;
    outcome.set(
        "error_rate",
        if t.attempted == 0 {
            1.0
        } else {
            t.failed as f64 / t.attempted as f64
        },
    );
    Ok(outcome)
}

/// The per-layer metrics of a traced run, given the untraced twin's
/// end-to-end values for the overhead and the workload-specific extras.
pub fn layer_metrics(
    traced: &Outcome,
    rec: &Recorder,
    untraced: &BTreeMap<String, f64>,
) -> Vec<(String, f64, &'static str)> {
    let ingest = rec.phase_secs(Phase::Ingest);
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for &(name, _) in LAYERS {
        values.insert(name.to_string(), traced.get(name));
    }
    for &(name, spans) in SHARES {
        let share = if ingest > 0.0 {
            rec.self_secs(Phase::Ingest, spans) / ingest
        } else {
            0.0
        };
        values.insert(name.to_string(), share);
    }
    values.insert("trace.coverage".to_string(), rec.coverage(Phase::Ingest));
    for &(name, _) in E2E.iter().chain(E2E_EXTRA) {
        let base = untraced.get(name).copied().unwrap_or(0.0);
        values.insert(format!("trace.overhead.{name}"), traced.get(name) - base);
    }
    for &(name, _) in E2E_EXTRA {
        let v = untraced.get(name).copied().unwrap_or(0.0);
        values.insert(format!("e2e.{name}"), v);
    }
    layer_table()
        .into_iter()
        .map(|(name, unit)| {
            let v = values.get(&name).copied().unwrap_or(0.0);
            (name, v, unit)
        })
        .collect()
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(tally: Tally, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", finite(*v)))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// JSON has no NaN or infinity; a non-finite value reads as 0, and so
/// does the -0 an empty float sum yields.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v + 0.0
    } else {
        0.0
    }
}

/// The command line. `--seconds` is required and checked, but sets no
/// deadline: every workload runs fixed work, so that two builds time the
/// same operations (see the README).
struct Args {
    workload: String,
    seed: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    seconds.ok_or("--seconds is required")?;
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        trace,
    })
}

/// Runs the untraced twin of a traced run in its own process and reads
/// back its end-to-end values and its tally.
fn untraced_twin(argv: &[String]) -> Result<(BTreeMap<String, f64>, Tally), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut args: Vec<String> = argv.to_vec();
    if let Some(i) = args.iter().position(|a| a == "--trace") {
        args[i + 1] = "0".to_string();
    }
    let out = Command::new(exe)
        .args(&args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("untraced run: {e}"))?;
    if !out.status.success() {
        return Err(format!("untraced run failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut values = BTreeMap::new();
    let mut tally = None;
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["e2e", name, value, _unit] => {
                let v = value.parse::<f64>().map_err(|e| format!("{line}: {e}"))?;
                values.insert((*name).to_string(), v);
            }
            ["tally", a, fl] => {
                let a = a.parse().map_err(|e| format!("{line}: {e}"))?;
                let fl = fl.parse().map_err(|e| format!("{line}: {e}"))?;
                tally = Some(Tally {
                    attempted: a,
                    failed: fl,
                });
            }
            _ => {}
        }
    }
    Ok((values, tally.ok_or("untraced run printed no tally")?))
}

fn run(argv: &[String]) -> Result<String, String> {
    let args = parse_args(argv)?;
    let out_dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    // A traced run's untraced twin runs first and to completion, so the
    // two never share the machine.
    let twin = if args.trace {
        Some(untraced_twin(argv)?)
    } else {
        None
    };
    let mut rec = Recorder::new(args.trace);
    let o = run_workload(
        &args.workload,
        args.seed,
        Scale::Full,
        false,
        &mut rec,
        &out_dir,
    )?;
    let Some((untraced, mut tally)) = twin else {
        for &(name, unit) in E2E.iter().chain(E2E_EXTRA) {
            if let Some(v) = o.values.get(name) {
                println!("e2e {name} {v} {unit}");
            }
        }
        o.margins.print();
        println!("tally {} {}", o.tally.attempted, o.tally.failed);
        let metrics: Vec<(String, f64, &str)> = E2E
            .iter()
            .map(|&(n, u)| (n.to_string(), o.get(n), u))
            .collect();
        return Ok(result_json(o.tally, &metrics));
    };
    let trace_path = out_dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    std::fs::write(&trace_path, rec.spans_json(&args.workload, args.seed))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let metrics = layer_metrics(&o, &rec, &untraced);
    for (name, v, unit) in &metrics {
        println!("layer {name} {} {unit}", finite(*v));
    }
    println!("spans written to {}", trace_path.display());
    tally.merge(o.tally);
    Ok(result_json(tally, &metrics))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: e2ebench --workload <citation-growth|churn-durable|probe-scale> \
                 --seed <n> --seconds <s> [--trace 0|1]"
            );
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(json: &str, list: &str) -> Vec<String> {
        // The BENCHMARK.json lists are flat arrays of one-line objects;
        // pull every `"name": "<x>"` out of the named list.
        let start = json
            .find(&format!("\"{list}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"));
        let rest = &json[start..];
        let end = rest.find(']').expect("list closes");
        rest[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().unwrap_or_default().to_string())
            .collect()
    }

    fn benchmark_json() -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark")
    }

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = benchmark_json();
        let e2e: Vec<String> = E2E.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        let layers: Vec<String> = layer_table().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names_in(&json, "per_layer"), layers);
        assert_eq!(
            names_in(&json, "workloads"),
            ["citation-growth", "churn-durable", "probe-scale"]
        );
        for (n, u) in layer_table()
            .iter()
            .map(|(n, u)| (n.as_str(), *u))
            .chain(E2E.iter().copied())
        {
            assert!(valid_name(n), "bad metric name {n}");
            assert!(
                u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {u}"
            );
        }
    }

    fn toy_run(workload: &str, perturb: bool, traced: bool) -> (Outcome, Recorder) {
        // Inside the checkout, like a real run, and one directory per test:
        // tests run in parallel within one process.
        let out = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("../.bench_out/test-{workload}-{perturb}-{traced}"));
        let mut rec = Recorder::new(traced);
        let o = run_workload(workload, 7, Scale::Toy, perturb, &mut rec, &out)
            .expect("toy run completes");
        let _ = std::fs::remove_dir_all(&out);
        (o, rec)
    }

    /// Every workload runs end to end at toy size, emits exactly its named
    /// metrics, and passes its own reference checks.
    #[test]
    fn every_workload_runs_end_to_end_at_toy_size() {
        for w in ["citation-growth", "churn-durable", "probe-scale"] {
            let (plain, _) = toy_run(w, false, false);
            plain.margins.print();
            assert_eq!(plain.tally.failed, 0, "{w}: {:?}", plain.tally);
            assert!(plain.tally.attempted > 0);
            let metrics: Vec<(String, f64, &str)> = E2E
                .iter()
                .map(|&(n, u)| (n.to_string(), plain.get(n), u))
                .collect();
            for (n, v, _) in &metrics {
                assert!(*v > 0.0, "{w}: end-to-end metric {n} is {v}");
            }
            let line = result_json(plain.tally, &metrics);
            assert!(line.starts_with("{\"correct\": true"), "{line}");

            let (traced, rec) = toy_run(w, false, true);
            let untraced: BTreeMap<String, f64> = plain
                .values
                .iter()
                .map(|(k, v)| ((*k).to_string(), *v))
                .collect();
            let layers = layer_metrics(&traced, &rec, &untraced);
            let names: Vec<String> = layers.iter().map(|(n, ..)| n.clone()).collect();
            let want: Vec<String> = layer_table().into_iter().map(|(n, _)| n).collect();
            assert_eq!(names, want, "{w}");
            let coverage = layers
                .iter()
                .find(|(n, ..)| n == "trace.coverage")
                .map(|(_, v, _)| *v)
                .unwrap_or_default();
            assert!(
                coverage > 0.5 && coverage <= 1.0,
                "{w}: coverage {coverage}"
            );
        }
    }

    /// Each reference check site counts one deliberately perturbed answer
    /// as one failed operation.
    #[test]
    fn every_check_site_rejects_a_perturbed_answer() {
        for (w, sites) in [
            ("citation-growth", citation::CHECK_SITES),
            ("churn-durable", churn::CHECK_SITES),
            ("probe-scale", probe_scale::CHECK_SITES),
        ] {
            let (o, _) = toy_run(w, true, false);
            assert_eq!(o.tally.failed, sites, "{w}: {:?}", o.tally);
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(
            Tally {
                attempted: 3,
                failed: 1,
            },
            &[("x_ms".to_string(), 1.5, "ms")],
        );
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \
             \"metrics\": {\"x_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn args_are_checked() {
        let ok: Vec<String> = "--workload probe-scale --seed 3 --seconds 2 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&ok).expect("valid");
        assert!(a.trace && a.seed == 3 && a.workload == "probe-scale");
        for bad in [
            "--workload x --seed 1",
            "--workload x --seed 1 --seconds 0",
            "--workload x --seed y --seconds 1",
            "--workload x --seed 1 --seconds 1 --trace 2",
        ] {
            let argv: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse_args(&argv).is_err(), "{bad}");
        }
    }
}
