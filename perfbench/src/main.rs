//! End-to-end benchmark of the 2PCP workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--git-rev <rev>]
//! ```
//!
//! Every workload has a decomposition stage (input file →
//! `TwoPcp::decompose_source` → `Model::from_outcome(..).save`) and a
//! serving stage (an in-process `tpcp_serve::Server` over a seeded
//! [4000, 3000, 2000] rank-32 model, driven by two `tpcp_serve::Client`
//! connections), so every run reports every end-to-end metric; the
//! workload decides what is decomposed and how the run's seconds are
//! split between the stages.
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports per-layer metrics, timed from outside the
//! library by wrappers and direct calls. Outputs are verified in every
//! run. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod decompose;
mod hist;
mod report;
mod serve;
mod trace;
mod workloads;

use decompose::Paths;
use report::{median, quote, Metrics, Tally};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tpcp_serve::Opcode;
use twopcp::{Model, TwoPcpConfig};
use workloads::Workload;

/// Least number of set-ups per run; the median is reported.
const SETUP_REPS: usize = 3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    git_rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut git_rev = "absent".to_string();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workloads::find(&value).ok_or_else(|| {
                    let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    bad(&format!("expected one of {names:?}"))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad("expected a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--git-rev" => git_rev = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        git_rev,
    })
}

/// `TPCP_*` variables change what a workload measures, so none may be set.
fn refuse_overrides() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("TPCP_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {set:?} set: unset them"))
    }
}

/// The configuration every result is measured under.
fn environment(args: &Args, cfg: &TwoPcpConfig, rss_note: &Option<String>) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let fields = [
        ("workload", quote(args.workload.name)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("nproc", nproc.to_string()),
        ("threads", cfg.par.threads().to_string()),
        ("kernel", quote(cfg.kernel.resolved().label())),
        (
            "prefetch_depth",
            if cfg.prefetch.enabled {
                cfg.prefetch.depth
            } else {
                0
            }
            .to_string(),
        ),
        ("mmap", cfg.mmap.to_string()),
        ("shards", cfg.shards.to_string()),
        ("dimtree", cfg.dimtree.to_string()),
        ("compress", cfg.compress.is_some().to_string()),
        (
            "profile",
            quote(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("git_rev", quote(&args.git_rev)),
        ("peak_rss_reset", quote(rss_note.as_deref().unwrap_or("ok"))),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    format!("{{\"env\": {{{}}}}}", body.join(", "))
}

/// Set-up: writes the decomposition inputs, builds and saves the served
/// model and starts (then stops) a server over it. Repeated at least
/// [`SETUP_REPS`] times (once per input, or more); returns the median
/// time and the served model.
fn set_up(w: &Workload, paths: &Paths, seed: u64) -> Result<(f64, Model), String> {
    let reps = SETUP_REPS.max(w.decomp.inputs);
    let mut samples = Vec::with_capacity(reps);
    let mut served = None;
    for rep in 0..reps {
        let t = Instant::now();
        decompose::set_up(&w.decomp, paths, seed, rep % w.decomp.inputs)?;
        served = Some(serve::build_model(seed, &paths.served)?);
        serve::stop(serve::start(&paths.served)?)?;
        samples.push(t.elapsed().as_secs_f64());
    }
    Ok((median(&samples), served.expect("set up at least once")))
}

fn main() -> ExitCode {
    let args = match parse_args().and_then(|a| refuse_overrides().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload.name, std::process::id()));
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    if let Some(parent) = work.parent() {
        // Only succeeds once no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, work: &Path) -> Result<(), String> {
    let w = args.workload;
    let paths = Paths::new(work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let cfg = w.decomp.config(&paths.store);

    let (setup_s, served) = set_up(w, &paths, args.seed)?;
    let rss_note = report::reset_peak_rss();
    let steal_start = report::host_steal_s();
    println!("{}", environment(args, &cfg, &rss_note));

    let total = Duration::from_secs_f64(args.seconds);
    let serve_budget = total.mul_f64(w.serve_share);
    let decomp_budget = total - serve_budget;
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();

    if args.trace {
        traced_decomposition(args, &cfg, &paths, decomp_budget, &mut tally, &mut metrics)?;
    } else {
        let stage = decompose::run_stage(&w.decomp, &cfg, &paths, decomp_budget, &mut tally);
        metrics.put("setup_s", setup_s, "s");
        metrics.put("decompose_s", stage.median_s(), "s");
        metrics.put("fit", stage.fit, "1");
        println!("decompose_s samples: {:?}", stage.decompose_s);
    }

    let decomp_peak = report::peak_rss_mb();
    report::reset_peak_rss();
    let server = serve::start(&paths.served)?;
    let addr = server.local_addr().to_string();
    let serving = serve::run_stage(&addr, &served, &paths.served, serve_budget);
    serve::stop(server)?;

    if args.trace {
        serving_layer_metrics(&serving, &mut metrics);
    } else {
        match decomp_peak.and_then(|d| report::peak_rss_mb().map(|s| d.max(s))) {
            Ok(mb) => metrics.put("peak_rss_mb", mb, "MB"),
            Err(e) => metrics.missing("peak_rss_mb", e),
        }
        metrics.put("query_p50_us", serving.interactive_quantile_us(0.5), "us");
        let (interactive, batches) = serving.sample_counts();
        println!(
            "interactive samples: {interactive} (p99 {:.1} us), batch samples: {batches} \
             (p50 {:.3} ms), {:.0} queries/s",
            serving.interactive_quantile_us(0.99),
            serving.batch_p50_ms(),
            serving.qps()
        );
    }
    tally.merge(serving.tally);
    if !args.trace {
        metrics.put("success_frac", tally.success_frac(), "1");
    }

    if let (Some(a), Some(b)) = (steal_start, report::host_steal_s()) {
        println!("host steal during the run: {:.2} s of CPU time", b - a);
    }
    for note in &tally.notes {
        println!("failure: {note}");
    }
    for (name, reason) in metrics.missing_reasons() {
        println!("missing {name}: {reason}");
    }
    println!("{}", report::result_line(&tally, &metrics));
    Ok(())
}

fn serving_layer_metrics(r: &serve::ServeResult, m: &mut Metrics) {
    let Some(stats) = &r.stats else {
        for name in [
            "serve.cache_hit_rate",
            "serve.entry_p50_us",
            "serve.top_k_p50_us",
            "serve.batch_p50_us",
            "serve.transport_us",
        ] {
            m.missing(name, "STATS failed");
        }
        return;
    };
    let lookups = stats.cache_hits + stats.cache_misses;
    m.put(
        "serve.cache_hit_rate",
        stats.cache_hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    let entry = serve::server_quantile_us(stats, Opcode::GetEntry, 0.5);
    m.put("serve.entry_p50_us", entry, "us");
    m.put(
        "serve.top_k_p50_us",
        serve::server_quantile_us(stats, Opcode::TopK, 0.5),
        "us",
    );
    m.put(
        "serve.batch_p50_us",
        serve::server_quantile_us(stats, Opcode::Batch, 0.5),
        "us",
    );
    m.put("serve.transport_us", r.entry_us.quantile(0.5) - entry, "us");
    m.put("serve.query_p99_us", r.interactive_quantile_us(0.99), "us");
    m.put("serve.query_qps", r.qps(), "1/s");
    m.put("serve.batch_p50_ms", r.batch_p50_ms(), "ms");
    m.put("serve.busy_refusals", r.busy_refusals as f64, "count");
    m.put("registry.reload_ms", median(&r.reload_ms), "ms");
}

/// Alternates untraced and traced decompositions until `budget` is
/// spent, checks each traced result bitwise against the untraced one,
/// then adds the single-layer probes.
fn traced_decomposition(
    args: &Args,
    cfg: &TwoPcpConfig,
    paths: &Paths,
    budget: Duration,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    let decomp = &args.workload.decomp;
    let start = Instant::now();
    let mut untraced_s = Vec::new();
    let mut layers = Vec::new();
    let mut first_fit = None;
    let mut reference = None;
    while layers.is_empty() || start.elapsed() < budget {
        tally.attempted += 1;
        let (plain, model, took) = decompose::run_once(decomp, cfg, paths, 0)?;
        untraced_s.push(took.as_secs_f64());
        decompose::verify(
            decomp,
            &model,
            plain.fit,
            &mut first_fit,
            &paths.model_file(),
            tally,
        );
        tally.attempted += 1;
        let (traced, _, run) = trace::run_traced(decomp, cfg, paths)?;
        tally.check(trace::bitwise_equal(&traced, &plain).map_err(|e| format!("traced run: {e}")));
        layers.push(run);
        reference = Some(plain);
    }
    let outcome = reference.expect("at least one decomposition");
    let model_bytes = std::fs::metadata(paths.model_file()).map_or(0, |md| md.len());
    let phase1_self = trace::decomposition_metrics(m, &outcome, &layers, &untraced_s, model_bytes);

    match trace::replay_block_als(decomp, cfg, paths, &outcome) {
        Ok((secs, iters)) => {
            tally.check(Ok(()));
            m.put("cp.block_als_s", secs, "s");
            m.put("cp.block_als_iters", iters as f64, "count");
            m.put(
                "par.phase1_efficiency",
                secs / (cfg.par.threads() as f64 * phase1_self),
                "ratio",
            );
        }
        Err(e) => {
            for name in [
                "cp.block_als_s",
                "cp.block_als_iters",
                "par.phase1_efficiency",
            ] {
                m.missing(name, format!("serial replay does not match phase 1: {e}"));
            }
        }
    }
    let (gflops, speedup) = trace::mttkrp_probe(decomp, cfg, args.seed);
    m.put("linalg.mttkrp_gflops", gflops, "GFLOP/s");
    m.put("par.mttkrp_speedup", speedup, "ratio");

    let (naive_s, naive_fit) = trace::naive_reference(decomp, cfg, paths, args.seed)?;
    m.put("naive.decompose_s", naive_s, "s");
    m.put("naive.fit", naive_fit, "1");
    m.put("naive.speedup", naive_s / median(&untraced_s), "ratio");
    Ok(())
}
