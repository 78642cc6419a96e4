//! The paper's E. coli 30× workload (scaled): full pipeline run with the
//! three seed policies of §5, reporting per-stage time, exchange volume,
//! recall against ground truth, and the reliable-k-mer statistics of §2.
//!
//! ```sh
//! cargo run --release --example ecoli_pipeline           # default 1% scale
//! DIBELLA_SCALE=0.05 cargo run --release --example ecoli_pipeline
//! # hybrid-parallel: 8 ranks × 4 threads per rank, all four stages
//! DIBELLA_THREADS=4 cargo run --release --example ecoli_pipeline
//! # run "on" a virtual AWS cluster (modeled exchange times, same results)
//! DIBELLA_TRANSPORT=sim:aws:16 cargo run --release --example ecoli_pipeline
//! # stream every stage's exchange in 1 MiB rounds (same results, bounded memory)
//! DIBELLA_ROUND_MB=1 cargo run --release --example ecoli_pipeline
//! ```
//!
//! Every pipeline knob of the environment applies (see
//! `dibella_core::KNOBS`); `DIBELLA_SCALE` and `DIBELLA_RANKS` (default 8)
//! belong to this example.

use dibella::datagen::ecoli_30x_like;
use dibella::prelude::*;

/// A numeric setting of this example: `default` when unset; a value that
/// is not a positive number ends the run with an `error:` line.
fn setting<T: std::str::FromStr + PartialOrd + Default>(var: &str, default: T) -> T {
    let Ok(v) = std::env::var(var) else { return default };
    v.trim().parse().ok().filter(|x| *x > T::default()).unwrap_or_else(|| {
        eprintln!("error: {var} {v:?}: expected a positive number");
        std::process::exit(1)
    })
}

fn main() {
    let scale: f64 = setting("DIBELLA_SCALE", 0.01);
    let ranks: usize = setting("DIBELLA_RANKS", 8);
    let base = PipelineConfig {
        k: 17,
        depth: 30.0,
        error_rate: 0.15,
        max_seeds_per_pair: 8,
        ..Default::default()
    };
    let base = PipelineConfig::resolve(base, &Default::default(), |var| std::env::var(var).ok())
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1)
        });
    let (threads, transport) = (base.effective_threads(), base.transport);

    println!("== E. coli 30x-like workload at scale {scale} ==");
    println!("{ranks} ranks x {threads} thread(s) per rank, transport {transport}");
    let ds = ecoli_30x_like(scale, 42);
    println!(
        "genome {:.0} kb | {} reads | {:.1} Mb | depth {:.1}x | mean read {:.0} bp",
        ds.genome.len() as f64 / 1e3,
        ds.reads.len(),
        ds.reads.total_bases() as f64 / 1e6,
        ds.realized_depth(),
        ds.mean_read_len()
    );
    let truth = ds.true_overlaps(2_000);
    println!("ground truth: {} overlapping pairs (≥ 2 kb)", truth.len());

    for (name, policy) in SeedPolicy::paper_settings(17) {
        let cfg = PipelineConfig { seed_policy: policy, ..base.clone() };
        let t = std::time::Instant::now();
        let result = run_pipeline(&ds.reads, ranks, &cfg);
        let wall = t.elapsed();

        let found: std::collections::HashSet<(u32, u32)> =
            result.alignments.iter().map(|a| (a.pair.a, a.pair.b)).collect();
        let recalled = truth.iter().filter(|p| found.contains(p)).count();

        // Aggregate statistics across ranks.
        let retained: u64 = result.reports.iter().map(|r| r.filter.retained).sum();
        let singles: u64 = result.reports.iter().map(|r| r.filter.singletons_removed).sum();
        let highf: u64 = result.reports.iter().map(|r| r.filter.high_freq_removed).sum();
        let kmers: u64 = result.reports.iter().map(|r| r.bloom.kmers_received).sum();
        let bytes: u64 = result
            .reports
            .iter()
            .map(|r| r.total_comm().total_bytes())
            .sum();
        let iota = retained as f64 / (retained + singles + highf).max(1) as f64;

        println!("\n-- seed policy: {name} ({ranks} ranks) --");
        println!(
            "  wall {:.2?} | pairs {} | alignments {} | recall(≥2kb) {:.1}%",
            wall,
            result.n_pairs(),
            result.n_alignments_computed(),
            100.0 * recalled as f64 / truth.len().max(1) as f64
        );
        println!(
            "  k-mer bag {kmers} | retained {retained} (ι_set = {iota:.3}) | singletons {singles} | >m {highf}"
        );
        println!("  exchanged {:.2} MB total", bytes as f64 / 1e6);
        let slowest = result.wall();
        println!("  slowest rank wall {slowest:.2?}");
        if transport != TransportKind::SharedMem {
            let exch = result.reports.iter().map(|r| r.total_exchange()).max().unwrap();
            println!("  modeled exchange ({transport}): slowest rank {exch:.3?}");
        }
    }
}
