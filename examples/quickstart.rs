//! Quickstart: simulate a tiny PacBio-like dataset, run the distributed
//! pipeline on 4 ranks, and print the overlaps it finds as PAF lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dibella::datagen::{simulate_reads, ErrorModel, GenomeSpec, ReadSimSpec};
use dibella::prelude::*;

fn main() {
    // 1. A 30 kb random genome with a little repeat structure, sequenced
    //    at 15x with PacBio-CLR-like 12% errors — fully deterministic.
    let genome = GenomeSpec { size: 30_000, seed: 2024, ..Default::default() }.generate();
    let ds = simulate_reads(
        &genome,
        &ReadSimSpec {
            depth: 15.0,
            mean_len: 3_000,
            min_len: 500,
            errors: ErrorModel::pacbio(0.12),
            seed: 7,
            ..Default::default()
        },
    );
    println!(
        "simulated {} reads, {:.1} Mb, mean length {:.0} bp",
        ds.reads.len(),
        ds.reads.total_bases() as f64 / 1e6,
        ds.reads.mean_length()
    );

    // 2. Configure the pipeline: BELLA-style parameter selection kicks in
    //    for the high-occurrence threshold m; k = 15 suits the short toy
    //    genome.
    let cfg = PipelineConfig {
        k: 15,
        depth: 15.0,
        error_rate: 0.12,
        seed_policy: SeedPolicy::Single,
        ..Default::default()
    };
    println!(
        "k = {}, derived high-occurrence threshold m = {}",
        cfg.k,
        cfg.multiplicity_threshold()
    );

    // 3. Run the four-stage pipeline on 4 ranks (threads standing in for
    //    MPI processes — same collectives, same data movement).
    let result = run_pipeline(&ds.reads, 4, &cfg);
    println!(
        "found {} overlapping pairs, computed {} alignments",
        result.n_pairs(),
        result.n_alignments_computed()
    );

    // 4. Evaluate against the simulator's ground truth.
    let truth = ds.true_overlaps(1_000);
    let found: std::collections::HashSet<(u32, u32)> =
        result.alignments.iter().map(|a| (a.pair.a, a.pair.b)).collect();
    let recalled = truth.iter().filter(|p| found.contains(p)).count();
    println!(
        "recall on ≥1 kb true overlaps: {recalled}/{} = {:.1}%",
        truth.len(),
        100.0 * recalled as f64 / truth.len().max(1) as f64
    );

    // 5. Print the ten best alignments as PAF-like lines.
    let mut best: Vec<&AlignmentRecord> = result.alignments.iter().collect();
    best.sort_by_key(|r| -r.score);
    println!("\ntop alignments (PAF-like):");
    let names = |id: ReadId| format!("read{id}");
    let lens = |id: ReadId| ds.reads.reads()[id as usize].len() as u32;
    for rec in best.into_iter().take(10) {
        println!("{}", rec.to_paf(&names, &lens));
    }

    // 6. Per-stage timing summary from rank 0's report.
    let r0 = &result.reports[0];
    println!("\nrank 0 stage walls:");
    let work = [
        format!("{} k-mers owned", r0.bloom.kmers_received),
        format!("{} retained k-mers", r0.filter.retained),
        format!("{} pairs emitted", r0.overlap.pairs_emitted),
        format!("{} alignments, {} DP cells", r0.align.alignments, r0.align.dp_cells),
    ];
    for (stage, work) in Stage::ALL.into_iter().zip(work) {
        println!("  {:<12} {:>9.2?} ({work})", stage.name(), r0.stages[stage].wall);
    }
}
