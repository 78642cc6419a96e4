//! Overlap-engine equivalence: the SpGEMM `A·Aᵀ` engine must produce the
//! pairs engine's exact alignments — across seed modes, world sizes,
//! transports, round caps, thread counts, and block sizes — while
//! strictly cutting the overlap stage's wire bytes on seed-rich
//! workloads by consolidating shared-seed records at the source.

use dibella::datagen::ecoli_30x_sample_like;
use dibella::prelude::*;

/// Overlapping error-free reads off one deterministic genome (the
/// stage_threads dataset shape): adjacent reads share 140 bases, so most
/// pairs carry many shared k-mers — the regime where source-side dedup
/// pays.
fn dense_reads() -> ReadSet {
    let mut state = 0x0D1B_E11A_5EEDu64 | 1;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let genome: Vec<u8> = (0..(24 * 60 + 200)).map(|_| b"ACGT"[(rnd() % 4) as usize]).collect();
    (0..24u32)
        .map(|i| Read::new(i, format!("r{i}"), genome[i as usize * 60..][..200].to_vec()))
        .collect()
}

fn cfg(
    engine: OverlapEngine,
    seed_mode: SeedMode,
    threads: usize,
    transport: TransportKind,
    cap: usize,
) -> PipelineConfig {
    PipelineConfig {
        k: 11,
        seed_policy: SeedPolicy::MinDistance(11),
        max_seeds_per_pair: 32,
        max_multiplicity: Some(24),
        seed_mode,
        minimizer_w: 5,
        overlap_engine: engine,
        threads: Some(threads),
        transport,
        max_exchange_bytes_per_round: cap,
        ..Default::default()
    }
}

/// Per-rank engine-invariant overlap counters (everything logical; the
/// physical `rounds` and the wire-record counters legitimately differ).
fn logical_counters(res: &dibella::pipeline::PipelineResult) -> Vec<[u64; 7]> {
    res.reports
        .iter()
        .map(|r| {
            let c = r.overlap;
            [
                c.retained_kmers,
                c.pairs_emitted,
                c.tasks_received,
                c.pairs_consolidated,
                c.seeds_kept,
                c.seeds_dropped,
                c.pairs_chain_dropped,
            ]
        })
        .collect()
}

/// The tentpole sweep: both engines, both seed modes, worlds {1, 2, 4},
/// transports {shared, sim:cori:2}, round caps {unbounded, 4 KiB} — the
/// final alignments and every logical overlap counter are bit-identical,
/// and the exchange accounting (alltoallv calls == executed rounds, peak
/// round ≤ cap + one record) holds for the SpGEMM record stream too.
#[test]
fn spgemm_matches_pairs_across_the_sweep() {
    let reads = dense_reads();
    for seed_mode in [SeedMode::Reliable, SeedMode::Minimizer] {
        for p in [1usize, 2, 4] {
            for transport in
                [TransportKind::SharedMem, "sim:cori:2".parse().expect("transport spec")]
            {
                for cap in [usize::MAX, 4096] {
                    let at = format!("mode={seed_mode} p={p} transport={transport} cap={cap}");
                    let pairs_res = run_pipeline(
                        &reads,
                        p,
                        &cfg(OverlapEngine::Pairs, seed_mode, 1, transport, cap),
                    );
                    let spgemm_res = run_pipeline(
                        &reads,
                        p,
                        &cfg(OverlapEngine::Spgemm, seed_mode, 1, transport, cap),
                    );
                    assert!(!pairs_res.alignments.is_empty(), "dead workload at {at}");
                    assert_eq!(
                        pairs_res.alignments, spgemm_res.alignments,
                        "alignments diverge at {at}"
                    );
                    assert_eq!(
                        logical_counters(&pairs_res),
                        logical_counters(&spgemm_res),
                        "logical counters diverge at {at}"
                    );
                    for r in &spgemm_res.reports {
                        let traffic = &r.stages[Stage::Overlap].comm;
                        assert_eq!(
                            traffic.alltoallv_calls, r.overlap.rounds,
                            "rounds accounting at {at}"
                        );
                        let c = r.overlap;
                        assert_eq!(
                            c.pairs_deduped_at_source,
                            c.pairs_emitted - c.candidate_pairs_emitted,
                            "dedup bookkeeping at {at}"
                        );
                        if cap != usize::MAX {
                            // Records never split: one consolidated pair
                            // record of slack at most (this workload's
                            // records stay well under 2 KiB).
                            assert!(
                                traffic.peak_round_bytes <= cap as u64 + 2048,
                                "peak {} over cap at {at}",
                                traffic.peak_round_bytes
                            );
                        }
                    }
                    for r in &pairs_res.reports {
                        // The pairs engine ships one record per seed.
                        assert_eq!(r.overlap.candidate_pairs_emitted, r.overlap.pairs_emitted);
                        assert_eq!(r.overlap.pairs_deduped_at_source, 0);
                    }
                }
            }
        }
    }
}

/// SpGEMM-specific determinism: thread counts and row-block sizes never
/// change alignments or any overlap counter (including the wire-record
/// counters — the record stream itself is invariant).
#[test]
fn spgemm_bit_identical_across_threads_and_blocks() {
    let reads = dense_reads();
    let base = cfg(
        OverlapEngine::Spgemm,
        SeedMode::Reliable,
        1,
        TransportKind::SharedMem,
        usize::MAX,
    );
    let baseline = run_pipeline(&reads, 4, &base);
    assert!(!baseline.alignments.is_empty());
    for threads in [1usize, 4] {
        for block in [1usize, 3, 1024] {
            let run = run_pipeline(
                &reads,
                4,
                &PipelineConfig { threads: Some(threads), spgemm_block: block, ..base.clone() },
            );
            let at = format!("threads={threads} block={block}");
            assert_eq!(run.alignments, baseline.alignments, "alignments diverge at {at}");
            for (a, b) in run.reports.iter().zip(&baseline.reports) {
                assert_eq!(a.overlap, b.overlap, "rank {} counters at {at}", a.rank);
            }
        }
    }
}

/// The perf claim, asserted: on the committed sample workload the SpGEMM
/// engine ships strictly fewer overlap-stage bytes than the pairs engine
/// (identical alignments), with a source dedup factor > 1.
#[test]
fn spgemm_cuts_overlap_bytes_on_the_sample_workload() {
    let ds = ecoli_30x_sample_like(0.01, 42);
    let sample = |engine| PipelineConfig {
        k: 17,
        depth: 30.0,
        error_rate: 0.15,
        seed_policy: SeedPolicy::Single,
        max_seeds_per_pair: 4,
        overlap_engine: engine,
        ..Default::default()
    };
    let pairs_res = run_pipeline(&ds.reads, 4, &sample(OverlapEngine::Pairs));
    let spgemm_res = run_pipeline(&ds.reads, 4, &sample(OverlapEngine::Spgemm));
    assert_eq!(pairs_res.alignments, spgemm_res.alignments);

    let overlap_bytes = |res: &dibella::pipeline::PipelineResult| -> u64 {
        res.reports.iter().map(|r| r.stages[Stage::Overlap].comm.total_bytes()).sum()
    };
    let (pb, sb) = (overlap_bytes(&pairs_res), overlap_bytes(&spgemm_res));
    let emitted: u64 = spgemm_res.reports.iter().map(|r| r.overlap.pairs_emitted).sum();
    let records: u64 =
        spgemm_res.reports.iter().map(|r| r.overlap.candidate_pairs_emitted).sum();
    let dup_factor = emitted as f64 / records as f64;
    eprintln!(
        "overlap bytes: pairs {pb}, spgemm {sb} ({:.2}x); seed dup factor {dup_factor:.2}",
        pb as f64 / sb as f64
    );
    assert!(sb < pb, "spgemm must ship strictly fewer overlap bytes ({sb} vs {pb})");
    assert!(dup_factor > 1.0, "expected source dedup on the sample workload");
}
